"""SNR, ASE, sensitivity thresholds and maximum reach."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.constants import h as PLANCK_J_S

from . import assets
from .cfm import (propagate, rx_nli_psd, rx_nli_psd_all_channels,
                  rx_nli_psd_truncations, span_transfer)
from .types import LinkSpec, ModelVariant, ModulationFormat, SpanConfig

_THZ = 1e12  # THz and TBaud to SI


class UnreachableError(RuntimeError):
    """The CUT misses its sensitivity threshold even at one span."""


@dataclass(frozen=True)
class SensitivityPolicy:
    """SNR thresholds per QAM format plus the Gaussian MI target interval."""

    qam_thresholds_db: dict[ModulationFormat, float]
    gaussian_mi_range: tuple[float, float]

    @classmethod
    def default(cls) -> "SensitivityPolicy":
        return cls(qam_thresholds_db=assets.qam_thresholds_db(),
                   gaussian_mi_range=assets.gaussian_mi_range())

    def threshold_db(self, fmt: ModulationFormat, rng=None) -> float:
        """Threshold for a format; Gaussian CUTs draw a random MI target."""
        if fmt is ModulationFormat.PM_GAUSSIAN:
            if rng is None:
                raise ValueError("Gaussian sensitivity needs an RNG")
            lo, hi = self.gaussian_mi_range
            return shannon_sensitivity(rng.uniform(lo, hi),
                                       mi_range=self.gaussian_mi_range)
        try:
            return self.qam_thresholds_db[fmt]
        except KeyError:
            raise ValueError(f"no sensitivity threshold for {fmt.value}")


@dataclass(frozen=True)
class SnrReport:
    per_span_snr_db: tuple[float, ...]
    p_ase_w: tuple[float, ...]
    p_nli_w: tuple[float, ...]
    variant: ModelVariant


@dataclass(frozen=True)
class ReachResult:
    max_reach_spans: int
    threshold_db: float
    snr_at_reach_db: float


def span_ase_psd(span: SpanConfig, f_thz):
    """ASE PSD (W/THz) the span's amplifier adds at f (THz; arrays
    broadcast): NF * h * f * (gain - 1), nothing for gains below 1."""
    gain = span.gain_lin(f_thz)
    nf_lin = 10.0 ** (span.noise_figure_db / 10.0)
    return nf_lin * PLANCK_J_S * (f_thz * _THZ) * max(gain - 1.0, 0.0) * _THZ


def rx_ase_psd(link: LinkSpec, f_thz) -> np.ndarray:
    """Receiver ASE PSD (W/THz) at f after 1, 2, ..., n_spans spans."""
    return propagate(span_transfer(link),
                     [span_ase_psd(s, f_thz) for s in link.spans])


def ase_power(link: LinkSpec, n_end: int, f_thz: float | None = None,
              r_tbaud: float | None = None) -> float:
    """Dual-polarization ASE power (W) in the matched-filter bandwidth,
    every amplifier's noise propagated through the remaining spans."""
    if n_end < 1:
        raise ValueError("n_end must be >= 1")
    cut = link.cut
    f = cut.f_center if f_thz is None else f_thz
    r = cut.symbol_rate if r_tbaud is None else r_tbaud
    return float(rx_ase_psd(link, f)[n_end - 1]) * r


def nli_power_cfm(psd_w_per_thz, r_cut_tbaud):
    """Flat-PSD approximation of the matched-filter NLI power."""
    return psd_w_per_thz * r_cut_tbaud


def snr_from_powers(p_rx, p_ase, p_nli):
    """SNR (dB) of a received power against ASE plus NLI noise power;
    element-wise, NaN where an input is NaN."""
    with np.errstate(invalid="ignore"):
        return 10.0 * np.log10(p_rx / (p_ase + p_nli))


def cut_rx_power(link: LinkSpec, n_end: int) -> float:
    """CUT power (W) at the receiver after the last span's loss and gain."""
    span = link.spans[n_end - 1]
    cut = link.cut
    return (cut.power_w_per_span[n_end - 1] * span.span_loss_lin
            * span.gain_lin(cut.f_center))


def snr(link: LinkSpec, variant: ModelVariant, n_end: int) -> float:
    """Received SNR (dB) of the CUT, inclusive of ASE and NLI noise."""
    p_nli = nli_power_cfm(rx_nli_psd(link, variant, n_end),
                          link.cut.symbol_rate)
    return float(snr_from_powers(cut_rx_power(link, n_end),
                                 ase_power(link, n_end), p_nli))


def snr_report(link: LinkSpec, variant: ModelVariant) -> SnrReport:
    """CUT SNR, ASE and NLI power after 1, 2, ..., n_spans spans."""
    cut = link.cut
    p_nli = nli_power_cfm(rx_nli_psd_truncations(link, variant),
                          cut.symbol_rate)
    p_ase = rx_ase_psd(link, cut.f_center) * cut.symbol_rate
    p_rx = np.array([cut_rx_power(link, n)
                     for n in range(1, link.n_spans + 1)])
    return SnrReport(
        per_span_snr_db=tuple(snr_from_powers(p_rx, p_ase, p_nli).tolist()),
        p_ase_w=tuple(p_ase.tolist()), p_nli_w=tuple(p_nli.tolist()),
        variant=variant)


def shannon_sensitivity(mi_target: float,
                        mi_range: tuple[float, float] | None = None) -> float:
    """SNR (dB) at which a dual-polarization Gaussian channel attains the MI.

    MI = 2 log2(1 + SNR), so SNR = 2^(MI/2) - 1.
    """
    lo, hi = mi_range if mi_range is not None else assets.gaussian_mi_range()
    if not lo <= mi_target <= hi:
        raise ValueError(f"MI target {mi_target} outside [{lo}, {hi}]")
    return 10.0 * math.log10(2.0 ** (mi_target / 2.0) - 1.0)


def max_reach_scan(snr_fn: Callable[[int], float], n_spans: int,
                   threshold_db: float) -> ReachResult:
    """Largest span count whose SNR meets the threshold (full linear scan)."""
    best = None
    for n_end in range(1, n_spans + 1):
        value = snr_fn(n_end)
        if value >= threshold_db:
            best = (n_end, value)
    if best is None:
        raise UnreachableError(
            f"SNR below {threshold_db:.2f} dB already at one span")
    return ReachResult(max_reach_spans=best[0], threshold_db=threshold_db,
                       snr_at_reach_db=best[1])


def max_reach(link: LinkSpec, variant: ModelVariant,
              threshold_db: float) -> ReachResult:
    snrs = snr_report(link, variant).per_span_snr_db
    return max_reach_scan(lambda n: snrs[n - 1], link.n_spans, threshold_db)


@dataclass(frozen=True)
class ChannelEvaluation:
    """Per-channel receiver metrics with each channel treated as CUT."""

    snr_db: np.ndarray
    p_nli_w: np.ndarray
    p_ase_w: np.ndarray
    p_rx_w: np.ndarray


def evaluate_all_channels(link: LinkSpec, variant: ModelVariant,
                          n_end: int | None = None) -> ChannelEvaluation:
    """Vectorized SNR of every active channel (NaN entries are inactive)."""
    if n_end is None:
        n_end = link.n_spans
    chans = link.channels
    rate = np.array([c.symbol_rate for c in chans])
    f = np.array([c.f_center for c in chans])
    p_nli = nli_power_cfm(rx_nli_psd_all_channels(link, variant, n_end),
                          rate)
    p_ase = rx_ase_psd(link, f)[n_end - 1] * rate
    last = link.spans[n_end - 1]
    p_launch = np.array([c.power_w_per_span[n_end - 1] if c.active else np.nan
                         for c in chans])
    p_rx = p_launch * last.span_loss_lin * last.gain_lin(0.0)
    return ChannelEvaluation(snr_db=snr_from_powers(p_rx, p_ase, p_nli),
                             p_nli_w=p_nli, p_ase_w=p_ase, p_rx_w=p_rx)
