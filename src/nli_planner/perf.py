"""SNR, ASE, sensitivity thresholds and maximum reach.  :func:`link_report`
is the one place where received power, ASE and NLI power make an SNR."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import assets
from .cfm import _check_n_end, kernel_rows, propagate, rx_nli_psds
from .types import LinkSpec, LinkStack, ModelVariant, ModulationFormat

# Only for bench/tracing.py's LAYERS to patch here; nothing here calls them.
from .cfm import rx_nli_psd, rx_nli_psd_all_channels

_THZ = 1e12  # THz and TBaud to SI

# The Planck constant (J s), exact in the SI since 2019.
PLANCK_J_S = 6.62607015e-34


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


def span_ase_psds(stack: LinkStack, f_thz) -> np.ndarray:
    """ASE PSD (W/THz) each span's amplifier adds at f (THz), ``[span,
    link]``: NF * h * f * (gain - 1), nothing for gains below 1.
    ``f_thz`` holds one frequency per link, or broadcasts against them."""
    # A frequency or gain far out of range overflows to inf: a non-finite
    # result the callers report, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return (stack.noise_figure.T * PLANCK_J_S
                * (np.asarray(f_thz) * _THZ)
                * np.maximum(stack.gain.T - 1.0, 0.0) * _THZ)


def rx_ase_psd(stack: LinkStack, f_thz) -> np.ndarray:
    """Receiver ASE PSD (W/THz) at f after 1, 2, ..., n_spans spans, as
    ``[n_end - 1, link]`` (see :func:`span_ase_psds`)."""
    return propagate(stack.transfer.T, span_ase_psds(stack, f_thz))


def ase_power(link: LinkSpec, n_end: int) -> float:
    """Dual-polarization ASE power (W) in the CUT's matched-filter bandwidth,
    every amplifier's noise propagated through the remaining spans."""
    _check_n_end(link, n_end)
    c = link.cut_index
    return (float(rx_ase_psd(link.stack, link.comb.f[c])[n_end - 1, 0])
            * float(link.comb.rate[c]))


@dataclass(frozen=True)
class LinkReport:
    """Receiver metrics as ``[n_end - 1, row]`` arrays (one truncation's
    ``[row]`` from :func:`evaluate_all_channels`), a row being a channel
    taken as CUT; NaN in inactive rows, except the ASE."""

    snr_db: np.ndarray
    p_nli_w: np.ndarray
    p_ase_w: np.ndarray
    p_rx_w: np.ndarray


def link_report(link: LinkSpec | LinkStack, rx_nli_psd: np.ndarray
                ) -> LinkReport:
    """Received power, ASE, NLI power and SNR of every truncation, from
    the receiver NLI PSD (W/THz) of ``cfm.rx_nli_psds`` or a quadrature:
    ``[n_end - 1, row]``, rows every channel of a link or each link's CUT
    of a stack (``cfm.kernel_rows``; ``link.stack`` for a link's CUT)."""
    stack, lk, ch = kernel_rows(link)
    rate, f = stack.rate[lk, ch], stack.f[lk, ch]
    p_launch = np.where(stack.active[lk, ch], stack.power[lk, :, ch].T,
                        math.nan)
    p_rx = p_launch * stack.transfer.T
    p_ase = rx_ase_psd(stack, f) * rate
    p_nli = rx_nli_psd * rate
    with np.errstate(invalid="ignore"):
        snr_db = 10.0 * np.log10(p_rx / (p_ase + p_nli))
    return LinkReport(snr_db=snr_db, p_nli_w=p_nli, p_ase_w=p_ase,
                      p_rx_w=p_rx)


def _cut_report(link: LinkSpec, variant: ModelVariant) -> LinkReport:
    """The CUT's report: one column, from the link's stack of one."""
    return link_report(link.stack, rx_nli_psds(link.stack, variant))


def snr(link: LinkSpec, variant: ModelVariant, n_end: int) -> float:
    """Received SNR (dB) of the CUT, inclusive of ASE and NLI noise."""
    _check_n_end(link, n_end)
    return float(_cut_report(link, variant).snr_db[n_end - 1, 0])


def snr_report(link: LinkSpec, variant: ModelVariant) -> SnrReport:
    """CUT SNR, ASE and NLI power after 1, 2, ..., n_spans spans."""
    report = _cut_report(link, variant)
    return SnrReport(per_span_snr_db=tuple(report.snr_db[:, 0].tolist()),
                     p_ase_w=tuple(report.p_ase_w[:, 0].tolist()),
                     p_nli_w=tuple(report.p_nli_w[:, 0].tolist()),
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


def evaluate_all_channels(link: LinkSpec, variant: ModelVariant,
                          n_end: int | None = None) -> LinkReport:
    """SNR of every channel taken as CUT after ``n_end`` spans (default all
    of them), as ``[channel]`` arrays; NaN entries are inactive."""
    i = _check_n_end(link, n_end) - 1
    r = link_report(link, rx_nli_psds(link, variant))
    return LinkReport(snr_db=r.snr_db[i], p_nli_w=r.p_nli_w[i],
                      p_ase_w=r.p_ase_w[i], p_rx_w=r.p_rx_w[i])
