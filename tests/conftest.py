"""Shared fixtures and factories for the test suite."""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
import pytest

from nli_planner import cfm, sysgen
from nli_planner.poweropt import optimize_powers
from nli_planner.sysgen import GeneratorConfig, generate_system
from nli_planner.types import (FORMAT_CODE, FORMATS, ChannelSpec, CombArrays,
                               FiberParams, LinkSpec, ModulationFormat,
                               SpanArrays)


@dataclass(frozen=True)
class SpanConfig:
    """One fiber span plus its end-of-span lumped gain: ``gain_db`` None
    where transparent (the gain offsets the span's fiber loss)."""

    fiber: FiberParams
    length_km: float
    gain_db: float | None = None
    noise_figure_db: float = 6.0


def link_of(spans, channels, cut_index: int,
            flags: tuple[str, ...] = ()) -> LinkSpec:
    """The link of span and channel records, made from their columns: a
    link is its columns, and the records are only what :func:`spans_of`
    and :func:`channels_of` read back from them."""
    comb = CombArrays.columns(
        [c.f_center for c in channels], [c.symbol_rate for c in channels],
        [c.roll_off for c in channels],
        [FORMAT_CODE[c.format] for c in channels],
        [c.active for c in channels],
        np.array([c.power_w_per_span for c in channels], float).T)
    span_arrays = SpanArrays.columns(
        [s.fiber for s in spans], [s.length_km for s in spans],
        [s.gain_db for s in spans], [s.noise_figure_db for s in spans])
    return LinkSpec(comb, span_arrays, cut_index, flags)


def channels_of(link: LinkSpec) -> tuple[ChannelSpec, ...]:
    """The link's channels as records of its comb columns, the inverse of
    :func:`link_of`; ``channels_of(link)[link.cut_index] == link.cut``."""
    return _channel_records(link.comb)


def spans_of(link: LinkSpec) -> tuple[SpanConfig, ...]:
    """The link's spans as records of its span columns, the inverse of
    :func:`link_of`."""
    return _span_records(link.span_arrays)


# The columns hash by identity, so a cached record tuple is that of the one
# set of read-only columns it was built from.
@functools.lru_cache(maxsize=64)
def _channel_records(c: CombArrays) -> tuple[ChannelSpec, ...]:
    return tuple(ChannelSpec(f, rate, roll, FORMATS[code], tuple(powers),
                             active)
                 for f, rate, roll, code, powers, active in zip(
                     c.f.tolist(), c.rate.tolist(), c.roll.tolist(),
                     c.fmt.tolist(), c.launch.T.tolist(),
                     c.active.tolist()))


@functools.lru_cache(maxsize=64)
def _span_records(s: SpanArrays) -> tuple[SpanConfig, ...]:
    return tuple(SpanConfig(s.fibers[k], km, None if t else g, nf)
                 for k, km, g, t, nf in zip(
                     s.fiber.tolist(), s.length.tolist(), s.gain_db.tolist(),
                     s.transparent.tolist(), s.nf_db.tolist()))


def generate_comb(cfg: GeneratorConfig, rng: np.random.Generator
                  ) -> tuple[list[ChannelSpec], int]:
    """The generator's comb draws alone, as channels launched at the
    baseline PSD, and the CUT index: the RNG calls of a system's comb."""
    rows, cut_index = sysgen._draw_comb(cfg, rng)
    return [ChannelSpec(f, rate, roll, fmt,
                        (sysgen.BASELINE_PSD_W_PER_THZ * rate,) * cfg.n_spans,
                        active)
            for f, rate, roll, fmt, active in rows], cut_index


def generate_link(cfg: GeneratorConfig,
                  rng: np.random.Generator) -> list[SpanConfig]:
    """The generator's span draws alone, as transparent spans."""
    return [SpanConfig(fiber, length, None, nf)
            for fiber, length, nf in sysgen._draw_spans(cfg, rng)]


def with_powers(ch: ChannelSpec, powers) -> ChannelSpec:
    """The channel with the per-span launch powers ``powers``."""
    return replace(ch, power_w_per_span=tuple(powers))


def occupied_bandwidth(ch: ChannelSpec) -> float:
    """Raised-cosine null-to-null width (1+r)*R of a channel, in THz."""
    return (1.0 + ch.roll_off) * ch.symbol_rate


def correction_factor(a, layout: int, feat, abs_acc) -> np.ndarray:
    """The package's correction factor of ``layout`` (``cfm.CROSS`` or
    ``cfm.SELF``) for the coefficient table ``a``, of a source's five
    features ``feat`` in slot order, at the |accumulated dispersion|
    ``abs_acc`` (ps^2): the kernel's k0 + k1 br^p."""
    c = cfm.factor_coefficients(a)[layout]
    k = cfm.source_factors(c, feat)
    return cfm.correction_factors(c, k.k0, k.k1,
                                  np.array(abs_acc, dtype=float))


def make_system(seed: int, *, category: int = 1, band_width: float = 0.6,
                n_spans: int = 4, cut_position: str = "center",
                optimize: bool = True) -> LinkSpec:
    """Small randomized system, optionally with optimized launch powers."""
    cfg = GeneratorConfig(category=category, cut_position=cut_position,
                          band_width=band_width, n_spans=n_spans, seed=seed)
    rng = np.random.default_rng(seed)
    link = generate_system(cfg, rng)
    if optimize:
        link, _ = optimize_powers(link, rng)
    return link


def permute_comb(link: LinkSpec, seed: int) -> tuple[LinkSpec, np.ndarray]:
    """The link with its channels in a random order and ``cut_index``
    pointing at the same channel, and the order: channel ``k`` of the
    permuted link is channel ``perm[k]`` of ``link``."""
    channels = channels_of(link)
    perm = np.random.default_rng(seed).permutation(len(channels))
    return link_of(spans_of(link), [channels[i] for i in perm],
                   int(np.argmax(perm == link.cut_index)), link.flags), perm


def make_single_channel_link(*, n_spans: int = 1, length_km: float = 100.0,
                             rate: float = 0.064, power_w: float = 0.002,
                             f_center: float = 193.8,
                             fmt: ModulationFormat = ModulationFormat.PM_16QAM,
                             fiber: FiberParams | None = None) -> LinkSpec:
    """Deterministic one-channel link for targeted numeric checks."""
    if fiber is None:
        fiber = FiberParams(alpha_db_per_km=0.21, beta2=-21.3, beta3=0.1452,
                            gamma=1.3, f_ref=193.8, name="SMF")
    spans = tuple(SpanConfig(fiber=fiber, length_km=length_km, gain_db=None,
                             noise_figure_db=6.0) for _ in range(n_spans))
    ch = ChannelSpec(f_center=f_center, symbol_rate=rate, roll_off=0.1,
                     format=fmt, power_w_per_span=(power_w,) * n_spans)
    return link_of(spans, (ch,), 0)


def make_zero_dispersion_link(cut_index: int,
                              inactive: tuple[int, ...] = ()) -> LinkSpec:
    """Two-span link of three channels (193.75, 193.875, 194.125 THz) whose
    channels 0 and 1 form the one pair with exactly zero effective
    dispersion: f0 + f1 = 2 f_ref in binary floating point and
    beta2(f_ref) = 0.  Every other effective |beta2| lies below the validity
    bound.  ``inactive`` lists the channels to switch off."""
    fiber = FiberParams(alpha_db_per_km=0.21, beta2=0.0, beta3=0.1452,
                        gamma=1.3, f_ref=193.8125, name="zero-at-f_ref")
    spans = tuple(SpanConfig(fiber=fiber, length_km=100.0) for _ in range(2))
    channels = tuple(ChannelSpec(f_center=f, symbol_rate=0.064, roll_off=0.1,
                                 format=ModulationFormat.PM_16QAM,
                                 power_w_per_span=(1e-3, 1e-3),
                                 active=i not in inactive)
                     for i, f in enumerate((193.75, 193.875, 194.125)))
    return link_of(spans, channels, cut_index)


@pytest.fixture
def small_system() -> LinkSpec:
    return make_system(20)
