"""Shared fixtures and factories for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from nli_planner import sysgen
from nli_planner.poweropt import optimize_powers
from nli_planner.sysgen import GeneratorConfig, generate_system
from nli_planner.types import (ChannelSpec, FiberParams, LinkSpec,
                               ModulationFormat, SpanConfig)


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
    perm = np.random.default_rng(seed).permutation(len(link.channels))
    return replace(link, channels=tuple(link.channels[i] for i in perm),
                   cut_index=int(np.argmax(perm == link.cut_index))), perm


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
    return LinkSpec(spans=spans, channels=(ch,), cut_index=0)


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
    return LinkSpec(spans=spans, channels=channels, cut_index=cut_index)


@pytest.fixture
def small_system() -> LinkSpec:
    return make_system(20)
