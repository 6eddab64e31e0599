"""Randomized C-band WDM system generation.

Reproduces the five test-set categories: randomized formats, symbol rates,
slot sizes (plus a 10% ultra-dense population), roll-offs, fiber draws, span
lengths and noise figures.  Everything is driven by a seeded generator so a
seed fully determines a system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import assets
from .cfm import MIN_ABS_BETA2, cut_min_abs_beta2
from .types import ChannelSpec, LinkSpec, ModulationFormat, SpanConfig

SYMBOL_RATES_TBAUD = (0.032, 0.064, 0.096, 0.128)
SLOT_THZ = {0.032: 0.0435, 0.064: 0.0875, 0.096: 0.13125, 0.128: 0.175}

QAM_HIGH = (ModulationFormat.PM_16QAM, ModulationFormat.PM_32QAM,
            ModulationFormat.PM_64QAM, ModulationFormat.PM_128QAM,
            ModulationFormat.PM_256QAM)
QAM_EXTENDED = (ModulationFormat.PM_QPSK, ModulationFormat.PM_8QAM) + QAM_HIGH

CUT_POSITIONS = ("lowest", "center", "highest")
NF_MODES = ("fixed_6dB", "uniform_5_6dB", "mixed")

LOW_DISPERSION_FLAG = "low-dispersion-cut"


@dataclass(frozen=True)
class GeneratorConfig:
    category: int = 1
    cut_position: str = "center"
    band_center: float = 193.8  # THz
    band_width: float = 5.0  # THz
    seed: int = 0
    nf_mode: str = "mixed"
    n_spans: int = 20
    ultra_dense_fraction: float = 0.1
    # Ultra-dense separation semantics: "gap" reads the drawn 5-20 GHz value
    # as the space between adjacent raised-cosine nulls, "center_spacing" as
    # the distance between channel centers.
    dense_separation: str = "gap"
    baseline_psd_w_per_thz: float = 0.02

    def __post_init__(self) -> None:
        if self.category not in (1, 2, 3, 4, 5):
            raise ValueError("category must be 1..5")
        if self.cut_position not in CUT_POSITIONS:
            raise ValueError(f"cut_position must be one of {CUT_POSITIONS}")
        if self.nf_mode not in NF_MODES:
            raise ValueError(f"nf_mode must be one of {NF_MODES}")
        if self.n_spans < 1:
            raise ValueError("n_spans must be >= 1")


def _draw_format(category: int, rng: np.random.Generator) -> ModulationFormat:
    if category in (1, 2):
        return QAM_HIGH[rng.integers(len(QAM_HIGH))]
    if category in (3, 4):
        if rng.random() < 0.5:
            return ModulationFormat.PM_GAUSSIAN
        return QAM_HIGH[rng.integers(len(QAM_HIGH))]
    # category 5: extended QAM alphabet plus Gaussian
    if rng.random() < 0.5:
        return ModulationFormat.PM_GAUSSIAN
    return QAM_EXTENDED[rng.integers(len(QAM_EXTENDED))]


def generate_comb(cfg: GeneratorConfig, rng: np.random.Generator
                  ) -> tuple[list[ChannelSpec], int]:
    """Fill the band with randomized channels and pick the CUT index.

    Powers start at the uniform baseline PSD and are overwritten by the
    launch-power pipeline.
    """
    left = cfg.band_center - cfg.band_width / 2.0
    right = cfg.band_center + cfg.band_width / 2.0
    ultra_dense = rng.random() < cfg.ultra_dense_fraction

    channels: list[ChannelSpec] = []
    cursor = left  # next free frequency (slot start or previous upper null)
    while True:
        rate = SYMBOL_RATES_TBAUD[rng.integers(len(SYMBOL_RATES_TBAUD))]
        roll = rng.uniform(0.05, 0.25)
        fmt = _draw_format(cfg.category, rng)
        occ = (1.0 + roll) * rate
        if ultra_dense:
            sep = rng.uniform(0.005, 0.020)
            if channels:
                if cfg.dense_separation == "gap":
                    center = cursor + sep + occ / 2.0
                else:
                    center = channels[-1].f_center + sep
            else:
                center = cursor + occ / 2.0
            upper = center + occ / 2.0
            if upper > right:
                break
            cursor = upper
        else:
            slot = SLOT_THZ[rate]
            if cursor + slot > right:
                break
            center = cursor + slot / 2.0
            cursor += slot
        power = tuple([cfg.baseline_psd_w_per_thz * rate] * cfg.n_spans)
        channels.append(ChannelSpec(f_center=center, symbol_rate=rate,
                                    roll_off=roll, format=fmt,
                                    power_w_per_span=power, active=True))
    if not channels:
        raise RuntimeError("band too narrow for a single channel")

    cut_index = {"lowest": 0, "center": len(channels) // 2,
                 "highest": len(channels) - 1}[cfg.cut_position]

    if cfg.category == 5:
        forced = (ModulationFormat.PM_QPSK, ModulationFormat.PM_8QAM)
        channels[cut_index] = replace(channels[cut_index],
                                      format=forced[rng.integers(2)])

    if cfg.category in (2, 4):
        for i, ch in enumerate(channels):
            if i == cut_index:
                continue
            if rng.random() < 0.5:
                channels[i] = replace(ch, active=False)

    return channels, cut_index


def generate_link(cfg: GeneratorConfig,
                  rng: np.random.Generator) -> list[SpanConfig]:
    presets = list(assets.fiber_presets().values())
    if cfg.nf_mode == "mixed":
        nf_mode = "fixed_6dB" if rng.random() < 0.5 else "uniform_5_6dB"
    else:
        nf_mode = cfg.nf_mode
    spans = []
    for _ in range(cfg.n_spans):
        fiber = presets[rng.integers(len(presets))]
        length = rng.uniform(80.0, 120.0)
        nf = 6.0 if nf_mode == "fixed_6dB" else rng.uniform(5.0, 6.0)
        spans.append(SpanConfig(fiber=fiber, length_km=length, gain_db=None,
                                noise_figure_db=nf))
    return spans


def generate_system(cfg: GeneratorConfig,
                    rng: np.random.Generator) -> LinkSpec:
    """Compose a comb and a link; every span carries the one comb."""
    channels, cut_index = generate_comb(cfg, rng)
    spans = generate_link(cfg, rng)
    link = LinkSpec(spans=tuple(spans), channels=tuple(channels),
                    cut_index=cut_index)
    link.validate()
    if cut_min_abs_beta2(link) < MIN_ABS_BETA2:
        link = link.with_flags(LOW_DISPERSION_FLAG)
    return link


def generate_system_from_seed(cfg: GeneratorConfig) -> LinkSpec:
    return generate_system(cfg, np.random.default_rng(cfg.seed))
