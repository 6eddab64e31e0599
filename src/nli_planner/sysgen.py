"""Randomized C-band WDM system generation.

Reproduces the five test-set categories: randomized formats, symbol rates,
slot sizes (plus a 10% ultra-dense population), roll-offs, fiber draws, span
lengths and noise figures.  Everything is driven by a seeded generator so a
seed fully determines a system.

:func:`draw_system` makes an attempt's random draws, comb then spans, as
plain values (a :class:`RawSystem`), on which the low-dispersion screen
is read; only :meth:`RawSystem.build` makes and validates the
:class:`LinkSpec`'s columns, so a draw that screens attempts out builds
nothing for them.  :func:`generate_system` is draw, then build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assets
from .cfm import MIN_ABS_BETA2, effective_beta2_xci
from .types import (FORMAT_CODE, CombArrays, LinkSpec, ModulationFormat,
                    SpanArrays)

SYMBOL_RATES_TBAUD = (0.032, 0.064, 0.096, 0.128)
SLOT_THZ = {0.032: 0.0435, 0.064: 0.0875, 0.096: 0.13125, 0.128: 0.175}

QAM_HIGH = (ModulationFormat.PM_16QAM, ModulationFormat.PM_32QAM,
            ModulationFormat.PM_64QAM, ModulationFormat.PM_128QAM,
            ModulationFormat.PM_256QAM)
QAM_EXTENDED = (ModulationFormat.PM_QPSK, ModulationFormat.PM_8QAM) + QAM_HIGH

CUT_POSITIONS = ("lowest", "center", "highest")
NF_MODES = ("fixed_6dB", "uniform_5_6dB", "mixed")

LOW_DISPERSION_FLAG = "low-dispersion-cut"

# Center of every drawn band, THz.
BAND_CENTER_THZ = 193.8

# Launch PSD (W/THz) of every drawn channel, before power planning.
BASELINE_PSD_W_PER_THZ = 0.02


@dataclass(frozen=True)
class GeneratorConfig:
    category: int = 1
    cut_position: str = "center"
    band_width: float = 5.0  # THz
    seed: int = 0
    nf_mode: str = "mixed"
    n_spans: int = 20
    ultra_dense_fraction: float = 0.1
    # Ultra-dense separation semantics: "gap" reads the drawn 5-20 GHz value
    # as the space between adjacent raised-cosine nulls, "center_spacing" as
    # the distance between channel centers.
    dense_separation: str = "gap"

    def __post_init__(self) -> None:
        if self.category not in (1, 2, 3, 4, 5):
            raise ValueError("category must be 1..5")
        if self.cut_position not in CUT_POSITIONS:
            raise ValueError(f"cut_position must be one of {CUT_POSITIONS}")
        if self.nf_mode not in NF_MODES:
            raise ValueError(f"nf_mode must be one of {NF_MODES}")
        if self.n_spans < 1:
            raise ValueError("n_spans must be >= 1")
        if not 0.0 < self.band_width < float("inf"):
            raise ValueError("band_width must be finite and > 0")
        # Checked before any draw: the comb is drawn channel by channel.
        if self.band_width >= 2.0 * BAND_CENTER_THZ:
            raise ValueError(f"band_width must be < {2.0 * BAND_CENTER_THZ} "
                             "THz, as a channel frequency must be > 0")


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


def _draw_comb(cfg: GeneratorConfig, rng: np.random.Generator
               ) -> tuple[list[list], int]:
    """The comb's draws as each channel's frequency, rate, roll-off,
    format and activity, and the CUT index."""
    left = BAND_CENTER_THZ - cfg.band_width / 2.0
    right = BAND_CENTER_THZ + cfg.band_width / 2.0
    ultra_dense = rng.random() < cfg.ultra_dense_fraction

    rows: list[list] = []
    cursor = left  # next free frequency (slot start or previous upper null)
    while True:
        rate = SYMBOL_RATES_TBAUD[rng.integers(len(SYMBOL_RATES_TBAUD))]
        roll = rng.uniform(0.05, 0.25)
        fmt = _draw_format(cfg.category, rng)
        occ = (1.0 + roll) * rate
        if ultra_dense:
            sep = rng.uniform(0.005, 0.020)
            if rows:
                if cfg.dense_separation == "gap":
                    center = cursor + sep + occ / 2.0
                else:
                    center = rows[-1][0] + sep
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
        rows.append([center, rate, roll, fmt, True])
    if not rows:
        raise ValueError("band too narrow for a single channel")

    cut_index = {"lowest": 0, "center": len(rows) // 2,
                 "highest": len(rows) - 1}[cfg.cut_position]

    if cfg.category == 5:
        forced = (ModulationFormat.PM_QPSK, ModulationFormat.PM_8QAM)
        rows[cut_index][3] = forced[rng.integers(2)]

    if cfg.category in (2, 4):
        for i, row in enumerate(rows):
            if i != cut_index and rng.random() < 0.5:
                row[4] = False

    return rows, cut_index


def _draw_spans(cfg: GeneratorConfig, rng: np.random.Generator
                ) -> list[tuple]:
    """The spans' draws as each span's fiber, length and noise figure."""
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
        spans.append((fiber, length, nf))
    return spans


@dataclass(frozen=True)
class RawSystem:
    """One attempt's draws as plain values: each channel's frequency,
    rate, roll-off, format and activity, the CUT index, and each span's
    fiber, length and noise figure."""

    channels: list[list]
    cut_index: int
    spans: list[tuple]

    @property
    def low_dispersion(self) -> bool:
        """The CUT's effective |beta2| is below the bound on some span."""
        f = self.channels[self.cut_index][0]
        return min(abs(effective_beta2_xci(span[0], f, f))
                   for span in self.spans) < MIN_ABS_BETA2

    def build(self) -> LinkSpec:
        """The validated link of these draws, unflagged, every channel
        launched at the baseline PSD into every span."""
        fibers, length, nf = zip(*self.spans)
        f, rate, roll, fmt, active = zip(*self.channels)
        rate = np.array(rate)
        launch = np.repeat([BASELINE_PSD_W_PER_THZ * rate], len(length), 0)
        link = LinkSpec(
            comb=CombArrays.columns(f, rate, roll,
                                    [FORMAT_CODE[x] for x in fmt], active,
                                    launch),
            span_arrays=SpanArrays.columns(fibers, length,
                                           [None] * len(length), nf),
            cut_index=self.cut_index)
        link.validate()
        return link


def draw_system(cfg: GeneratorConfig, rng: np.random.Generator) -> RawSystem:
    """Make a system's random draws, comb then spans, without building it."""
    channels, cut_index = _draw_comb(cfg, rng)
    return RawSystem(channels, cut_index, _draw_spans(cfg, rng))


def generate_system(cfg: GeneratorConfig,
                    rng: np.random.Generator) -> LinkSpec:
    """Compose a comb and a link; every span carries the one comb.  A
    system whose CUT is screened low-dispersion is flagged."""
    draw = draw_system(cfg, rng)
    link = draw.build()
    if draw.low_dispersion:
        link = link.with_flags(LOW_DISPERSION_FLAG)
    return link


def generate_system_from_seed(cfg: GeneratorConfig) -> LinkSpec:
    return generate_system(cfg, np.random.default_rng(cfg.seed))
