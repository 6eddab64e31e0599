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

The draw code reads its Generator through three calls.  For a PCG64
generator they are decoded from one ``random_raw`` block per attempt (a
:class:`_RawStream`), after which the generator is put where the calls
themselves would have left it; the decoder is checked against the
Generator once per process, on first use, and where the check fails the
draw code reads the Generator itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import assets
from .cfm import MIN_ABS_BETA2, effective_beta2_xci
from .types import (FORMAT_CODE, CombArrays, LinkSpec, ModulationFormat,
                    SpanArrays, check_integers)

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
        check_integers(self, "category", "seed", "n_spans")
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
        """The CUT's effective |beta2| is below the bound on some span,
        read once per distinct fiber object (the spans share presets)."""
        f = self.channels[self.cut_index][0]
        fibers = {id(span[0]): span[0] for span in self.spans}.values()
        return min(abs(effective_beta2_xci(fiber, f, f))
                   for fiber in fibers) < MIN_ABS_BETA2

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


# 64-bit raw draws read for an attempt: a first block per THz of band and
# per span, then blocks of _RAW_EXTENSION while the draw needs more.
_RAW_PER_THZ = 40
_RAW_PER_SPAN = 3
_RAW_EXTENSION = 64
_TWO_TO_MINUS_53 = 2.0 ** -53


class _RawStream:
    """The Generator calls the draw code makes, ``integers(n)`` for
    1 <= n < 2**32, ``uniform(a, b)`` and ``random()``, decoded from blocks
    of the Generator's PCG64 ``random_raw`` draws as NumPy makes them: a
    double from each 64-bit draw, an integer from 32-bit halves (the low
    half first, the high one carried to the next call) by Lemire's
    multiply-shift with rejection, and ``integers(1)`` from no draw.
    :meth:`hand_off` then leaves the bit generator where those calls
    would have."""

    __slots__ = ("_bits", "_block", "_next", "_has_half", "_half")

    def __init__(self, bits: np.random.PCG64, size: int):
        state = bits.state
        self._bits = bits
        self._has_half = state["has_uint32"]
        self._half = state["uinteger"]
        self._read(size)

    def _read(self, size: int) -> None:
        self._block = iter(self._bits.random_raw(size).tolist())
        self._next = self._block.__next__

    def _more(self) -> int:
        """The next draw once the block is read, from a new block."""
        self._read(_RAW_EXTENSION)
        return self._next()

    def _next32(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        try:
            x = self._next()
        except StopIteration:
            x = self._more()
        self._has_half = 1
        self._half = x >> 32
        return x & 0xFFFFFFFF

    def random(self) -> float:
        try:
            x = self._next()
        except StopIteration:
            x = self._more()
        return (x >> 11) * _TWO_TO_MINUS_53

    def uniform(self, low: float, high: float) -> float:
        try:
            x = self._next()
        except StopIteration:
            x = self._more()
        return low + (high - low) * ((x >> 11) * _TWO_TO_MINUS_53)

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        m = self._next32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * n
        return m >> 32

    def hand_off(self) -> None:
        """Put the bit generator after the draws decoded so far, with
        their carried half: a move back over the block's unread draws
        (``advance`` wraps a negative step), then the carry."""
        bits = self._bits
        bits.advance(-operator.length_hint(self._block))
        state = bits.state
        state["has_uint32"], state["uinteger"] = self._has_half, self._half
        bits.state = state


# Every kind of call the draw makes, with an integer range whose rejection
# loop runs for a quarter of its draws (3 * 2**30) and the widest one.
_CHECK_CALLS = tuple(("integers", n) for n in
                     (1, 2, 3, 4, 5, 7, 3 * 2**30, 2**32 - 1)) + (
    ("random",), ("uniform", 0.05, 0.25), ("uniform", 80.0, 120.0))

# Whether _RawStream reproduces this process's NumPy; None until checked.
_stream_matches: bool | None = None


def _stream_matches_generator() -> bool:
    """Whether mixed calls through a :class:`_RawStream`, past its first
    block, give a Generator's values over a few seeds, and whether its
    hand-off leaves the Generator's state, and what a vector ``uniform``
    and ``integers`` read next."""
    try:
        for seed in range(4):
            ref, gen = (np.random.default_rng([seed, 2**40])
                        for _ in range(2))
            stream = _RawStream(gen.bit_generator, 8)
            order = np.random.default_rng(seed).integers(
                len(_CHECK_CALLS), size=120)
            for k in order.tolist():
                name, *args = _CHECK_CALLS[k]
                if getattr(stream, name)(*args) != getattr(ref, name)(*args):
                    return False
            stream.hand_off()
            if (gen.bit_generator.state != ref.bit_generator.state
                    or gen.integers(5) != ref.integers(5)
                    or not np.array_equal(gen.uniform(0.7, 1.3, size=5),
                                          ref.uniform(0.7, 1.3, size=5))):
                return False
    except (AttributeError, KeyError, TypeError):  # another state layout
        return False
    return True


def _stream_checked() -> bool:
    """Whether raw-block decoding reproduces this NumPy's PCG64 Generator
    calls, checked once per process, on first use."""
    global _stream_matches
    if _stream_matches is None:
        _stream_matches = _stream_matches_generator()
    return _stream_matches


def _draw(cfg: GeneratorConfig, source) -> RawSystem:
    """The draws of one system from ``source``, a Generator or a
    :class:`_RawStream` of one."""
    channels, cut_index = _draw_comb(cfg, source)
    return RawSystem(channels, cut_index, _draw_spans(cfg, source))


def draw_system(cfg: GeneratorConfig, rng: np.random.Generator) -> RawSystem:
    """Make a system's random draws, comb then spans, without building it.

    A PCG64 generator's draws are decoded from its raw blocks and the
    generator left where its own calls would have left it, once the
    decoder has been checked against those calls in this process; any
    other generator, or a failed check, is read directly."""
    if (type(rng.bit_generator) is not np.random.PCG64
            or not _stream_checked()):
        return _draw(cfg, rng)
    stream = _RawStream(rng.bit_generator, math.ceil(
        _RAW_PER_THZ * cfg.band_width) + _RAW_PER_SPAN * cfg.n_spans)
    drawn = _draw(cfg, stream)
    stream.hand_off()
    return drawn


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
