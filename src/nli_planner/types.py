"""Domain types for WDM links: fibers, spans, channels and model variants.

Units are fixed project-wide: frequencies in THz, symbol rates in TBaud,
powers in W, PSDs in W/THz, lengths in km, dispersion in ps^2/km and
ps^3/km, nonlinearity in 1/(W km).  With ps*THz = 1 these combine without
any internal re-normalization.

A :class:`LinkSpec` carries its channels and spans as arrays, built on first
read (``link.comb``, ``link.span_arrays``), that state only its own fields.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

LN10_OVER_10 = math.log(10.0) / 10.0


class ModulationFormat(enum.Enum):
    PM_BPSK = "PM-BPSK"
    PM_QPSK = "PM-QPSK"
    PM_8QAM = "PM-8QAM"
    PM_16QAM = "PM-16QAM"
    PM_32QAM = "PM-32QAM"
    PM_64QAM = "PM-64QAM"
    PM_128QAM = "PM-128QAM"
    PM_256QAM = "PM-256QAM"
    PM_GAUSSIAN = "PM-Gaussian"


# Second-moment excess-kurtosis constant of each constellation, used by the
# format-dependent correction factors, as exact rationals.
PHI_EXACT: dict[ModulationFormat, Fraction] = {
    ModulationFormat.PM_BPSK: Fraction(1),
    ModulationFormat.PM_QPSK: Fraction(1),
    ModulationFormat.PM_8QAM: Fraction(2, 3),
    ModulationFormat.PM_16QAM: Fraction(17, 25),
    ModulationFormat.PM_32QAM: Fraction(69, 100),
    ModulationFormat.PM_64QAM: Fraction(13, 21),
    ModulationFormat.PM_128QAM: Fraction(1105, 1681),
    ModulationFormat.PM_256QAM: Fraction(257, 425),
    ModulationFormat.PM_GAUSSIAN: Fraction(0),
}


_PHI_FLOAT = {fmt: float(phi) for fmt, phi in PHI_EXACT.items()}


def phi_of_format(fmt: ModulationFormat) -> float:
    """Format constant Phi (0 for Gaussian, 1 for BPSK/QPSK), the float
    nearest the exact rational."""
    return _PHI_FLOAT[fmt]


class ValidationError(ValueError):
    """Raised when a domain object violates its invariants."""


def _check_finite(what: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"{what} must be finite numbers")


@dataclass(frozen=True)
class FiberParams:
    """Per-span fiber parameters.

    ``beta2``/``beta3`` are measured at ``f_ref``; loss is flat in frequency
    for the shipped presets.
    """

    alpha_db_per_km: float
    beta2: float  # ps^2/km at f_ref
    beta3: float  # ps^3/km
    gamma: float  # 1/(W km)
    f_ref: float  # THz
    name: str = ""

    def __post_init__(self) -> None:
        _check_finite("fiber parameters", self.alpha_db_per_km, self.beta2,
                      self.beta3, self.gamma, self.f_ref)
        if self.alpha_db_per_km <= 0:
            raise ValidationError("fiber attenuation must be > 0 dB/km")
        if self.gamma <= 0:
            raise ValidationError("fiber gamma must be > 0")
        if self.f_ref <= 0:
            raise ValidationError("fiber reference frequency must be > 0")

    @property
    def two_alpha(self) -> float:
        """Power-loss coefficient 2*alpha (1/km): exp(-2 alpha L) per span."""
        return self.alpha_db_per_km * LN10_OVER_10


@dataclass(frozen=True)
class SpanConfig:
    """One fiber span plus its end-of-span lumped gain element.

    ``gain_db`` is the flat lumped power gain at the end of the span; ``None``
    means transparent (gain exactly offsets the span fiber loss).  The shipped
    presets have flat loss, so a scalar covers the whole C-band window.
    """

    fiber: FiberParams
    length_km: float
    gain_db: float | None = None
    noise_figure_db: float = 6.0

    def __post_init__(self) -> None:
        _check_finite("span length, gain and noise figure", self.length_km,
                      0.0 if self.gain_db is None else self.gain_db,
                      self.noise_figure_db)
        if self.length_km <= 0:
            raise ValidationError("span length must be > 0 km")

    @property
    def gain_lin(self) -> float:
        """Lumped power gain (flat in frequency)."""
        if self.gain_db is None:
            return 10.0 ** (self.fiber.alpha_db_per_km * self.length_km / 10.0)
        return 10.0 ** (self.gain_db / 10.0)

    @property
    def span_loss_lin(self) -> float:
        """Fiber power transmission exp(-2 alpha L) of this span."""
        return math.exp(-self.fiber.two_alpha * self.length_km)


@dataclass(frozen=True)
class ChannelSpec:
    """One WDM channel with its per-span launch powers."""

    f_center: float  # THz
    symbol_rate: float  # TBaud
    roll_off: float
    format: ModulationFormat
    power_w_per_span: tuple[float, ...]
    active: bool = True

    def __post_init__(self) -> None:
        _check_finite("channel frequency, rate, roll-off and powers",
                      self.f_center, self.symbol_rate, self.roll_off,
                      *self.power_w_per_span)
        if self.f_center <= 0:
            raise ValidationError("channel frequency must be > 0")
        if self.symbol_rate <= 0:
            raise ValidationError("symbol rate must be > 0")
        if not 0.0 <= self.roll_off <= 1.0:
            raise ValidationError("roll-off must lie in [0, 1]")
        if self.active and any(p <= 0 for p in self.power_w_per_span):
            raise ValidationError("active channel powers must be > 0")

    def psd(self, span_index: int) -> float:
        """Effective launch PSD P/R (W/THz) at the given span input."""
        if not self.active:
            raise ValidationError("effective PSD of an inactive channel")
        return self.power_w_per_span[span_index] / self.symbol_rate

    def with_powers(self, powers: Sequence[float]) -> "ChannelSpec":
        return ChannelSpec(self.f_center, self.symbol_rate, self.roll_off,
                           self.format, tuple(powers), self.active)

    @property
    def occupied_bandwidth(self) -> float:
        """Raised-cosine null-to-null width (1+r)*R in THz."""
        return (1.0 + self.roll_off) * self.symbol_rate


class _ReadOnly:
    """A view of a link whose arrays, also in tuples, are read-only."""

    def __post_init__(self) -> None:
        for value in vars(self).values():
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)


@dataclass(frozen=True, eq=False)
class CombArrays(_ReadOnly):
    """A comb as read-only arrays: ``[channel]`` parameters and activity,
    and the ``[span, channel]`` launch power, zero where inactive."""

    f: np.ndarray  # THz
    rate: np.ndarray  # TBaud
    roll: np.ndarray
    phi: np.ndarray
    power: np.ndarray  # W
    active: np.ndarray

    def with_power(self, power: np.ndarray) -> "CombArrays":
        """This comb with the ``[span, channel]`` launch powers ``power``."""
        return replace(self, power=np.where(self.active, power, 0.0))


@dataclass(frozen=True, eq=False)
class SpanArrays(_ReadOnly):
    """A link's spans as read-only ``[span]`` columns, flat in frequency.
    Span ``n`` runs on ``fibers[fiber[n]]``: the distinct fibers, by value,
    in order of first appearance, ``spans_of_fiber[k]`` on ``fibers[k]``."""

    length: np.ndarray  # km
    loss: np.ndarray  # fiber power transmission exp(-2 alpha L)
    gain: np.ndarray  # lumped power gain
    transfer: np.ndarray  # gain times loss
    gamma: np.ndarray  # 1/(W km)
    noise_figure: np.ndarray  # linear
    fiber: np.ndarray  # [span]: index into fibers
    fibers: tuple[FiberParams, ...]
    spans_of_fiber: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class LinkSpec:
    """Ordered spans with one WDM comb and a designated CUT.

    Every channel is present at the input of every span with the same
    frequency, rate, roll-off, format and activity; ``power_w_per_span[n]``
    is its launch power into span ``n``.  The channel-under-test is
    ``channels[cut_index]``.
    """

    spans: tuple[SpanConfig, ...]
    channels: tuple[ChannelSpec, ...]
    cut_index: int
    flags: tuple[str, ...] = field(default_factory=tuple)

    @property
    def n_spans(self) -> int:
        return len(self.spans)

    @property
    def cut(self) -> ChannelSpec:
        return self.channels[self.cut_index]

    @functools.cached_property
    def comb(self) -> CombArrays:
        """The channels as arrays, built on first read."""
        chans, width = self.channels, 5 + self.n_spans
        cols = np.array([(c.f_center, c.symbol_rate, c.roll_off,
                          _PHI_FLOAT[c.format], c.active) + c.power_w_per_span
                         for c in chans], float).reshape(len(chans), width)
        f, rate, roll, phi, active = cols[:, :5].T.copy()
        active = active.astype(bool)
        return CombArrays(f=f, rate=rate, roll=roll, phi=phi, active=active,
                          power=np.where(active, cols[:, 5:].T, 0.0))

    @functools.cached_property
    def span_arrays(self) -> SpanArrays:
        """The spans as arrays, built on first read."""
        index: dict[FiberParams, int] = {}
        fiber = np.array([index.setdefault(s.fiber, len(index))
                          for s in self.spans], dtype=np.intp)
        length, loss, gain, gamma, nf = np.array(
            [(s.length_km, s.span_loss_lin, s.gain_lin, s.fiber.gamma,
              10.0 ** (s.noise_figure_db / 10.0)) for s in self.spans], float
        ).reshape(-1, 5).T.copy()
        return SpanArrays(
            length=length, loss=loss, gain=gain, transfer=gain * loss,
            gamma=gamma, noise_figure=nf, fiber=fiber, fibers=tuple(index),
            spans_of_fiber=tuple(np.flatnonzero(fiber == k)
                                 for k in range(len(index))))

    def validate(self) -> None:
        if not self.spans:
            raise ValidationError("link must contain at least one span")
        if not 0 <= self.cut_index < len(self.channels):
            raise ValidationError("cut_index out of range")
        if not self.cut.active:
            raise ValidationError("CUT inactive")
        if any(len(c.power_w_per_span) != self.n_spans
               for c in self.channels):
            raise ValidationError(
                "every channel needs one launch power per span")

    def with_flags(self, *extra: str) -> "LinkSpec":
        return replace(self, flags=self.flags + tuple(extra))


class CfmKind(enum.Enum):
    CFM1 = "cfm1"
    CFM2 = "cfm2"
    CFM3 = "cfm3"
    CFM4 = "cfm4"

    @property
    def coherent_sci(self) -> bool:
        """CFM3/CFM4 use the coherent self-interference accumulation term."""
        return self in (CfmKind.CFM3, CfmKind.CFM4)

    @property
    def n_coefficients(self) -> int:
        return {CfmKind.CFM1: 0, CfmKind.CFM2: 18,
                CfmKind.CFM3: 18, CfmKind.CFM4: 24}[self]


@dataclass(frozen=True)
class ModelCoefficients:
    """Free parameters a1..a18 (CFM2/3) or a1..a24 (CFM4)."""

    a: tuple[float, ...]

    def __getitem__(self, one_based: int) -> float:
        return self.a[one_based - 1]

    def __len__(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class ModelVariant:
    """A CFM flavor plus its coefficient set (absent for CFM1)."""

    kind: CfmKind
    coefficients: ModelCoefficients | None = None

    def __post_init__(self) -> None:
        if self.kind is CfmKind.CFM1:
            if self.coefficients is not None:
                raise ValidationError("CFM1 takes no coefficients")
        else:
            if self.coefficients is None:
                raise ValidationError(f"{self.kind.value} requires coefficients")
            if len(self.coefficients) != self.kind.n_coefficients:
                raise ValidationError(
                    f"{self.kind.value} expects {self.kind.n_coefficients} "
                    f"coefficients, got {len(self.coefficients)}")
