"""Domain types for WDM links: fibers, spans, channels and model variants.

Units are fixed project-wide: frequencies in THz, symbol rates in TBaud,
powers in W, PSDs in W/THz, lengths in km, dispersion in ps^2/km and
ps^3/km, nonlinearity in 1/(W km).  With ps*THz = 1 these combine without
any internal re-normalization.

A :class:`LinkSpec` is columns: ``link.comb``, a :class:`CombArrays` of
``[channel]`` parameters and the ``[span, channel]`` launch power, and
``link.span_arrays``, a :class:`SpanArrays` of ``[span]`` lengths, gains and
noise figures with an index into the distinct fibers.  Both are read-only
and validated as whole arrays when made, and a change of powers or gains
shares every other column.  :class:`ChannelSpec` and :class:`SpanConfig`
are the same values as objects: ``LinkSpec(spans=..., channels=...)``
builds the columns from them, and ``link.channels``, ``link.spans`` and
``link.cut`` build them from the columns on read.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
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
    """Raised when a domain object violates its invariants; ``index`` is
    the offending channel or span of a link's columns, if any."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def _raise_first_fault(rules: Sequence[tuple[np.ndarray, str]]) -> None:
    """Raise for the first entry that breaks a rule, with the message of
    the first rule it breaks; a rule is the ``[entry]`` mask of the entries
    that keep it, and its message."""
    ok = functools.reduce(np.logical_and, [keep for keep, _ in rules])
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValidationError(next(msg for keep, msg in rules if not keep[i]),
                              index=i)


def _launch_rules(active: np.ndarray, launch: np.ndarray) -> list:
    """The rules of a ``[span, channel]`` launch power: finite, and
    positive where the channel is active."""
    return [(np.isfinite(launch).all(axis=0), "channel frequency, rate, "
             "roll-off and powers must be finite numbers"),
            (~active | (launch > 0.0).all(axis=0),
             "active channel powers must be > 0")]


def _check_channels(f, rate, roll, active, launch) -> None:
    """ValidationError for the first bad channel of these columns."""
    (finite, message), positive = _launch_rules(active, launch)
    _raise_first_fault([
        (finite & np.isfinite(f) & np.isfinite(rate) & np.isfinite(roll),
         message),
        (f > 0.0, "channel frequency must be > 0"),
        (rate > 0.0, "symbol rate must be > 0"),
        ((roll >= 0.0) & (roll <= 1.0), "roll-off must lie in [0, 1]"),
        positive])


def _check_spans(length, gain_db, nf_db, transparent) -> None:
    """ValidationError for the first bad span of these columns; the gain of
    a transparent span is not read."""
    _raise_first_fault([
        (np.isfinite(length) & (np.isfinite(gain_db) | transparent)
         & np.isfinite(nf_db),
         "span length, gain and noise figure must be finite numbers"),
        (length > 0.0, "span length must be > 0 km")])


def _lin(db: np.ndarray) -> np.ndarray:
    """10^(db/10) entry by entry, in Python floats; inf where that
    overflows."""
    out = []
    for x in db.tolist():
        try:
            out.append(10.0 ** (x / 10.0))
        except OverflowError:
            out.append(math.inf)
    return np.array(out, float)


def _gain_transfer(gain_db: np.ndarray,
                   loss: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The linear gains of the dB gains ``gain_db``, and the transfers, gain
    times ``loss``: NaN, without a warning, where an infinite gain meets a
    loss that underflowed to 0."""
    gain = _lin(gain_db)
    with np.errstate(invalid="ignore"):
        return gain, gain * loss


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
        if not all(map(math.isfinite, (self.alpha_db_per_km, self.beta2,
                                       self.beta3, self.gamma, self.f_ref))):
            raise ValidationError("fiber parameters must be finite numbers")
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
        gain = self.gain_db
        _check_spans(np.array([self.length_km], float),
                     np.array([0.0 if gain is None else gain], float),
                     np.array([self.noise_figure_db], float),
                     np.array([gain is None]))


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
        _check_channels(*np.array([[self.f_center], [self.symbol_rate],
                                   [self.roll_off]], float),
                        np.array([self.active], bool),
                        np.reshape(np.asarray(self.power_w_per_span, float),
                                   (-1, 1)))


# A channel's format code indexes FORMATS.
FORMATS = tuple(ModulationFormat)
FORMAT_CODE = {fmt: code for code, fmt in enumerate(FORMATS)}
_PHI_OF_CODE = np.array([_PHI_FLOAT[fmt] for fmt in FORMATS])


class _ReadOnly:
    """Columns of a link whose arrays, also in tuples, are read-only: when
    made, and when unpickled or deep-copied, which makes new arrays."""

    def __post_init__(self) -> None:
        for value in vars(self).values():
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self.__post_init__()


@dataclass(frozen=True, eq=False)
class CombArrays(_ReadOnly):
    """A link's channels as read-only columns: ``[channel]`` parameters,
    format codes (indices into :data:`FORMATS`), Phi and activity, and the
    ``[span, channel]`` launch power, as given (``launch``) and zero where
    inactive (``power``, what the kernel reads).  Made by :meth:`columns`,
    which validates them, or :meth:`of` channel objects."""

    f: np.ndarray  # THz
    rate: np.ndarray  # TBaud
    roll: np.ndarray
    fmt: np.ndarray
    active: np.ndarray
    launch: np.ndarray  # W
    phi: np.ndarray
    power: np.ndarray  # W

    @classmethod
    def columns(cls, f, rate, roll, fmt, active, launch) -> "CombArrays":
        """Validated columns; ValidationError names the first bad channel."""
        f, rate, roll, launch = (np.asarray(a, float)
                                 for a in (f, rate, roll, launch))
        fmt, active = np.asarray(fmt, np.intp), np.asarray(active, bool)
        _check_channels(f, rate, roll, active, launch)
        return cls(f=f, rate=rate, roll=roll, fmt=fmt, active=active,
                   launch=launch, phi=_PHI_OF_CODE[fmt],
                   power=np.where(active, launch, 0.0))

    @classmethod
    def of(cls, channels: Sequence[ChannelSpec],
           n_spans: int) -> "CombArrays":
        """The columns of channels with ``n_spans`` launch powers each."""
        if any(len(c.power_w_per_span) != n_spans for c in channels):
            raise ValidationError(
                "every channel needs one launch power per span")
        return cls.columns(
            [c.f_center for c in channels], [c.symbol_rate for c in channels],
            [c.roll_off for c in channels],
            [FORMAT_CODE[c.format] for c in channels],
            [c.active for c in channels],
            np.reshape([c.power_w_per_span for c in channels],
                       (len(channels), n_spans)).T)

    def with_power(self, power: np.ndarray) -> "CombArrays":
        """These channels with the ``[span, channel]`` launch powers
        ``power``, sharing the other columns."""
        power = np.asarray(power, float)
        _raise_first_fault(_launch_rules(self.active, power))
        return replace(self, launch=power,
                       power=np.where(self.active, power, 0.0))


@dataclass(frozen=True, eq=False)
class SpanArrays(_ReadOnly):
    """A link's spans as read-only ``[span]`` columns, flat in frequency.
    Span ``n`` runs on ``fibers[fiber[n]]``: the distinct fibers, by value,
    in order of first appearance, ``spans_of_fiber[k]`` on ``fibers[k]``.
    A ``transparent`` span's gain offsets its fiber loss.  Made by
    :meth:`columns`, which validates them, or :meth:`of` span objects."""

    fibers: tuple[FiberParams, ...]
    fiber: np.ndarray  # [span]: index into fibers
    length: np.ndarray  # km
    gain_db: np.ndarray
    transparent: np.ndarray
    nf_db: np.ndarray
    loss: np.ndarray  # fiber power transmission exp(-2 alpha L)
    gain: np.ndarray  # lumped power gain
    transfer: np.ndarray  # gain times loss
    gamma: np.ndarray  # 1/(W km)
    noise_figure: np.ndarray  # linear
    spans_of_fiber: tuple[np.ndarray, ...]

    @classmethod
    def columns(cls, fibers: Sequence[FiberParams], length, gain_db,
                nf_db) -> "SpanArrays":
        """Validated columns of spans on ``fibers[n]``, ``gain_db[n]`` None
        where transparent; ValidationError names the first bad span."""
        index: dict[FiberParams, int] = {}
        fiber = np.array([index.setdefault(fb, len(index)) for fb in fibers],
                         dtype=np.intp)
        transparent = np.array([g is None for g in gain_db], bool)
        gain_db = np.array([fb.alpha_db_per_km * km if g is None else g
                            for fb, km, g in zip(fibers, length, gain_db)],
                           float)
        length, nf_db = np.asarray(length, float), np.asarray(nf_db, float)
        _check_spans(length, gain_db, nf_db, transparent)
        # Span by span in Python floats, as each span was computed alone.
        loss = np.array([math.exp(-fb.two_alpha * km)
                         for fb, km in zip(fibers, length.tolist())], float)
        gain, transfer = _gain_transfer(gain_db, loss)
        return cls(fibers=tuple(index), fiber=fiber, length=length,
                   gain_db=gain_db, transparent=transparent, nf_db=nf_db,
                   loss=loss, gain=gain, transfer=transfer,
                   gamma=np.array([fb.gamma for fb in fibers], float),
                   noise_figure=_lin(nf_db),
                   spans_of_fiber=tuple(np.flatnonzero(fiber == k)
                                        for k in range(len(index))))

    @classmethod
    def of(cls, spans: Sequence[SpanConfig]) -> "SpanArrays":
        """The columns of span objects."""
        return cls.columns([s.fiber for s in spans],
                           [s.length_km for s in spans],
                           [s.gain_db for s in spans],
                           [s.noise_figure_db for s in spans])

    def with_gains(self, gain_db: Sequence[float]) -> "SpanArrays":
        """These spans with the lumped gains ``gain_db``, sharing the other
        columns."""
        gain_db = np.asarray(gain_db, float)
        _raise_first_fault([(np.isfinite(gain_db),
                             "span gains must be finite numbers")])
        gain, transfer = _gain_transfer(gain_db, self.loss)
        return replace(self, gain_db=gain_db, gain=gain, transfer=transfer,
                       transparent=np.zeros(len(gain_db), bool))


@dataclass(frozen=True, eq=False, init=False)
class LinkSpec:
    """Ordered spans with one WDM comb and a designated CUT.

    Every channel is present at the input of every span with the same
    frequency, rate, roll-off, format and activity; its launch power into
    span ``n`` is ``comb.launch[n]``.  A link is its columns, ``comb`` and
    ``span_arrays``; ``LinkSpec(spans=..., channels=..., cut_index=...)``
    builds them from objects, and ``channels``, ``spans`` and ``cut``
    (``channels[cut_index]``) build objects from them on read.  Equality
    and hashing read the columns.
    """

    comb: CombArrays
    span_arrays: SpanArrays
    cut_index: int
    flags: tuple[str, ...] = ()

    def __init__(self, spans: Sequence[SpanConfig] | None = None,
                 channels: Sequence[ChannelSpec] | None = None,
                 cut_index: int | None = None, flags: tuple[str, ...] = (),
                 *, comb: CombArrays | None = None,
                 span_arrays: SpanArrays | None = None) -> None:
        # Objects take the place of columns given with them, so that
        # dataclasses.replace(link, spans=...) replaces the spans.
        if spans is not None:
            span_arrays = SpanArrays.of(spans)
        if channels is not None and span_arrays is not None:
            comb = CombArrays.of(channels, len(span_arrays.length))
        if comb is None or span_arrays is None or cut_index is None:
            raise TypeError("a link takes spans or span_arrays, channels or "
                            "comb, and cut_index")
        if comb.launch.shape[0] != len(span_arrays.length):
            raise ValidationError(
                "every channel needs one launch power per span")
        for name, value in (("comb", comb), ("span_arrays", span_arrays),
                            ("cut_index", cut_index), ("flags", flags)):
            object.__setattr__(self, name, value)

    @property
    def n_spans(self) -> int:
        return len(self.span_arrays.length)

    @functools.cached_property
    def channels(self) -> tuple[ChannelSpec, ...]:
        return tuple(map(self._channel, range(len(self.comb.f))))

    @functools.cached_property
    def cut(self) -> ChannelSpec:
        return self._channel(self.cut_index)

    def _channel(self, i: int) -> ChannelSpec:
        c = self.comb
        return ChannelSpec(float(c.f[i]), float(c.rate[i]), float(c.roll[i]),
                           FORMATS[c.fmt[i]], tuple(c.launch[:, i].tolist()),
                           bool(c.active[i]))

    @functools.cached_property
    def spans(self) -> tuple[SpanConfig, ...]:
        s = self.span_arrays
        return tuple(SpanConfig(s.fibers[k], km, None if t else g, nf)
                     for k, km, g, t, nf in zip(
                         s.fiber.tolist(), s.length.tolist(),
                         s.gain_db.tolist(), s.transparent.tolist(),
                         s.nf_db.tolist()))

    def _key(self) -> tuple:
        c, s = self.comb, self.span_arrays
        # Adding zero writes -0.0 as the 0.0 it equals.
        return (self.cut_index, self.flags, s.fibers, *(
            (a + 0).tobytes() for a in (c.f, c.rate, c.roll, c.fmt, c.active,
                                        c.launch, s.fiber, s.length,
                                        s.gain_db, s.transparent, s.nf_db)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinkSpec) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def validate(self) -> None:
        if not self.n_spans:
            raise ValidationError("link must contain at least one span")
        if not 0 <= self.cut_index < len(self.comb.f):
            raise ValidationError("cut_index out of range")
        if not self.comb.active[self.cut_index]:
            raise ValidationError("CUT inactive")

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
