"""Domain types for WDM links: fibers, spans, channels and model variants.

Units are fixed project-wide: frequencies in THz, symbol rates in TBaud,
powers in W, PSDs in W/THz, lengths in km, dispersion in ps^2/km and
ps^3/km, nonlinearity in 1/(W km).  With ps*THz = 1 these combine without
any internal re-normalization.

A :class:`LinkSpec` is columns: ``link.comb``, a :class:`CombArrays` of
``[channel]`` parameters and the ``[span, channel]`` launch power, and
``link.span_arrays``, a :class:`SpanArrays` of ``[span]`` lengths, gains and
noise figures with an index into the distinct fibers.  Both are read-only
and validated as whole arrays when made (:meth:`CombArrays.columns`,
:meth:`SpanArrays.columns`), and a change of powers or gains shares every
other column.  :class:`ChannelSpec` is what ``link.cut`` returns: a record
of the CUT's columns built on first read, never an input.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
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


def check_integers(config, *names: str) -> None:
    """Raise for the first field of ``config`` among ``names`` that is not
    an integer: any :class:`numbers.Integral` but a bool."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer")


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
class ChannelSpec:
    """One WDM channel with its per-span launch powers: the record of a
    link's CUT columns that ``link.cut`` returns."""

    f_center: float  # THz
    symbol_rate: float  # TBaud
    roll_off: float
    format: ModulationFormat
    power_w_per_span: tuple[float, ...]
    active: bool = True


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
    which validates them."""

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
        (finite, message), positive = _launch_rules(active, launch)
        _raise_first_fault([
            (finite & np.isfinite(f) & np.isfinite(rate) & np.isfinite(roll),
             message),
            (f > 0.0, "channel frequency must be > 0"),
            (rate > 0.0, "symbol rate must be > 0"),
            ((roll >= 0.0) & (roll <= 1.0), "roll-off must lie in [0, 1]"),
            positive])
        return cls(f=f, rate=rate, roll=roll, fmt=fmt, active=active,
                   launch=launch, phi=_PHI_OF_CODE[fmt],
                   power=np.where(active, launch, 0.0))

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
    :meth:`columns`, which validates them."""

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
        # The gain of a transparent span is not read.
        _raise_first_fault([
            (np.isfinite(length) & (np.isfinite(gain_db) | transparent)
             & np.isfinite(nf_db),
             "span length, gain and noise figure must be finite numbers"),
            (length > 0.0, "span length must be > 0 km")])
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

    def with_gains(self, gain_db: Sequence[float]) -> "SpanArrays":
        """These spans with the lumped gains ``gain_db``, sharing the other
        columns."""
        gain_db = np.asarray(gain_db, float)
        _raise_first_fault([(np.isfinite(gain_db),
                             "span gains must be finite numbers")])
        gain, transfer = _gain_transfer(gain_db, self.loss)
        return replace(self, gain_db=gain_db, gain=gain, transfer=transfer,
                       transparent=np.zeros(len(gain_db), bool))


@dataclass(frozen=True, eq=False)
class LinkSpec:
    """Ordered spans with one WDM comb and a designated CUT.

    Every channel is present at the input of every span with the same
    frequency, rate, roll-off, format and activity; its launch power into
    span ``n`` is ``comb.launch[n]``.  A link is its columns, ``comb`` and
    ``span_arrays``; ``cut`` builds the CUT's record from them on first
    read.  Equality and hashing read the columns.
    """

    comb: CombArrays
    span_arrays: SpanArrays
    cut_index: int
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.comb.launch.shape[0] != self.n_spans:
            raise ValidationError(
                "every channel needs one launch power per span")

    @property
    def n_spans(self) -> int:
        return len(self.span_arrays.length)

    @functools.cached_property
    def cut(self) -> ChannelSpec:
        c, i = self.comb, self.cut_index
        return ChannelSpec(float(c.f[i]), float(c.rate[i]), float(c.roll[i]),
                           FORMATS[c.fmt[i]], tuple(c.launch[:, i].tolist()),
                           bool(c.active[i]))

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

    @functools.cached_property
    def stack(self) -> "LinkStack":
        """This link as a stack of one: its columns on a link axis."""
        return LinkStack.of((self,))


@dataclass(frozen=True, eq=False)
class LinkStack(_ReadOnly):
    """Links of one span count as read-only columns on a leading link axis:
    ``[link, channel]`` channel parameters and ``[link, span, channel]``
    power, zero where inactive, and ``[link, span]`` span columns with an
    index into the fibers of the whole stack.  Each link's channels are
    padded at the top with inactive copies of its last channel, up to the
    widest link's count: a pad has finite closed forms and zero power, and
    is neither an interferer nor a CUT.  Made by :meth:`of` from validated
    links, and re-powered and re-gained without validation, as links being
    planned."""

    f: np.ndarray  # THz
    rate: np.ndarray  # TBaud
    roll: np.ndarray
    phi: np.ndarray
    active: np.ndarray
    power: np.ndarray  # W
    cut: np.ndarray  # [link]: the CUT's channel index
    fibers: tuple[FiberParams, ...]
    fiber: np.ndarray  # [link, span]: index into fibers
    length: np.ndarray  # km
    loss: np.ndarray
    gain: np.ndarray
    transfer: np.ndarray
    gamma: np.ndarray
    noise_figure: np.ndarray

    @classmethod
    def of(cls, links: Sequence[LinkSpec]) -> "LinkStack":
        """The columns of ``links``, which must share one span count."""
        if len({link.n_spans for link in links}) != 1:
            raise ValueError("a stack's links must share one span count")
        combs = [link.comb for link in links]
        spans = [link.span_arrays for link in links]
        size = np.array([len(c.f) for c in combs])
        n_ch = size.max()
        # Each link's channels in the concatenated columns, its last one
        # repeated into its pads.
        take = ((np.cumsum(size) - size)[:, None]
                + np.minimum(np.arange(n_ch), size[:, None] - 1))
        real = np.arange(n_ch) < size[:, None]
        cols = {name: np.concatenate([getattr(c, name) for c in combs])[take]
                for name in ("f", "rate", "roll", "phi", "active")}
        cols["active"] &= real
        power = np.concatenate([c.power for c in combs], axis=1)[:, take]
        # Each link's fibers as indices into the stack's distinct fibers,
        # found by value once per fiber object (drawn links share them).
        index: dict[FiberParams, int] = {}
        known: dict[int, int] = {}
        ids = np.zeros((len(spans), max(len(s.fibers) for s in spans)),
                       np.intp)
        for row, s in zip(ids, spans):
            for k, fb in enumerate(s.fibers):
                if id(fb) not in known:
                    known[id(fb)] = index.setdefault(fb, len(index))
                row[k] = known[id(fb)]
        fiber = ids[np.arange(len(spans))[:, None],
                    np.array([s.fiber for s in spans])]
        return cls(**cols, power=np.where(real, power, 0.0).transpose(1, 0, 2),
                   cut=np.array([link.cut_index for link in links], np.intp),
                   fibers=tuple(index), fiber=fiber,
                   **{name: np.array([getattr(s, name) for s in spans])
                      for name in ("length", "loss", "gain", "transfer",
                                   "gamma", "noise_figure")})

    def with_power(self, power: np.ndarray) -> "LinkStack":
        """These links with the ``[link, span, channel]`` launch powers
        ``power``, zeroed where inactive."""
        return replace(self, power=np.where(self.active[:, None], power, 0.0))

    def with_gains(self, gain_db: np.ndarray) -> "LinkStack":
        """These links with the ``[link, span]`` lumped gains ``gain_db``."""
        gain, transfer = _gain_transfer(np.ravel(gain_db), self.loss.ravel())
        return replace(self, gain=gain.reshape(self.loss.shape),
                       transfer=transfer.reshape(self.loss.shape))


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
