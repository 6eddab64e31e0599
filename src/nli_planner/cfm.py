"""Closed-form nonlinear-interference PSD models CFM1-CFM4.

The per-span NLI PSD at the channel-under-test combines a self-interference
term and one cross-interference term per co-propagating channel, each built
from asinh closed forms of the underlying four-wave-mixing integrals.
CFM2-CFM4 multiply those terms by fitted correction factors; CFM3/CFM4
additionally model coherent accumulation of the self term.

:func:`nli_terms` computes all of it in one pass over the spans, for every
channel as CUT; :func:`propagate` carries per-span values to the receiver of
every truncation.  The PSD functions at the end are views on the two.
"""

from __future__ import annotations

import functools
import math
import warnings
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import sici

from .types import (CfmKind, FiberParams, LinkSpec, ModelVariant,
                    ValidationError, phi_of_format)

# Validity bound: below this effective |beta2| (ps^2/km) the closed forms
# degrade and results are flagged rather than trusted.
MIN_ABS_BETA2 = 2.5

# Guard floor for bracket bases raised to fitted exponents.
_BRACKET_FLOOR = 1e-12


class ZeroDispersionError(ArithmeticError):
    """Effective dispersion is exactly zero: the closed forms are singular."""


class LowDispersionWarning(UserWarning):
    """Effective |beta2| below the recommended validity bound."""


def effective_beta2_cut(fiber: FiberParams, f_cut: float) -> float:
    """Effective dispersion (ps^2/km) seen by the CUT at its own frequency."""
    return fiber.beta2 + math.pi * fiber.beta3 * (2.0 * f_cut - 2.0 * fiber.f_ref)


def effective_beta2_xci(fiber: FiberParams, f_nch, f_cut):
    """Effective dispersion (ps^2/km) for an interferer/CUT pair; frequency
    arrays broadcast."""
    return fiber.beta2 + math.pi * fiber.beta3 * (f_nch + f_cut - 2.0 * fiber.f_ref)


def harmonic_number(m: int) -> float:
    """HN(m) = sum_{k=1..m} 1/k by direct summation (m stays small here)."""
    if m < 0:
        raise ValueError("harmonic number of a negative integer")
    return sum(1.0 / k for k in range(1, m + 1))


def sine_integral(x: float) -> float:
    """Si(x) = integral of sin(t)/t from 0 to x."""
    return float(sici(x)[0])


def coherence_bracket(n_span_total: int) -> float:
    """HN(N-1) + (1-N)/N; zero at N = 1."""
    if n_span_total < 1:
        raise ValueError("span count must be >= 1")
    return harmonic_number(n_span_total - 1) + (1 - n_span_total) / n_span_total


# ---------------------------------------------------------------------------
# Low-dispersion policy

_LOW_DISPERSION_MESSAGE = (f"effective |beta2| is below the recommended "
                           f"{MIN_ABS_BETA2} ps^2/km validity bound")

# Set while a function wrapped by one_low_dispersion_warning runs: checks
# made inside it record a low value here and leave the warning to it.
_low_dispersion_seen: ContextVar[list | None] = ContextVar(
    "low_dispersion_seen", default=None)


def check_dispersion(min_abs_beta2) -> None:
    """Apply the low-dispersion policy to the smallest effective |beta2|
    (ps^2/km) among the terms a call returns.

    Exactly zero makes the closed forms singular and raises
    :class:`ZeroDispersionError`; a value below :data:`MIN_ABS_BETA2` emits
    a :class:`LowDispersionWarning`.
    """
    low = float(np.min(min_abs_beta2, initial=np.inf))
    if low == 0.0:
        raise ZeroDispersionError("zero effective dispersion")
    if low < MIN_ABS_BETA2:
        seen = _low_dispersion_seen.get()
        if seen is None:
            warnings.warn(_LOW_DISPERSION_MESSAGE, LowDispersionWarning,
                          stacklevel=3)
        else:
            seen.append(low)


def one_low_dispersion_warning(fn):
    """Let ``fn`` emit at most one :class:`LowDispersionWarning`, however
    many of the evaluations it makes fall below the validity bound."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _low_dispersion_seen.get() is not None:
            return fn(*args, **kwargs)
        token = _low_dispersion_seen.set([])
        try:
            out = fn(*args, **kwargs)
            seen = _low_dispersion_seen.get()
        finally:
            _low_dispersion_seen.reset(token)
        if seen:
            warnings.warn(_LOW_DISPERSION_MESSAGE, LowDispersionWarning,
                          stacklevel=2)
        return out
    return wrapper


# ---------------------------------------------------------------------------
# Correction factors


def zero_safe_pow(base, exponent: float):
    """Element-wise ``base ** exponent`` with ``0 ** p = 0`` for p > 0."""
    b = np.asarray(base, dtype=float)
    return np.power(b, exponent, where=(b != 0.0) | (exponent <= 0.0),
                    out=np.zeros_like(b))


def rho_cross(kind: CfmKind, a, phi_nch, roll_cut, roll_nch):
    """Correction factor of a cross-interference term (CFM2-CFM4), as a
    function of the |accumulated dispersion| (ps^2) of the interferer/CUT
    pair at the span input, the one feature that changes from span to span.

    ``a`` holds the coefficients a1..a24 0-based.  Arguments broadcast.
    """
    offset = a[0] + a[1] * zero_safe_pow(phi_nch, a[2])
    scale = a[3] * zero_safe_pow(phi_nch, a[4])
    roll = None
    if kind is CfmKind.CFM4:
        roll = (1.0 + a[18] * zero_safe_pow(roll_cut, a[19])
                + a[20] * zero_safe_pow(roll_nch, a[21]))

    def rho(abs_acc):
        br = np.maximum(abs_acc + a[6], _BRACKET_FLOOR)
        out = offset + scale * (1.0 + a[5] * br ** a[7])
        return out if roll is None else out * roll
    return rho


def rho_self(kind: CfmKind, a, phi_cut, rate, roll_cut):
    """Correction factor of the self-interference term (CFM2-CFM4), as a
    function of the CUT's |accumulated dispersion|; see :func:`rho_cross`."""
    offset = a[8] + a[9] * zero_safe_pow(phi_cut, a[10])
    scale = a[11] * zero_safe_pow(phi_cut, a[12])
    rate_term = 1.0 + a[13] * rate ** a[14]
    roll = None
    if kind is CfmKind.CFM4:
        roll = 1.0 + a[22] * zero_safe_pow(roll_cut, a[23])

    def rho(abs_acc):
        br = np.maximum(abs_acc + a[16], _BRACKET_FLOOR)
        out = offset + scale * (rate_term + a[15] * br ** a[17])
        return out if roll is None else out * roll
    return rho


# ---------------------------------------------------------------------------
# Propagation


def span_transfer(link: LinkSpec) -> np.ndarray:
    """Lumped gain times fiber loss of every span (flat in frequency)."""
    return np.array([s.gain_lin(0.0) * s.span_loss_lin for s in link.spans])


def propagate(transfer: np.ndarray, terms) -> np.ndarray:
    """Receiver values of every truncation from per-span values.

    ``terms[n]`` is added at the end of span ``n`` and scaled by the
    transfer of every later span: ``out[k] = transfer[k] * out[k - 1] +
    terms[k]``, so ``out[k]`` is the value after spans ``0..k``.
    """
    terms = np.asarray(terms, dtype=float)
    out = np.empty_like(terms)
    acc = 0.0
    for n, t in enumerate(transfer):
        acc = t * acc + terms[n]
        out[n] = acc
    return out


# ---------------------------------------------------------------------------
# The kernel


@dataclass(frozen=True)
class CombArrays:
    """Channel parameters and activity as ``[channel]`` arrays; launch power
    (zero where inactive) as a ``[span, channel]`` matrix."""

    f: np.ndarray
    rate: np.ndarray
    roll: np.ndarray
    phi: np.ndarray
    power: np.ndarray
    active: np.ndarray


def comb_arrays(link: LinkSpec) -> CombArrays:
    """Array view of the link's channels."""
    chans = link.channels
    return CombArrays(
        f=np.array([c.f_center for c in chans]),
        rate=np.array([c.symbol_rate for c in chans]),
        roll=np.array([c.roll_off for c in chans]),
        phi=np.array([phi_of_format(c.format) for c in chans]),
        power=np.array([[c.power_w_per_span[n] if c.active else 0.0
                         for c in chans] for n in range(link.n_spans)]),
        active=np.array([c.active for c in chans]))


@dataclass(frozen=True)
class SpanIntegrals:
    """Closed-form kernel integrals of one span for every channel pair; row
    index = CUT, column = interferer."""

    prefactor: float  # 16/27 gamma^2 times the span's gain and loss
    abs_beta2: np.ndarray  # |effective beta2| (ps^2/km)
    abs_acc: np.ndarray  # |accumulated dispersion| (ps^2) at the span input
    i_cross: np.ndarray
    i_self: np.ndarray  # [channel], incoherent accumulation
    i_coherent: np.ndarray  # [channel], coefficient of coherence_bracket


def span_integrals(link: LinkSpec, ch: CombArrays) -> Iterator[SpanIntegrals]:
    """The integrals of every span in order.  A pair with zero dispersion
    gives inf or NaN entries; callers mask the ones they do not use."""
    f, rate = ch.f, ch.rate
    df = f[None, :] - f[:, None]
    upper = df + rate[None, :] / 2.0
    lower = df - rate[None, :] / 2.0
    acc = np.zeros(df.shape)
    for span, t in zip(link.spans, span_transfer(link)):
        fib = span.fiber
        two_alpha = fib.two_alpha
        b2 = effective_beta2_xci(fib, f[None, :], f[:, None])
        m = np.abs(b2)
        d = np.diagonal(m)
        scale = math.pi ** 2 * (m / two_alpha) * rate[:, None]
        den = 2.0 * math.pi * d * two_alpha
        arg = (math.pi ** 2 / 2.0) * (d / two_alpha) * rate ** 2
        si = sici(math.pi ** 2 * d * span.length_km * rate ** 2)[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = SpanIntegrals(
                prefactor=(16.0 / 27.0) * fib.gamma ** 2 * t,
                abs_beta2=m, abs_acc=np.abs(acc),
                i_cross=(np.arcsinh(scale * upper)
                         - np.arcsinh(scale * lower))
                / (4.0 * math.pi * m * two_alpha),
                i_self=np.arcsinh(arg) / den,
                i_coherent=2.0 * si / (math.pi * (two_alpha / 2.0)
                                       * span.length_km) / den)
        yield out
        acc = acc + b2 * span.length_km


@dataclass(frozen=True)
class NliTerms:
    """Per-span NLI of one link with every channel taken as CUT.

    For a link truncated after ``n_end`` spans, span ``n`` adds the PSD
    ``base[n, c] + coherence_bracket(n_end) * coherent[n, c]`` (W/THz) at
    channel ``c``; ``transfer[n]`` is the span's gain times its loss.
    """

    transfer: np.ndarray  # [span]
    base: np.ndarray  # [span, channel]
    coherent: np.ndarray  # [span, channel]; zero unless CFM3/CFM4
    rows: np.ndarray  # [channel]: active, so a possible CUT
    min_abs_beta2: np.ndarray  # [channel]: smallest |beta2| a row's terms use

    def rx_psd(self) -> np.ndarray:
        """Receiver NLI PSD (W/THz) as ``[n_end - 1, channel]``, for every
        truncation; NaN in the columns of channels that cannot be CUT."""
        brackets = np.array([coherence_bracket(n)
                             for n in range(1, len(self.transfer) + 1)])
        out = (propagate(self.transfer, self.base)
               + brackets[:, None] * propagate(self.transfer, self.coherent))
        out[:, ~self.rows] = np.nan
        return out


def nli_terms(link: LinkSpec, variant: ModelVariant) -> NliTerms:
    """The NLI kernel: one pass over the spans, every channel as CUT.

    Applies no low-dispersion policy, since only the caller knows which rows
    it returns: pass their ``min_abs_beta2`` to :func:`check_dispersion`.
    A row with a zero-dispersion term holds inf or NaN.
    """
    ch = comb_arrays(link)
    kind = variant.kind
    cross_factor = self_factor = lambda abs_acc: 1.0  # CFM1
    if kind is not CfmKind.CFM1:
        a = variant.coefficients.a
        cross_factor = rho_cross(kind, a, ch.phi[None, :], ch.roll[:, None],
                                 ch.roll[None, :])
        self_factor = rho_self(kind, a, ch.phi, ch.rate, ch.roll)
    g = ch.power / ch.rate  # [span, channel] effective PSDs
    n_spans, nc = g.shape
    base = np.empty((n_spans, nc))
    coherent = np.zeros((n_spans, nc))
    min_abs_beta2 = np.full(nc, np.inf)
    act = ch.active
    with np.errstate(invalid="ignore"):
        for n, s in enumerate(span_integrals(link, ch)):
            g2 = g[n] ** 2
            # Inactive interferers and the diagonal are no cross terms; zero
            # them so that their entries cannot turn a row NaN.
            xci = cross_factor(s.abs_acc) * s.i_cross
            xci[:, ~act] = 0.0
            np.fill_diagonal(xci, 0.0)
            sci = self_factor(np.diagonal(s.abs_acc)) * g2
            base[n] = s.prefactor * g[n] * (sci * s.i_self + 2.0 * (xci @ g2))
            if kind.coherent_sci:
                coherent[n] = s.prefactor * g[n] * sci * s.i_coherent
            np.minimum(min_abs_beta2,
                       s.abs_beta2[:, act].min(axis=1, initial=np.inf),
                       out=min_abs_beta2)
    return NliTerms(transfer=span_transfer(link), base=base,
                    coherent=coherent, rows=ch.active,
                    min_abs_beta2=min_abs_beta2)


# ---------------------------------------------------------------------------
# Views


def _check_n_end(link: LinkSpec, n_end: int) -> None:
    if not 1 <= n_end <= link.n_spans:
        raise ValueError("n_end out of range")


def cut_nli_terms(link: LinkSpec, variant: ModelVariant) -> NliTerms:
    """The kernel, with the low-dispersion policy applied to the CUT row."""
    terms = nli_terms(link, variant)
    if not terms.rows[link.cut_index]:
        raise ValidationError("CUT inactive")
    check_dispersion(terms.min_abs_beta2[link.cut_index])
    return terms


def rx_nli_psd_truncations(link: LinkSpec, variant: ModelVariant
                           ) -> np.ndarray:
    """CUT NLI PSD (W/THz) at the receiver after 1, 2, ..., n_spans spans.

    The coherent self-term of CFM3/CFM4 is evaluated with the truncated span
    count for every span.
    """
    return cut_nli_terms(link, variant).rx_psd()[:, link.cut_index]


def rx_nli_psd(link: LinkSpec, variant: ModelVariant, n_end: int) -> float:
    """Accumulated NLI PSD (W/THz) at the receiver of the truncated link."""
    _check_n_end(link, n_end)
    return float(rx_nli_psd_truncations(link, variant)[n_end - 1])


def rx_nli_psd_all_channels(link: LinkSpec, variant: ModelVariant,
                            n_end: int | None = None) -> np.ndarray:
    """Receiver NLI PSD with every active channel treated as CUT in turn;
    inactive channels yield NaN."""
    if n_end is None:
        n_end = link.n_spans
    _check_n_end(link, n_end)
    terms = nli_terms(link, variant)
    check_dispersion(terms.min_abs_beta2[terms.rows])
    return terms.rx_psd()[n_end - 1]


def cut_min_abs_beta2(link: LinkSpec) -> float:
    """Smallest effective |beta2| the CUT sees over the link's spans."""
    cut = link.cut
    return min(abs(effective_beta2_cut(s.fiber, cut.f_center))
               for s in link.spans)
