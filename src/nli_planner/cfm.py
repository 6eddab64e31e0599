"""Closed-form nonlinear-interference PSD models CFM1-CFM4.

The per-span NLI PSD at the channel-under-test combines a self-interference
term and one cross-interference term per co-propagating channel, each built
from asinh closed forms of the underlying four-wave-mixing integrals.
CFM2-CFM4 multiply those terms by fitted correction factors, laid out by
:data:`RHO_LAYOUT`; CFM3/CFM4 additionally model coherent accumulation of
the self term.  A link becomes arrays here alone: :func:`comb_arrays` and
:func:`span_columns`.

:func:`nli_terms` computes all of it for rows that are the channels taken
as CUT: every channel, or with ``rows=link.cut_index`` the CUT alone.
The power-independent closed forms depend on a span only through its
fiber, so :func:`span_integrals` computes them once per distinct fiber,
as ``[fiber, row, channel]`` (|beta2| and the cross integral) and
``[fiber, row]`` (the self integral) arrays; only what depends on the span
length is per span (the ``[span]`` columns, ``[span, row]`` coherent
coefficient).  The |accumulated dispersion| that the correction
factors read is a ``[span, row, channel]`` running sum, built only for
CFM2-CFM4, in row blocks; CFM1 contracts each fiber's cross integrals
against the PSDs of its spans directly.  :func:`comb_nli_terms` is the
kernel on a comb given as arrays, for callers that plan launch powers.
:func:`propagate` carries per-span values to the receiver of every
truncation.  :func:`rx_nli_psds` is the one checked read of the kernel:
one pass, the low-dispersion policy on the rows it returns, and the
receiver PSD of every truncation.  ``perf.link_report`` turns its output
into SNRs; :func:`rx_nli_psd` and :func:`rx_nli_psd_all_channels` read
one truncation of it.  ``poweropt`` and the fit's ``_FitData.add_system``
read the kernel's per-span terms directly.
"""

from __future__ import annotations

import functools
import math
import warnings
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace

import numpy as np
from scipy.special import sici

from .types import (CfmKind, FiberParams, LinkSpec, ModelVariant,
                    ValidationError, fiber_groups, phi_of_format)

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
    """HN(m) = sum_{k=1..m} 1/k by direct summation (m stays small here),
    left to right as :func:`coherence_brackets` adds (``sum`` compensates
    float sums from Python 3.12 on)."""
    if m < 0:
        raise ValueError("harmonic number of a negative integer")
    total = 0.0
    for k in range(1, m + 1):
        total += 1.0 / k
    return total


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


@dataclass(frozen=True)
class RhoLayout:
    """Where a correction factor reads a1..a24 (0-based).  Both factors are
    ``a[i] + a[i+1] phi^a[i+2] + a[i+3] phi^a[i+4] (1 (+ c rate^e) + b br^p)``
    with ``i = first``, ``(c, e) = rate`` and ``br = max(acc + o, floor)``
    for ``(b, o, p) = bracket``, times ``1 + sum c x^e`` over ``rolls``
    ``(c, e, feature x)`` for CFM4.  Features that can be 0 take
    :func:`zero_safe_pow`."""

    first: int
    rate: tuple[int, int] | None
    bracket: tuple[int, int, int]
    rolls: tuple[tuple[int, int, str], ...]


# The layout of each correction factor, by the term it weights.
RHO_LAYOUT = {
    "self": RhoLayout(8, (13, 14), (15, 16, 17), ((22, 23, "roll_cut"),)),
    "cross": RhoLayout(0, None, (5, 6, 7),
                       ((18, 19, "roll_cut"), (20, 21, "roll_nch"))),
}


def _rho(layout: RhoLayout, kind: CfmKind, a, phi, rate=None, **rolls):
    """The correction factor of ``layout`` as a function of the
    |accumulated dispersion| (ps^2) at the span input, the one feature that
    changes from span to span; ``rolls`` by feature name.  Broadcasts."""
    i = layout.first
    offset = a[i] + a[i + 1] * zero_safe_pow(phi, a[i + 2])
    scale = a[i + 3] * zero_safe_pow(phi, a[i + 4])
    inner = (1.0 if layout.rate is None
             else 1.0 + a[layout.rate[0]] * rate ** a[layout.rate[1]])
    roll = None
    if kind is CfmKind.CFM4:
        roll = 1.0
        for c, e, name in layout.rolls:
            roll = roll + a[c] * zero_safe_pow(rolls[name], a[e])
    b, o, p = layout.bracket

    def rho(abs_acc):
        br = np.maximum(abs_acc + a[o], _BRACKET_FLOOR)
        out = offset + scale * (inner + a[b] * br ** a[p])
        return out if roll is None else out * roll
    return rho


def rho_cross(kind: CfmKind, a, phi_nch, roll_cut, roll_nch):
    """Correction factor of a cross-interference term (CFM2-CFM4), as a
    function of the |accumulated dispersion| of the interferer/CUT pair."""
    return _rho(RHO_LAYOUT["cross"], kind, a, phi_nch, roll_cut=roll_cut,
                roll_nch=roll_nch)


def rho_self(kind: CfmKind, a, phi_cut, rate, roll_cut):
    """Correction factor of the self-interference term (CFM2-CFM4), as a
    function of the CUT's |accumulated dispersion|."""
    return _rho(RHO_LAYOUT["self"], kind, a, phi_cut, rate, roll_cut=roll_cut)


def rho_partials(layout: RhoLayout, a, feat: dict, log: dict, cfm4: bool):
    """Yield ``(k, d rho / d a_k)`` for every coefficient the correction
    factor of ``layout`` reads (the roll-offs only if ``cfm4``), from the
    features ``feat`` by name and their logarithms ``log``, 0 where the
    feature is 0: a zero-safe power does not move with its exponent.  A
    floored bracket does not move with its offset."""
    i = layout.first
    phi, ln_phi = feat["phi"], log["phi"]
    p_off, p_sc = zero_safe_pow(phi, a[i + 2]), zero_safe_pow(phi, a[i + 4])
    scale = a[i + 3] * p_sc
    b, o, p = layout.bracket
    raw = feat["acc"] + a[o]
    br = np.maximum(raw, _BRACKET_FLOOR)
    pow_br = br ** a[p]
    inner = 1.0 + a[b] * pow_br
    if layout.rate is not None:
        rc, re = layout.rate
        pow_rate = feat["rate"] ** a[re]
        inner = inner + a[rc] * pow_rate
    roll = np.ones_like(phi)
    roll_pows = []
    for c, e, name in layout.rolls if cfm4 else ():
        pow_roll = zero_safe_pow(feat[name], a[e])
        roll_pows.append((c, e, pow_roll, log[name]))
        roll = roll + a[c] * pow_roll
    yield i, roll
    yield i + 1, p_off * roll
    yield i + 2, a[i + 1] * p_off * ln_phi * roll
    yield i + 3, p_sc * inner * roll
    yield i + 4, a[i + 3] * p_sc * ln_phi * inner * roll
    if layout.rate is not None:
        yield rc, scale * pow_rate * roll
        yield re, scale * a[rc] * pow_rate * log["rate"] * roll
    yield b, scale * pow_br * roll
    yield o, np.where(raw > _BRACKET_FLOOR,
                      scale * a[b] * a[p] * pow_br / br * roll, 0.0)
    yield p, scale * a[b] * pow_br * np.log(br) * roll
    core = a[i] + a[i + 1] * p_off + scale * inner
    for c, e, pow_roll, ln_roll in roll_pows:
        yield c, core * pow_roll
        yield e, core * a[c] * pow_roll * ln_roll


# ---------------------------------------------------------------------------
# Propagation


@dataclass(frozen=True)
class SpanColumns:
    """A link's spans as ``[span]`` arrays, flat in frequency."""

    length: np.ndarray  # (km)
    loss: np.ndarray  # fiber power transmission exp(-2 alpha L)
    transfer: np.ndarray  # lumped gain times loss
    prefactor: np.ndarray  # 16/27 gamma^2 times the transfer


def span_transfer(link: LinkSpec) -> np.ndarray:
    """Lumped gain times fiber loss of every span (flat in frequency)."""
    return np.array([s.gain_lin * s.span_loss_lin for s in link.spans])


def span_columns(link: LinkSpec) -> SpanColumns:
    """The link's span columns."""
    gamma, length, loss = np.array([(s.fiber.gamma, s.length_km,
                                     s.span_loss_lin) for s in link.spans]).T
    transfer = span_transfer(link)
    return SpanColumns(length=length, loss=loss, transfer=transfer,
                       prefactor=(16.0 / 27.0) * gamma ** 2 * transfer)


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


def comb_arrays(link: LinkSpec, power: np.ndarray | None = None
                ) -> CombArrays:
    """Array view of the link's channels, with their launch powers or, if
    given, the ``[span, channel]`` matrix ``power``."""
    chans = link.channels
    active = np.array([c.active for c in chans])
    if power is None:
        power = np.fromiter(chain.from_iterable(c.power_w_per_span
                                                for c in chans),
                            float, count=len(chans) * link.n_spans
                            ).reshape(len(chans), link.n_spans).T
    return CombArrays(
        f=np.array([c.f_center for c in chans]),
        rate=np.array([c.symbol_rate for c in chans]),
        roll=np.array([c.roll_off for c in chans]),
        phi=np.array([phi_of_format(c.format) for c in chans]),
        power=np.where(active, power, 0.0), active=active)


def _own_column(rows, n_channels: int):
    """Index of every row's own channel in a ``[fiber or span, row,
    channel]`` array: the CUT/CUT pair of each row.  ``rows`` is None
    (every channel), one channel index or an array of them."""
    col = np.arange(n_channels) if rows is None else np.atleast_1d(rows)
    return slice(None), np.arange(col.size), col


@dataclass(frozen=True)
class SpanIntegrals(SpanColumns):
    """Closed-form kernel integrals of a link, with its span columns; a row
    is a channel taken as CUT, a column an interferer.

    The power-independent closed forms depend on a span only through its
    fiber, so they are held once per distinct fiber, ``fiber[n]`` being the
    one of span ``n``; what depends on the span length is held per span.
    """

    fiber: np.ndarray  # [span]: index of the span's fiber
    spans_of_fiber: tuple[list[int], ...]  # [fiber]: its span indices
    beta2: np.ndarray  # [fiber, row, channel]: effective beta2 (ps^2/km)
    abs_beta2: np.ndarray  # [fiber, row, channel]
    i_cross: np.ndarray  # [fiber, row, channel]
    i_self: np.ndarray  # [fiber, row], incoherent accumulation
    i_coherent: np.ndarray  # [span, row], coefficient of coherence_bracket

    def abs_acc(self, rows=slice(None)) -> np.ndarray:
        """|Accumulated dispersion| (ps^2) at every span input, as
        ``[span, row, channel]`` for the rows ``rows`` of this result: the
        exclusive running sum of beta2 * L over the spans, in span order."""
        b2 = self.beta2[:, rows]
        acc = np.zeros((len(self.fiber),) + b2.shape[1:])
        step = b2[self.fiber[:-1]]
        step *= self.length[:-1, None, None]
        np.cumsum(step, axis=0, out=acc[1:])
        return np.abs(acc, out=acc)


def span_integrals(link: LinkSpec, ch: CombArrays,
                   rows: int | np.ndarray | None = None) -> SpanIntegrals:
    """The integrals of every fiber and span of the link, with every channel
    as CUT (``rows=None``) or only channel(s) ``rows``.  A pair with zero
    dispersion gives inf or NaN entries; callers mask the ones they do not
    use."""
    groups = fiber_groups(link.spans)
    fiber = np.empty(link.n_spans, dtype=np.intp)
    for k, spans in enumerate(groups.values()):
        fiber[spans] = k
    # Fiber parameters as [fiber, 1, 1] columns.
    beta2, beta3, f_ref, two_alpha = np.array(
        [(fb.beta2, fb.beta3, fb.f_ref, fb.two_alpha)
         for fb in groups]).T[:, :, None, None]
    cols = span_columns(link)
    fib = SimpleNamespace(beta2=beta2, beta3=beta3, f_ref=f_ref)
    own = _own_column(rows, len(ch.f))
    f, rate = ch.f, ch.rate
    f_cut, rate_cut = f[own[2]], rate[own[2]]  # [row]
    df = f - f_cut[:, None]
    upper = df + rate / 2.0
    lower = df - rate / 2.0
    b2 = effective_beta2_xci(fib, f, f_cut[:, None])
    m = np.abs(b2)
    # The self terms read the CUT/CUT pair: [fiber, row] against
    # [fiber, 1], and per span [span, row] against [span, 1].
    d = m[own]
    two_alpha_f = two_alpha[:, 0]
    den = 2.0 * math.pi * d * two_alpha_f
    arg = (math.pi ** 2 / 2.0) * (d / two_alpha_f) * rate_cut ** 2
    d_s, den_s, two_alpha_s = d[fiber], den[fiber], two_alpha_f[fiber]
    length_s = cols.length[:, None]
    si = sici(math.pi ** 2 * d_s * length_s * rate_cut ** 2)[0]
    # i_cross = (asinh(scale * upper) - asinh(scale * lower))
    #           / (4 pi |beta2| 2 alpha),  scale = pi^2 |beta2| / 2 alpha * R
    # with R the CUT's symbol rate, computed in place.
    scale = m / two_alpha
    scale *= math.pi ** 2
    scale *= rate_cut[:, None]
    i_cross = np.arcsinh(scale * upper)
    scale *= lower
    i_cross -= np.arcsinh(scale, out=scale)
    den_cross = np.multiply(m, 4.0 * math.pi, out=scale)
    den_cross *= two_alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        i_cross /= den_cross
        return SpanIntegrals(
            **vars(cols), fiber=fiber,
            spans_of_fiber=tuple(groups.values()),
            beta2=b2, abs_beta2=m, i_cross=i_cross,
            i_self=np.arcsinh(arg) / den,
            i_coherent=2.0 * si / (math.pi * (two_alpha_s / 2.0) * length_s)
            / den_s)


def coherence_brackets(n_spans: int) -> np.ndarray:
    """``coherence_bracket(n)`` for n = 1..n_spans from one running
    harmonic sum, added in the order :func:`harmonic_number` adds."""
    n = np.arange(1, n_spans + 1)
    hn = np.concatenate(([0.0], np.cumsum(1.0 / n[:-1])))
    return hn + (1 - n) / n


@dataclass(frozen=True)
class NliTerms:
    """Per-span NLI of one link, for the channels the kernel took as CUT.

    For a link truncated after ``n_end`` spans, span ``n`` adds the PSD
    ``base[n, r] + coherence_bracket(n_end) * coherent[n, r]`` (W/THz) at
    row ``r``'s channel; ``transfer[n]`` is the span's gain times its loss.
    """

    transfer: np.ndarray  # [span]
    base: np.ndarray  # [span, row]
    coherent: np.ndarray  # [span, row]; zero unless CFM3/CFM4
    active: np.ndarray  # [row]: the row's channel is active, so a CUT
    min_abs_beta2: np.ndarray  # [row]: smallest |beta2| a row's terms use

    def rx_psd(self) -> np.ndarray:
        """Receiver NLI PSD (W/THz) as ``[n_end - 1, row]``, for every
        truncation; NaN in the rows of channels that cannot be CUT."""
        base, coherent = np.split(propagate(
            self.transfer, np.hstack((self.base, self.coherent))), 2, axis=1)
        out = base + coherence_brackets(len(self.transfer))[:, None] * coherent
        out[:, ~self.active] = np.nan
        return out


# CFM2-CFM4 take the rows in blocks whose [span, row, channel] arrays hold
# at most about this many elements (~125 kB).  Whole arrays at paper scale
# (0.35 MB each, every channel as CUT) would be page-faulted in anew on
# every call, and would raise the peak memory by megabytes.
_BLOCK_ELEMENTS = 16_000


def nli_terms(link: LinkSpec, variant: ModelVariant,
              rows: int | None = None) -> NliTerms:
    """The NLI kernel: one array pass over the spans, with every channel as
    CUT (``rows=None``) or only channel ``rows``, usually
    ``link.cut_index``, which must be active.

    Applies no low-dispersion policy, since only the caller knows which rows
    it returns: pass their ``min_abs_beta2`` to :func:`check_dispersion`.
    A row with a zero-dispersion term holds inf or NaN.
    """
    return comb_nli_terms(link, comb_arrays(link), variant, rows)


def _zero_non_cross(xci: np.ndarray, active: np.ndarray,
                    own: tuple) -> np.ndarray:
    """Zero, in place, the entries of a ``[fiber or span, row, channel]``
    array that are no cross term: inactive interferers and each row's own
    channel, so that their inf or NaN cannot turn a row NaN."""
    xci[:, :, ~active] = 0.0
    xci[own] = 0.0
    return xci


def _plain_cross(s: SpanIntegrals, ch: CombArrays, own: tuple,
                 g2: np.ndarray) -> np.ndarray:
    """CFM1's cross-term sum, ``[span, row]``: with no correction factor,
    one contraction per fiber of its cross integrals against the squared
    PSDs of its spans, the spans of each fiber adjacent in one matrix."""
    xci = _zero_non_cross(s.i_cross, ch.active, own)
    by_fiber = np.take(g2, np.concatenate(s.spans_of_fiber), axis=0,
                       out=np.empty(g2.shape, order="F"))
    cross = np.empty((len(g2), xci.shape[1]))
    start = 0
    for k, spans in enumerate(s.spans_of_fiber):
        part = by_fiber[start:start + len(spans), :, None]
        cross[spans] = np.matmul(xci[k], part)[:, :, 0]
        start += len(spans)
    return cross


def _corrected_cross(s: SpanIntegrals, ch: CombArrays, variant: ModelVariant,
                     g2: np.ndarray, cuts: np.ndarray, block: slice
                     ) -> tuple[np.ndarray, np.ndarray]:
    """CFM2-CFM4, for the rows ``block`` (channels ``cuts[block]``): the
    cross-term sum weighted by the correction factors, and each row's own
    |accumulated dispersion|, as ``[span, row]`` arrays.  The cross terms
    are built as ``[span, row, channel]`` arrays."""
    own = _own_column(cuts[block], len(ch.f))
    acc = s.abs_acc(block)
    xci = rho_cross(variant.kind, variant.coefficients.a, ch.phi,
                    ch.roll[cuts[block], None], ch.roll)(acc)
    xci *= s.i_cross[:, block][s.fiber]
    _zero_non_cross(xci, ch.active, own)
    return (xci @ g2[:, :, None])[:, :, 0], acc[own]


def comb_nli_terms(link: LinkSpec, ch: CombArrays, variant: ModelVariant,
                   rows: int | None = None) -> NliTerms:
    """:func:`nli_terms` on the spans of ``link`` with the channels ``ch``,
    whose launch powers may differ from the link's."""
    if rows is not None and not ch.active[rows]:
        raise ValidationError("CUT inactive")
    s = span_integrals(link, ch, rows)
    own = _own_column(rows, len(ch.f))
    cuts = own[2]
    g = ch.power / ch.rate  # [span, channel] effective PSDs
    g_cut = g[:, cuts]
    # The squared PSDs are contracted as column-major [span, channel]
    # matrices, the layout comb_arrays gives a link's powers: BLAS sums
    # each span's dot product in an order set by that layout, so every
    # caller and variant gets the same sums.
    g2 = np.square(g, out=np.empty(g.shape, order="F"))
    kind = variant.kind
    with np.errstate(invalid="ignore"):
        if kind is CfmKind.CFM1:
            cross = _plain_cross(s, ch, own, g2)
            sci = g_cut ** 2
        else:
            cross, acc_own = np.empty((2,) + g_cut.shape)
            step = max(1, _BLOCK_ELEMENTS // (link.n_spans * len(ch.f)))
            for i in range(0, cuts.size, step):
                block = slice(i, i + step)
                cross[:, block], acc_own[:, block] = _corrected_cross(
                    s, ch, variant, g2, cuts, block)
            sci = rho_self(kind, variant.coefficients.a, ch.phi[cuts],
                           ch.rate[cuts], ch.roll[cuts])(acc_own) * g_cut ** 2
        psd = s.prefactor[:, None] * g_cut
        base = psd * (sci * s.i_self[s.fiber] + 2.0 * cross)
        coherent = (psd * sci * s.i_coherent if kind.coherent_sci
                    else np.zeros_like(base))
    return NliTerms(transfer=s.transfer, base=base, coherent=coherent,
                    active=ch.active[cuts],
                    min_abs_beta2=np.min(s.abs_beta2, axis=(0, 2),
                                         where=ch.active, initial=np.inf))


# ---------------------------------------------------------------------------
# Views


def _check_n_end(link: LinkSpec, n_end: int | None = None) -> int:
    """``n_end``, or the span count for None; ValueError out of range."""
    if n_end is None:
        return link.n_spans
    if not 1 <= n_end <= link.n_spans:
        raise ValueError("n_end out of range")
    return n_end


def rx_nli_psds(link: LinkSpec, variant: ModelVariant,
                rows: int | None = None) -> np.ndarray:
    """Receiver NLI PSD (W/THz) as ``[n_end - 1, row]`` (see
    :func:`nli_terms` for ``rows``): one kernel pass, the low-dispersion
    policy applied to the active rows it returns.  Inactive rows are NaN."""
    terms = nli_terms(link, variant, rows)
    check_dispersion(terms.min_abs_beta2[terms.active])
    return terms.rx_psd()


def rx_nli_psd(link: LinkSpec, variant: ModelVariant, n_end: int) -> float:
    """Accumulated NLI PSD (W/THz) at the receiver of the truncated link."""
    _check_n_end(link, n_end)
    return float(rx_nli_psds(link, variant, link.cut_index)[n_end - 1, 0])


def rx_nli_psd_all_channels(link: LinkSpec, variant: ModelVariant,
                            n_end: int | None = None) -> np.ndarray:
    """Receiver NLI PSD with every active channel treated as CUT in turn;
    inactive channels yield NaN."""
    n_end = _check_n_end(link, n_end)
    return rx_nli_psds(link, variant)[n_end - 1]


def cut_min_abs_beta2(link: LinkSpec) -> float:
    """Smallest effective |beta2| the CUT sees over the link's spans."""
    cut = link.cut
    return min(abs(effective_beta2_cut(s.fiber, cut.f_center))
               for s in link.spans)
