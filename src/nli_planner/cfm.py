"""Closed-form nonlinear-interference PSD models CFM1-CFM4.

The per-span NLI PSD at the channel-under-test combines a self-interference
term and one cross-interference term per co-propagating channel, each built
from asinh closed forms of the underlying four-wave-mixing integrals.
CFM2-CFM4 multiply those terms by fitted correction factors, laid out by
:data:`RHO_LAYOUT`; CFM3/CFM4 additionally model coherent accumulation of
the self term.  The kernel reads a :class:`~nli_planner.types.LinkStack`:
links of one span count as ``[link, ...]`` columns, a link being a stack
of one (``link.stack``); the span prefactor is :func:`span_prefactor`.

:func:`nli_terms` computes all of it for rows, each a channel of one link
taken as CUT (:func:`kernel_rows`): every channel of a link, with
``rows=link.cut_index`` its CUT alone, or each link's CUT of a stack, so
that many systems share one pass.  The power-independent closed forms
depend on a span only through its fiber, so :func:`span_integrals`
computes them once per distinct fiber of the stack, as ``[fiber, row,
channel]`` (|beta2| and the cross integral) and ``[fiber, row]`` (the self
integral) arrays; only what depends on the span length is per span (the
``[span, link]`` columns, ``[span, row]`` coherent coefficient).  They read
neither powers nor gains, so they are computed once per stack geometry
(fibers, span lengths, channel frequencies and rates) and rows, and kept
read-only in a small memo: the passes that plan a block of systems and
score it share one set.  Every variant sums its cross terms the same way:
in row blocks, as ``[span, row, channel]`` arrays times each span's
squared PSDs, summed over the channels in an order that a link's padding
does not change, so a row does not depend on its stack.  CFM2-CFM4 first
weight them by the correction factors, which read the |accumulated
dispersion|, a running sum over the spans built in the same blocks; with
unit factors they give CFM1's values bit-for-bit.  The effective
dispersion is written once, in :func:`effective_beta2_xci`.  The link or
stack is the kernel's one input: other powers or gains are a link that
shares the geometry, ``replace(link, comb=...)``, a planned link or a
re-powered stack.  :func:`propagate` carries per-span values to the
receiver of every truncation.  :func:`rx_nli_psds` is the one checked
read of the kernel: one pass, the low-dispersion policy on the rows it
returns, and the receiver PSD of every truncation.  ``perf.link_report``
turns its output into SNRs; :func:`rx_nli_psd` and
:func:`rx_nli_psd_all_channels` read one truncation of it.
``poweropt`` reads the kernel's per-span terms and last truncation of a
stack's CUT rows; the fit's ``_FitData.add_systems`` reads
:func:`span_integrals`' CUT rows.
"""

from __future__ import annotations

import functools
import math
import warnings
from contextvars import ContextVar
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.special import sici

from .types import (CfmKind, FiberParams, LinkSpec, LinkStack, ModelVariant,
                    SpanArrays, ValidationError)

# Validity bound: below this effective |beta2| (ps^2/km) the closed forms
# degrade and results are flagged rather than trusted.
MIN_ABS_BETA2 = 2.5

# Guard floor for bracket bases raised to fitted exponents.
_BRACKET_FLOOR = 1e-12


class ZeroDispersionError(ArithmeticError):
    """Effective dispersion is exactly zero: the closed forms are singular."""


class LowDispersionWarning(UserWarning):
    """Effective |beta2| below the recommended validity bound."""


def effective_beta2_xci(fiber: FiberParams, f_nch, f_cut):
    """Effective dispersion (ps^2/km) for an interferer/CUT pair; frequency
    arrays broadcast.  At ``f_nch = f_cut`` it is the dispersion a channel
    sees at its own frequency."""
    return fiber.beta2 + math.pi * fiber.beta3 * (f_nch + f_cut - 2.0 * fiber.f_ref)


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


def span_prefactor(spans: SpanArrays | LinkStack) -> np.ndarray:
    """16/27 gamma^2 times the transfer of every span: the factor of the
    NLI PSD that a span adds at its receiver end."""
    return (16.0 / 27.0) * spans.gamma ** 2 * spans.transfer


def propagate(transfer: np.ndarray, terms) -> np.ndarray:
    """Receiver values of every truncation from per-span values.

    ``terms[n]`` is added at the end of span ``n`` and scaled by the
    transfer of every later span: ``out[k] = transfer[k] * out[k - 1] +
    terms[k]``, so ``out[k]`` is the value after spans ``0..k``.
    ``transfer[k]`` is a scalar or broadcasts against ``terms[k]``.
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


def kernel_rows(link: LinkSpec | LinkStack, rows: int | None = None
                ) -> tuple[LinkStack, int | np.ndarray, np.ndarray]:
    """The stack the kernel reads and its rows, as the link (an index or
    ``[row]`` indices) and the ``[row]`` channel of each row.  A link is a
    stack of one, whose rows are every channel (``rows=None``) or channel
    ``rows``; a stack's rows are each link's CUT.  So a stack's ``[link,
    ...]`` columns broadcast against the rows: one link for all of them, or
    one per row."""
    if isinstance(link, LinkStack):
        if rows is not None:
            raise ValueError("a stack's rows are its links' CUTs")
        return link, np.arange(len(link.cut)), link.cut
    ch = (np.arange(len(link.comb.f)) if rows is None
          else np.array([rows], np.intp))
    return link.stack, 0, ch


def _block(a: np.ndarray, block: slice, axis: int = 0) -> np.ndarray:
    """The rows ``block`` of a stack's column ``a`` whose ``axis`` is the
    link axis: all of a one-link stack's, which broadcast."""
    if a.shape[axis] == 1:
        return a
    return a[(slice(None),) * axis + (block,)]


@dataclass(frozen=True)
class SpanIntegrals:
    """Closed-form kernel integrals of a stack's rows, with its span
    columns; a row is a channel of one link taken as CUT, a column an
    interferer of that link (the stack's padded channels).

    The power-independent closed forms depend on a span only through its
    fiber, so they are held once per distinct fiber of the stack; what
    depends on the span length is held per span.  The ``[span, link]``
    columns broadcast against ``[span, row]`` (see :func:`kernel_rows`).
    """

    fiber: np.ndarray  # [span, link]: index into the fiber axis
    length: np.ndarray  # [span, link] (km)
    prefactor: np.ndarray  # [span, link]: span_prefactor
    transfer: np.ndarray  # [span, link]
    uses: np.ndarray  # [fiber, link]: the fiber is on the link
    beta2: np.ndarray  # [fiber, row, channel]: effective beta2 (ps^2/km)
    abs_beta2: np.ndarray  # [fiber, row, channel]
    i_cross: np.ndarray  # [fiber, row, channel]
    i_self: np.ndarray  # [fiber, row], incoherent accumulation
    i_coherent: np.ndarray  # [span, row], coefficient of the coherence bracket

    def per_span(self, a: np.ndarray, rows: slice = slice(None)
                 ) -> np.ndarray:
        """A ``[fiber, row, ...]`` array of these integrals as ``[span,
        row, ...]``, for the rows ``rows``."""
        a = a[:, rows]
        return a[_block(self.fiber, rows, 1), np.arange(a.shape[1])]

    def min_abs_beta2(self, active: np.ndarray) -> np.ndarray:
        """The smallest |beta2| (ps^2/km) each row's terms use, ``[row]``:
        over the fibers of its link and the ``[link, channel]`` ``active``
        channels."""
        return np.min(self.abs_beta2, axis=(0, 2), initial=np.inf,
                      where=self.uses[:, :, None] & active)

    def abs_acc(self, rows: slice = slice(None)) -> np.ndarray:
        """|Accumulated dispersion| (ps^2) at every span input, as
        ``[span, row, channel]`` for the rows ``rows`` of this result: the
        exclusive running sum of beta2 * L over the spans, in span order."""
        step = self.per_span(self.beta2, rows)[:-1]
        acc = np.zeros((len(self.fiber),) + step.shape[1:])
        step *= _block(self.length, rows, 1)[:-1, :, None]
        np.cumsum(step, axis=0, out=acc[1:])
        return np.abs(acc, out=acc)


def span_integrals(link: LinkSpec | LinkStack,
                   rows: int | None = None) -> SpanIntegrals:
    """The integrals of every fiber and span of the rows of
    :func:`kernel_rows`.  A pair with zero dispersion gives inf or NaN
    entries; callers mask the ones they do not use."""
    stack, _lk, ch = kernel_rows(link, rows)
    return _span_integrals(stack, ch)


def _span_integrals(stack: LinkStack, ch: np.ndarray) -> SpanIntegrals:
    """:func:`span_integrals` of the rows ``ch`` of :func:`kernel_rows`."""
    forms = _closed_forms(stack.fibers, stack.power.shape,
                          *(a.tobytes() for a in (
                              stack.fiber, stack.length, stack.f, stack.rate,
                              ch)))
    return SpanIntegrals(forms[0], forms[1], span_prefactor(stack).T,
                         stack.transfer.T, *forms[2:])


# Two entries hold a geometry's CUT rows and its every-row pass.
@functools.lru_cache(maxsize=2)
def _closed_forms(fibers: tuple[FiberParams, ...], shape: tuple[int, ...],
                  fiber: bytes, length: bytes, f: bytes, rate: bytes,
                  ch: bytes) -> tuple[np.ndarray, ...]:
    """The power- and gain-independent closed forms of a stack geometry's
    rows, as the read-only arrays of :class:`SpanIntegrals` but its
    ``prefactor`` and ``transfer``.  A geometry is the distinct ``fibers``,
    each ``[link, span]``'s index into them (``fiber``) and length, and the
    ``[link, channel]`` frequencies and rates, of ``shape`` ``(link, span,
    channel)``; the rows are the channels ``ch`` (see :func:`kernel_rows`).
    All are given as the bytes of those arrays: stacks with equal values
    share one entry, so the passes that plan, score and fit one block
    compute them once."""
    n_links, n_spans, n_ch = shape
    fiber, length, f, rate = (np.frombuffer(b, t).reshape(s) for b, t, s in (
        (fiber, np.intp, (n_links, n_spans)),
        (length, float, (n_links, n_spans)),
        (f, float, (n_links, n_ch)), (rate, float, (n_links, n_ch))))
    ch = np.frombuffer(ch, np.intp)
    lk = 0 if n_links == 1 else np.arange(n_links)
    # Fiber parameters as [fiber, 1, 1] columns.
    beta2, beta3, f_ref, two_alpha = np.array(
        [(fb.beta2, fb.beta3, fb.f_ref, fb.two_alpha)
         for fb in fibers]).T[:, :, None, None]
    fib = SimpleNamespace(beta2=beta2, beta3=beta3, f_ref=f_ref)
    own = slice(None), np.arange(ch.size), ch
    f_cut, rate_cut = f[lk, ch], rate[lk, ch]  # [row]
    df = f - f_cut[:, None]
    upper = df + rate / 2.0
    lower = df - rate / 2.0
    fiber, length = fiber.T, length.T  # [span, link]
    uses = np.zeros((len(fibers), n_links), bool)
    uses[fiber, np.arange(n_links)] = True
    # A zero dispersion gives inf or NaN entries, and a frequency far out of
    # range overflows: non-finite values the callers mask or report.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        b2 = effective_beta2_xci(fib, f, f_cut[:, None])
        m = np.abs(b2)
        # The self terms read the CUT/CUT pair: [fiber, row] against
        # [fiber, 1], and per span [span, row] against [span, link].
        d = m[own]
        two_alpha_f = two_alpha[:, 0]
        den = 2.0 * math.pi * d * two_alpha_f
        arg = (math.pi ** 2 / 2.0) * (d / two_alpha_f) * rate_cut ** 2
        span_fiber = fiber, np.arange(ch.size)
        d_s, den_s = d[span_fiber], den[span_fiber]
        two_alpha_s = two_alpha_f[fiber, 0]
        si = sici(math.pi ** 2 * d_s * length * rate_cut ** 2)[0]
        # i_cross = (asinh(scale * upper) - asinh(scale * lower))
        #     / (4 pi |beta2| 2 alpha),  scale = pi^2 |beta2| / 2 alpha * R
        # with R the CUT's symbol rate, computed in place.
        scale = m / two_alpha
        scale *= math.pi ** 2
        scale *= rate_cut[:, None]
        i_cross = np.arcsinh(scale * upper)
        scale *= lower
        i_cross -= np.arcsinh(scale, out=scale)
        den_cross = np.multiply(m, 4.0 * math.pi, out=scale)
        den_cross *= two_alpha
        i_cross /= den_cross
        forms = (fiber, length, uses, b2, m, i_cross, np.arcsinh(arg) / den,
                 2.0 * si / (math.pi * (two_alpha_s / 2.0) * length) / den_s)
    for a in forms:
        a.setflags(write=False)
    return forms


def coherence_brackets(n_spans: int) -> np.ndarray:
    """The coherence bracket HN(n-1) + (1-n)/n, zero at n = 1, for
    n = 1..n_spans, from one running harmonic sum HN(m) = sum 1/k added
    from k = 1 up."""
    n = np.arange(1, n_spans + 1)
    hn = np.concatenate(([0.0], np.cumsum(1.0 / n[:-1])))
    return hn + (1 - n) / n


@dataclass(frozen=True)
class NliTerms:
    """Per-span NLI of the rows the kernel took as CUT.

    For a link truncated after ``n_end`` spans, span ``n`` adds the PSD
    ``base[n, r] + coherence_brackets(n_end)[-1] * coherent[n, r]``
    (W/THz) at row ``r``'s channel; ``transfer[n]`` is the span's gain
    times its loss on each link, ``[span, link]`` as in
    :class:`SpanIntegrals`.
    """

    transfer: np.ndarray  # [span, link]
    base: np.ndarray  # [span, row]
    coherent: np.ndarray  # [span, row]; zero unless CFM3/CFM4
    active: np.ndarray  # [row]: the row's channel is active, so a CUT
    min_abs_beta2: np.ndarray  # [row]: smallest |beta2| a row's terms use

    def rx_psd(self) -> np.ndarray:
        """Receiver NLI PSD (W/THz) as ``[n_end - 1, row]``, for every
        truncation; NaN in the rows of channels that cannot be CUT."""
        rx = propagate(self.transfer[:, None],
                       np.stack((self.base, self.coherent), axis=1))
        out = (rx[:, 0]
               + coherence_brackets(len(self.transfer))[:, None] * rx[:, 1])
        out[:, ~self.active] = np.nan
        return out


# The kernel takes the rows in blocks whose [span, row, channel] arrays
# hold at most about this many elements (~125 kB).  Whole arrays at paper
# scale (0.35 MB each, every channel as CUT) would be page-faulted in anew
# on every call, and would raise the peak memory by megabytes.
_BLOCK_ELEMENTS = 16_000


def _cross(s: SpanIntegrals, stack: LinkStack, variant: ModelVariant,
           g2: np.ndarray, ch: np.ndarray, roll_cut: np.ndarray, block: slice
           ) -> tuple[np.ndarray, np.ndarray | None]:
    """For the rows ``block`` (channels ``ch[block]``, of roll-offs
    ``roll_cut[block]``): the cross-term sum, weighted by the correction
    factors for CFM2-CFM4, and each row's own |accumulated dispersion|
    (None for CFM1), as ``[span, row]`` arrays.  The cross terms are built
    as ``[span, row, channel]`` arrays and summed in an order that a link's
    trailing pads, zero terms, do not change: a row's sum does not depend
    on the other links of its stack."""
    cuts = ch[block]
    own = slice(None), np.arange(cuts.size), cuts
    acc_own = None
    if variant.kind is CfmKind.CFM1:
        xci = s.per_span(s.i_cross, block)
    else:
        acc = s.abs_acc(block)
        xci = rho_cross(variant.kind, variant.coefficients.a,
                        _block(stack.phi, block), roll_cut[block, None],
                        _block(stack.roll, block))(acc)
        xci *= s.per_span(s.i_cross, block)
        acc_own = acc[own]
    # Inactive interferers and each row's own channel are no cross term:
    # zeroed, their inf or NaN cannot turn a row NaN.  (A boolean index
    # takes a third of the time of np.copyto's where= here.)
    xci[:, np.broadcast_to(~_block(stack.active, block), xci.shape[1:])] = 0.0
    xci[own] = 0.0
    xci *= _block(g2, block, 1)
    # A running sum adds the channels strictly in order, so trailing zeros
    # leave a row's sum as it was (np.sum may sum pairwise).
    return np.cumsum(xci, axis=-1, out=xci)[..., -1], acc_own


def nli_terms(link: LinkSpec | LinkStack, variant: ModelVariant,
              rows: int | None = None) -> NliTerms:
    """The NLI kernel: one array pass over the spans of the rows of
    :func:`kernel_rows`: every channel of a link as CUT (``rows=None``),
    only channel ``rows``, usually ``link.cut_index``, or each link's CUT
    of a stack.  A CUT must be active.

    Applies no low-dispersion policy, since only the caller knows which rows
    it returns: pass their ``min_abs_beta2`` to :func:`check_dispersion`.
    A row with a zero-dispersion term holds inf or NaN.
    """
    stack, lk, ch = kernel_rows(link, rows)
    active = stack.active[lk, ch]  # [row]
    if not (rows is None and isinstance(link, LinkSpec)) and not active.all():
        raise ValidationError("CUT inactive")
    s = _span_integrals(stack, ch)
    g = stack.power / stack.rate[:, None]  # [link, span, channel] PSDs
    g_cut = g[lk, :, ch].T  # [span, row]
    g2 = np.square(g).transpose(1, 0, 2)  # [span, link, channel]
    roll_cut = stack.roll[lk, ch]
    kind = variant.kind
    with np.errstate(invalid="ignore"):
        cross, acc_own = np.empty((2,) + g_cut.shape)
        step = max(1, _BLOCK_ELEMENTS // g2[:, 0].size)
        for i in range(0, ch.size, step):
            block = slice(i, i + step)
            cross[:, block], acc_block = _cross(s, stack, variant, g2, ch,
                                                roll_cut, block)
            if acc_block is not None:
                acc_own[:, block] = acc_block
        sci = g_cut ** 2
        if kind is not CfmKind.CFM1:
            sci *= rho_self(kind, variant.coefficients.a, stack.phi[lk, ch],
                            stack.rate[lk, ch], roll_cut)(acc_own)
        psd = s.prefactor * g_cut
        base = psd * (sci * s.per_span(s.i_self) + 2.0 * cross)
        coherent = (psd * sci * s.i_coherent if kind.coherent_sci
                    else np.zeros_like(base))
    return NliTerms(transfer=s.transfer, base=base, coherent=coherent,
                    active=active,
                    min_abs_beta2=s.min_abs_beta2(stack.active))


# ---------------------------------------------------------------------------
# Views


def _check_n_end(link: LinkSpec, n_end: int | None = None) -> int:
    """``n_end``, or the span count for None; ValueError out of range."""
    if n_end is None:
        return link.n_spans
    if not 1 <= n_end <= link.n_spans:
        raise ValueError("n_end out of range")
    return n_end


def rx_nli_psds(link: LinkSpec | LinkStack, variant: ModelVariant,
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
