"""Closed-form nonlinear-interference PSD models CFM1-CFM4.

The per-span NLI PSD at the channel-under-test combines a self-interference
term and one cross-interference term per co-propagating channel, each built
from asinh closed forms of the underlying four-wave-mixing integrals.
CFM2-CFM4 multiply those terms by fitted correction factors; CFM3/CFM4
additionally model coherent accumulation of the self term.

:func:`nli_terms` computes all of it with spans as a leading array axis,
in ``[span, row, channel]`` arrays whose rows are the channels taken as
CUT: every channel, or with ``rows=link.cut_index`` the CUT alone.
:func:`propagate` carries per-span values to the receiver of every
truncation.  :func:`rx_nli_psds` is the one checked read of the kernel:
one pass, the low-dispersion policy on the rows it returns, and the
receiver PSD of every truncation.  ``perf.link_report`` turns its output
into SNRs; :func:`rx_nli_psd` and :func:`rx_nli_psd_all_channels` read
one truncation of it.  ``poweropt.span_eta`` and the fit's
``_FitData.add_system`` read the kernel's per-span terms directly.
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
    return np.array([s.gain_lin * s.span_loss_lin for s in link.spans])


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
    active = np.array([c.active for c in chans])
    powers = np.fromiter(chain.from_iterable(c.power_w_per_span
                                             for c in chans),
                         float, count=len(chans) * link.n_spans)
    return CombArrays(
        f=np.array([c.f_center for c in chans]),
        rate=np.array([c.symbol_rate for c in chans]),
        roll=np.array([c.roll_off for c in chans]),
        phi=np.array([phi_of_format(c.format) for c in chans]),
        power=np.where(active, powers.reshape(len(chans), -1).T, 0.0),
        active=active)


def _own_column(rows, n_channels: int):
    """Index of every row's own channel in a ``[span, row, channel]`` array:
    the CUT/CUT pair of each row.  ``rows`` is None (every channel), one
    channel index or an array of them."""
    col = np.arange(n_channels) if rows is None else np.atleast_1d(rows)
    return slice(None), np.arange(col.size), col


@dataclass(frozen=True)
class SpanIntegrals:
    """Closed-form kernel integrals of every span, spans as the leading
    axis; a row is a channel taken as CUT, a column an interferer."""

    transfer: np.ndarray  # [span]: gain times loss
    prefactor: np.ndarray  # [span]: 16/27 gamma^2 times the transfer
    abs_beta2: np.ndarray  # [span, row, channel]: |effective beta2| (ps^2/km)
    abs_acc: np.ndarray  # [span, row, channel]: |accumulated dispersion|
    #                      (ps^2) at the span input
    i_cross: np.ndarray  # [span, row, channel]
    i_self: np.ndarray  # [span, row], incoherent accumulation
    i_coherent: np.ndarray  # [span, row], coefficient of coherence_bracket


def span_integrals(link: LinkSpec, ch: CombArrays,
                   rows: int | np.ndarray | None = None) -> SpanIntegrals:
    """The integrals of every span, with every channel as CUT
    (``rows=None``) or only channel(s) ``rows``.  A pair with zero
    dispersion gives inf or NaN entries; callers mask the ones they do not
    use."""
    transfer = span_transfer(link)
    # Fiber parameters and lengths as [span, 1, 1] columns.
    beta2, beta3, f_ref, two_alpha, gamma, length = np.array(
        [(s.fiber.beta2, s.fiber.beta3, s.fiber.f_ref, s.fiber.two_alpha,
          s.fiber.gamma, s.length_km) for s in link.spans]).T[:, :, None, None]
    fib = SimpleNamespace(beta2=beta2, beta3=beta3, f_ref=f_ref)
    own = _own_column(rows, len(ch.f))
    f, rate = ch.f, ch.rate
    f_cut, rate_cut = f[own[2]], rate[own[2]]  # [row]
    df = f - f_cut[:, None]
    upper = df + rate / 2.0
    lower = df - rate / 2.0
    b2 = effective_beta2_xci(fib, f, f_cut[:, None])
    # Exclusive running sum: span n sees the dispersion of spans 0..n-1.
    acc = np.zeros_like(b2)
    np.cumsum(b2[:-1] * length[:-1], axis=0, out=acc[1:])
    m = np.abs(b2, out=b2)
    # The self terms read the CUT/CUT pair: [span, row] against [span, 1].
    d = m[own]
    two_alpha_s, length_s = two_alpha[:, 0], length[:, 0]
    den = 2.0 * math.pi * d * two_alpha_s
    arg = (math.pi ** 2 / 2.0) * (d / two_alpha_s) * rate_cut ** 2
    si = sici(math.pi ** 2 * d * length_s * rate_cut ** 2)[0]
    # i_cross = (asinh(scale * upper) - asinh(scale * lower))
    #           / (4 pi |beta2| 2 alpha),  scale = pi^2 |beta2| / 2 alpha * R
    # with R the CUT's symbol rate, computed in place: fresh temporaries
    # would double a block's peak memory and the page faults it costs.
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
            transfer=transfer,
            prefactor=(16.0 / 27.0) * gamma[:, 0, 0] ** 2 * transfer,
            abs_beta2=m, abs_acc=np.abs(acc, out=acc), i_cross=i_cross,
            i_self=np.arcsinh(arg) / den,
            i_coherent=2.0 * si / (math.pi * (two_alpha_s / 2.0) * length_s)
            / den)


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


# The kernel takes its rows in blocks whose [span, row, channel] arrays hold
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
    ch = comb_arrays(link)
    if rows is not None and not ch.active[rows]:
        raise ValidationError("CUT inactive")
    cuts = _own_column(rows, len(ch.f))[2]
    step = max(1, _BLOCK_ELEMENTS // (link.n_spans * len(ch.f)))
    blocks = [_row_block(link, variant, ch, cuts[i:i + step])
              for i in range(0, cuts.size, step)]
    base, coherent, min_abs_beta2 = (np.concatenate(part, axis=-1)
                                     for part in list(zip(*blocks))[:3])
    return NliTerms(transfer=blocks[0][3], base=base, coherent=coherent,
                    active=ch.active[cuts], min_abs_beta2=min_abs_beta2)


def _row_block(link: LinkSpec, variant: ModelVariant, ch: CombArrays,
               cuts: np.ndarray):
    """``base``, ``coherent``, ``min_abs_beta2`` and ``transfer`` of
    :class:`NliTerms` for the rows of channels ``cuts``."""
    own = _own_column(cuts, len(ch.f))
    kind = variant.kind
    cross_factor = self_factor = lambda abs_acc: 1.0  # CFM1
    if kind is not CfmKind.CFM1:
        a = variant.coefficients.a
        cross_factor = rho_cross(kind, a, ch.phi, ch.roll[cuts, None],
                                 ch.roll)
        self_factor = rho_self(kind, a, ch.phi[cuts], ch.rate[cuts],
                               ch.roll[cuts])
    s = span_integrals(link, ch, cuts)
    g = ch.power / ch.rate  # [span, channel] effective PSDs
    g_cut = g[:, cuts]
    with np.errstate(invalid="ignore"):
        # Inactive interferers and each row's own channel are no cross
        # terms; zero them so that their entries cannot turn a row NaN.
        xci = s.i_cross
        xci *= cross_factor(s.abs_acc)
        xci[:, :, ~ch.active] = 0.0
        xci[own] = 0.0
        sci = self_factor(s.abs_acc[own]) * g_cut ** 2
        psd = s.prefactor[:, None] * g_cut
        base = psd * (sci * s.i_self
                      + 2.0 * (xci @ (g ** 2)[:, :, None])[:, :, 0])
        coherent = (psd * sci * s.i_coherent if kind.coherent_sci
                    else np.zeros_like(base))
    return (base, coherent, np.min(s.abs_beta2, axis=(0, 2),
                                   where=ch.active, initial=np.inf),
            s.transfer)


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
