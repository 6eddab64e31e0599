"""Scalar per-CUT closed forms: the independent oracle for the NLI kernel.

One CUT, one span and one interferer at a time, written straight from the
model equations with plain Python floats.  The package computes the same
quantities with one vectorized pass over the spans
(:func:`nli_planner.cfm.nli_terms`); the tests compare the two.
"""

from __future__ import annotations

import math
import warnings

from scipy.constants import h as PLANCK_J_S
from scipy.special import sici

from conftest import SpanConfig, channels_of, spans_of
from nli_planner.cfm import (MIN_ABS_BETA2, LowDispersionWarning,
                             ZeroDispersionError)
from nli_planner.types import (CfmKind, ChannelSpec, FiberParams, LinkSpec,
                               ModelVariant, phi_of_format)

_BRACKET_FLOOR = 1e-12
_THZ = 1e12


def effective_beta2_cut(fiber: FiberParams, f_cut: float) -> float:
    """Effective dispersion (ps^2/km) seen by the CUT at its own frequency."""
    return fiber.beta2 + math.pi * fiber.beta3 * (2.0 * f_cut - 2.0 * fiber.f_ref)


def effective_beta2_xci(fiber: FiberParams, f_nch: float,
                        f_cut: float) -> float:
    """Effective dispersion (ps^2/km) for an interferer/CUT pair."""
    return fiber.beta2 + math.pi * fiber.beta3 * (f_nch + f_cut - 2.0 * fiber.f_ref)


def harmonic_number(m: int) -> float:
    """HN(m) = sum_{k=1..m} 1/k by direct summation (m stays small here),
    left to right as ``cfm.coherence_brackets`` adds (``sum`` compensates
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


def _check_beta2(b2: float) -> float:
    mag = abs(b2)
    if mag == 0.0:
        raise ZeroDispersionError("zero effective dispersion")
    if mag < MIN_ABS_BETA2:
        warnings.warn(
            f"effective |beta2| = {mag:.3g} ps^2/km is below the recommended "
            f"{MIN_ABS_BETA2} ps^2/km validity bound", LowDispersionWarning,
            stacklevel=3)
    return mag


def i_cut_incoherent(span: SpanConfig, cut: ChannelSpec) -> float:
    """Self-interference kernel integral, incoherent accumulation form."""
    b2 = _check_beta2(effective_beta2_cut(span.fiber, cut.f_center))
    two_alpha = span.fiber.two_alpha
    arg = (math.pi ** 2 / 2.0) * (b2 / two_alpha) * cut.symbol_rate ** 2
    return math.asinh(arg) / (2.0 * math.pi * b2 * two_alpha)


def i_cut_coherent(span: SpanConfig, cut: ChannelSpec,
                   n_span_total: int) -> float:
    """Self-interference kernel with the coherent-accumulation correction.

    The CUT bandwidth is taken equal to its symbol rate, matching the
    incoherent form.  At ``n_span_total == 1`` the correction is exactly zero
    and the value coincides with :func:`i_cut_incoherent`.
    """
    b2 = _check_beta2(effective_beta2_cut(span.fiber, cut.f_center))
    two_alpha = span.fiber.two_alpha
    alpha = two_alpha / 2.0
    b_cut = cut.symbol_rate
    asinh_term = math.asinh((math.pi ** 2 / 4.0) * (b2 / alpha) * b_cut ** 2)
    bracket = coherence_bracket(n_span_total)
    corr = 0.0
    if bracket != 0.0:
        si = sine_integral(math.pi ** 2 * b2 * span.length_km * b_cut ** 2)
        corr = 2.0 * si / (math.pi * alpha * span.length_km) * bracket
    return (asinh_term + corr) / (2.0 * math.pi * b2 * two_alpha)


def i_xci(span: SpanConfig, cut: ChannelSpec, nch: ChannelSpec) -> float:
    """Cross-interference kernel integral for one interfering channel."""
    b2 = _check_beta2(effective_beta2_xci(span.fiber, nch.f_center,
                                          cut.f_center))
    two_alpha = span.fiber.two_alpha
    scale = math.pi ** 2 * (b2 / two_alpha) * cut.symbol_rate
    df = nch.f_center - cut.f_center
    hi = math.asinh(scale * (df + nch.symbol_rate / 2.0))
    lo = math.asinh(scale * (df - nch.symbol_rate / 2.0))
    return (hi - lo) / (4.0 * math.pi * b2 * two_alpha)


def beta2_acc(link: LinkSpec, span_index: int, channel: ChannelSpec,
              cut: ChannelSpec | None = None) -> float:
    """Accumulated effective dispersion (ps^2) at the input of a span.

    Sums the pairwise effective dispersion of ``channel`` against ``cut``
    (``channel`` itself when no CUT is given) over spans before
    ``span_index`` (0-based); zero at the first span.
    """
    f_other = (cut or channel).f_center
    total = 0.0
    for k in range(span_index):
        span = spans_of(link)[k]
        total += effective_beta2_xci(span.fiber, channel.f_center, f_other) \
            * span.length_km
    return total


def _pow(base: float, exponent: float) -> float:
    if base == 0.0 and exponent > 0.0:
        return 0.0
    return base ** exponent


def _bracket(abs_b2_acc: float, offset: float) -> float:
    return max(abs_b2_acc + offset, _BRACKET_FLOOR)


def rho_xci(variant: ModelVariant, acc: float, nch: ChannelSpec,
            cut: ChannelSpec) -> float:
    """Correction factor for one cross-interference term, at the pair's
    |accumulated dispersion| ``acc`` (ps^2)."""
    if variant.kind is CfmKind.CFM1:
        return 1.0
    a = variant.coefficients
    phi = phi_of_format(nch.format)
    core = (a[1] + a[2] * _pow(phi, a[3])
            + a[4] * _pow(phi, a[5])
            * (1.0 + a[6] * _bracket(acc, a[7]) ** a[8]))
    if variant.kind is CfmKind.CFM4:
        core *= (1.0 + a[19] * _pow(cut.roll_off, a[20])
                 + a[21] * _pow(nch.roll_off, a[22]))
    return core


def rho_sci(variant: ModelVariant, link: LinkSpec, span_index: int,
            cut: ChannelSpec) -> float:
    """Correction factor for the self-interference term."""
    if variant.kind is CfmKind.CFM1:
        return 1.0
    a = variant.coefficients
    phi = phi_of_format(cut.format)
    acc = abs(beta2_acc(link, span_index, cut))
    core = (a[9] + a[10] * _pow(phi, a[11])
            + a[12] * _pow(phi, a[13])
            * (1.0 + a[14] * _pow(cut.symbol_rate, a[15])
               + a[16] * _bracket(acc, a[17]) ** a[18]))
    if variant.kind is CfmKind.CFM4:
        core *= 1.0 + a[23] * _pow(cut.roll_off, a[24])
    return core


def gain_lin(span: SpanConfig) -> float:
    """Lumped power gain of a span; a transparent one offsets its loss."""
    gain_db = span.gain_db
    if gain_db is None:
        gain_db = span.fiber.alpha_db_per_km * span.length_km
    return 10.0 ** (gain_db / 10.0)


def span_loss_lin(span: SpanConfig) -> float:
    """Fiber power transmission exp(-2 alpha L) of a span."""
    return math.exp(-span.fiber.two_alpha * span.length_km)


def _psd(ch: ChannelSpec, span_index: int) -> float:
    """Effective launch PSD P/R (W/THz) at the given span input."""
    return ch.power_w_per_span[span_index] / ch.symbol_rate


def xci_terms(link: LinkSpec, variant: ModelVariant,
              n_end: int) -> list[list[float]]:
    """The cross terms 2 rho g^2 I of every active interferer, in channel
    order, in each of the first ``n_end`` spans.  A pair's closed form is
    computed once per fiber, and its accumulated dispersion summed span by
    span as :func:`beta2_acc` sums it."""
    spans = spans_of(link)[:n_end]
    cut = link.cut
    out: list[list[float]] = [[] for _ in spans]
    for idx, nch in enumerate(channels_of(link)):
        if idx == link.cut_index or not nch.active:
            continue
        forms: dict[FiberParams, float] = {}
        acc = 0.0
        for n, span in enumerate(spans):
            if span.fiber not in forms:
                forms[span.fiber] = i_xci(span, cut, nch)
            out[n].append(2.0 * rho_xci(variant, abs(acc), nch, cut)
                          * _psd(nch, n) ** 2 * forms[span.fiber])
            acc += effective_beta2_xci(span.fiber, nch.f_center,
                                       cut.f_center) * span.length_km
    return out


def span_nli_psd(link: LinkSpec, span_index: int, variant: ModelVariant,
                 n_span_total: int, xci: list[float]) -> float:
    """NLI PSD (W/THz) generated in one span at the CUT frequency, with the
    span's cross terms ``xci`` from :func:`xci_terms`.

    ``n_span_total`` binds the coherent self-term span count for CFM3/CFM4.
    """
    span = spans_of(link)[span_index]
    cut = link.cut
    if variant.kind.coherent_sci:
        i_cut = i_cut_coherent(span, cut, n_span_total)
    else:
        i_cut = i_cut_incoherent(span, cut)
    g_cut = _psd(cut, span_index)
    acc = rho_sci(variant, link, span_index, cut) * g_cut ** 2 * i_cut
    for term in xci:
        acc += term
    prefactor = ((16.0 / 27.0) * span.fiber.gamma ** 2
                 * gain_lin(span) * span_loss_lin(span))
    return prefactor * g_cut * acc


def propagation_factor(link: LinkSpec, first: int, last: int) -> float:
    """Power gain/loss product of spans ``first..last-1`` (0-based, half-open)."""
    out = 1.0
    for k in range(first, last):
        span = spans_of(link)[k]
        out *= gain_lin(span) * span_loss_lin(span)
    return out


def rx_nli_psd(link: LinkSpec, variant: ModelVariant, n_end: int,
               xci: list[list[float]] | None = None) -> float:
    """Accumulated NLI PSD (W/THz) at the receiver of the truncated link.

    The coherent self-term of CFM3/CFM4 is evaluated with the truncated
    span count ``n_end`` for every span.  ``xci`` holds the link's
    :func:`xci_terms` for at least ``n_end`` spans, which do not depend on
    the truncation; they are computed here if None.
    """
    if not 1 <= n_end <= link.n_spans:
        raise ValueError("n_end out of range")
    if xci is None:
        xci = xci_terms(link, variant, n_end)
    total = 0.0
    for n in range(n_end):
        term = span_nli_psd(link, n, variant, n_end, xci[n])
        total += term * propagation_factor(link, n + 1, n_end)
    return total


def ase_power(link: LinkSpec, n_end: int) -> float:
    """Dual-polarization ASE power (W) of the CUT in its matched filter.

    Each amplifier contributes NF * h * f * (gain - 1) in PSD, propagated
    through the remaining spans; amplifiers with gain below 1 contribute
    nothing.
    """
    cut = link.cut
    f, r = cut.f_center, cut.symbol_rate
    total = 0.0
    for k in range(n_end):
        span = spans_of(link)[k]
        gain = gain_lin(span)
        if gain <= 1.0:
            continue
        nf_lin = 10.0 ** (span.noise_figure_db / 10.0)
        psd_w_per_hz = nf_lin * PLANCK_J_S * (f * _THZ) * (gain - 1.0)
        total += psd_w_per_hz * (r * _THZ) \
            * propagation_factor(link, k + 1, n_end)
    return total


def snr(link: LinkSpec, variant: ModelVariant, n_end: int) -> float:
    """Received CUT SNR (dB), inclusive of ASE and NLI noise."""
    span = spans_of(link)[n_end - 1]
    cut = link.cut
    p_rx = (cut.power_w_per_span[n_end - 1] * span_loss_lin(span)
            * gain_lin(span))
    p_nli = rx_nli_psd(link, variant, n_end) * cut.symbol_rate
    return 10.0 * math.log10(p_rx / (ase_power(link, n_end) + p_nli))
