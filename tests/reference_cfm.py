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

from nli_planner.cfm import (MIN_ABS_BETA2, LowDispersionWarning,
                             ZeroDispersionError, coherence_bracket,
                             effective_beta2_cut, effective_beta2_xci,
                             sine_integral)
from nli_planner.types import (CfmKind, ChannelSpec, LinkSpec, ModelVariant,
                               SpanConfig, phi_of_format)

_BRACKET_FLOOR = 1e-12
_THZ = 1e12


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
        span = link.spans[k]
        total += effective_beta2_xci(span.fiber, channel.f_center, f_other) \
            * span.length_km
    return total


def _pow(base: float, exponent: float) -> float:
    if base == 0.0 and exponent > 0.0:
        return 0.0
    return base ** exponent


def _bracket(abs_b2_acc: float, offset: float) -> float:
    return max(abs_b2_acc + offset, _BRACKET_FLOOR)


def rho_xci(variant: ModelVariant, link: LinkSpec, span_index: int,
            nch: ChannelSpec, cut: ChannelSpec) -> float:
    """Correction factor for one cross-interference term."""
    if variant.kind is CfmKind.CFM1:
        return 1.0
    a = variant.coefficients
    phi = phi_of_format(nch.format)
    acc = abs(beta2_acc(link, span_index, nch, cut))
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


def span_nli_psd(link: LinkSpec, span_index: int, variant: ModelVariant,
                 n_span_total: int | None = None) -> float:
    """NLI PSD (W/THz) generated in one span at the CUT frequency.

    ``n_span_total`` binds the coherent self-term span count for CFM3/CFM4;
    it defaults to the full link length.
    """
    span = link.spans[span_index]
    comb = link.channels
    cut = comb[link.cut_index]
    if n_span_total is None:
        n_span_total = link.n_spans

    if variant.kind.coherent_sci:
        i_cut = i_cut_coherent(span, cut, n_span_total)
    else:
        i_cut = i_cut_incoherent(span, cut)
    g_cut = cut.psd(span_index)
    acc = rho_sci(variant, link, span_index, cut) * g_cut ** 2 * i_cut

    for idx, nch in enumerate(comb):
        if idx == link.cut_index or not nch.active:
            continue
        g_nch = nch.psd(span_index)
        acc += (2.0 * rho_xci(variant, link, span_index, nch, cut)
                * g_nch ** 2 * i_xci(span, cut, nch))

    prefactor = ((16.0 / 27.0) * span.fiber.gamma ** 2
                 * span.gain_lin * span.span_loss_lin)
    return prefactor * g_cut * acc


def propagation_factor(link: LinkSpec, first: int, last: int) -> float:
    """Power gain/loss product of spans ``first..last-1`` (0-based, half-open)."""
    out = 1.0
    for k in range(first, last):
        span = link.spans[k]
        out *= span.gain_lin * span.span_loss_lin
    return out


def rx_nli_psd(link: LinkSpec, variant: ModelVariant, n_end: int) -> float:
    """Accumulated NLI PSD (W/THz) at the receiver of the truncated link.

    The coherent self-term of CFM3/CFM4 is evaluated with the truncated
    span count ``n_end`` for every span.
    """
    if not 1 <= n_end <= link.n_spans:
        raise ValueError("n_end out of range")
    total = 0.0
    for n in range(n_end):
        term = span_nli_psd(link, n, variant, n_span_total=n_end)
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
        span = link.spans[k]
        gain = span.gain_lin
        if gain <= 1.0:
            continue
        nf_lin = 10.0 ** (span.noise_figure_db / 10.0)
        psd_w_per_hz = nf_lin * PLANCK_J_S * (f * _THZ) * (gain - 1.0)
        total += psd_w_per_hz * (r * _THZ) \
            * propagation_factor(link, k + 1, n_end)
    return total


def snr(link: LinkSpec, variant: ModelVariant, n_end: int) -> float:
    """Received CUT SNR (dB), inclusive of ASE and NLI noise."""
    span = link.spans[n_end - 1]
    cut = link.channels[link.cut_index]
    p_rx = (cut.power_w_per_span[n_end - 1] * span.span_loss_lin
            * span.gain_lin)
    p_nli = rx_nli_psd(link, variant, n_end) * cut.symbol_rate
    return 10.0 * math.log10(p_rx / (ase_power(link, n_end) + p_nli))
