"""Closed-form model kernels: independent numeric oracles and invariants."""

from dataclasses import replace
from fractions import Fraction

import json
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import reference_cfm as ref
from conftest import (link_of, make_single_channel_link, make_system,
                      make_zero_dispersion_link, with_powers)
from nli_planner import assets, cfm, fileio
from nli_planner.cfm import (RHO_LAYOUT, LowDispersionWarning,
                             ZeroDispersionError, coherence_brackets,
                             effective_beta2_xci, nli_terms, propagate,
                             rho_cross, rho_partials, rho_self, rx_nli_psd,
                             rx_nli_psd_all_channels, rx_nli_psds,
                             span_integrals)
from nli_planner.perf import (evaluate_all_channels, link_report, max_reach,
                              snr, snr_report)
from nli_planner.poweropt import optimize_powers
from nli_planner.sysgen import GeneratorConfig, generate_system
from nli_planner.types import (CfmKind, ChannelSpec, FiberParams, LinkSpec,
                               LinkStack, ModelVariant, ModulationFormat,
                               SpanConfig, phi_of_format)
from reference_cfm import (beta2_acc, coherence_bracket, effective_beta2_cut,
                           harmonic_number, i_cut_coherent, i_cut_incoherent,
                           i_xci, propagation_factor, sine_integral)

mpmath.mp.dps = 50


# ---------------------------------------------------------------------------
# Elementary kernels


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0, math.pi, 10.0, 250.0, 4000.0])
def test_sine_integral_vs_quadrature(x):
    # [DERIVED] direct numerical integration of sin(t)/t, one quadrature
    # per stretch between multiples of pi, where the integrand is smooth
    # and of one sign.
    edges = [*np.arange(0.0, x, math.pi), x]
    expected = math.fsum(
        quad(lambda t: math.sin(t) / t if t else 1.0, lo, hi)[0]
        for lo, hi in zip(edges[:-1], edges[1:]))
    assert sine_integral(x) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("x", [0.5, 7.0, 123.456])
def test_sine_integral_vs_mpmath(x):
    # [DERIVED] arbitrary-precision reference.
    assert sine_integral(x) == pytest.approx(float(mpmath.si(x)), rel=1e-12)


def test_harmonic_number_exact():
    # [DERIVED] exact rational summation.
    for m in range(0, 60):
        exact = sum(Fraction(1, k) for k in range(1, m + 1))
        assert harmonic_number(m) == pytest.approx(float(exact), rel=1e-14)
    with pytest.raises(ValueError):
        harmonic_number(-1)


def test_coherence_bracket_zero_at_one_span():
    assert coherence_bracket(1) == 0.0


def test_coherence_bracket_direct_sum():
    # [DERIVED] HN(N-1) + (1-N)/N == sum_{k=1}^{N-1} (N-k)/(N k), exactly.
    for n in range(1, 41):
        exact = sum(Fraction(n - k, n * k) for k in range(1, n))
        assert coherence_bracket(n) == pytest.approx(float(exact), abs=1e-13)


def test_coherence_brackets_equal_the_scalar_bracket():
    # One running harmonic sum, added in the scalar's order: bit-identical.
    assert coherence_brackets(40).tolist() == [coherence_bracket(n)
                                               for n in range(1, 41)]


def test_effective_beta2_forms():
    fib = FiberParams(alpha_db_per_km=0.21, beta2=-21.3, beta3=0.1452,
                      gamma=1.3, f_ref=193.8)
    # [TRIVIAL] at the reference frequency both forms reduce to beta2.
    assert effective_beta2_cut(fib, 193.8) == pytest.approx(-21.3)
    assert effective_beta2_xci(fib, 193.8, 193.8) == pytest.approx(-21.3)
    # The pair form at (f, f) equals the reference's single-channel form.
    assert effective_beta2_xci(fib, 195.0, 195.0) == pytest.approx(
        effective_beta2_cut(fib, 195.0))
    # Linear slope pi*beta3 per THz of (f1 + f2 - 2 f_ref).
    delta = effective_beta2_xci(fib, 194.8, 193.8) - (-21.3)
    assert delta == pytest.approx(math.pi * 0.1452 * 1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Kernel integrals of the scalar reference against arbitrary-precision
# evaluation


def _mp_i_cut(two_alpha, b2_abs, rate):
    arg = mpmath.pi ** 2 / 2 * mpmath.mpf(b2_abs) / two_alpha * rate ** 2
    return mpmath.asinh(arg) / (2 * mpmath.pi * b2_abs * two_alpha)


def test_i_cut_incoherent_vs_mpmath():
    link = make_single_channel_link()
    span, cut = link.spans[0], link.cut
    expected = _mp_i_cut(mpmath.mpf(span.fiber.two_alpha),
                         abs(effective_beta2_cut(span.fiber, cut.f_center)),
                         mpmath.mpf(cut.symbol_rate))
    assert i_cut_incoherent(span, cut) == pytest.approx(float(expected),
                                                        rel=1e-12)


def test_i_cut_coherent_reduces_to_incoherent_at_one_span():
    link = make_single_channel_link()
    span, cut = link.spans[0], link.cut
    assert i_cut_coherent(span, cut, 1) == pytest.approx(
        i_cut_incoherent(span, cut), rel=1e-15)


def test_i_cut_coherent_vs_mpmath():
    link = make_single_channel_link()
    span, cut = link.spans[0], link.cut
    n_tot = 12
    b2 = mpmath.mpf(abs(effective_beta2_cut(span.fiber, cut.f_center)))
    two_a = mpmath.mpf(span.fiber.two_alpha)
    alpha = two_a / 2
    rate = mpmath.mpf(cut.symbol_rate)
    length = mpmath.mpf(span.length_km)
    bracket = (mpmath.harmonic(n_tot - 1) + (1 - n_tot) / mpmath.mpf(n_tot))
    expected = (mpmath.asinh(mpmath.pi ** 2 / 4 * b2 / alpha * rate ** 2)
                + 2 * mpmath.si(mpmath.pi ** 2 * b2 * length * rate ** 2)
                / (mpmath.pi * alpha * length) * bracket) \
        / (2 * mpmath.pi * b2 * two_a)
    assert i_cut_coherent(span, cut, n_tot) == pytest.approx(float(expected),
                                                             rel=1e-10)


def test_i_xci_vs_mpmath():
    link = make_single_channel_link()
    span, cut = link.spans[0], link.cut
    nch = ChannelSpec(f_center=cut.f_center + 0.1, symbol_rate=0.032,
                      roll_off=0.1, format=ModulationFormat.PM_64QAM,
                      power_w_per_span=(1e-3,))
    b2 = mpmath.mpf(abs(effective_beta2_xci(span.fiber, nch.f_center,
                                            cut.f_center)))
    two_a = mpmath.mpf(span.fiber.two_alpha)
    scale = mpmath.pi ** 2 * b2 / two_a * mpmath.mpf(cut.symbol_rate)
    df = mpmath.mpf(nch.f_center) - mpmath.mpf(cut.f_center)
    expected = (mpmath.asinh(scale * (df + mpmath.mpf(nch.symbol_rate) / 2))
                - mpmath.asinh(scale * (df - mpmath.mpf(nch.symbol_rate) / 2))) \
        / (4 * mpmath.pi * b2 * two_a)
    assert i_xci(span, cut, nch) == pytest.approx(float(expected), rel=1e-12)


def test_i_xci_symmetric_in_detuning_sign():
    link = make_single_channel_link()
    span, cut = link.spans[0], link.cut

    def neighbor(df):
        return ChannelSpec(f_center=cut.f_center + df, symbol_rate=0.032,
                           roll_off=0.1, format=ModulationFormat.PM_64QAM,
                           power_w_per_span=(1e-3,))

    # With beta3 = 0 the integral depends only on |detuning|.
    fib = FiberParams(alpha_db_per_km=0.21, beta2=-21.3, beta3=0.0,
                      gamma=1.3, f_ref=193.8)
    span0 = SpanConfig(fiber=fib, length_km=span.length_km)
    assert i_xci(span0, cut, neighbor(0.2)) == pytest.approx(
        i_xci(span0, cut, neighbor(-0.2)), rel=1e-13)


def test_zero_dispersion_rejected():
    fib = FiberParams(alpha_db_per_km=0.21, beta2=0.0, beta3=0.0,
                      gamma=1.3, f_ref=193.8)
    link = make_single_channel_link(fiber=fib)
    with pytest.raises(ZeroDispersionError):
        rx_nli_psd(link, assets.model(CfmKind.CFM1), 1)


# ---------------------------------------------------------------------------
# Correction factors against an arbitrary-precision re-evaluation


def _mp_pow(base, exponent):
    base = mpmath.mpf(base)
    if base == 0 and exponent > 0:
        return mpmath.mpf(0)
    return base ** mpmath.mpf(exponent)


def _mp_rho_xci(a, phi, acc, roll_cut, roll_nch, cfm4):
    br = max(mpmath.mpf(acc) + a[7 - 1], mpmath.mpf("1e-12"))
    core = (a[0] + a[1] * _mp_pow(phi, a[2]) + a[3] * _mp_pow(phi, a[4])
            * (1 + a[5] * br ** a[7]))
    if cfm4:
        core *= (1 + a[18] * _mp_pow(roll_cut, a[19])
                 + a[20] * _mp_pow(roll_nch, a[21]))
    return core


def _mp_rho_sci(a, phi, acc, rate, roll_cut, cfm4):
    br = max(mpmath.mpf(acc) + a[17 - 1], mpmath.mpf("1e-12"))
    core = (a[8] + a[9] * _mp_pow(phi, a[10]) + a[11] * _mp_pow(phi, a[12])
            * (1 + a[13] * _mp_pow(rate, a[14]) + a[15] * br ** a[17]))
    if cfm4:
        core *= 1 + a[22] * _mp_pow(roll_cut, a[23])
    return core


@pytest.mark.parametrize("kind", [CfmKind.CFM2, CfmKind.CFM3, CfmKind.CFM4])
def test_correction_factors_vs_mpmath(kind):
    # [DERIVED] 50-digit re-evaluation of the correction-factor formulas on
    # randomized inputs, tolerance 1e-10 relative.
    rng = np.random.default_rng(99)
    variant = assets.model(kind)
    a = [mpmath.mpf(repr(v)) for v in variant.coefficients.a]
    cfm4 = kind is CfmKind.CFM4

    for _ in range(40):
        n_spans = int(rng.integers(1, 6))
        link = make_system(int(rng.integers(1_000_000)), n_spans=n_spans,
                           band_width=0.5)
        span_index = int(rng.integers(n_spans))
        cut = link.cut
        others = [i for i in range(len(link.channels))
                  if i != link.cut_index]
        nch = link.channels[int(rng.choice(others))]

        a_pkg = variant.coefficients.a
        acc = abs(beta2_acc(link, span_index, nch, cut))
        got = rho_cross(kind, a_pkg, phi_of_format(nch.format), cut.roll_off,
                        nch.roll_off)(acc)
        want = _mp_rho_xci(a, mpmath.mpf(repr(
            float(np.float64(assets.phi_table()[nch.format])))),
            mpmath.mpf(repr(acc)), mpmath.mpf(repr(cut.roll_off)),
            mpmath.mpf(repr(nch.roll_off)), cfm4)
        assert got == pytest.approx(float(want), rel=1e-10)

        acc = abs(beta2_acc(link, span_index, cut))
        got = rho_self(kind, a_pkg, phi_of_format(cut.format),
                       cut.symbol_rate, cut.roll_off)(acc)
        want = _mp_rho_sci(a, mpmath.mpf(repr(
            float(np.float64(assets.phi_table()[cut.format])))),
            mpmath.mpf(repr(acc)), mpmath.mpf(repr(cut.symbol_rate)),
            mpmath.mpf(repr(cut.roll_off)), cfm4)
        assert got == pytest.approx(float(want), rel=1e-10)


@pytest.mark.parametrize("kind", [CfmKind.CFM2, CfmKind.CFM3, CfmKind.CFM4])
def test_layout_assigns_each_coefficient_once(kind):
    # The one coefficient table that both correction factors and their
    # partial derivatives read: each coefficient of the variant belongs to
    # exactly one factor and one slot of it, and the partials cover those.
    cfm4 = kind is CfmKind.CFM4
    feat = {name: np.array([0.5]) for name in
            ("phi", "acc", "rate", "roll_cut", "roll_nch")}
    log = {name: np.log(v) for name, v in feat.items()}
    used = []
    for layout in RHO_LAYOUT.values():
        slots = [*range(layout.first, layout.first + 5), *(layout.rate or ()),
                 *layout.bracket,
                 *(k for c, e, _ in layout.rolls if cfm4 for k in (c, e))]
        partials = rho_partials(layout, np.ones(24), feat, log, cfm4)
        assert sorted(k for k, _ in partials) == sorted(slots)
        used += slots
    assert sorted(used) == list(range(kind.n_coefficients))


def test_identity_coefficients_give_unit_factors():
    link = make_system(3, n_spans=3)
    cut = link.cut
    nch = link.channels[0 if link.cut_index != 0 else 1]
    acc_x = abs(beta2_acc(link, 2, nch, cut))
    acc_c = abs(beta2_acc(link, 2, cut))
    for kind in (CfmKind.CFM2, CfmKind.CFM3, CfmKind.CFM4):
        a = assets.identity_coefficients(kind).a
        assert rho_cross(kind, a, phi_of_format(nch.format), cut.roll_off,
                         nch.roll_off)(acc_x) == 1.0
        assert rho_self(kind, a, phi_of_format(cut.format), cut.symbol_rate,
                        cut.roll_off)(acc_c) == 1.0


def test_identity_cfm2_equals_cfm1(paper_link):
    # Every variant sums its cross terms on one path, so unit correction
    # factors give CFM1 bit-for-bit, on the CUT row and on every row.
    cfm1 = assets.model(CfmKind.CFM1)
    cfm2_id = ModelVariant(kind=CfmKind.CFM2,
                           coefficients=assets.identity_coefficients(
                               CfmKind.CFM2))
    for link in [make_system(seed + 100) for seed in range(6)] + [paper_link]:
        for n_end in (1, link.n_spans):
            a = rx_nli_psd(link, cfm1, n_end)
            b = rx_nli_psd(link, cfm2_id, n_end)
            assert np.array_equal(b, a, equal_nan=True)
        for rows in (None, link.cut_index):
            a = nli_terms(link, cfm1, rows).rx_psd()
            b = nli_terms(link, cfm2_id, rows).rx_psd()
            assert np.array_equal(b, a, equal_nan=True)


# ---------------------------------------------------------------------------
# Accumulated dispersion and propagation


def _abs_acc(link):
    """The kernel's |accumulated dispersion| matrix at every span input."""
    return span_integrals(link).abs_acc()


def test_beta2_acc_zero_at_first_span():
    link = make_system(5)
    assert not _abs_acc(link)[0].any()
    assert beta2_acc(link, 0, link.cut) == 0.0


def test_beta2_acc_is_cumulative():
    link = make_system(5)
    cut, c = link.cut, link.cut_index
    acc = _abs_acc(link)
    manual = 0.0
    for n in range(link.n_spans):
        assert acc[n][c, c] == pytest.approx(abs(manual), rel=1e-12)
        assert beta2_acc(link, n, cut) == pytest.approx(manual, rel=1e-12)
        manual += effective_beta2_cut(link.spans[n].fiber, cut.f_center) \
            * link.spans[n].length_km
    # Pair form against an interferer differs from the self form.
    j = 0 if c != 0 else 1
    nch = link.channels[j]
    want = sum(effective_beta2_xci(link.spans[k].fiber, nch.f_center,
                                   cut.f_center) * link.spans[k].length_km
               for k in range(2))
    assert acc[2][c, j] == pytest.approx(abs(want), rel=1e-12)
    assert beta2_acc(link, 2, nch, cut) == pytest.approx(want, rel=1e-12)


def test_propagation_factor_transparent_link_is_unity():
    link = make_system(6, optimize=False)
    n = link.n_spans
    # Row k, column m of propagating unit impulses is the transfer of spans
    # m+1..k: one for an empty product, and one on a transparent link.
    prop = propagate(link.span_arrays.transfer, np.eye(n))
    assert np.all(np.diag(prop) == 1.0)
    assert prop[-1] == pytest.approx(np.ones(n), rel=1e-12)
    assert np.all(np.triu(prop, 1) == 0.0)


# ---------------------------------------------------------------------------
# PSD assembly properties


@given(scale=st.floats(min_value=0.1, max_value=10.0), seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_cubic_power_scaling_property(scale, seed):
    # Scaling every launch power by s scales the NLI PSD by s^3.
    link = make_system(seed)
    variant = assets.model(CfmKind.CFM4)
    base = rx_nli_psd(link, variant, link.n_spans)
    scaled = link_of(
        link.spans,
        [with_powers(c, [p * scale for p in c.power_w_per_span])
         for c in link.channels],
        link.cut_index)
    assert rx_nli_psd(scaled, variant, link.n_spans) == pytest.approx(
        base * scale ** 3, rel=1e-9)


def test_span_psd_positive_and_additive():
    link = make_system(8)
    variant = assets.model(CfmKind.CFM1)
    terms = nli_terms(link, variant)
    cut = link.cut_index
    bracket = coherence_bracket(link.n_spans)
    total = 0.0
    for n in range(link.n_spans):
        term = terms.base[n, cut] + bracket * terms.coherent[n, cut]
        assert term > 0.0
        total += term * propagation_factor(link, n + 1, link.n_spans)
    assert rx_nli_psd(link, variant, link.n_spans) == pytest.approx(
        total, rel=1e-12)


def test_inactive_channels_do_not_contribute():
    link = make_system(9, optimize=False)
    variant = assets.model(CfmKind.CFM1)
    victim = 0 if link.cut_index != 0 else 1
    pruned = link_of(link.spans, [
        replace(c, active=False) if i == victim else c
        for i, c in enumerate(link.channels)], link.cut_index, link.flags)
    assert rx_nli_psd(pruned, variant, link.n_spans) \
        < rx_nli_psd(link, variant, link.n_spans)


@pytest.mark.parametrize("kind", list(CfmKind))
def test_vectorized_matches_scalar(kind):
    variant = assets.model(kind)
    for seed in (11, 12, 13):
        link = make_system(seed, category=2 if seed == 12 else 1)
        for n_end in (1, link.n_spans):
            vec = rx_nli_psd_all_channels(link, variant, n_end)
            got = vec[link.cut_index]
            want = ref.rx_nli_psd(link, variant, n_end)
            assert got == pytest.approx(want, rel=1e-9)
            # Every active channel agrees with a scalar run as CUT.
            for idx, ch in enumerate(link.channels):
                if not ch.active:
                    assert math.isnan(vec[idx])
                    continue
                relabeled = replace(link, cut_index=idx)
                assert vec[idx] == pytest.approx(
                    ref.rx_nli_psd(relabeled, variant, n_end), rel=1e-9)


def test_coherent_truncation_binding():
    # CFM3's self term depends on the truncation length: dropping the last
    # span changes every span's coherent correction, so the PSD after n
    # spans of an (n+1)-span evaluation differs from an n-span evaluation.
    link = make_system(14, n_spans=6)
    cfm3 = assets.model(CfmKind.CFM3)
    direct = rx_nli_psd(link, cfm3, 3)
    terms = nli_terms(link, cfm3)
    cut = link.cut_index
    span_terms = [terms.base[n, cut]
                  + coherence_bracket(6) * terms.coherent[n, cut]
                  for n in range(3)]
    truncated_of_full = sum(t * propagation_factor(link, n + 1, 3)
                            for n, t in enumerate(span_terms))
    assert direct != pytest.approx(truncated_of_full, rel=1e-12)


# ---------------------------------------------------------------------------
# The kernel against the scalar reference


@pytest.fixture(scope="module")
def paper_link():
    """The seed-8900 paper-scale link: 5 THz, 20 spans, optimized powers."""
    cfg = GeneratorConfig(category=1, seed=8900, band_width=5.0, n_spans=20)
    rng = np.random.default_rng(8900)
    link, _ = optimize_powers(generate_system(cfg, rng), rng)
    return link


@pytest.mark.parametrize("kind", list(CfmKind))
def test_kernel_matches_reference_paper_link(paper_link, kind):
    # [DERIVED] every truncation of every active CUT against the scalar
    # per-CUT reference, to 1e-12 relative.
    link = paper_link
    variant = assets.model(kind)
    rx = nli_terms(link, variant).rx_psd()
    worst = 0.0
    for idx, ch in enumerate(link.channels):
        if not ch.active:
            assert np.isnan(rx[:, idx]).all()
            continue
        relabeled = replace(link, cut_index=idx)
        xci = ref.xci_terms(relabeled, variant, link.n_spans)
        for n_end in range(1, link.n_spans + 1):
            want = ref.rx_nli_psd(relabeled, variant, n_end, xci)
            worst = max(worst, abs(rx[n_end - 1, idx] - want) / want)
    assert worst <= 1e-12


@given(seed=st.integers(0, 10_000), category=st.integers(1, 5),
       n_spans=st.integers(1, 6),
       position=st.sampled_from(["lowest", "center", "highest"]),
       kind=st.sampled_from(list(CfmKind)), zero_cut=st.integers(0, 2),
       zero_off=st.sets(st.integers(0, 2)))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_cut_row_matches_all_rows(seed, category, n_spans, position, kind,
                                  zero_cut, zero_off):
    # The CUT-row mode computes the CUT column of the all-row kernel: equal
    # values, the same smallest |beta2|, and the same inf/NaN entries where
    # a pair has zero dispersion.
    variant = assets.model(kind)
    zero = make_zero_dispersion_link(zero_cut,
                                     inactive=tuple(zero_off - {zero_cut}))
    link = make_system(seed, category=category, band_width=2.0,
                       n_spans=n_spans, cut_position=position, optimize=False)
    for lk in (link, zero):
        full = nli_terms(lk, variant)
        row = nli_terms(lk, variant, rows=lk.cut_index)
        c = lk.cut_index
        assert row.base.shape == row.coherent.shape == (lk.n_spans, 1)
        for got, want in ((row.base[:, 0], full.base[:, c]),
                          (row.coherent[:, 0], full.coherent[:, c])):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.array_equal(np.isinf(got), np.isinf(want))
            ok = np.isfinite(want)
            assert got[ok] == pytest.approx(want[ok], rel=1e-12, abs=0.0)
        assert row.min_abs_beta2[0] == full.min_abs_beta2[c]


@given(seed=st.integers(0, 10_000), n_spans=st.integers(1, 5),
       kind=st.sampled_from(list(CfmKind)))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_stacked_rows_equal_each_links_own_pass(seed, n_spans, kind):
    # A link's CUT row in a stack is its own CUT-row pass bit for bit,
    # whatever its block-mates: narrower, wider or half-loaded links, in any
    # order.  No row sums across links, and a link's trailing pads add
    # exact zeros.
    variant = assets.model(kind)
    rng = np.random.default_rng(seed)
    links = [make_system(int(rng.integers(10**6)), category=category,
                         band_width=width, n_spans=n_spans,
                         cut_position=str(rng.choice(["lowest", "center",
                                                      "highest"])))
             for category, width in ((1, 0.3), (2, 2.0), (4, 0.8), (3, 1.2))]
    links = [links[i] for i in rng.permutation(len(links))]
    stack = LinkStack.of(links)
    assert stack.f.shape[1] > min(len(lk.comb.f) for lk in links)
    terms = nli_terms(stack, variant)
    rx = terms.rx_psd()
    report = link_report(stack, rx)
    for j, link in enumerate(links):
        own = nli_terms(link, variant, link.cut_index)
        own_rx = own.rx_psd()
        own_report = link_report(link, own_rx, link.cut_index)
        for got, want in ((terms.base[:, j], own.base[:, 0]),
                          (terms.coherent[:, j], own.coherent[:, 0]),
                          (rx[:, j], own_rx[:, 0]),
                          (terms.min_abs_beta2[j], own.min_abs_beta2[0]),
                          (report.snr_db[:, j], own_report.snr_db[:, 0]),
                          (report.p_ase_w[:, j], own_report.p_ase_w[:, 0])):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", [CfmKind.CFM1, CfmKind.CFM4])
def test_all_row_kernel_memory_peak(paper_link, kind):
    # Every row of the paper link: the [span, row, channel] arrays are
    # built in row blocks, so the call's temporaries stay below 0.86 MB
    # (whole arrays of every row would take megabytes).
    variant = assets.model(kind)
    nli_terms(paper_link, variant)
    # The closed forms are computed anew in the traced call, not read from
    # the memo the first call filled.
    cfm._closed_forms.cache_clear()
    tracemalloc.start()
    try:
        nli_terms(paper_link, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 860_000


def test_reloaded_link_gives_the_same_kernel(paper_link, tmp_path):
    # The planned link's passes may read memoized closed forms; the same
    # link reloaded from a file, with the memo emptied before each pass,
    # shares nothing with them.  Every variant and both row modes agree
    # bit for bit.
    path = tmp_path / "system.json"
    fileio.save_system(paper_link, path)
    reloaded = fileio.load_system(path)
    for kind in CfmKind:
        variant = assets.model(kind)
        for rows in (paper_link.cut_index, None):
            got = rx_nli_psds(paper_link, variant, rows)
            cfm._closed_forms.cache_clear()
            want = rx_nli_psds(reloaded, variant, rows)
            assert np.array_equal(got, want, equal_nan=True)


def test_closed_form_memo_is_bounded_and_read_only():
    cfm._closed_forms.cache_clear()
    links = [make_system(seed, optimize=False) for seed in range(8)]
    for link in links:
        span_integrals(link, rows=link.cut_index)
    info = cfm._closed_forms.cache_info()
    assert info.misses == len(links)
    assert info.currsize == info.maxsize < len(links)
    ints = span_integrals(links[-1], rows=links[-1].cut_index)
    assert cfm._closed_forms.cache_info().hits == 1
    for name in ("beta2", "abs_beta2", "i_cross", "i_self", "i_coherent"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ints, name)[0] = 0.0


def _reference_rx_psd(link, variant, n_end):
    """The scalar reference, NaN where a term it needs has zero
    dispersion."""
    try:
        return ref.rx_nli_psd(link, variant, n_end)
    except ZeroDispersionError:
        return math.nan


def _assert_kernel_matches_reference(link):
    # Every row and the CUT row, every truncation, CFM1-CFM4: equal to the
    # reference to 1e-12, non-finite exactly where the reference cannot be
    # evaluated, and NaN in inactive rows.
    for kind in CfmKind:
        variant = assets.model(kind)
        full = nli_terms(link, variant).rx_psd()
        cut = nli_terms(link, variant, rows=link.cut_index).rx_psd()[:, 0]
        for idx, ch in enumerate(link.channels):
            if not ch.active:
                assert np.isnan(full[:, idx]).all()
                continue
            relabeled = replace(link, cut_index=idx)
            want = np.array([_reference_rx_psd(relabeled, variant, n)
                             for n in range(1, link.n_spans + 1)])
            ok = np.isfinite(want)
            for got in ((full[:, idx], cut) if idx == link.cut_index
                        else (full[:, idx],)):
                assert np.array_equal(np.isfinite(got), ok)
                assert got[ok] == pytest.approx(want[ok], rel=1e-12, abs=0.0)


def _drawn_fiber(rng) -> FiberParams:
    return FiberParams(alpha_db_per_km=rng.uniform(0.17, 0.25),
                       beta2=rng.choice((-1.0, 1.0)) * rng.uniform(3.0, 25.0),
                       beta3=rng.uniform(0.0, 0.15),
                       gamma=rng.uniform(0.8, 2.0),
                       f_ref=rng.uniform(193.0, 195.0))


def _drawn_link(rng, fibers) -> LinkSpec:
    """A link with one span per entry of ``fibers`` and a few drawn
    channels, some inactive, with their own launch power in every span."""
    n_ch = int(rng.integers(2, 5))
    cut = int(rng.integers(n_ch))
    channels = tuple(ChannelSpec(
        f_center=193.6 + 0.08 * k + rng.uniform(-0.005, 0.005),
        symbol_rate=rng.uniform(0.032, 0.064),
        roll_off=rng.uniform(0.0, 0.2),
        format=ModulationFormat(rng.choice([f.value
                                            for f in ModulationFormat])),
        power_w_per_span=tuple(rng.uniform(2e-4, 2e-3, len(fibers))),
        active=k == cut or rng.random() < 0.8) for k in range(n_ch))
    spans = tuple(SpanConfig(fiber=fb, length_km=rng.uniform(40.0, 120.0),
                             gain_db=rng.uniform(10.0, 25.0))
                  for fb in fibers)
    return link_of(spans, channels, cut)


@given(seed=st.integers(0, 10_000), n_spans=st.integers(1, 3),
       zero_cut=st.integers(0, 2), zero_off=st.sets(st.integers(0, 2)))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_fiber_grouping_matches_reference(seed, n_spans, zero_cut, zero_off):
    # The kernel evaluates its closed forms once per distinct fiber, fibers
    # compared by value.  Whatever the grouping, it matches the scalar
    # per-span reference.
    rng = np.random.default_rng(seed)
    preset = list(assets.fiber_presets().values())[seed % 3]
    one_fiber = _drawn_link(rng, [preset] * n_spans)
    per_span = _drawn_link(rng, [_drawn_fiber(rng) for _ in range(n_spans)])
    # Two inline fibers: parsing gives each span its own FiberParams,
    # equal in value to those of the other spans drawn from the same one.
    pool = [_drawn_fiber(rng) for _ in range(2)]
    drawn = [pool[int(i)] for i in rng.integers(2, size=n_spans)]
    parsed = fileio.parse_system(json.loads(fileio.json_text(
        fileio.system_to_json(_drawn_link(rng, drawn)))))
    zero = make_zero_dispersion_link(zero_cut,
                                     inactive=tuple(zero_off - {zero_cut}))
    for link, n_fibers in ((one_fiber, 1), (per_span, n_spans),
                           (parsed, len(set(drawn))), (zero, 1)):
        ints = span_integrals(link)
        assert ints.i_self.shape[0] == n_fibers
        _assert_kernel_matches_reference(link)


# ---------------------------------------------------------------------------
# One low-dispersion policy for every entry point


def _rx_nli_psd_full(link):
    return rx_nli_psd(link, assets.model(CfmKind.CFM4), link.n_spans)


def _snr_report(link):
    return snr_report(link, assets.model(CfmKind.CFM4))


def _evaluate_all(link):
    return evaluate_all_channels(link, assets.model(CfmKind.CFM4))


@pytest.mark.parametrize("entry", [_rx_nli_psd_full, _snr_report,
                                   _evaluate_all])
def test_zero_dispersion_on_used_pair_raises(entry):
    with pytest.raises(ZeroDispersionError):
        entry(make_zero_dispersion_link(cut_index=0))


def test_zero_dispersion_on_unused_pair_is_ignored():
    cfm4 = assets.model(CfmKind.CFM4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowDispersionWarning)
        # The zero pair's interferer is inactive: nothing uses it.
        link = make_zero_dispersion_link(cut_index=0, inactive=(1,))
        assert math.isfinite(_rx_nli_psd_full(link))
        assert all(math.isfinite(v) for v in _snr_report(link).p_nli_w)
        ev = _evaluate_all(link)
        assert np.isfinite(ev.snr_db[[0, 2]]).all()
        assert math.isnan(ev.snr_db[1])
        # The zero pair is active but the CUT (channel 2) is in neither:
        # CUT views do not raise, the all-channel view does.
        link = make_zero_dispersion_link(cut_index=2)
        assert math.isfinite(_rx_nli_psd_full(link))
        assert all(math.isfinite(v) for v in _snr_report(link).p_nli_w)
        with pytest.raises(ZeroDispersionError):
            _evaluate_all(link)


@pytest.mark.parametrize("entry", [
    _rx_nli_psd_full, _snr_report, _evaluate_all,
    lambda link: rx_nli_psd_all_channels(link, assets.model(CfmKind.CFM2)),
    lambda link: snr(link, assets.model(CfmKind.CFM1), 2),
    lambda link: max_reach(link, assets.model(CfmKind.CFM4), -100.0),
    lambda link: optimize_powers(link, np.random.default_rng(0))])
def test_one_low_dispersion_warning_per_call(entry):
    link = make_zero_dispersion_link(cut_index=0, inactive=(1,))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entry(link)
    low = [w for w in caught if issubclass(w.category, LowDispersionWarning)]
    assert len(low) == 1
