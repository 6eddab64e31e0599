"""ASE, SNR, sensitivity thresholds and maximum reach."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import h as PLANCK_J_S

import reference_cfm as ref
from conftest import (link_of, make_single_channel_link, make_system,
                      permute_comb)
from nli_planner import assets
from nli_planner.campaign import CfmBenchmark
from nli_planner.cfm import rx_nli_psd, rx_nli_psds
from nli_planner.perf import (ReachResult, SensitivityPolicy, UnreachableError,
                              ase_power, evaluate_all_channels, link_report,
                              max_reach, max_reach_scan, shannon_sensitivity,
                              snr, snr_report)
from nli_planner.sysgen import CUT_POSITIONS
from nli_planner.types import CfmKind, ModulationFormat

mpmath.mp.dps = 40


def test_ase_power_single_span_vs_mpmath():
    # [DERIVED] NF * h * f * (G - 1) * R for one transparent span.
    link = make_single_channel_link(n_spans=1, length_km=100.0)
    span = link.spans[0]
    gain = mpmath.mpf(10) ** (mpmath.mpf(repr(
        span.fiber.alpha_db_per_km * span.length_km)) / 10)
    nf = mpmath.mpf(10) ** mpmath.mpf("0.6")
    f_hz = mpmath.mpf("193.8e12")
    r_hz = mpmath.mpf("0.064e12")
    expected = nf * mpmath.mpf(repr(PLANCK_J_S)) * f_hz * (gain - 1) * r_hz
    assert ase_power(link, 1) == pytest.approx(float(expected), rel=1e-10)


def test_ase_power_accumulates_with_propagation():
    link = make_single_channel_link(n_spans=3)
    # Transparent spans: every amplifier's noise propagates with unit net
    # gain, so the total is the sum of the per-span contributions.
    one = ase_power(link, 1)
    assert ase_power(link, 3) == pytest.approx(3 * one, rel=1e-10)


def test_ase_power_ignores_gain_below_unity():
    link = make_single_channel_link(n_spans=1)
    spans = (link.spans[0].__class__(fiber=link.spans[0].fiber,
                                     length_km=100.0, gain_db=-3.0),)
    lossy = link_of(spans, link.channels, 0)
    assert ase_power(lossy, 1) == 0.0


def test_ase_power_rejects_zero_spans():
    link = make_single_channel_link()
    with pytest.raises(ValueError):
        ase_power(link, 0)


def test_ase_power_rejects_spans_past_the_link():
    link = make_single_channel_link(n_spans=2)
    with pytest.raises(ValueError):
        ase_power(link, link.n_spans + 1)


def test_cut_rx_power_transparent():
    link = make_single_channel_link(n_spans=2, power_w=0.003)
    psds = rx_nli_psds(link, assets.model(CfmKind.CFM1), link.cut_index)
    p_rx = link_report(link, psds, link.cut_index).p_rx_w
    # Transparent spans return the launch power of the last span.
    assert p_rx[1, 0] == pytest.approx(0.003, rel=1e-12)


def test_snr_matches_components():
    link = make_system(31)
    variant = assets.model(CfmKind.CFM2)
    n = link.n_spans
    p_ase = ase_power(link, n)
    p_nli = rx_nli_psd(link, variant, n) * link.cut.symbol_rate
    last = link.spans[n - 1]
    p_rx = (link.cut.power_w_per_span[n - 1] * ref.span_loss_lin(last)
            * ref.gain_lin(last))
    expected = 10 * math.log10(p_rx / (p_ase + p_nli))
    assert snr(link, variant, n) == pytest.approx(expected, rel=1e-12)


@given(seed=st.integers(0, 10_000), category=st.integers(1, 5),
       n_spans=st.integers(1, 6), position=st.sampled_from(CUT_POSITIONS),
       perm_seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_snr_does_not_depend_on_comb_order(seed, category, n_spans, position,
                                           perm_seed):
    # Listing the channels in another order, the CUT remapped with them,
    # gives every channel the same SNR at every truncation, for every
    # variant, from every row and from the CUT row.
    link = make_system(seed, category=category, band_width=2.0,
                       n_spans=n_spans, cut_position=position)
    shuffled, perm = permute_comb(link, perm_seed)
    for kind in CfmKind:
        variant = assets.model(kind)
        want = link_report(link, rx_nli_psds(link, variant)).snr_db[:, perm]
        got = link_report(shuffled, rx_nli_psds(shuffled, variant)).snr_db
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert got[ok] == pytest.approx(want[ok], rel=1e-12, abs=0.0)
        cut = [snr(shuffled, variant, n) for n in range(1, n_spans + 1)]
        assert cut == pytest.approx(want[:, shuffled.cut_index].tolist(),
                                    rel=1e-12, abs=0.0)


@given(seed=st.integers(0, 10_000), category=st.integers(1, 5),
       n_spans=st.integers(1, 6),
       position=st.sampled_from(["lowest", "center", "highest"]),
       kind=st.sampled_from(list(CfmKind)), optimize=st.booleans())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_snr_views_agree(seed, category, n_spans, position, kind, optimize):
    # The scalar SNR, the SNR report, the all-channel evaluation and the
    # closed-form benchmark read one link report: the same CUT SNR at every
    # truncation, whether from the CUT row or from every row.
    link = make_system(seed, category=category, band_width=2.0,
                       n_spans=n_spans, cut_position=position,
                       optimize=optimize)
    variant = assets.model(kind)
    report = snr_report(link, variant).per_span_snr_db
    benchmark = CfmBenchmark(variant)
    for n in range(1, link.n_spans + 1):
        want = snr(link, variant, n)
        got = (report[n - 1],
               evaluate_all_channels(link, variant, n).snr_db[link.cut_index],
               benchmark.snr_db(link, n))
        assert got == pytest.approx((want,) * 3, rel=1e-12, abs=0.0)


def test_snr_report_consistency():
    link = make_system(32)
    variant = assets.model(CfmKind.CFM1)
    rep = snr_report(link, variant)
    assert len(rep.per_span_snr_db) == link.n_spans
    for n in range(1, link.n_spans + 1):
        assert rep.per_span_snr_db[n - 1] == pytest.approx(
            snr(link, variant, n), rel=1e-12)
    # SNR decreases with distance on a homogeneous-power link.
    assert all(a > b for a, b in zip(rep.per_span_snr_db,
                                     rep.per_span_snr_db[1:]))


def test_shannon_sensitivity_formula():
    # [DERIVED] dual-polarization capacity inversion: SNR = 2^(MI/2) - 1.
    lo, hi = assets.gaussian_mi_range()
    for mi in (lo, 10.0, hi):
        expected = 10 * math.log10(2 ** (mi / 2) - 1)
        assert shannon_sensitivity(mi) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        shannon_sensitivity(lo - 0.1)
    with pytest.raises(ValueError):
        shannon_sensitivity(hi + 0.1)


def test_gaussian_mi_range_anchors():
    # [PAPER] the MI interval spans 87% of the entropy of the 16 and 256
    # point constellations at two polarizations.
    lo, hi = assets.gaussian_mi_range()
    assert lo == pytest.approx(0.87 * 2 * 4)
    assert hi == pytest.approx(0.87 * 2 * 8)


def test_qam_thresholds_table():
    # [PAPER] frozen sensitivity thresholds (dB).
    expected = {
        ModulationFormat.PM_QPSK: 5.18,
        ModulationFormat.PM_8QAM: 9.30,
        ModulationFormat.PM_16QAM: 11.48,
        ModulationFormat.PM_32QAM: 14.45,
        ModulationFormat.PM_64QAM: 17.00,
        ModulationFormat.PM_128QAM: 19.71,
        ModulationFormat.PM_256QAM: 22.33,
    }
    table = assets.qam_thresholds_db()
    for fmt, val in expected.items():
        assert table[fmt] == pytest.approx(val, abs=1e-12)


def test_policy_thresholds():
    policy = SensitivityPolicy.default()
    assert policy.threshold_db(ModulationFormat.PM_16QAM) == pytest.approx(11.48)
    rng = np.random.default_rng(0)
    lo, hi = assets.gaussian_mi_range()
    val = policy.threshold_db(ModulationFormat.PM_GAUSSIAN, rng)
    assert shannon_sensitivity(lo) <= val <= shannon_sensitivity(hi)
    with pytest.raises(ValueError):
        policy.threshold_db(ModulationFormat.PM_GAUSSIAN)


def test_max_reach_scan_non_monotonic():
    values = {1: 20.0, 2: 14.0, 3: 16.0, 4: 12.0}
    res = max_reach_scan(lambda n: values[n], 4, 15.0)
    # The scan is exhaustive, so a later recovery above threshold counts.
    assert res == ReachResult(max_reach_spans=3, threshold_db=15.0,
                              snr_at_reach_db=16.0)


def test_max_reach_unreachable():
    with pytest.raises(UnreachableError):
        max_reach_scan(lambda n: 0.0, 5, 15.0)


def test_max_reach_on_link():
    link = make_system(33)
    variant = assets.model(CfmKind.CFM1)
    first = snr(link, variant, 1)
    res = max_reach(link, variant, first - 1.0)
    assert 1 <= res.max_reach_spans <= link.n_spans
    assert res.snr_at_reach_db >= first - 1.0


def test_evaluate_all_channels_matches_scalar():
    link = make_system(34, category=2)
    variant = assets.model(CfmKind.CFM4)
    ev = evaluate_all_channels(link, variant)
    for idx, ch in enumerate(link.channels):
        if not ch.active:
            assert math.isnan(ev.snr_db[idx])
            continue
        relabeled = link_of(link.spans, link.channels, idx)
        assert ev.snr_db[idx] == pytest.approx(
            ref.snr(relabeled, variant, link.n_spans), rel=1e-9)
