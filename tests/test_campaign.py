"""Campaign statistics, the span-increment diagnostic and coefficient
fitting."""

import numpy as np
import pytest

from conftest import make_system
from nli_planner import assets, campaign
from nli_planner.campaign import (CampaignConfig, CfmBenchmark, FitConfig,
                                  GnOracleBenchmark, build_fit_data,
                                  error_stats, fit_coefficients, run_campaign,
                                  span_increment_ratio)
from nli_planner.types import CfmKind, ModelVariant


def test_error_stats_basic():
    st = error_stats([0.1, -0.1, 0.3, 0.1])
    x = np.array([0.1, -0.1, 0.3, 0.1])
    assert st.mean == pytest.approx(x.mean())
    assert st.std_dev == pytest.approx(x.std())  # population convention
    assert st.peak == pytest.approx(0.3)
    assert st.peak_to_peak == pytest.approx(0.4)
    assert st.n_samples == 4


def test_error_stats_histogram_alignment():
    st = error_stats([0.011, 0.034, -0.005], bin_width=0.02)
    # Edges are multiples of the bin width and cover all samples.
    assert st.bin_edges[0] == pytest.approx(-0.02)
    assert st.bin_edges[-1] == pytest.approx(0.04)
    assert sum(st.bin_counts) == 3
    for e in st.bin_edges:
        assert round(e / 0.02, 6) == pytest.approx(round(e / 0.02))


def test_error_stats_validation():
    with pytest.raises(ValueError):
        error_stats([])
    with pytest.raises(ValueError):
        error_stats([0.1], bin_width=0.0)


def test_campaign_self_benchmark_is_exact():
    # Scoring CFM1 against a CFM1 benchmark must give identically zero error.
    cfg = CampaignConfig(n_systems=4, band_width_thz=0.5, n_spans=3,
                         variants=(CfmKind.CFM1,), seed=3)
    bmk = CfmBenchmark(assets.model(CfmKind.CFM1))
    res = run_campaign(cfg, bmk)
    st = res.stats[("cfm1", "center")]
    assert st.peak == pytest.approx(0.0, abs=1e-12)
    assert res.n_evaluated == 4
    assert len(res.seeds_used) == 4


def test_campaign_deterministic():
    cfg = CampaignConfig(n_systems=3, band_width_thz=0.5, n_spans=3,
                         variants=(CfmKind.CFM2,), seed=4)
    bmk = CfmBenchmark(assets.model(CfmKind.CFM1))
    a = run_campaign(cfg, bmk)
    b = run_campaign(cfg, bmk)
    assert a.stats == b.stats
    assert a.seeds_used == b.seeds_used


def test_campaign_mixes_positions():
    cfg = CampaignConfig(n_systems=4, band_width_thz=0.5, n_spans=3,
                         cut_positions=("lowest", "highest"),
                         variants=(CfmKind.CFM1,), seed=6)
    bmk = CfmBenchmark(assets.model(CfmKind.CFM1))
    res = run_campaign(cfg, bmk)
    assert set(res.stats) == {("cfm1", "lowest"), ("cfm1", "highest")}


def test_span_increment_ratio():
    link = make_system(70, n_spans=5)
    m1 = CfmBenchmark(assets.model(CfmKind.CFM1))
    m2 = CfmBenchmark(assets.model(CfmKind.CFM2))
    pairs = span_increment_ratio(link, m2, m1)
    assert 1 <= len(pairs) <= 5
    # Abscissa (|accumulated dispersion|) grows monotonically.
    absc = [p[0] for p in pairs]
    assert absc == sorted(absc)
    assert absc[0] == 0.0
    for _, ratio in pairs:
        assert np.isfinite(ratio) and ratio > 0


def test_fit_data_cost_matches_model():
    # The precomputed cost at the shipped coefficients must equal a direct
    # evaluation through the public model, i.e. be exactly zero against a
    # benchmark using the same variant and coefficients.
    bmk = CfmBenchmark(assets.model(CfmKind.CFM3))
    cfg = FitConfig(n_systems=3, band_width_thz=0.4, n_spans=3, seed=8)
    data, seeds = build_fit_data(cfg, CfmKind.CFM3, bmk)
    assert len(seeds) == 3
    cost = data.cost(np.array(assets.shipped_coefficients(CfmKind.CFM3).a))
    assert cost == pytest.approx(0.0, abs=1e-20)
    # The identity point reproduces CFM1 and therefore has nonzero cost.
    cost_id = data.cost(np.array(assets.identity_coefficients(CfmKind.CFM3).a))
    assert cost_id > 0.0


def test_fit_rejects_parameterless_variant():
    bmk = CfmBenchmark(assets.model(CfmKind.CFM1))
    with pytest.raises(ValueError):
        fit_coefficients(FitConfig(n_systems=1), CfmKind.CFM1, bmk)


def test_fit_never_worsens():
    bmk = CfmBenchmark(assets.model(CfmKind.CFM2))
    cfg = FitConfig(n_systems=2, band_width_thz=0.4, n_spans=3, seed=9,
                    max_iterations=200, n_restarts=0)
    res = fit_coefficients(cfg, CfmKind.CFM2, bmk)
    assert res.cost_final <= res.cost_initial
    assert res.kind is CfmKind.CFM2
    assert len(res.coefficients) == 18
    variant = res.variant
    assert isinstance(variant, ModelVariant)


def test_fit_improves_on_oracle():
    bmk = GnOracleBenchmark()
    cfg = FitConfig(n_systems=3, band_width_thz=0.4, n_spans=3, seed=10,
                    max_iterations=2000, n_restarts=0)
    res = fit_coefficients(cfg, CfmKind.CFM2, bmk)
    assert res.improved
    assert res.cost_final < res.cost_initial


def test_benchmarks_compute_each_link_once(monkeypatch):
    # A benchmark keeps the last link's receiver PSDs of every truncation:
    # one quadrature per span (one kernel call for a closed-form
    # benchmark), however many truncations are asked about.
    calls = []

    def fake_span_psd(span, comb, f_eval, q=None, span_index=0):
        calls.append(span_index)
        return 1e-4 * (span_index + 1)

    monkeypatch.setattr(campaign, "gn_span_psd", fake_span_psd)
    kernel_calls = []
    real_truncations = campaign.rx_nli_psd_truncations

    def counting_truncations(link, variant):
        kernel_calls.append(link)
        return real_truncations(link, variant)

    monkeypatch.setattr(campaign, "rx_nli_psd_truncations",
                        counting_truncations)
    link = make_system(71, n_spans=4)
    oracle = GnOracleBenchmark()
    closed = CfmBenchmark(assets.model(CfmKind.CFM2))
    for _ in range(3):
        for n in range(link.n_spans, 0, -1):
            for bmk in (oracle, closed):
                bmk.snr_db(link, n)
                bmk.nli_power_w(link, n)
    assert calls == list(range(link.n_spans))
    assert len(kernel_calls) == 1
    # The first span's PSD reaches the receiver of a one-span truncation
    # unchanged.
    assert oracle.rx_psd(link, 1) == 1e-4
    other = make_system(72, n_spans=2)
    oracle.rx_psd(other, 2)
    closed.rx_psd(other, 2)
    assert len(calls) == link.n_spans + other.n_spans
    assert len(kernel_calls) == 2
    with pytest.raises(ValueError):
        oracle.rx_psd(other, 3)
