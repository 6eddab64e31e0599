"""Launch-power pipeline: span-local optima, plan application and the
receiver-level cubic refinement."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import make_system
from nli_planner import assets
from nli_planner.cfm import rx_nli_psd, rx_nli_psds
from nli_planner.perf import ase_power, link_report, snr, span_ase_psds
from nli_planner.poweropt import (PowerPlan, apply_power_plan, eta_nli,
                                  logo_optimize, optimize_powers,
                                  randomize_launch, refine_cut_launch,
                                  span_eta)
from nli_planner.sysgen import GeneratorConfig, generate_system
from nli_planner.types import CfmKind, ChannelSpec, LinkSpec


def test_randomize_launch_bounds():
    link = make_system(40, optimize=False)
    rng = np.random.default_rng(0)
    xi = randomize_launch(link.channels, link.cut_index, rng)
    assert xi[link.cut_index] == 1.0
    assert all(0.7 <= v <= 1.3 for v in xi)
    assert len(set(xi)) > 1


def test_span_local_optimum_condition():
    # At the span-local optimal PSD g*, ASE = 2 * eta * g*^3 by construction.
    link = make_system(41, optimize=False)
    xi = tuple(1.0 for _ in link.channels)
    g = logo_optimize(link, xi)
    f_cut = link.cut.f_center
    etas = span_eta(link, xi)
    for ase, eta, g_n in zip(span_ase_psds(link, f_cut), etas, g):
        assert ase == pytest.approx(2.0 * eta * g_n ** 3, rel=1e-12)


def test_apply_power_plan_realizes_profile():
    link = make_system(42, optimize=False)
    rng = np.random.default_rng(1)
    xi = randomize_launch(link.channels, link.cut_index, rng)
    g = logo_optimize(link, xi)
    staged = apply_power_plan(link, PowerPlan(g_cut_per_span=g, xi=xi))
    staged.validate()
    # CUT PSD at every span input matches the requested profile.
    for n in range(staged.n_spans):
        assert staged.cut.psd(n) == pytest.approx(g[n], rel=1e-12)
    # Other channels keep their fixed multipliers.
    for idx, ch in enumerate(staged.channels):
        for n in range(staged.n_spans):
            assert ch.psd(n) == pytest.approx(xi[idx] * g[n], rel=1e-12)
    # The last span's amplifier is transparent; earlier gains telescope.
    last = staged.spans[-1]
    assert last.gain_lin * last.span_loss_lin == pytest.approx(1.0,
                                                               rel=1e-12)


def test_eta_scale_invariance():
    link = make_system(43)
    variant = assets.model(CfmKind.CFM4)
    eta = eta_nli(link, variant)
    scaled = LinkSpec(
        spans=link.spans,
        channels=tuple(c.with_powers([p * 1.7 for p in c.power_w_per_span])
                       for c in link.channels),
        cut_index=link.cut_index)
    # Uniform power scaling cancels in PSD^3 normalization, but the gains of
    # the original link were derived for the original profile; rescaling all
    # channels and spans uniformly keeps gain ratios, hence eta.
    assert eta_nli(scaled, variant) == pytest.approx(eta, rel=1e-9)


def test_refinement_balances_noise():
    variant = assets.model(CfmKind.CFM4)
    for seed in (44, 45, 46):
        link = make_system(seed, optimize=False)
        link, plan = optimize_powers(link, np.random.default_rng(seed),
                                     variant)
        p_ase = ase_power(link, link.n_spans)
        p_nli = rx_nli_psd(link, variant, link.n_spans) * link.cut.symbol_rate
        assert p_nli == pytest.approx(p_ase / 2.0, rel=1e-9)


def test_refine_rejects_nonpositive_eta():
    link = make_system(47)
    with pytest.raises(ValueError):
        refine_cut_launch(link, 0.0)


def test_optimum_is_snr_maximum():
    # [DERIVED] golden-section search over a uniform scale factor applied to
    # all launch powers confirms the closed-form optimum.
    variant = assets.model(CfmKind.CFM4)
    link = make_system(48, optimize=False)
    link, plan = optimize_powers(link, np.random.default_rng(48), variant)

    def neg_snr(log_s):
        s = math.exp(log_s)
        scaled = LinkSpec(
            spans=link.spans,
            channels=tuple(c.with_powers([p * s for p in c.power_w_per_span])
                           for c in link.channels),
            cut_index=link.cut_index)
        return -snr(scaled, variant, link.n_spans)

    res = minimize_scalar(neg_snr, bracket=(-0.5, 0.0, 0.5), method="golden",
                          options={"xtol": 1e-8})
    assert math.exp(res.x) == pytest.approx(1.0, rel=1e-3)


def test_pipeline_keeps_link_shape():
    cfg = GeneratorConfig(category=2, seed=49, band_width=0.8, n_spans=5)
    rng = np.random.default_rng(49)
    link = generate_system(cfg, rng)
    opt, plan = optimize_powers(link, rng)
    assert opt.n_spans == link.n_spans
    assert opt.cut_index == link.cut_index
    assert len(plan.g_cut_per_span) == link.n_spans
    assert plan.eta_nli is not None and plan.eta_nli > 0
    # Inactive channels stay inactive.
    for a, b in zip(link.channels, opt.channels):
        assert a.active == b.active


def test_rx_power_positive_after_plan():
    link = make_system(50)
    psds = rx_nli_psds(link, assets.model(CfmKind.CFM1), link.cut_index)
    p_rx = link_report(link, psds, link.cut_index).p_rx_w
    assert p_rx[-1, 0] > 0.0


def test_optimize_powers_builds_only_the_returned_channels(monkeypatch):
    # The plan is worked out on power arrays: the only ChannelSpecs built
    # are the returned link's.
    link = make_system(51, band_width=1.0, optimize=False)
    built = []
    check = ChannelSpec.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(ChannelSpec, "__post_init__", counting)
    opt, _ = optimize_powers(link, np.random.default_rng(51))
    assert len(built) == len(opt.channels)
    assert all(a is b for a, b in zip(built, opt.channels))
