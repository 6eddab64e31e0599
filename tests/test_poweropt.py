"""Launch-power pipeline: span-local optima, plan application and the
receiver-level cubic refinement."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import channels_of, link_of, make_system, spans_of, with_powers
from nli_planner import assets
from nli_planner.cfm import rx_nli_psd, rx_nli_psds
from nli_planner.perf import ase_power, link_report, snr, span_ase_psds
from nli_planner.poweropt import (_eta, _logo, _multipliers, _optimize_stack,
                                  _plan_columns, _planned_link, _refine,
                                  _span_eta, optimize_powers,
                                  randomize_launch)
from nli_planner.sysgen import GeneratorConfig, generate_system
from nli_planner.types import ChannelSpec, CfmKind, CombArrays, SpanArrays


def test_randomize_launch_bounds():
    link = make_system(40, optimize=False)
    rng = np.random.default_rng(0)
    xi = randomize_launch(link, rng)
    assert xi[link.cut_index] == 1.0
    assert all(0.7 <= v <= 1.3 for v in xi)
    assert len(set(xi)) > 1


def _span_local_plan(link, xi):
    """The link's per-span NLI PSDs at unit CUT PSD, ``[span]``, and its
    span-local optimal CUT PSDs, ``[span]``: the stack steps on
    ``link.stack``."""
    stack = link.stack
    eta, _min_abs_beta2 = _span_eta(stack, _multipliers(stack, [xi]))
    return eta[:, 0], _logo(stack, eta)[0]


def test_span_local_optimum_condition():
    # At the span-local optimal PSD g*, ASE = 2 * eta * g*^3 by construction.
    link = make_system(41, optimize=False)
    xi = tuple(1.0 for _ in link.comb.f)
    etas, g = _span_local_plan(link, xi)
    f_cut = link.cut.f_center
    for ase, eta, g_n in zip(span_ase_psds(link.stack, f_cut)[:, 0], etas,
                             g):
        assert ase == pytest.approx(2.0 * eta * g_n ** 3, rel=1e-12)


def test_a_plan_realizes_its_profile():
    link = make_system(42, optimize=False)
    rng = np.random.default_rng(1)
    xi = randomize_launch(link, rng)
    _etas, g = _span_local_plan(link, xi)
    power, gain_db = _plan_columns(link.stack, _multipliers(link.stack, [xi]),
                                   g[None])
    staged = _planned_link(link, power[0], gain_db[0])
    staged.validate()
    psd = staged.comb.launch / staged.comb.rate  # [span, channel]
    # CUT PSD at every span input matches the requested profile.
    for n in range(staged.n_spans):
        assert psd[n, staged.cut_index] == pytest.approx(g[n], rel=1e-12)
    # Other channels keep their fixed multipliers.
    for idx in range(len(staged.comb.f)):
        for n in range(staged.n_spans):
            assert psd[n, idx] == pytest.approx(xi[idx] * g[n], rel=1e-12)
    # The last span's amplifier is transparent; earlier gains telescope.
    assert staged.span_arrays.transfer[-1] == pytest.approx(1.0, rel=1e-12)


def test_eta_scale_invariance():
    link = make_system(43)
    variant = assets.model(CfmKind.CFM4)
    (eta,), _min_abs_beta2 = _eta(link.stack, variant)
    scaled = link_of(
        spans_of(link),
        [with_powers(c, [p * 1.7 for p in c.power_w_per_span])
         for c in channels_of(link)],
        link.cut_index)
    # Uniform power scaling cancels in PSD^3 normalization, but the gains of
    # the original link were derived for the original profile; rescaling all
    # channels and spans uniformly keeps gain ratios, hence eta.
    assert _eta(scaled.stack, variant)[0][0] == pytest.approx(eta, rel=1e-9)


def test_refinement_balances_noise():
    variant = assets.model(CfmKind.CFM4)
    for seed in (44, 45, 46):
        link = make_system(seed, optimize=False)
        link, plan = optimize_powers(link, np.random.default_rng(seed))
        p_ase = ase_power(link, link.n_spans)
        p_nli = rx_nli_psd(link, variant, link.n_spans) * link.cut.symbol_rate
        assert p_nli == pytest.approx(p_ase / 2.0, rel=1e-9)


def test_refine_rejects_nonpositive_eta():
    link = make_system(47)
    with pytest.raises(ValueError):
        _refine(link.stack, np.array([0.0]))


def test_optimum_is_snr_maximum():
    # [DERIVED] golden-section search over a uniform scale factor applied to
    # all launch powers confirms the closed-form optimum.
    variant = assets.model(CfmKind.CFM4)
    link = make_system(48, optimize=False)
    link, plan = optimize_powers(link, np.random.default_rng(48))

    def neg_snr(log_s):
        s = math.exp(log_s)
        scaled = link_of(
            spans_of(link),
            [with_powers(c, [p * s for p in c.power_w_per_span])
             for c in channels_of(link)],
            link.cut_index)
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
    for a, b in zip(channels_of(link), channels_of(opt)):
        assert a.active == b.active


def test_rx_power_positive_after_plan():
    link = make_system(50)
    psds = rx_nli_psds(link.stack, assets.model(CfmKind.CFM1))
    p_rx = link_report(link.stack, psds).p_rx_w
    assert p_rx[-1, 0] > 0.0


def _made(monkeypatch, cls) -> list:
    """Every instance of ``cls`` made from now on."""
    made = []
    init = cls.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return made


def test_optimize_powers_builds_only_the_returned_cut(monkeypatch):
    # The plan is worked out on columns: optimize_powers builds no
    # ChannelSpec, and the returned link builds its CUT's on first read.
    link = make_system(51, band_width=1.0, optimize=False)
    built = _made(monkeypatch, ChannelSpec)
    opt, _ = optimize_powers(link, np.random.default_rng(51))
    assert built == []
    cut = opt.cut
    assert len(built) == 1 and built[0] is cut and opt.cut is cut


def test_optimize_powers_builds_no_comb_for_the_staged_link(monkeypatch):
    # Both kernel passes read the link's stack, re-powered: the span-local
    # step's unit powers and the staged link between it and the refinement
    # build no comb.  The one comb made is the returned link's, sharing the
    # generated link's channel columns.
    link = make_system(51, band_width=1.0, optimize=False)
    made = _made(monkeypatch, CombArrays)
    opt, _ = optimize_powers(link, np.random.default_rng(51))
    assert len(made) == 1 and made[-1] is opt.comb
    for comb in made:
        assert all(getattr(comb, name) is getattr(link.comb, name)
                   for name in ("f", "rate", "roll", "fmt", "phi", "active"))


def test_a_planned_system_shares_its_span_geometry(monkeypatch):
    # The staged link is the re-gained stack, and the planned link changes
    # only the gains: it shares every other span column with the generated
    # link, the columns the kernel's closed forms are keyed on among them.
    link = make_system(52, band_width=1.0, optimize=False)
    made = _made(monkeypatch, SpanArrays)
    opt, _ = optimize_powers(link, np.random.default_rng(52))
    assert len(made) == 1 and made[-1] is opt.span_arrays
    for spans in made:
        for name in ("fibers", "fiber", "length", "nf_db", "loss", "gamma",
                     "noise_figure", "spans_of_fiber"):
            assert getattr(spans, name) is getattr(link.span_arrays, name)
    assert not opt.span_arrays.transparent.any()
    assert link.span_arrays.transparent.all()


def test_a_stack_plans_each_link_as_if_alone():
    # Planning links of one span count together gives each the link and
    # plan it gets alone from the same RNG, bit for bit, and leaves each
    # RNG where planning it alone does.
    links = [make_system(seed, category=category, band_width=width,
                         n_spans=5, optimize=False)
             for seed, category, width in ((61, 1, 0.4), (62, 2, 1.5),
                                           (63, 5, 0.8))]
    rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
    together, _min_abs_beta2 = _optimize_stack(links, rngs)
    for link, seed, shared, (got, plan) in zip(links, (1, 2, 3), rngs,
                                               together):
        rng = np.random.default_rng(seed)
        want, want_plan = optimize_powers(link, rng)
        assert got == want and plan == want_plan
        assert shared.random() == rng.random()
    with pytest.raises(ValueError, match="span count"):
        _optimize_stack([links[0], make_system(64, n_spans=2,
                                                optimize=False)],
                        [np.random.default_rng(1)] * 2)
