"""Campaign statistics, the span-increment diagnostic and coefficient
fitting."""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import make_system
from nli_planner import assets, campaign, cfm
from nli_planner.campaign import (UNREACHABLE, CampaignConfig, CfmBenchmark,
                                  FitConfig, GnOracleBenchmark, _FitData,
                                  build_fit_data, draw_systems, error_stats,
                                  fit_coefficients, run_campaign)
from nli_planner.cfm import (LowDispersionWarning, one_low_dispersion_warning,
                             span_integrals)
from nli_planner.sysgen import LOW_DISPERSION_FLAG
from nli_planner.types import (CfmKind, LinkSpec, ModelCoefficients,
                               ModelVariant, ValidationError)
from reference_draw import draw_one_at_a_time
from reference_fit import LoopFitData


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
    for width in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="bin width"):
            error_stats([0.1], width)
        with pytest.raises(ValueError, match="bin width"):
            CampaignConfig(bin_width_db=width)
    # A finite, positive width far finer than the spread of the samples is
    # refused, naming the bin count, before any edge is made: 1e12 bins of
    # 1e-12 dB over 1 dB would take 8 TB of edges.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"1e\+12 histogram bins"):
            error_stats([-0.5, 0.5], bin_width=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # A width lost in rounding next to the samples is refused: near 1e6 dB
    # a 1e-12-dB step would come out as one bin a dB wide.
    for samples, width in (([1e6], 1e-12), ([-1e6, -1e6], 1e-12),
                           ([0.5], 1e-300)):
        with pytest.raises(ValueError, match="float resolution"):
            error_stats(samples, width)
    st = error_stats([1e6], 1e-9)
    assert 0.0 < st.bin_edges[1] - st.bin_edges[0] < 2e-9


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


@one_low_dispersion_warning
def span_increment_ratio(link: LinkSpec, model_a, model_b
                         ) -> list[tuple[float, float]]:
    """Per-span ratio of accumulated-NLI increments of two models.

    Returns (|accumulated dispersion at span start|, increment ratio) pairs;
    spans with a vanishing denominator increment are skipped.
    """
    if link.n_spans < 2:
        raise ValueError("diagnostic needs at least two spans")
    c = link.cut_index
    acc = span_integrals(link.stack).abs_acc()[:, 0, c]
    out = []
    prev_a, prev_b = 0.0, 0.0
    for n in range(1, link.n_spans + 1):
        cur_a = model_a.rx_psd(link, n)
        cur_b = model_b.rx_psd(link, n)
        da, db = cur_a - prev_a, cur_b - prev_b
        prev_a, prev_b = cur_a, cur_b
        if db == 0.0:
            continue
        out.append((float(acc[n - 1]), da / db))
    return out


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


def test_fit_checks_the_initial_table_before_drawing(monkeypatch):
    # An initial table of the wrong length is refused, naming both counts,
    # before a single training system is drawn.
    def no_draw(*args, **kwargs):
        raise AssertionError("draw_systems called")

    monkeypatch.setattr(campaign, "draw_systems", no_draw)
    bmk = CfmBenchmark(assets.model(CfmKind.CFM2))
    for n in (24, 10, 0):
        cfg = FitConfig(n_systems=3, band_width_thz=0.4, n_spans=3, seed=9,
                        initial=ModelCoefficients(a=(1.0,) * n))
        with pytest.raises(ValidationError,
                           match=f"cfm2 expects 18 coefficients, got {n}"):
            fit_coefficients(cfg, CfmKind.CFM2, bmk)


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


def test_fit_counts_residual_evaluations():
    bmk = CfmBenchmark(assets.model(CfmKind.CFM2))
    cfg = FitConfig(n_systems=2, band_width_thz=0.4, n_spans=3, seed=9,
                    max_iterations=7, n_restarts=1)
    res = fit_coefficients(cfg, CfmKind.CFM2, bmk)
    # Three starts (initial, identity, one restart), each within budget.
    assert 3 <= res.n_evaluations <= 3 * 7


@pytest.mark.parametrize("kind", [CfmKind.CFM2, CfmKind.CFM3, CfmKind.CFM4])
def test_fit_restarts_move_every_coefficient(kind):
    # A restart steps every coefficient away from the identity point, its
    # zero entries included, on the scale of the shipped magnitudes.
    identity = np.array(assets.identity_coefficients(kind).a)
    shipped = np.abs(assets.shipped_coefficients(kind).a)
    points = campaign._restart_points(kind, 3, np.random.default_rng(0))
    assert len(points) == 3
    for point in points:
        assert np.all(point != identity)
        assert np.all(np.abs(point - identity) < 6 * 0.05 * shipped)


def test_fit_skips_a_start_with_non_finite_cost():
    # A huge bracket exponent overflows the cross terms, and the cost is
    # NaN: the solve starts from the identity point only, and any finite
    # result improves on the start.
    a = list(assets.shipped_coefficients(CfmKind.CFM2).a)
    a[7] = 1e6
    bmk = CfmBenchmark(assets.model(CfmKind.CFM2))
    cfg = FitConfig(n_systems=2, band_width_thz=0.4, n_spans=3, seed=9,
                    max_iterations=20, n_restarts=0,
                    initial=ModelCoefficients(a=tuple(a)))
    res = fit_coefficients(cfg, CfmKind.CFM2, bmk)
    assert not np.isfinite(res.cost_initial)
    assert res.improved and np.isfinite(res.cost_final)
    assert 1 <= res.n_evaluations <= 20


def test_fit_improves_on_oracle():
    bmk = GnOracleBenchmark()
    cfg = FitConfig(n_systems=3, band_width_thz=0.4, n_spans=3, seed=10,
                    max_iterations=2000, n_restarts=0)
    res = fit_coefficients(cfg, CfmKind.CFM2, bmk)
    assert res.improved
    assert res.cost_final < res.cost_initial


def test_benchmarks_compute_each_link_once(monkeypatch):
    # A benchmark keeps the last link's receiver PSDs of every truncation:
    # one quadrature of the link's spans (one kernel call for a closed-form
    # benchmark), however many truncations are asked about.
    calls = []

    def fake_span_psds(link, f_eval, q=None, n_end=None):
        calls.append(link)
        return 1e-4 * np.arange(1.0, link.n_spans + 1), ()

    monkeypatch.setattr(campaign, "gn_span_psds", fake_span_psds)
    kernel_calls = []
    real_psds = campaign.rx_nli_psds

    def counting_psds(link, variant):
        kernel_calls.append(link)
        return real_psds(link, variant)

    monkeypatch.setattr(campaign, "rx_nli_psds", counting_psds)
    link = make_system(71, n_spans=4)
    oracle = GnOracleBenchmark()
    closed = CfmBenchmark(assets.model(CfmKind.CFM2))
    for _ in range(3):
        for n in range(link.n_spans, 0, -1):
            for bmk in (oracle, closed):
                bmk.snr_db(link, n)
                bmk.nli_power_w(link, n)
    assert calls == [link]
    assert len(kernel_calls) == 1
    # The first span's PSD reaches the receiver of a one-span truncation
    # unchanged.
    assert oracle.rx_psd(link, 1) == 1e-4
    other = make_system(72, n_spans=2)
    oracle.rx_psd(other, 2)
    closed.rx_psd(other, 2)
    assert calls == [link, other]
    assert len(kernel_calls) == 2
    with pytest.raises(ValueError):
        oracle.rx_psd(other, 3)


# ---------------------------------------------------------------------------
# The system draw shared by campaigns and fits

ALL_CATEGORIES = (1, 2, 3, 4, 5)
ALL_POSITIONS = ("lowest", "center", "highest")
# Attempt 2 of this draw is unreachable, so the attempts planned after it
# in its block drew for the wrong category and CUT position.
SEED_11_DRAW = dict(n_systems=6, categories=ALL_CATEGORIES,
                    cut_positions=ALL_POSITIONS, seed=11, band_width_thz=0.8,
                    n_spans=5)


def _counting_blocks(monkeypatch) -> list[int]:
    """The size of every block the draw plans, as it plans it."""
    blocks = []
    real = campaign._optimize_stack

    def counting(links, rngs):
        blocks.append(len(links))
        return real(links, rngs)

    monkeypatch.setattr(campaign, "_optimize_stack", counting)
    return blocks


def _steps(draws) -> list[tuple]:
    """Each attempt of a draw with the low-dispersion warnings emitted
    while it was drawn."""
    out = []
    it = iter(draws)
    while True:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            d = next(it, None)
        if d is None:
            return out
        out.append((d, any(issubclass(w.category, LowDispersionWarning)
                           for w in caught)))


def test_blocked_draw_matches_one_attempt_at_a_time(monkeypatch):
    # Planning and scoring in blocks gives the attempts, links, reaches and
    # warnings of the one-attempt-at-a-time loop: the attempts dropped
    # after the unreachable one leave nothing behind.
    blocks = _counting_blocks(monkeypatch)
    draw = FitConfig(**SEED_11_DRAW)
    bmk = CfmBenchmark(assets.model(CfmKind.CFM3))
    got = _steps(draw_systems(draw, bmk))
    want = _steps(draw_one_at_a_time(draw, CfmBenchmark(bmk.variant)))
    key = [(d.attempt, d.category, d.cut_position, d.excluded, d.reach, warn)
           for d, warn in got]
    assert key == [(d.attempt, d.category, d.cut_position, d.excluded,
                    d.reach, warn) for d, warn in want]
    assert [d.link for d, _ in got] == [d.link for d, _ in want]
    assert key[1][0] == 2 and key[1][3] == UNREACHABLE
    n_planned = sum(d.link is not None for d, _ in got)
    assert blocks[0] == 6 and sum(blocks) > n_planned
    # Each report is the benchmark's own read of the link.
    for d, _ in got:
        if d.link is not None:
            own = CfmBenchmark(bmk.variant)
            assert np.array_equal(d.report.snr_db[:, 0], [
                own.snr_db(d.link, n) for n in range(1, d.link.n_spans + 1)])


def test_dropped_attempts_leave_no_warning(monkeypatch):
    # In this draw one attempt planned after the unreachable one, and
    # dropped, has a CUT below the validity bound; no attempt the draw
    # yields has: the campaign warns about none.
    planned = []
    real = campaign._optimize_stack

    def recording(links, rngs):
        out = real(links, rngs)
        planned.extend(link for link, _plan in out[0])
        return out

    monkeypatch.setattr(campaign, "_optimize_stack", recording)
    cfg = CampaignConfig(**{**SEED_11_DRAW, "seed": 47})
    bmk = CfmBenchmark(assets.model(CfmKind.CFM3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_campaign(cfg, bmk)
        want = list(draw_one_at_a_time(cfg, CfmBenchmark(bmk.variant)))
    assert not caught
    assert res.seeds_used == tuple(d.attempt for d in want
                                   if d.excluded is None)
    cfm1 = assets.model(CfmKind.CFM1)
    kept = [d.link for d in want if d.link is not None]
    dropped = [link for link in planned if link not in kept]
    assert any(cfm.nli_terms(link.stack, cfm1).min_abs_beta2[0]
               < cfm.MIN_ABS_BETA2 for link in dropped)


class _FailingBenchmark(CfmBenchmark):
    """A closed-form benchmark that cannot score one given link."""

    def __init__(self, variant, poison):
        super().__init__(variant)
        self.poison = poison

    def cut_reports(self, links):
        if any(link == self.poison for link in links):
            raise RuntimeError("cannot score")
        return super().cut_reports(links)


def test_a_failing_block_fails_at_its_own_attempt():
    # A block that cannot be scored is planned again attempt by attempt:
    # every attempt before the one that fails is yielded as drawn alone.
    draw = FitConfig(**SEED_11_DRAW)
    variant = assets.model(CfmKind.CFM3)
    want = list(draw_one_at_a_time(draw, CfmBenchmark(variant)))
    planned = [i for i, d in enumerate(want) if d.link is not None]
    poison = planned[3]
    got = []
    with pytest.raises(RuntimeError, match="cannot score"):
        for d in draw_systems(draw, _FailingBenchmark(variant,
                                                      want[poison].link)):
            got.append(d)
    assert [(d.attempt, d.excluded, d.reach) for d in got] == [
        (d.attempt, d.excluded, d.reach) for d in want[:poison]]


def test_each_planned_link_goes_to_the_benchmark_once(monkeypatch):
    # A closed-form benchmark scores each block in one stacked pass, the
    # oracle runs one quadrature per planned link it reaches, and neither
    # is asked again once the draw has yielded.
    blocks = _counting_blocks(monkeypatch)
    yielded = []
    real_draw = campaign.draw_systems

    def recording(draw, benchmark):
        for d in real_draw(draw, benchmark):
            yielded.append(d)
            yield d

    monkeypatch.setattr(campaign, "draw_systems", recording)
    passes = []
    real_terms = campaign.nli_terms

    def counting_terms(stack, variant):
        passes.append(len(stack.cut))
        return real_terms(stack, variant)

    monkeypatch.setattr(campaign, "nli_terms", counting_terms)
    quadratures = []

    def fake_span_psds(link, f_eval, q=None, n_end=None):
        quadratures.append(link)
        return 1e-4 * np.arange(1.0, link.n_spans + 1), ()

    monkeypatch.setattr(campaign, "gn_span_psds", fake_span_psds)

    def asked_again(*args):
        raise AssertionError("benchmark asked after the draw")

    for bmk in (CfmBenchmark(assets.model(CfmKind.CFM3)),
                GnOracleBenchmark()):
        for name in ("rx_psd", "nli_power_w", "snr_db"):
            monkeypatch.setattr(bmk, name, asked_again)
        for run in (lambda: run_campaign(CampaignConfig(**SEED_11_DRAW),
                                         bmk),
                    lambda: build_fit_data(FitConfig(**SEED_11_DRAW),
                                           CfmKind.CFM3, bmk)):
            del blocks[:], yielded[:], passes[:], quadratures[:]
            run()
            planned = [d.link for d in yielded if d.link is not None]
            if isinstance(bmk, CfmBenchmark):
                assert len(planned) < sum(blocks)
                assert passes == blocks and quadratures == []
            else:
                assert passes == [] and len(quadratures) == len(planned)
                assert all(a is b for a, b in zip(quadratures, planned))


@pytest.mark.parametrize(
    "categories, positions, seeds, n_low, n_unreachable", [
        (ALL_CATEGORIES, ALL_POSITIONS, (1, 2, 19, 20, 21, 27), 21, 0),
        ((1,), ("center",), (1, 2, 3, 4, 6, 7), 0, 1)])
def test_campaign_draw_is_pinned(categories, positions, seeds, n_low,
                                 n_unreachable):
    # Attempt seeds and exclusion counts recorded before the draw moved
    # into one generator: the order of RNG use must not change.
    cfg = CampaignConfig(n_systems=6, categories=categories,
                         cut_positions=positions, seed=1,
                         band_width_thz=0.8, n_spans=5)
    res = run_campaign(cfg, CfmBenchmark(assets.model(CfmKind.CFM3)))
    assert res.seeds_used == seeds
    assert res.n_excluded_low_dispersion == n_low
    assert res.n_excluded_unreachable == n_unreachable
    # The counts per (category, CUT position) sum to the totals.
    assert [(d.category, d.cut_position) for d in res.draws] == [
        (cat, pos) for cat in categories for pos in positions]
    assert sum(d.attempts for d in res.draws) == max(seeds)
    assert sum(d.excluded_low_dispersion for d in res.draws) == n_low
    assert sum(d.excluded_unreachable for d in res.draws) == n_unreachable
    assert sum(d.attempts - d.excluded_low_dispersion
               - d.excluded_unreachable for d in res.draws) == len(seeds)


def test_paper_scale_draw_is_pinned():
    # At 5 THz x 20 spans a 'highest' CUT is almost always screened out
    # (NZDSF2 sits near its zero dispersion there).  Recorded before the
    # screen moved ahead of building the link.
    cfg = CampaignConfig(n_systems=3, categories=(1,),
                         cut_positions=ALL_POSITIONS, seed=0)
    res = run_campaign(cfg, CfmBenchmark(assets.model(CfmKind.CFM3)))
    assert res.seeds_used == (1, 2, 2874)
    assert res.n_excluded_low_dispersion == 2871
    assert res.n_excluded_unreachable == 0
    assert [(d.cut_position, d.attempts, d.excluded_low_dispersion)
            for d in res.draws] == [("lowest", 1, 0), ("center", 1, 0),
                                    ("highest", 2872, 2871)]


def test_a_planned_system_computes_its_closed_forms_once(monkeypatch):
    # The LOGO step, the refinement and the benchmark's scoring pass of a
    # block read one stack geometry: its closed forms are computed once per
    # block of planned systems (kept, unreachable or dropped after an
    # unreachable one), not once per pass or per system.  The fit structure
    # reads one stack of the kept systems.
    draw = dict(n_systems=6, categories=ALL_CATEGORIES,
                cut_positions=ALL_POSITIONS, seed=11, band_width_thz=0.8,
                n_spans=5)
    bmk = CfmBenchmark(assets.model(CfmKind.CFM3))
    blocks = []
    real = campaign._optimize_stack

    def counting(links, rngs):
        blocks.append(len(links))
        return real(links, rngs)

    monkeypatch.setattr(campaign, "_optimize_stack", counting)
    cfm._closed_forms.cache_clear()
    reasons = [d.excluded for d in draw_systems(FitConfig(**draw), bmk)]
    info = cfm._closed_forms.cache_info()
    n_kept = reasons.count(None)
    n_planned = n_kept + reasons.count(UNREACHABLE)
    assert n_kept == 6 and n_planned > n_kept
    assert len(blocks) < n_planned < sum(blocks)
    # Per block: the LOGO pass (the miss), the refinement and the
    # benchmark's pass.
    n_blocks = len(blocks)
    assert (info.misses, info.hits) == (n_blocks, 2 * n_blocks)
    cfm._closed_forms.cache_clear()
    _data, seeds = build_fit_data(FitConfig(**draw), CfmKind.CFM3, bmk)
    info = cfm._closed_forms.cache_info()
    assert len(seeds) == n_kept and len(blocks) == 2 * n_blocks
    assert (info.misses, info.hits) == (n_blocks + 1, 2 * n_blocks)


def test_fit_and_campaign_draw_the_same_systems():
    # A fit trains on exactly the systems a campaign with the same draw
    # fields scores, and the stream names the reason of every exclusion
    # (this draw has both kinds).
    draw = dict(n_systems=6, categories=ALL_CATEGORIES,
                cut_positions=ALL_POSITIONS, seed=11, band_width_thz=0.8,
                n_spans=5)
    bmk = CfmBenchmark(assets.model(CfmKind.CFM3))
    camp = run_campaign(CampaignConfig(**draw), bmk)
    fit = fit_coefficients(FitConfig(**draw, max_iterations=1, n_restarts=0),
                           CfmKind.CFM3, bmk)
    assert fit.train_seeds == camp.seeds_used
    draws = list(draw_systems(CampaignConfig(**draw), bmk))
    assert [d.attempt for d in draws] == list(range(1, len(draws) + 1))
    assert tuple(d.attempt for d in draws
                 if d.excluded is None) == camp.seeds_used
    reasons = [d.excluded for d in draws]
    assert reasons.count(LOW_DISPERSION_FLAG) \
        == camp.n_excluded_low_dispersion > 0
    assert reasons.count(UNREACHABLE) == camp.n_excluded_unreachable > 0
    assert all((d.reach is None) == (d.excluded is not None) for d in draws)


# A bool or a non-integer count or seed is refused too (n_systems=2.5
# would draw 3 systems), even one equal to a valid value.
@pytest.mark.parametrize("config", [CampaignConfig, FitConfig])
@pytest.mark.parametrize("kwargs", [
    {"n_systems": 0}, {"n_systems": -1}, {"categories": ()},
    {"cut_positions": ()}, {"n_systems": 2.5}, {"n_systems": True},
    {"seed": 0.5}, {"n_spans": 3.0}, {"n_spans": True}])
def test_configs_reject_empty_draws(config, kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        config(**kwargs)
    # Any integer type, NumPy's too, passes.
    config(n_systems=np.int64(2), seed=np.int32(3), n_spans=np.uint8(4))


@pytest.mark.parametrize("kwargs", [
    {"max_iterations": 0}, {"n_restarts": -1}, {"max_iterations": 2.5},
    {"max_iterations": True}, {"n_restarts": True}, {"n_restarts": 1.0}])
def test_fit_config_rejects_unusable_search(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        FitConfig(**kwargs)
    FitConfig(max_iterations=np.int64(10), n_restarts=np.int8(0))


# ---------------------------------------------------------------------------
# The stacked fit residual against the per-system loop


CRITERION_8A_DRAW = dict(n_systems=30, categories=ALL_CATEGORIES,
                         cut_positions=ALL_POSITIONS, seed=8700,
                         band_width_thz=0.8, n_spans=5)
FIT_KINDS = (CfmKind.CFM2, CfmKind.CFM3, CfmKind.CFM4)


# Three 20-span systems of the paper's 5 THz band, reaching 4, 10 and 20
# spans.
PAPER_FIT_DRAW = dict(n_systems=3, categories=(1, 3),
                      cut_positions=("lowest", "center"), seed=0)


def _fit_data(draw: dict) -> dict:
    """A training set against the shipped CFM2 table, as the stacked
    structure and as the per-system reference, for each fitted variant."""
    bmk = CfmBenchmark(assets.model(CfmKind.CFM2))
    kept = [d for d in draw_systems(FitConfig(**draw), bmk)
            if d.excluded is None]
    out = {}
    for kind in FIT_KINDS:
        stacked, loop = _FitData(kind), LoopFitData(kind)
        for d in kept:
            p_bmk = np.array([bmk.nli_power_w(d.link, n)
                              for n in range(1, d.reach + 1)])
            stacked.add_systems([d.link], [d.reach], [p_bmk])
            loop.add_system(d.link, d.reach, p_bmk)
        out[kind] = stacked, loop
    return out


@pytest.fixture(scope="module")
def criterion_8a_data():
    """The criterion-8a training set (see _fit_data)."""
    return _fit_data(CRITERION_8A_DRAW)


@pytest.fixture(scope="module")
def paper_fit_data():
    """Paper-geometry systems reaching beyond 5 spans (see _fit_data)."""
    data = _fit_data(PAPER_FIT_DRAW)
    assert max(s["m_count"] for s in data[CfmKind.CFM2][1].systems) == 20
    return data


@pytest.mark.parametrize("kind", FIT_KINDS)
def test_stacked_cost_matches_per_system_loop(criterion_8a_data,
                                              paper_fit_data, kind):
    # On the criterion-8a set and on 20-span paper-geometry systems, whose
    # self terms (CFM3/CFM4) take coherence brackets far from 0.
    for stacked, loop in (criterion_8a_data[kind], paper_fit_data[kind]):
        assert stacked.n_rows == loop.n_terms
        shipped = np.array(assets.shipped_coefficients(kind).a)
        rng = np.random.default_rng(8702)
        points = [shipped, np.array(assets.identity_coefficients(kind).a)] + [
            shipped * (1.0 + rng.standard_normal(shipped.size))
            for _ in range(20)]
        n_finite = 0
        for a in points:
            got, want = stacked.cost(a), loop.cost(a)
            if np.isfinite(want):
                n_finite += 1
                # At the truth table (CFM2) both costs are rounding noise of
                # ~1e-30; the absolute floor is far below any fitted cost.
                assert got == pytest.approx(want, rel=1e-12, abs=1e-24)
            else:
                assert np.isnan(got) == np.isnan(want)
                assert np.isinf(got) == np.isinf(want)
        # The points cover both finite and overflowing costs.
        assert 2 <= n_finite < len(points)


@pytest.mark.parametrize("kind", FIT_KINDS)
def test_fit_data_stores_each_term_once(paper_fit_data, kind):
    # One stored value per term (a self term, its coherent part for
    # CFM3/CFM4, and a cross term per active interferer, per span up to
    # the reach) and the propagation's [truncation, span] entries of each
    # part: nothing is stored per truncation and term.
    stacked, loop = paper_fit_data[kind]
    stack = stacked._stack()
    n_parts = 3 if kind.coherent_sci else 2
    want_terms = want_prop = 0
    for system in loop.systems:
        reach = system["m_count"]
        n_inter = system["xphi"].size // reach
        want_terms += reach * (n_inter + n_parts - 1)
        want_prop += n_parts * reach ** 2
    assert len(stack.acc) == len(stack.lay) == want_terms
    assert stack.w.nnz == 2 * want_terms
    assert stack.prop.nnz == want_prop
    assert stack.w.shape == (3 * stacked.n_rows, 2 * len(stack.feat))


@pytest.fixture
def points_made(monkeypatch) -> list[bytes]:
    """The coefficient vector of every point whose powers a fit structure
    takes, as it takes them."""
    made = []

    class CountingPoint(campaign._Point):
        def __init__(self, stack, slots, a):
            made.append(a.tobytes())
            super().__init__(stack, slots, a)

    monkeypatch.setattr(campaign, "_Point", CountingPoint)
    return made


def test_a_point_takes_its_powers_once(criterion_8a_data, points_made):
    # A residual and then a Jacobian at one point take its powers once;
    # another point takes them anew, and coming back gives the same values.
    made = points_made
    kind = CfmKind.CFM4
    stacked, _loop = criterion_8a_data[kind]
    a = np.array(assets.shipped_coefficients(kind).a)
    b = a * 1.01
    r_a = stacked.residual(a).copy()
    jac_a = stacked.jacobian(a)
    assert stacked.cost(a) == r_a @ r_a
    assert made == [a.tobytes()]
    stacked.jacobian(b)
    assert made == [a.tobytes(), b.tobytes()]
    np.testing.assert_array_equal(stacked.jacobian(a), jac_a)
    np.testing.assert_array_equal(stacked.residual(a), r_a)
    assert made == [a.tobytes(), b.tobytes(), a.tobytes()]


def test_fit_takes_each_points_powers_once(points_made):
    # The initial table's cost, the first start's check and the solver's
    # first residual read one point, as does each Jacobian at the point of
    # the residual before it.
    made = points_made
    bmk = CfmBenchmark(assets.model(CfmKind.CFM2))
    cfg = FitConfig(n_systems=2, band_width_thz=0.4, n_spans=3, seed=9,
                    max_iterations=30, n_restarts=1)
    res = fit_coefficients(cfg, CfmKind.CFM2, bmk)
    assert len(made) == len(set(made))
    assert made[0] == np.array(assets.shipped_coefficients(
        CfmKind.CFM2).a).tobytes()
    assert len(made) <= res.n_evaluations


def test_fit_records_each_start():
    # The initial table (whose cost overflows, so it is not solved), the
    # identity point and two restarts, in order; the evaluations sum.
    a = list(assets.shipped_coefficients(CfmKind.CFM2).a)
    a[7] = 1e6
    bmk = CfmBenchmark(assets.model(CfmKind.CFM2))
    cfg = FitConfig(n_systems=2, band_width_thz=0.4, n_spans=3, seed=9,
                    max_iterations=20, n_restarts=2,
                    initial=ModelCoefficients(a=tuple(a)))
    res = fit_coefficients(cfg, CfmKind.CFM2, bmk)
    assert [s.index for s in res.starts] == [0, 1, 2, 3]
    first = res.starts[0]
    assert not np.isfinite(first.cost_initial)
    assert (first.n_evaluations, first.status) == (0, None)
    np.testing.assert_equal(res.cost_initial, first.cost_initial)
    for start in res.starts[1:]:
        assert np.isfinite(start.cost_initial)
        assert start.cost_final <= start.cost_initial
        assert 1 <= start.n_evaluations <= 20
        assert start.status in (0, 1, 2, 3, 4)
    assert res.n_evaluations == sum(s.n_evaluations for s in res.starts)
    assert res.cost_final == min(s.cost_final for s in res.starts[1:])


def _central_differences(data, a, rel_step=1e-5):
    out = np.empty((data.n_rows, a.size))
    for k in range(a.size):
        h = rel_step * max(abs(a[k]), 1e-3)
        step = np.zeros_like(a)
        step[k] = h
        out[:, k] = (data.residual(a + step) - data.residual(a - step)) / (2 * h)
    return out


@pytest.mark.parametrize("kind", FIT_KINDS)
def test_jacobian_matches_central_differences(criterion_8a_data, kind):
    stacked, _loop = criterion_8a_data[kind]
    stack = stacked._stack()
    cross_acc = stack.acc[stack.lay == campaign._CROSS]
    # The set has Gaussian interferers (phi = 0, whose powers of phi have
    # no exponent derivative).
    assert np.any(stack.feat[stack.lay_src == campaign._CROSS, 0] == 0.0)
    shipped = np.array(assets.shipped_coefficients(kind).a)
    rng = np.random.default_rng(8703)
    floored = shipped.copy()
    # A negative cross bracket offset floors every first-span cross term
    # (zero accumulated dispersion), whose bracket then ignores the offset.
    floored[6] = -1.0
    assert np.any(cross_acc + floored[6] <= 1e-12)
    for a in (shipped, shipped * (1.0 + 0.05 * rng.standard_normal(
            shipped.size)), floored):
        jac = stacked.jacobian(a)
        assert jac.shape == (stacked.n_rows, kind.n_coefficients)
        assert np.all(np.isfinite(jac))
        numeric = _central_differences(stacked, a)
        scale = np.abs(numeric).max(axis=0)
        assert np.all(scale > 0.0)
        np.testing.assert_array_less(np.abs(jac - numeric).max(axis=0),
                                     1e-5 * scale)


@pytest.mark.parametrize("seed, case", [(3, 71), (11, 11), (13, 50)])
def test_fit_recovers_from_starts_that_stalled(seed, case):
    # Fit-roundtrip CFM4 starts: from case 71 of seed 3, Nelder-Mead
    # stopped at cost 0.284; from the other two, TRF with its default first
    # trust region (the scaled norm of the start) stopped at cost ~0.28.
    kind = CfmKind.CFM4
    shipped = np.array(assets.shipped_coefficients(kind).a)
    start = shipped * (1.0 + 0.05 * np.random.default_rng(
        [seed, case, 2]).standard_normal(shipped.size))
    cfg = FitConfig(**CRITERION_8A_DRAW, max_iterations=500, n_restarts=0,
                    initial=ModelCoefficients(a=tuple(start.tolist())))
    res = fit_coefficients(cfg, kind, CfmBenchmark(assets.model(kind)))
    assert res.improved
    assert res.cost_final < 1e-6
    assert 0 < res.n_evaluations <= 2 * 500
