"""Quadrature benchmark: kernel correctness against independent
integrators."""

import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import reference_oracle as ref
from conftest import (SpanConfig, channels_of, link_of,
                      make_single_channel_link, make_system, permute_comb,
                      spans_of)
from reference_cfm import gain_lin, span_loss_lin
from nli_planner.campaign import GnOracleBenchmark
from nli_planner.cfm import propagate, rx_nli_psd
from nli_planner import assets, oracle
from nli_planner.oracle import (QuadratureConfig, QuadratureError,
                                QuadratureStats, gn_rx_psd, gn_span_psd,
                                gn_span_psds)
from nli_planner.sysgen import CUT_POSITIONS, GeneratorConfig, generate_system
from nli_planner.types import (CfmKind, ChannelSpec, FiberParams, LinkSpec,
                               ModulationFormat, ValidationError)


def _breakpoints(a, b, points):
    """The points strictly inside [a, b], away from its ends, sorted."""
    inside = sorted({p for p in points if a + 1e-12 < p < b - 1e-12})
    return inside or None


def _reference_iterated_quad(span, comb, f_eval, span_index=0):
    """[DERIVED] iterated adaptive integration of the four-wave-mixing
    kernel over each channel-pair square: an outer ``quad`` over f1 of an
    inner ``quad`` over f2.  Both break at the lines where the integrand
    has a ridge or a jump: f = f_eval (phase matching) and f1 + f2 - f_eval
    on a channel edge."""
    fib = span.fiber
    two_alpha = fib.two_alpha
    loss = span_loss_lin(span)
    length = span.length_km
    channels = [c for c in comb if c.active]
    lo = [c.f_center - c.symbol_rate / 2 for c in channels]
    hi = [c.f_center + c.symbol_rate / 2 for c in channels]
    psd = [c.power_w_per_span[span_index] / c.symbol_rate
           for c in channels]
    edges = lo + hi

    def comb_psd(x):
        return sum(g if l <= x < h else 0.0
                   for l, h, g in zip(lo, hi, psd))

    def kernel(f2, f1):
        g = comb_psd(f1) * comb_psd(f2) * comb_psd(f1 + f2 - f_eval)
        if g == 0.0:
            return 0.0
        b2 = fib.beta2 + math.pi * fib.beta3 * (f1 + f2 - 2 * fib.f_ref)
        phase = 4 * math.pi ** 2 * b2 * (f1 - f_eval) * (f2 - f_eval)
        num = 1 + loss ** 2 - 2 * loss * math.cos(phase * length)
        return g * num / (two_alpha ** 2 + phase ** 2)

    def inner(f1, a, b):
        points = _breakpoints(a, b, [f_eval] + [f_eval + e - f1
                                                for e in edges])
        return integrate.quad(kernel, a, b, args=(f1,), points=points,
                              epsabs=0.0, epsrel=1e-10, limit=200)[0]

    total = 0.0
    for i in range(len(channels)):
        for j in range(len(channels)):
            # The inner integrand has a kink where an inner break point
            # crosses an end of the f2 channel.
            points = _breakpoints(lo[i], hi[i], [f_eval] + [
                f_eval + e - end for e in edges for end in (lo[j], hi[j])])
            total += integrate.quad(inner, lo[i], hi[i], args=(lo[j], hi[j]),
                                    points=points, epsabs=0.0, epsrel=1e-8,
                                    limit=200)[0]
    prefactor = (16 / 27) * fib.gamma ** 2 * gain_lin(span) * loss
    return prefactor * total


def test_span_psd_single_channel_vs_dblquad():
    link = make_single_channel_link(rate=0.032, power_w=0.001)
    want = _reference_iterated_quad(spans_of(link)[0], channels_of(link),
                                    link.cut.f_center)
    got = gn_span_psd(link, link.cut.f_center,
                      QuadratureConfig(rel_tol=0.002, max_points_per_channel=4096))
    assert got == pytest.approx(want, rel=5e-3)
    q = QuadratureConfig()
    got = gn_span_psd(link, link.cut.f_center, q)
    assert got == pytest.approx(want, rel=q.rel_tol)


def test_span_psd_two_channels_vs_dblquad():
    link = make_single_channel_link(rate=0.032, power_w=0.001)
    nch = ChannelSpec(f_center=link.cut.f_center + 0.0435,
                      symbol_rate=0.032, roll_off=0.1,
                      format=ModulationFormat.PM_64QAM,
                      power_w_per_span=(0.0012,))
    comb = (link.cut, nch)
    link2 = link_of(spans_of(link), comb, 0)
    want = _reference_iterated_quad(spans_of(link)[0], comb,
                                    link2.cut.f_center)
    got = gn_span_psd(link2, link2.cut.f_center,
                      QuadratureConfig(rel_tol=0.002, max_points_per_channel=4096))
    assert got == pytest.approx(want, rel=5e-3)
    q = QuadratureConfig()
    got = gn_span_psd(link2, link2.cut.f_center, q)
    assert got == pytest.approx(want, rel=q.rel_tol)


def test_closed_form_tracks_oracle_single_channel():
    # The self-interference asinh closed form approximates the quadrature
    # within a few percent at SMF-scale dispersion.
    link = make_single_channel_link(rate=0.064, power_w=0.002)
    variant = assets.model(CfmKind.CFM1)
    cf = rx_nli_psd(link, variant, 1)
    num = gn_span_psd(link, link.cut.f_center)
    assert cf == pytest.approx(num, rel=0.15)


def test_inactive_channels_excluded():
    link = make_single_channel_link(rate=0.032, power_w=0.001)
    ghost = ChannelSpec(f_center=link.cut.f_center + 0.0435,
                        symbol_rate=0.032, roll_off=0.1,
                        format=ModulationFormat.PM_64QAM,
                        power_w_per_span=(0.0012,), active=False)
    comb = (link.cut, ghost)
    with_ghost = gn_span_psd(link_of(spans_of(link), comb, 0),
                             link.cut.f_center)
    alone = gn_span_psd(link, link.cut.f_center)
    assert with_ghost == pytest.approx(alone, rel=1e-12)


def test_quadrature_failure_carries_estimate():
    link = make_single_channel_link(rate=0.064)
    q = QuadratureConfig(points_per_channel=8, rel_tol=1e-12,
                         max_points_per_channel=16)
    with pytest.raises(QuadratureError) as err:
        gn_span_psd(link, link.cut.f_center, q)
    assert err.value.estimate > 0.0


@pytest.mark.parametrize("points, cap, last", [(8, 16, 16), (24, 256, 192)])
def test_quadrature_failure_reports_where_it_stopped(points, cap, last):
    # The doubling stops at the last level within the cap (24 points per
    # channel runs 12, 24, ..., 192 under a 256 cap, never 384) and reports
    # that level and the relative change between the last two levels.
    link = make_single_channel_link(rate=0.064)
    span, comb, f = spans_of(link)[0], channels_of(link), link.cut.f_center
    q = QuadratureConfig(points_per_channel=points, rel_tol=1e-12,
                         max_points_per_channel=cap)
    with pytest.raises(QuadratureError) as err:
        gn_span_psd(link, f, q)
    cur = ref._gn_span_psd_at_res(span, comb, f, 0, last)
    prev = ref._gn_span_psd_at_res(span, comb, f, 0, last // 2)
    rel = abs(cur - prev) / abs(cur)
    assert err.value.points_per_channel == last
    assert err.value.estimate == pytest.approx(cur, rel=1e-12)
    assert err.value.rel_change == pytest.approx(rel, rel=1e-9)
    assert f"{last} points per channel" in str(err.value)
    assert f"{rel:.3g}" in str(err.value)


@pytest.mark.parametrize("kwargs", [
    {"points_per_channel": 0},
    {"rel_tol": 0.0},
    {"rel_tol": -0.02},
    {"rel_tol": math.nan},
    {"rel_tol": math.inf},
    {"points_per_channel": 64, "max_points_per_channel": 32},
    # The first convergence test compares 8 with 16 points per channel.
    {"points_per_channel": 8, "max_points_per_channel": 8},
    # Resolutions are whole numbers of points, and a bool is not one.
    {"points_per_channel": 20.5},
    {"points_per_channel": 32.0},
    {"points_per_channel": True},
    {"max_points_per_channel": 100.5},
    {"max_points_per_channel": 256.0},
])
def test_quadrature_config_rejects_settings_it_cannot_honour(kwargs):
    with pytest.raises(ValidationError):
        QuadratureConfig(**kwargs)


# ---------------------------------------------------------------------------
# Batched quadrature level against the per-pair reference


def _zero_dispersion_span() -> SpanConfig:
    fiber = FiberParams(alpha_db_per_km=0.21, beta2=0.0, beta3=0.0,
                        gamma=1.3, f_ref=193.8, name="dispersionless")
    return SpanConfig(fiber=fiber, length_km=90.0)


def _level_case(name: str):
    """(span, comb, f_eval, span_index) of one parity case."""
    if name.startswith("cat"):
        category, position = int(name[3]), name[5:]
        link = make_system(4100 + category, category=category,
                           band_width=2.0, n_spans=6, cut_position=position)
        n = category % link.n_spans
        return spans_of(link)[n], channels_of(link), link.cut.f_center, n
    if name == "half-loaded":
        link = make_system(4117, category=2, band_width=2.0, n_spans=6)
        comb = channels_of(link)
        assert 0 < sum(not c.active for c in comb) < len(comb) - 1
        return spans_of(link)[5], comb, link.cut.f_center, 5
    if name == "ultra-dense-overlap":
        cfg = GeneratorConfig(category=1, band_width=0.25, n_spans=2,
                              ultra_dense_fraction=1.0,
                              dense_separation="center_spacing")
        link = generate_system(cfg, np.random.default_rng(4120))
        comb = channels_of(link)
        # Neighbouring channels overlap.
        assert any(b.f_center - a.f_center
                   < (a.symbol_rate + b.symbol_rate) / 2
                   for a, b in zip(comb, comb[1:]))
        return spans_of(link)[1], comb, link.cut.f_center, 1
    if name == "reversed":
        link = make_system(4121, category=3, band_width=2.0, n_spans=6)
        return (spans_of(link)[0], channels_of(link)[::-1], link.cut.f_center,
                0)
    if name == "single-channel":
        link = make_single_channel_link(rate=0.064, power_w=0.002)
        return spans_of(link)[0], channels_of(link), link.cut.f_center, 0
    if name == "zero-dispersion":
        link = make_system(4122, category=1, band_width=1.0, n_spans=2)
        return _zero_dispersion_span(), channels_of(link), link.cut.f_center, 0
    raise KeyError(name)


_LEVEL_CASES = ([f"cat{c}-{p}" for c in range(1, 6) for p in CUT_POSITIONS]
                + ["half-loaded", "ultra-dense-overlap", "reversed",
                   "single-channel", "zero-dispersion"])


def _span_level(span, comb, f_eval, span_index):
    """The batched quadrature level of one span, as a function of the
    points per channel: the one fiber group of a one-span link that
    carries the comb's powers into span ``span_index``."""
    channels = tuple(
        replace(c, power_w_per_span=(c.power_w_per_span[span_index],))
        for c in comb)
    link = link_of((span,), channels, 0)
    (group,) = oracle._fiber_groups(link, f_eval, 1)
    return lambda res: group.levels(res, group.spans)[0]


@pytest.mark.parametrize("name", _LEVEL_CASES)
def test_batched_level_matches_per_pair_reference(name):
    span, comb, f_eval, n = _level_case(name)
    level = _span_level(span, comb, f_eval, n)
    for res in (16, 32, 64, 128):
        want = ref._gn_span_psd_at_res(span, comb, f_eval, n, res)
        assert want > 0.0
        assert level(res) == pytest.approx(want, rel=1e-12), res


def test_self_pair_is_graded_on_both_axes():
    # On SMF the phase-matching ridge at the far edge of a 64-GBd channel
    # is narrower than the channel, so the CUT's self pair, the one pair of
    # a one-channel link, is sinh-graded in f1 and in f2.
    link = make_single_channel_link()
    assert spans_of(link)[0].fiber.name == "SMF"
    (group,) = oracle._fiber_groups(link, link.cut.f_center, 1)
    assert group.grid1[3].tolist() == [True]
    assert group.grid2[3].tolist() == [True]


def _assert_quadrature_memory_bounded():
    # A 256-point level of a ~20-channel 2-THz link: the kernel is built in
    # bounded chunks, never as a 256 x 256 block per channel pair.
    link = make_system(4130, category=1, band_width=2.0, n_spans=6)
    assert 15 <= len(channels_of(link)) <= 25
    q = QuadratureConfig(points_per_channel=256, max_points_per_channel=256)
    tracemalloc.start()
    try:
        psd = gn_span_psd(link, link.cut.f_center, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert psd > 0.0
    assert peak <= 2 * 2 ** 20
    # Six spans on one fiber make one group; its buffers are shared, so
    # the group stays within the same bound.
    fiber = spans_of(link)[0].fiber
    one_fiber = link_of([replace(s, fiber=fiber) for s in spans_of(link)],
                        channels_of(link), link.cut_index)
    tracemalloc.start()
    try:
        psds, _ = gn_span_psds(one_fiber, link.cut.f_center, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(psds) == 6 and np.all(psds > 0.0)
    assert peak <= 2 * 2 ** 20


def test_quadrature_memory_does_not_grow_with_resolution():
    _assert_quadrature_memory_bounded()


def test_quadrature_memory_does_not_grow_with_the_cpu_count(monkeypatch):
    # Each worker has its own buffers; the worker cap keeps their sum
    # within the same bound on a 64-CPU affinity.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    assert oracle._cpu_count() == 64
    _assert_quadrature_memory_bounded()


def test_rx_accumulation_transparent_spans():
    link = make_single_channel_link(n_spans=3)
    per_span = gn_span_psd(link, link.cut.f_center)
    # Identical transparent spans: the receiver PSD is three times one span.
    total = gn_rx_psd(link, link.cut.f_center)
    assert total == pytest.approx(3 * per_span, rel=1e-6)


@pytest.mark.parametrize("past_end", [False, True])
def test_rx_psd_rejects_truncations_outside_the_link(past_end):
    link = make_single_channel_link(n_spans=2)
    n_end = link.n_spans + 1 if past_end else 0
    with pytest.raises(ValueError):
        gn_rx_psd(link, link.cut.f_center, QuadratureConfig(), n_end)
    # A bool or a float is refused before any quadrature runs.
    for bad in (n_end, True, 2.0):
        with pytest.raises(ValueError, match="n_end"):
            gn_span_psds(link, link.cut.f_center, QuadratureConfig(), bad)


def test_rx_psd_converges_on_generated_system():
    link = make_system(60, band_width=0.5, n_spans=3)
    val = gn_rx_psd(link, link.cut.f_center)
    assert val > 0.0



# ---------------------------------------------------------------------------
# All spans of a link at once, one level pass per fiber group


def _one_fiber_link() -> LinkSpec:
    """Six spans on one fiber, all of different lengths, with per-span
    powers that are not proportional across spans."""
    link = make_system(4150, category=1, band_width=1.0, n_spans=6)
    spans = tuple(SpanConfig(fiber=spans_of(link)[0].fiber,
                             length_km=70.0 + 7.0 * n) for n in range(6))
    rng = np.random.default_rng(4150)
    channels = tuple(replace(c, power_w_per_span=tuple(
        c.power_w_per_span[0] * rng.uniform(0.5, 2.0, 6)))
        for c in channels_of(link))
    return link_of(spans, channels, link.cut_index)


def _span_psds_case(name: str) -> LinkSpec:
    if name.startswith("cat"):
        category = int(name[3])
        position = CUT_POSITIONS[category % len(CUT_POSITIONS)]
        return make_system(4100 + category, category=category,
                           band_width=2.0, n_spans=6, cut_position=position)
    if name == "one-fiber":
        link = _one_fiber_link()
        assert len({s.fiber for s in spans_of(link)}) == 1
        assert len({s.length_km for s in spans_of(link)}) == 6
        ratios = {c.power_w_per_span[1] / c.power_w_per_span[0]
                  for c in channels_of(link)}
        assert len(ratios) == len(channels_of(link))
        return link
    if name == "half-loaded":
        link = make_system(4117, category=2, band_width=2.0, n_spans=6)
        assert 0 < sum(not c.active for c in channels_of(link))
        return link
    if name == "zero-dispersion":
        link = make_system(4122, category=1, band_width=1.0, n_spans=3)
        first, _, last = spans_of(link)
        return link_of((first, _zero_dispersion_span(), last),
                       channels_of(link), link.cut_index)
    raise KeyError(name)


@pytest.mark.parametrize("name", [f"cat{c}" for c in range(1, 6)]
                         + ["one-fiber", "half-loaded", "zero-dispersion"])
def test_span_psds_equal_span_by_span(name):
    link = _span_psds_case(name)
    f = link.cut.f_center
    psds, stats = gn_span_psds(link, f)
    want = [gn_span_psd(link, f, None, n) for n in range(link.n_spans)]
    assert psds.tolist() == want
    assert len(stats) == link.n_spans
    assert gn_rx_psd(link, f, n_end=2) == float(
        propagate(link.span_arrays.transfer[:2], want[:2])[-1])


@pytest.mark.parametrize("category", range(1, 6))
def test_default_config_stops_at_32_points_within_rel_tol(category):
    # With the CUT's self pair graded, every span of a generated 2-THz link
    # converges at the first test, 16 against 32 points per channel, and
    # lies within rel_tol of its 128-point level.
    link = _span_psds_case(f"cat{category}")
    f = link.cut.f_center
    q = QuadratureConfig()
    psds, stats = gn_span_psds(link, f, q)
    assert [s.points_per_channel for s in stats] == [32] * link.n_spans
    for group in oracle._fiber_groups(link, f, link.n_spans):
        for span, fine in zip(group.spans, group.levels(128, group.spans)):
            assert psds[span.index] == pytest.approx(fine, rel=q.rel_tol)


def test_span_psds_report_how_each_span_converged():
    link = _span_psds_case("half-loaded")
    f = link.cut.f_center
    q = QuadratureConfig()
    psds, stats = gn_span_psds(link, f, q)
    channels = [c for c in channels_of(link) if c.active]
    lo = [c.f_center - c.symbol_rate / 2.0 for c in channels]
    hi = [c.f_center + c.symbol_rate / 2.0 for c in channels]
    n_ch = len(channels)
    kept = sum(any(h > lo[i] + lo[j] - f and l < hi[i] + hi[j] - f
                   for l, h in zip(lo, hi))
               for i in range(n_ch) for j in range(i, n_ch))
    assert 0 < kept < n_ch * (n_ch + 1) // 2
    spans, comb = spans_of(link), channels_of(link)
    for n, (psd, stat) in enumerate(zip(psds, stats)):
        level = _span_level(spans[n], comb, f, n)
        res = stat.points_per_channel
        cur, prev = level(res), level(res // 2)
        assert psd == cur
        assert stat.rel_change == abs(cur - prev) / abs(cur) <= q.rel_tol
        if res > 2 * q.first_level:
            # The level before did not converge.
            before = level(res // 4)
            assert abs(prev - before) > q.rel_tol * abs(prev)
        assert (stat.pairs_kept, stat.pairs_pruned) == (
            kept, n_ch * (n_ch + 1) // 2 - kept)


@given(seed=st.integers(0, 10_000), category=st.integers(1, 5),
       position=st.sampled_from(CUT_POSITIONS),
       perm_seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_span_psds_do_not_depend_on_comb_order(seed, category, position,
                                               perm_seed):
    # The pair set and the comb tables come from the comb's arrays: listing
    # the channels in another order keeps every span's pairs, and its PSD
    # within the quadrature's tolerance.
    link = make_system(seed, category=category, band_width=2.0, n_spans=6,
                       cut_position=position)
    shuffled, _ = permute_comb(link, perm_seed)
    f = link.cut.f_center
    q = QuadratureConfig()
    want, want_stats = gn_span_psds(link, f, q)
    got, got_stats = gn_span_psds(shuffled, f, q)
    assert got == pytest.approx(want, rel=q.rel_tol, abs=0.0)
    assert [(s.pairs_kept, s.pairs_pruned) for s in got_stats] == [
        (s.pairs_kept, s.pairs_pruned) for s in want_stats]


def test_span_psds_of_a_comb_with_no_active_channel():
    link = make_single_channel_link(n_spans=2)
    dark = link_of(spans_of(link), [replace(link.cut, active=False)], 0)
    psds, stats = gn_span_psds(dark, link.cut.f_center)
    assert psds.tolist() == [0.0, 0.0]
    assert [s.points_per_channel for s in stats] == [0, 0]


def test_span_psds_skip_the_levels_when_every_pair_is_pruned(monkeypatch):
    # Far below the comb, no pair's third frequency lands in it: each span
    # reads 0 at level 0, and no level is evaluated.
    link = make_system(4150, category=1, band_width=1.0, n_spans=3)
    n_ch = sum(c.active for c in channels_of(link))

    def no_level(*args):
        raise AssertionError("a quadrature level was evaluated")

    monkeypatch.setattr(oracle._FiberGroup, "levels", no_level)
    psds, stats = gn_span_psds(link, 0.0)
    assert psds.tolist() == [0.0] * 3
    assert stats == (QuadratureStats(0, 0.0, 0, n_ch * (n_ch + 1) // 2),) * 3


def test_span_psds_far_above_the_comb_build_no_grid():
    # At 1e200 THz every pair is pruned; the ridge width of a grid there
    # would overflow, so none is built and no warning is raised.
    link = make_system(4150, category=1, band_width=1.0, n_spans=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psds, stats = gn_span_psds(link, 1e200)
    assert psds.tolist() == [0.0] * 3
    assert [s.pairs_kept for s in stats] == [0] * 3


@pytest.mark.parametrize("f_eval", [math.nan, math.inf, -math.inf])
def test_span_psds_reject_a_non_finite_frequency(f_eval):
    link = make_single_channel_link()
    with pytest.raises(ValidationError):
        gn_span_psds(link, f_eval)
    with pytest.raises(ValidationError):
        gn_rx_psd(link, f_eval)


def test_span_psds_raise_the_lowest_failing_span():
    # The spans' changes from 8 to 16 points are 1e-4 (span 0), 0.025,
    # 0.014, 6.1e-4, 0.015 and 8.5e-4: each at least 58% from rel_tol.
    link = make_system(4167, category=1, band_width=1.0, n_spans=6)
    f = link.cut.f_center
    q = QuadratureConfig(points_per_channel=16, rel_tol=0.00024,
                         max_points_per_channel=16)
    errors = {}
    for n in range(link.n_spans):
        try:
            gn_span_psd(link, f, q, n)
        except QuadratureError as exc:
            errors[n] = exc
    # Span 0 converges, and its fiber group fails on a later span than
    # another group does, so the group evaluated first does not hold the
    # lowest failing span.
    first = min(errors)
    spans = spans_of(link)
    fiber0 = spans[0].fiber
    assert 0 not in errors and spans[first].fiber != fiber0
    assert any(spans[n].fiber == fiber0 for n in errors)
    with pytest.raises(QuadratureError) as err:
        gn_span_psds(link, f, q)
    want = errors[first]
    assert str(err.value) == str(want)
    assert (err.value.estimate, err.value.points_per_channel,
            err.value.rel_change) == (want.estimate, want.points_per_channel,
                                      want.rel_change)


@given(seed=st.integers(0, 10_000), category=st.integers(1, 5),
       order=st.permutations(range(4)))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_permuting_spans_permutes_span_psds(seed, category, order):
    # Span n's value depends on span n and its launch powers alone, so
    # permuting the spans, with each channel's per-span powers permuted the
    # same way, permutes the values exactly.
    link = make_system(seed, category=category, n_spans=4)
    spans = spans_of(link)
    permuted = link_of(
        [spans[k] for k in order],
        [replace(c, power_w_per_span=tuple(
            c.power_w_per_span[k] for k in order)) for c in channels_of(link)],
        link.cut_index)
    f = link.cut.f_center
    psds, stats = gn_span_psds(link, f)
    got, got_stats = gn_span_psds(permuted, f)
    assert got.tolist() == [psds[k] for k in order]
    assert got_stats == tuple(stats[k] for k in order)


def test_oracle_benchmark_keeps_the_last_links_stats():
    link = make_system(60, band_width=0.5, n_spans=3)
    bench = GnOracleBenchmark()
    assert bench.last_stats == ()
    bench.snr_db(link, 3)
    psds, stats = gn_span_psds(link, link.cut.f_center)
    assert bench.last_stats == stats
    assert bench.rx_psd(link, 3) == gn_rx_psd(link, link.cut.f_center)


# ---------------------------------------------------------------------------
# A level's chunks on worker threads


def _record_worker_threads(monkeypatch) -> list[str]:
    """The names of the threads that share each level's chunks."""
    names = []
    chunks = oracle._FiberGroup._chunks

    def recorded(self, *args):
        names.append(threading.current_thread().name)
        chunks(self, *args)

    monkeypatch.setattr(oracle._FiberGroup, "_chunks", recorded)
    return names


def test_shared_items_go_to_exactly_one_thread():
    # More threads than cores, starting together and switching as often as
    # the interpreter allows: an item drawn twice or lost would show in the
    # union.
    n_items, n_threads = 200_000, 8
    shared = oracle._Shared(range(n_items))
    start = threading.Barrier(n_threads)
    drawn = [[] for _ in range(n_threads)]

    def draw(mine):
        start.wait(timeout=60)
        mine.extend(shared)

    threads = [threading.Thread(target=draw, args=(mine,)) for mine in drawn]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(item for mine in drawn for item in mine) == list(
        range(n_items))
    assert sum(len(mine) > 0 for mine in drawn) > 1


@pytest.mark.parametrize("category", range(1, 6))
@pytest.mark.parametrize("position", CUT_POSITIONS)
def test_span_psds_do_not_depend_on_the_worker_count(monkeypatch, category,
                                                     position):
    link = make_system(4300 + 10 * category + CUT_POSITIONS.index(position),
                       category=category, band_width=2.0, n_spans=6,
                       cut_position=position)
    f = link.cut.f_center
    names = _record_worker_threads(monkeypatch)
    got = {}
    for workers in (1, 2, oracle._MAX_WORKERS):
        monkeypatch.setattr(oracle, "_cpu_count", lambda: workers)
        names.clear()
        psds, stats = gn_span_psds(link, f)
        got[workers] = psds.tolist(), stats
        on_workers = sum(name != threading.current_thread().name
                         for name in names)
        assert (on_workers > 0) == (workers > 1)
    assert got[2] == got[1]
    assert got[oracle._MAX_WORKERS] == got[1]


class _WorkerFailed(Exception):
    pass


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_failing_worker_raises_in_the_caller_once_every_worker_ended(
        monkeypatch, failing):
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 2)
    chunks = oracle._FiberGroup._chunks
    started, ended = [], []

    def chunks_or_fail(self, *args):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (failing == "worker"):
            raise _WorkerFailed
        started.append(1)
        time.sleep(0.05)
        chunks(self, *args)
        ended.append(1)

    monkeypatch.setattr(oracle._FiberGroup, "_chunks", chunks_or_fail)
    link = make_system(4130, category=1, band_width=2.0, n_spans=6)
    with pytest.raises(_WorkerFailed):
        gn_span_psds(link, link.cut.f_center)
    assert len(started) == len(ended) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_forked_child_runs_the_oracle_after_a_parallel_call(monkeypatch):
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 2)
    names = _record_worker_threads(monkeypatch)
    link = make_system(4130, category=1, band_width=2.0, n_spans=6)
    f = link.cut.f_center
    psds, stats = gn_span_psds(link, f)
    assert set(names) != {threading.current_thread().name}
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            # A child that waits on its parent's worker threads never ends.
            signal.alarm(20)
            again, again_stats = gn_span_psds(link, f)
            code = 0 if (again.tolist() == psds.tolist()
                         and again_stats == stats) else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
