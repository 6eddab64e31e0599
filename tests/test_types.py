"""Domain-type invariants and the exact format-constant table."""

import copy
import pickle
from dataclasses import replace
from fractions import Fraction

import math

import numpy as np
import pytest

from conftest import link_of, make_system, with_powers
from nli_planner import assets, types
from nli_planner.types import (ChannelSpec, FiberParams, LinkSpec,
                               ModelCoefficients, ModelVariant, CfmKind,
                               ModulationFormat, PHI_EXACT, SpanArrays,
                               SpanConfig, ValidationError, phi_of_format)


# [PAPER] exact second-moment constants per constellation.
EXPECTED_PHI = {
    ModulationFormat.PM_BPSK: Fraction(1),
    ModulationFormat.PM_QPSK: Fraction(1),
    ModulationFormat.PM_8QAM: Fraction(2, 3),
    ModulationFormat.PM_16QAM: Fraction(17, 25),
    ModulationFormat.PM_32QAM: Fraction(69, 100),
    ModulationFormat.PM_64QAM: Fraction(13, 21),
    ModulationFormat.PM_128QAM: Fraction(1105, 1681),
    ModulationFormat.PM_256QAM: Fraction(257, 425),
    ModulationFormat.PM_GAUSSIAN: Fraction(0),
}


def test_phi_constants_exact():
    assert PHI_EXACT == EXPECTED_PHI
    for fmt, frac in EXPECTED_PHI.items():
        assert phi_of_format(fmt) == float(frac)


def test_phi_asset_matches_code_table():
    assert assets.phi_table() == EXPECTED_PHI


def test_two_alpha_conversion():
    # [TRIVIAL] 0.2 dB/km -> 2 alpha = 0.2 ln(10)/10 per km.
    fib = FiberParams(alpha_db_per_km=0.2, beta2=-21.0, beta3=0.0,
                      gamma=1.3, f_ref=193.8)
    assert fib.two_alpha == pytest.approx(0.2 * math.log(10) / 10, rel=1e-15)


def test_transparent_span_gain_offsets_loss():
    fib = FiberParams(alpha_db_per_km=0.21, beta2=-21.3, beta3=0.1452,
                      gamma=1.3, f_ref=193.8)
    spans = SpanArrays.columns([fib], [100.0], [None], [6.0])
    assert spans.transparent[0]
    assert spans.transfer[0] == pytest.approx(1.0, rel=1e-12)


def test_explicit_gain():
    fib = FiberParams(alpha_db_per_km=0.21, beta2=-21.3, beta3=0.1452,
                      gamma=1.3, f_ref=193.8)
    spans = SpanArrays.columns([fib], [100.0], [20.0], [6.0])
    assert not spans.transparent[0]
    assert spans.gain[0] == pytest.approx(100.0)


_NON_FINITE = (math.nan, math.inf, -math.inf)


def test_fiber_validation():
    good = dict(alpha_db_per_km=0.2, beta2=-21.3, beta3=0.0, gamma=1.3,
                f_ref=193.8)
    bad = [dict(alpha_db_per_km=0.0), dict(gamma=-1.0)]
    bad += [{name: v} for name in good for v in _NON_FINITE]
    for change in bad:
        with pytest.raises(ValidationError):
            FiberParams(**{**good, **change})


def test_span_validation():
    # Each bad value, in the middle of three good spans, names that span.
    fib = FiberParams(alpha_db_per_km=0.21, beta2=-21.3, beta3=0.1452,
                      gamma=1.3, f_ref=193.8)
    bad = [dict(length_km=0.0)]
    bad += [{name: v} for name in ("length_km", "gain_db", "noise_figure_db")
            for v in _NON_FINITE]
    for change in bad:
        good = dict(length_km=100.0, gain_db=None, noise_figure_db=6.0)
        spans = [good, {**good, **change}, good]
        with pytest.raises(ValidationError) as info:
            SpanArrays.columns([fib] * 3, *([s[k] for s in spans]
                                            for k in good))
        assert info.value.index == 1, change


def test_channel_validation():
    # Each bad channel, after a good one, is named by its index.
    fib = FiberParams(alpha_db_per_km=0.21, beta2=-21.3, beta3=0.1452,
                      gamma=1.3, f_ref=193.8)

    def rejected(bad: dict) -> None:
        n_spans = len(bad["power_w_per_span"])
        first = ChannelSpec(193.7, 0.064, 0.1, ModulationFormat.PM_QPSK,
                            (1e-3,) * n_spans)
        with pytest.raises(ValidationError) as info:
            link_of([SpanConfig(fib, 100.0)] * n_spans,
                    [first, ChannelSpec(**bad)], 0)
        assert info.value.index == 1, bad

    rejected(dict(f_center=193.8, symbol_rate=0.0, roll_off=0.1,
                  format=ModulationFormat.PM_QPSK, power_w_per_span=(1e-3,)))
    rejected(dict(f_center=193.8, symbol_rate=0.064, roll_off=1.5,
                  format=ModulationFormat.PM_QPSK, power_w_per_span=(1e-3,)))
    rejected(dict(f_center=193.8, symbol_rate=0.064, roll_off=0.1,
                  format=ModulationFormat.PM_QPSK, power_w_per_span=(0.0,)))
    # A frequency must be positive, as a fiber's reference frequency is.
    for f in (0.0, -193.8):
        for active in (True, False):
            rejected(dict(f_center=f, symbol_rate=0.064, roll_off=0.1,
                          format=ModulationFormat.PM_QPSK,
                          power_w_per_span=(1e-3,), active=active))
    good = dict(f_center=193.8, symbol_rate=0.064, roll_off=0.1,
                format=ModulationFormat.PM_QPSK)
    for v in _NON_FINITE:
        for change in (dict(f_center=v), dict(symbol_rate=v),
                       dict(roll_off=v), dict(power_w_per_span=(1e-3, v))):
            for active in (True, False):
                rejected({**good, "power_w_per_span": (1e-3, 1e-3),
                          "active": active, **change})


def _one_span_link(cut_active=True, cut_index=0, powers=(1e-3,)):
    fib = FiberParams(alpha_db_per_km=0.21, beta2=-21.3, beta3=0.1452,
                      gamma=1.3, f_ref=193.8)
    span = SpanConfig(fiber=fib, length_km=100.0)
    ch = ChannelSpec(f_center=193.8, symbol_rate=0.064, roll_off=0.1,
                     format=ModulationFormat.PM_QPSK,
                     power_w_per_span=powers, active=cut_active)
    return link_of((span,), (ch,), cut_index)


def test_link_validation():
    _one_span_link().validate()
    with pytest.raises(ValidationError):
        _one_span_link(cut_index=5).validate()
    with pytest.raises(ValidationError):
        _one_span_link(cut_active=False).validate()
    # One launch power per span: a short tuple and a long one are rejected.
    for powers in ((), (1e-3, 1e-3)):
        with pytest.raises(ValidationError, match="per span"):
            _one_span_link(powers=powers).validate()


def _view_arrays(link: LinkSpec):
    """Every array of the link's two views, by view and field name."""
    for view in ("comb", "span_arrays"):
        for name, value in vars(getattr(link, view)).items():
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    yield f"{view}.{name}", a


def test_link_views_are_cached_and_read_only():
    link = make_system(87, category=2)
    assert link.comb is link.comb and link.span_arrays is link.span_arrays
    arrays = list(_view_arrays(link))
    assert {name for name, _ in arrays} == {
        f"{view}.{name}" for view in ("comb", "span_arrays")
        for name in vars(getattr(link, view))} - {"span_arrays.fibers"}
    for name, a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    tied = link.comb.with_power(np.ones((link.n_spans, len(link.channels))))
    with pytest.raises(ValueError, match="read-only"):
        tied.power[0, 0] = 2.0
    # Inactive channels carry no power, in the link's comb and in a new one.
    off = ~link.comb.active
    assert off.any() and not link.comb.power[:, off].any()
    assert not tied.power[:, off].any()


@pytest.mark.parametrize("clone", [
    lambda link: pickle.loads(pickle.dumps(link)), copy.deepcopy],
    ids=["pickle", "deepcopy"])
def test_copied_link_columns_stay_read_only(clone):
    # A copy holds new arrays: read-only like the link's, so that no edit
    # in place can change its hash or leave comb.power behind comb.launch.
    link = make_system(87, category=2)
    twin = clone(link)
    assert twin == link and hash(twin) == hash(link)
    pairs = list(zip(_view_arrays(twin), _view_arrays(link), strict=True))
    for (name, a), (_, orig) in pairs:
        assert a is not orig, name
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_link_views_follow_the_fields():
    link = make_system(88, category=2)
    comb, spans = link.comb, link.span_arrays
    # A new flag shares the columns; new spans or channels replace them.
    flagged = link.with_flags("x")
    assert flagged.comb is comb and flagged.span_arrays is spans
    longer = link_of([replace(s, length_km=s.length_km + 1.0)
                      for s in link.spans], link.channels, link.cut_index)
    assert np.array_equal(longer.span_arrays.length, spans.length + 1.0)
    assert (longer.span_arrays.loss < spans.loss).all()
    assert np.array_equal(longer.comb.power, comb.power)
    louder = link_of(link.spans, [
        with_powers(c, [2.0 * p for p in c.power_w_per_span])
        for c in link.channels], link.cut_index)
    assert np.array_equal(louder.comb.power, 2.0 * comb.power)
    assert np.array_equal(louder.span_arrays.transfer, spans.transfer)
    # The object views are read from the columns a replace gives.
    doubled = replace(link, comb=comb.with_power(2.0 * comb.launch))
    assert doubled.channels == louder.channels and doubled.cut == louder.cut
    assert doubled.spans == link.spans


def test_link_views_run_no_validation(monkeypatch):
    # A view is a record of columns validated when made: reading
    # channels, spans and cut checks nothing again.
    link = make_system(91, category=2, n_spans=3)
    calls = []
    check = types._raise_first_fault
    monkeypatch.setattr(types, "_raise_first_fault",
                        lambda rules: calls.append(1) or check(rules))
    assert link.channels and link.spans and link.cut
    assert calls == []
    link.comb.with_power(link.comb.launch)
    assert calls == [1]


def test_link_equality_and_hash_ignore_views():
    link = make_system(89)
    twin = replace(link)
    assert twin == link and hash(twin) == hash(link)
    link.comb, link.span_arrays
    assert twin == link and hash(twin) == hash(link)
    assert repr(twin) == repr(link)
    assert {link: 1}[twin] == 1


def test_link_span_view_groups_fibers_by_value():
    link = make_system(90, n_spans=6, optimize=False)
    spans = link.span_arrays
    assert len(set(spans.fibers)) == len(spans.fibers)
    for k, members in enumerate(spans.spans_of_fiber):
        assert (spans.fiber[members] == k).all()
        assert all(link.spans[n].fiber == spans.fibers[k] for n in members)
    assert sorted(np.concatenate(spans.spans_of_fiber)) == list(range(6))
    first = [int(np.flatnonzero(spans.fiber == k)[0])
             for k in range(len(spans.fibers))]
    assert first == sorted(first)


def test_model_variant_arity():
    with pytest.raises(ValidationError):
        ModelVariant(kind=CfmKind.CFM2, coefficients=None)
    with pytest.raises(ValidationError):
        ModelVariant(kind=CfmKind.CFM2,
                     coefficients=ModelCoefficients(a=(1.0,) * 24))
    with pytest.raises(ValidationError):
        ModelVariant(kind=CfmKind.CFM1,
                     coefficients=ModelCoefficients(a=(1.0,) * 18))
    ModelVariant(kind=CfmKind.CFM4,
                 coefficients=ModelCoefficients(a=(1.0,) * 24))


def test_coefficients_one_based_indexing():
    coeffs = ModelCoefficients(a=(10.0, 20.0, 30.0))
    assert coeffs[1] == 10.0 and coeffs[3] == 30.0
    assert len(coeffs) == 3


def test_shipped_assets_load_and_verify():
    for kind in (CfmKind.CFM2, CfmKind.CFM3, CfmKind.CFM4):
        coeffs = assets.shipped_coefficients(kind)
        assert len(coeffs) == kind.n_coefficients
    presets = assets.fiber_presets()
    assert set(presets) == {"SMF", "NZDSF1", "NZDSF2"}
    with pytest.raises(ValidationError):
        assets.shipped_coefficients(CfmKind.CFM1)
