"""Domain-type invariants and the exact format-constant table."""

from fractions import Fraction

import math

import pytest

from nli_planner import assets
from nli_planner.types import (ChannelSpec, FiberParams, LinkSpec,
                               ModelCoefficients, ModelVariant, CfmKind,
                               ModulationFormat, PHI_EXACT, SpanConfig,
                               ValidationError, phi_of_format)


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
    span = SpanConfig(fiber=fib, length_km=100.0, gain_db=None)
    assert span.gain_lin(193.8) * span.span_loss_lin == pytest.approx(1.0, rel=1e-12)


def test_explicit_gain():
    fib = FiberParams(alpha_db_per_km=0.21, beta2=-21.3, beta3=0.1452,
                      gamma=1.3, f_ref=193.8)
    span = SpanConfig(fiber=fib, length_km=100.0, gain_db=20.0)
    assert span.gain_lin(190.0) == pytest.approx(100.0)


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
    fib = FiberParams(alpha_db_per_km=0.21, beta2=-21.3, beta3=0.1452,
                      gamma=1.3, f_ref=193.8)
    bad = [dict(length_km=0.0)]
    bad += [{name: v} for name in ("length_km", "gain_db", "noise_figure_db")
            for v in _NON_FINITE]
    for change in bad:
        with pytest.raises(ValidationError):
            SpanConfig(**{"fiber": fib, "length_km": 100.0, **change})


def test_channel_validation():
    with pytest.raises(ValidationError):
        ChannelSpec(f_center=193.8, symbol_rate=0.0, roll_off=0.1,
                    format=ModulationFormat.PM_QPSK, power_w_per_span=(1e-3,))
    with pytest.raises(ValidationError):
        ChannelSpec(f_center=193.8, symbol_rate=0.064, roll_off=1.5,
                    format=ModulationFormat.PM_QPSK, power_w_per_span=(1e-3,))
    with pytest.raises(ValidationError):
        ChannelSpec(f_center=193.8, symbol_rate=0.064, roll_off=0.1,
                    format=ModulationFormat.PM_QPSK, power_w_per_span=(0.0,))
    good = dict(f_center=193.8, symbol_rate=0.064, roll_off=0.1,
                format=ModulationFormat.PM_QPSK)
    for v in _NON_FINITE:
        for change in (dict(f_center=v), dict(symbol_rate=v),
                       dict(roll_off=v), dict(power_w_per_span=(1e-3, v))):
            for active in (True, False):
                with pytest.raises(ValidationError):
                    ChannelSpec(**{**good, "power_w_per_span": (1e-3, 1e-3),
                                   "active": active, **change})


def test_inactive_channel_psd_rejected():
    ch = ChannelSpec(f_center=193.8, symbol_rate=0.064, roll_off=0.1,
                     format=ModulationFormat.PM_QPSK,
                     power_w_per_span=(1e-3,), active=False)
    with pytest.raises(ValidationError):
        ch.psd(0)


def test_occupied_bandwidth():
    ch = ChannelSpec(f_center=193.8, symbol_rate=0.064, roll_off=0.25,
                     format=ModulationFormat.PM_QPSK, power_w_per_span=(1e-3,))
    assert ch.occupied_bandwidth == pytest.approx(0.08)


def _one_span_link(cut_active=True, cut_index=0, powers=(1e-3,)):
    fib = FiberParams(alpha_db_per_km=0.21, beta2=-21.3, beta3=0.1452,
                      gamma=1.3, f_ref=193.8)
    span = SpanConfig(fiber=fib, length_km=100.0)
    ch = ChannelSpec(f_center=193.8, symbol_rate=0.064, roll_off=0.1,
                     format=ModulationFormat.PM_QPSK,
                     power_w_per_span=powers, active=cut_active)
    return LinkSpec(spans=(span,), channels=(ch,), cut_index=cut_index)


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
