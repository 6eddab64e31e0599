"""Randomized system generator: determinism, packing and draw ranges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (channels_of, generate_comb, generate_link,
                      occupied_bandwidth)
from nli_planner.sysgen import (BAND_CENTER_THZ, CUT_POSITIONS,
                                LOW_DISPERSION_FLAG, SLOT_THZ,
                                SYMBOL_RATES_TBAUD, GeneratorConfig,
                                draw_system, generate_system,
                                generate_system_from_seed)
from nli_planner.types import ModulationFormat


def test_seed_determinism():
    cfg = GeneratorConfig(category=3, seed=77, band_width=1.0, n_spans=6)
    a = generate_system_from_seed(cfg)
    b = generate_system_from_seed(cfg)
    assert a == b
    c = generate_system_from_seed(GeneratorConfig(category=3, seed=78,
                                                  band_width=1.0, n_spans=6))
    assert a != c


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(category=0)
    with pytest.raises(ValueError):
        GeneratorConfig(cut_position="edge")
    with pytest.raises(ValueError):
        GeneratorConfig(nf_mode="bogus")
    with pytest.raises(ValueError):
        GeneratorConfig(n_spans=0)
    # A bool or a non-integer is refused by name, even one equal to a valid
    # value; any integer type, NumPy's too, passes.
    for name, value in (("category", True), ("category", 2.0),
                        ("seed", 1.5), ("seed", "1"), ("n_spans", 2.5),
                        ("n_spans", np.float64(3.0))):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GeneratorConfig(**{name: value})
    GeneratorConfig(category=np.int64(2), seed=np.int32(7),
                    n_spans=np.uint8(3))


@pytest.mark.parametrize("band_width", [0.0, -1.0, float("nan"),
                                        float("inf")])
def test_config_rejects_unusable_band(band_width):
    with pytest.raises(ValueError, match="band_width"):
        GeneratorConfig(band_width=band_width)


@pytest.mark.parametrize("band_width", [1e308, 388.0, 2 * BAND_CENTER_THZ])
def test_config_rejects_a_band_reaching_zero_frequency(band_width):
    # Checked before any draw: such a comb would be drawn channel by channel
    # down to non-positive frequencies, which no link may hold.
    with pytest.raises(ValueError, match="channel frequency must be > 0"):
        GeneratorConfig(band_width=band_width)
    assert GeneratorConfig(band_width=20.0).band_width == 20.0


def test_band_too_narrow_for_one_channel_is_a_value_error():
    cfg = GeneratorConfig(band_width=0.01)
    with pytest.raises(ValueError, match="too narrow"):
        generate_system_from_seed(cfg)


def test_comb_stays_inside_band():
    for seed in range(30):
        cfg = GeneratorConfig(category=1, seed=seed, band_width=2.0)
        rng = np.random.default_rng(seed)
        channels, cut_index = generate_comb(cfg, rng)
        left = BAND_CENTER_THZ - cfg.band_width / 2
        right = BAND_CENTER_THZ + cfg.band_width / 2
        for ch in channels:
            assert ch.f_center - occupied_bandwidth(ch) / 2 >= left - 1e-9
            assert ch.f_center + occupied_bandwidth(ch) / 2 <= right + 1e-9
        assert 0 <= cut_index < len(channels)
        # Channels are ordered and non-overlapping at null-to-null width.
        for a, b in zip(channels, channels[1:]):
            assert a.f_center + a.symbol_rate / 2 \
                <= b.f_center - b.symbol_rate / 2 + 1e-9


def test_slot_widths_match_rates():
    assert set(SYMBOL_RATES_TBAUD) == {0.032, 0.064, 0.096, 0.128}
    assert SLOT_THZ[0.032] == pytest.approx(0.0435)
    assert SLOT_THZ[0.064] == pytest.approx(0.0875)
    assert SLOT_THZ[0.096] == pytest.approx(0.13125)
    assert SLOT_THZ[0.128] == pytest.approx(0.175)


def test_draw_ranges():
    cfg = GeneratorConfig(category=1, seed=5, band_width=3.0)
    rng = np.random.default_rng(5)
    channels, _ = generate_comb(cfg, rng)
    for ch in channels:
        assert ch.symbol_rate in SYMBOL_RATES_TBAUD
        assert 0.05 <= ch.roll_off <= 0.25
    spans = generate_link(cfg, rng)
    for s in spans:
        assert 80.0 <= s.length_km <= 120.0
        assert 5.0 <= s.noise_figure_db <= 6.0
        assert s.gain_db is None
        assert s.fiber.name in ("SMF", "NZDSF1", "NZDSF2")


def test_cut_positions():
    for pos in CUT_POSITIONS:
        cfg = GeneratorConfig(category=1, seed=2, band_width=2.0,
                              cut_position=pos)
        channels, cut_index = generate_comb(cfg, np.random.default_rng(2))
        expected = {"lowest": 0, "center": len(channels) // 2,
                    "highest": len(channels) - 1}[pos]
        assert cut_index == expected


def test_category_formats():
    high = {ModulationFormat.PM_16QAM, ModulationFormat.PM_32QAM,
            ModulationFormat.PM_64QAM, ModulationFormat.PM_128QAM,
            ModulationFormat.PM_256QAM}
    for seed in range(10):
        ch1, _ = generate_comb(GeneratorConfig(category=1, seed=seed,
                                               band_width=2.0),
                               np.random.default_rng(seed))
        assert all(c.format in high for c in ch1)
        assert all(c.active for c in ch1)

        ch3, _ = generate_comb(GeneratorConfig(category=3, seed=seed,
                                               band_width=2.0),
                               np.random.default_rng(seed))
        assert all(c.format in high | {ModulationFormat.PM_GAUSSIAN}
                   for c in ch3)

        ch5, cut5 = generate_comb(GeneratorConfig(category=5, seed=seed,
                                                  band_width=2.0),
                                  np.random.default_rng(seed))
        assert ch5[cut5].format in (ModulationFormat.PM_QPSK,
                                    ModulationFormat.PM_8QAM)


def test_category_2_and_4_toggle_interferers():
    seen_inactive = False
    for seed in range(20):
        channels, cut_index = generate_comb(
            GeneratorConfig(category=2, seed=seed, band_width=2.0),
            np.random.default_rng(seed))
        assert channels[cut_index].active
        seen_inactive |= any(not c.active for c in channels)
    assert seen_inactive


def test_ultra_dense_population():
    # Force the ultra-dense branch by drawing many combs; check spacing.
    found = False
    for seed in range(200):
        cfg = GeneratorConfig(category=1, seed=seed, band_width=1.0,
                              ultra_dense_fraction=1.0)
        channels, _ = generate_comb(cfg, np.random.default_rng(seed))
        found = True
        for a, b in zip(channels, channels[1:]):
            gap = (b.f_center - occupied_bandwidth(b) / 2) \
                - (a.f_center + occupied_bandwidth(a) / 2)
            assert 0.005 - 1e-9 <= gap <= 0.020 + 1e-9
        break
    assert found


def test_generated_system_shape():
    cfg = GeneratorConfig(category=1, seed=9, band_width=1.0, n_spans=7)
    link = generate_system(cfg, np.random.default_rng(9))
    assert link.n_spans == 7
    assert all(len(c.power_w_per_span) == 7 for c in channels_of(link))
    link.validate()


def test_low_dispersion_flagging():
    # NZDSF2 at the high band edge crosses the validity bound; over many
    # seeds at the highest CUT position the flag must appear at least once.
    flagged = 0
    for seed in range(40):
        cfg = GeneratorConfig(category=1, seed=seed, band_width=5.0,
                              cut_position="highest", n_spans=4)
        link = generate_system(cfg, np.random.default_rng(seed))
        if LOW_DISPERSION_FLAG in link.flags:
            flagged += 1
    assert flagged > 0


def test_nf_modes():
    fixed = GeneratorConfig(category=1, seed=1, band_width=1.0,
                            nf_mode="fixed_6dB")
    spans = generate_link(fixed, np.random.default_rng(1))
    assert all(s.noise_figure_db == 6.0 for s in spans)
    uni = GeneratorConfig(category=1, seed=1, band_width=1.0,
                          nf_mode="uniform_5_6dB")
    spans = generate_link(uni, np.random.default_rng(1))
    assert all(5.0 <= s.noise_figure_db < 6.0 for s in spans)


def _array_fields(view) -> dict:
    return {k: v for k, v in vars(view).items() if isinstance(v, np.ndarray)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), attempt=st.integers(1, 10**6),
       category=st.integers(1, 5), position=st.sampled_from(CUT_POSITIONS),
       band_width=st.sampled_from((0.8, 2.0, 5.0)),
       n_spans=st.integers(1, 20))
def test_screened_draw_is_the_generated_system(seed, attempt, category,
                                               position, band_width, n_spans):
    # The screen on the plain draws gives generate_system's verdict, and an
    # attempt that passes builds generate_system's link from the same RNG
    # calls.
    cfg = GeneratorConfig(category=category, cut_position=position,
                          band_width=band_width, n_spans=n_spans, seed=seed)
    drawn = draw_system(cfg, np.random.default_rng([seed, attempt]))
    link = generate_system(cfg, np.random.default_rng([seed, attempt]))
    assert drawn.low_dispersion == (LOW_DISPERSION_FLAG in link.flags)
    if drawn.low_dispersion:
        return
    built = drawn.build()
    assert built == link
    for view in ("comb", "span_arrays"):
        got, want = (_array_fields(getattr(x, view)) for x in (built, link))
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[k], want[k]) for k in want)
