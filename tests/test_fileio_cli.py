"""File formats and the command-line interface."""

import functools
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (link_of, make_single_channel_link, make_system,
                      make_zero_dispersion_link)
from nli_planner import assets, cfm, cli, fileio
from nli_planner.cli import main
from nli_planner.oracle import gn_rx_psd, gn_span_psds
from nli_planner.perf import evaluate_all_channels, snr_report
from nli_planner.poweropt import optimize_powers
from nli_planner.sysgen import CUT_POSITIONS, GeneratorConfig, generate_system
from nli_planner.types import (CfmKind, ChannelSpec, CombArrays, FiberParams,
                               LinkSpec, ModelCoefficients, ModulationFormat,
                               SpanArrays, SpanConfig)


def _drawn_link(seed: int, category: int, n_spans: int, position: str,
                dense: bool = False, separation: str = "gap") -> LinkSpec:
    """A generated 0.6-THz link with optimized launch powers, ultra-dense
    if ``dense``, its channels ``separation`` apart, and no flags (a system
    file holds none)."""
    cfg = GeneratorConfig(category=category, cut_position=position,
                          band_width=0.6, n_spans=n_spans, seed=seed,
                          ultra_dense_fraction=float(dense),
                          dense_separation=separation)
    rng = np.random.default_rng(seed)
    link, _plan = optimize_powers(generate_system(cfg, rng), rng)
    return replace(link, flags=())


def _same(x, y) -> bool:
    """Equal values, arrays element by element and of the same dtype."""
    if isinstance(x, tuple):
        return len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y)
    return x == y


# ---------------------------------------------------------------------------
# System files


def test_system_round_trip():
    link = make_system(80, category=2)
    doc = fileio.system_to_json(link)
    # JSON round-trip through text preserves every float bit (repr floats).
    doc2 = json.loads(json.dumps(doc))
    assert fileio.parse_system(doc2) == fileio.parse_system(doc)
    restored = fileio.parse_system(doc)
    assert restored.spans == link.spans
    assert restored.channels == link.channels
    assert restored.cut_index == link.cut_index


def test_system_file_io(tmp_path):
    link = make_system(81)
    path = tmp_path / "sys.json"
    fileio.save_system(link, path)
    assert fileio.load_system(path).channels == link.channels


def test_saved_system_is_the_json_document(tmp_path):
    # The saved text is the document of system_to_json, one span or channel
    # per line, and loads back to the same link, fibers inline or preset.
    link = make_system(86, category=3, band_width=1.0)
    inline = FiberParams(alpha_db_per_km=0.2, beta2=-20.0, beta3=0.1,
                         gamma=1.1, f_ref=193.0)
    link = link_of((replace(link.spans[0], fiber=inline), *link.spans[1:]),
                   link.channels, link.cut_index)
    path = tmp_path / "sys.json"
    fileio.save_system(link, path)
    text = path.read_text(encoding="utf-8")
    assert json.loads(text) == fileio.system_to_json(link)
    assert len(text.splitlines()) == link.n_spans + len(link.channels) + 8
    assert fileio.load_system(path) == link
    fileio.save_system(fileio.load_system(path), path)
    assert path.read_text(encoding="utf-8") == text


def test_unknown_fields_rejected():
    link = make_system(82)
    doc = fileio.system_to_json(link)
    doc["extra"] = 1
    with pytest.raises(fileio.ParseError):
        fileio.parse_system(doc)
    doc = fileio.system_to_json(link)
    doc["channels"][0]["surprise"] = True
    with pytest.raises(fileio.ParseError, match="/channels/0"):
        fileio.parse_system(doc)


# A list field that holds no array.
NOT_ARRAY_CASES = [("/spans", 5), ("/spans", {"0": {}}), ("/channels", 5),
                   ("/channels", {"0": {}})]


@pytest.mark.parametrize("where, value", NOT_ARRAY_CASES)
def test_list_fields_must_be_arrays(where, value):
    doc = fileio.system_to_json(make_system(82))
    doc[where[1:]] = value
    with pytest.raises(fileio.ParseError, match="must be an array") as info:
        fileio.parse_system(doc)
    assert info.value.pointer == where


def test_future_version_rejected():
    doc = fileio.system_to_json(make_system(83))
    doc["version"] = 2
    with pytest.raises(fileio.ParseError, match="version"):
        fileio.parse_system(doc)


# JSON booleans are no numbers (Python's bool is an int), and a flag takes
# nothing but a boolean.
BOOLEAN_CASES = [("/spans/0/gain_db", True), ("/spans/0/length_km", True),
                 ("/spans/0/nf_db", False), ("/channels/0/power_w", True),
                 ("/channels/0/f_center_thz", True),
                 ("/channels/0/rate_tbaud", True),
                 ("/channels/0/roll_off", False), ("/cut_index", False),
                 ("/channels/0/active", "no"), ("/channels/0/active", 0),
                 ("/spans/0/fiber/gamma_per_w_km", True)]


def _with_value(doc: dict, where: str, value) -> dict:
    """A copy of a system document, with an inline first fiber, whose field
    at the JSON pointer ``where`` holds ``value``."""
    doc = json.loads(json.dumps(doc))
    doc["spans"][0]["fiber"] = {
        "alpha_db_per_km": 0.2, "beta2_ps2_per_km": -20.0,
        "beta3_ps3_per_km": 0.0, "gamma_per_w_km": 1.1, "f_ref_thz": 193.0}
    *parents, leaf = where.strip("/").split("/")
    node = doc
    for key in parents:
        node = node[int(key) if key.isdigit() else key]
    node[leaf] = value
    return doc


def test_bad_values_rejected():
    base = fileio.system_to_json(make_system(84))

    doc = json.loads(json.dumps(base))
    doc["channels"][0]["format"] = "PM-3QAM"
    with pytest.raises(fileio.ParseError, match="format"):
        fileio.parse_system(doc)

    doc = json.loads(json.dumps(base))
    doc["channels"][0]["power_w"] = [1e-3]  # wrong arity
    with pytest.raises(fileio.ParseError, match="power_w"):
        fileio.parse_system(doc)

    doc = json.loads(json.dumps(base))
    doc["spans"][0]["fiber"] = "UNOBTAINIUM"
    with pytest.raises(fileio.ParseError, match="fiber"):
        fileio.parse_system(doc)

    doc = json.loads(json.dumps(base))
    doc["cut_index"] = 10 ** 6
    with pytest.raises(fileio.ParseError):
        fileio.parse_system(doc)

    for where, value in BOOLEAN_CASES:
        doc = _with_value(base, where, value)
        with pytest.raises(fileio.ParseError) as info:
            fileio.parse_system(doc)
        assert info.value.pointer == where

    doc = json.loads(json.dumps(base))
    doc["channels"][1]["power_w"] = [1e-3, True, 1e-3, 1e-3]
    with pytest.raises(fileio.ParseError) as info:
        fileio.parse_system(doc)
    assert info.value.pointer == "/channels/1/power_w/1"


@functools.cache
def _mutable_doc() -> str:
    """A saved system, as JSON text, that holds every kind of field: an
    inline fiber and a preset, a transparent and a set gain, per-span and
    single powers, and active, inactive and defaulted channels."""
    doc = fileio.system_to_json(make_system(88, category=2, n_spans=3))
    doc["spans"][0]["fiber"] = {
        "alpha_db_per_km": 0.2, "beta2_ps2_per_km": -20.0,
        "beta3_ps3_per_km": 0.1, "gamma_per_w_km": 1.1, "f_ref_thz": 193.0}
    doc["spans"][1]["gain_db"] = "transparent"
    doc["channels"][0]["power_w"] = doc["channels"][0]["power_w"][0]
    del doc["channels"][-1]["active"]
    return json.dumps(doc)


def _pointers(node, pointer: str = ""):
    """The JSON pointer of every value in a document, and whether it is an
    object."""
    yield pointer, isinstance(node, dict)
    items = (node.items() if isinstance(node, dict) else enumerate(node)
             if isinstance(node, list) else ())
    for key, child in items:
        yield from _pointers(child, f"{pointer}/{key}")


# A mutation: drop the value, add an unknown field to an object, or put
# one of these in place of the value.
_REPLACEMENTS = {"string": "x", "object": {}, "empty list": [], "true": True,
                 "false": False, "zero": 0, "negative": -1.5,
                 "huge": 1e300, "negative huge": -1e300, "tiny": 5e-324,
                 "big integer": 2 ** 63, "integer beyond floats": 10 ** 400}


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parse_names_the_mutated_entry(data):
    # One field of a valid system file changed: the document parses,
    # without a RuntimeWarning, to a link whose saved text is a fixed point
    # of load and save, or the parse error's JSON pointer names the changed
    # entry or an entry that holds it.
    doc = json.loads(_mutable_doc())
    pointer, is_object = data.draw(st.sampled_from(list(_pointers(doc))))
    *parents, leaf = pointer.split("/")
    # A whole span or channel is not dropped: the others would no longer
    # match it.
    entry = len(parents) == 2 and parents[1] in ("spans", "channels")
    mutation = data.draw(st.sampled_from(
        ["add"] * is_object + ["drop"] * (not entry) + list(_REPLACEMENTS)
        if pointer else ["add"]))
    node = doc
    for key in parents[1:]:
        node = node[int(key) if isinstance(node, list) else key]
    key = int(leaf) if isinstance(node, list) else leaf
    if mutation == "add":
        (node[key] if pointer else doc)["extra"] = 1
    elif mutation == "drop":
        del node[key]
    else:
        node[key] = _REPLACEMENTS[mutation]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            link = fileio.parse_system(doc)
    except fileio.ParseError as exc:
        assert (exc.pointer == pointer if mutation == "add" else
                pointer == exc.pointer
                or pointer.startswith(exc.pointer + "/")), (mutation, exc)
        return
    text = fileio.json_text(fileio.system_to_json(link))
    again = fileio.parse_system(json.loads(text))
    assert again == link
    assert fileio.json_text(fileio.system_to_json(again)) == text


@given(seed=st.integers(0, 10_000), category=st.sampled_from([2, 4, 1, 3, 5]),
       n_spans=st.integers(1, 4), position=st.sampled_from(CUT_POSITIONS),
       dense=st.booleans(),
       separation=st.sampled_from(["gap", "center_spacing"]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_system_round_trip_property(seed, category, n_spans, position, dense,
                                    separation):
    # Through JSON text and back, a generated link, inactive channels and
    # ultra-dense combs included, is the same link with the same arrays.
    link = _drawn_link(seed, category, n_spans, position, dense, separation)
    parsed = fileio.parse_system(json.loads(fileio.json_text(
        fileio.system_to_json(link))))
    assert parsed == link
    for view in ("comb", "span_arrays"):
        got, want = vars(getattr(parsed, view)), vars(getattr(link, view))
        assert got.keys() == want.keys()
        assert all(_same(got[k], want[k]) for k in want), view


def test_inline_fiber_round_trip():
    link = make_system(85)
    doc = fileio.system_to_json(link)
    doc["spans"][0]["fiber"] = {
        "alpha_db_per_km": 0.2, "beta2_ps2_per_km": -20.0,
        "beta3_ps3_per_km": 0.0, "gamma_per_w_km": 1.1, "f_ref_thz": 193.0}
    restored = fileio.parse_system(doc)
    assert restored.spans[0].fiber.beta2 == -20.0
    doc2 = fileio.system_to_json(restored)
    assert doc2["spans"][0]["fiber"]["beta2_ps2_per_km"] == -20.0


# ---------------------------------------------------------------------------
# Coefficient files


def test_coefficients_round_trip(tmp_path):
    path = tmp_path / "coeff.json"
    coeffs = assets.shipped_coefficients(CfmKind.CFM4)
    fileio.save_coefficients(CfmKind.CFM4, coeffs, path)
    kind, loaded = fileio.load_coefficients(path)
    assert kind is CfmKind.CFM4
    assert loaded == coeffs


@pytest.mark.parametrize("a, where", [
    ([1.0] * 17 + [True], "/a/17"), ([False] + [1.0] * 17, "/a/0"),
    (["1.0"] + [1.0] * 17, "/a/0"), (1.0, "/a"),
    ([1.0] * 5 + [float("nan")] + [1.0] * 12, "/a/5"),
    ([1.0] * 17 + [float("-inf")], "/a/17"),
    ([10 ** 400] + [1.0] * 17, "/a/0")])
def test_coefficients_reject_bad_values(a, where):
    with pytest.raises(fileio.ParseError) as info:
        fileio.parse_coefficients({"version": 1, "variant": "cfm2", "a": a})
    assert info.value.pointer == where


def test_coefficients_arity_checked():
    with pytest.raises(fileio.ParseError):
        fileio.parse_coefficients({"version": 1, "variant": "cfm2",
                                   "a": [1.0] * 24})
    with pytest.raises(fileio.ParseError):
        fileio.parse_coefficients({"version": 1, "variant": "cfm9",
                                   "a": [1.0] * 18})


def test_variant_from_files_mismatch(tmp_path):
    path = tmp_path / "c.json"
    fileio.save_coefficients(CfmKind.CFM2,
                             assets.shipped_coefficients(CfmKind.CFM2), path)
    with pytest.raises(fileio.ParseError):
        fileio.variant_from_files(CfmKind.CFM4, path)
    variant = fileio.variant_from_files(CfmKind.CFM2, path)
    assert variant.coefficients == assets.shipped_coefficients(CfmKind.CFM2)


# ---------------------------------------------------------------------------
# CLI


def _gen(tmp_path, *extra):
    out = tmp_path / "sys.json"
    rc = main(["generate", "--seed", "3", "--band-width-thz", "0.5",
               "--n-spans", "3", "--optimize-powers", "-o", str(out), *extra])
    assert rc == 0
    return out


def test_cli_generate_deterministic(tmp_path):
    a = _gen(tmp_path)
    text_a = a.read_text()
    b = _gen(tmp_path)
    assert b.read_text() == text_a


def test_cli_evaluate(tmp_path):
    sys_path = _gen(tmp_path)
    out = tmp_path / "res.json"
    rc = main(["evaluate", str(sys_path), "--model", "cfm4",
               "--all-channels", "--threshold-db", "12", "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["model"] == "cfm4"
    assert len(doc["cut"]["per_span_snr_db"]) == 3
    assert "reach" in doc and "channels" in doc


def test_cli_evaluate_all_channels_is_one_kernel_pass(tmp_path, monkeypatch):
    # --all-channels reads the CUT block, the reach and every channel from
    # one all-row kernel pass; the CUT-only evaluate reads the CUT row.
    sys_path = _gen(tmp_path)
    calls = []
    real_terms = cfm.nli_terms

    def counting_terms(link, variant, rows=None):
        calls.append(rows)
        return real_terms(link, variant, rows)

    monkeypatch.setattr(cfm, "nli_terms", counting_terms)
    docs = []
    for extra in (["--all-channels"], []):
        out = tmp_path / "res.json"
        assert main(["evaluate", str(sys_path), "--threshold-db", "12",
                     *extra, "-o", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    full, cut_only = docs
    assert calls == [None, full["cut_index"]]
    for key, values in full["cut"].items():
        np.testing.assert_allclose(values, cut_only["cut"][key], rtol=1e-12,
                                   atol=0.0)
    assert full["reach"] == cut_only["reach"]


def _count_view_builds(monkeypatch) -> list:
    """The class name of every CombArrays, SpanArrays, ChannelSpec and
    SpanConfig made from now on, in order."""
    builds = []
    for cls in (CombArrays, SpanArrays, ChannelSpec, SpanConfig):
        def counting(self, *args, cls=cls, init=cls.__init__, **kwargs):
            builds.append(cls.__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return builds


def test_cli_evaluate_builds_each_view_once(tmp_path, monkeypatch):
    # Kernel pass and report read the columns the loaded link carries: one
    # comb and one span view, whatever the mode, and no channel or span
    # objects.
    sys_path = _gen(tmp_path)
    builds = _count_view_builds(monkeypatch)
    out = tmp_path / "res.json"
    for extra in ([], ["--all-channels"]):
        builds.clear()
        assert main(["evaluate", str(sys_path), "--threshold-db", "12",
                     *extra, "-o", str(out)]) == 0
        assert sorted(builds) == ["CombArrays", "SpanArrays"]


def test_cli_oracle_builds_each_view_once(tmp_path, monkeypatch):
    # The quadrature and the band holding f_eval read the loaded link's
    # columns too, at the CUT's frequency or another.
    sys_path = _gen(tmp_path)
    builds = _count_view_builds(monkeypatch)
    out = tmp_path / "res.json"
    for extra in ([], ["--f-eval-thz", "193.8"]):
        builds.clear()
        assert main(["oracle", str(sys_path), "--n-spans", "1", *extra,
                     "-o", str(out)]) == 0
        assert sorted(builds) == ["CombArrays", "SpanArrays"]


def _nulls_are_nans(got: list, want: np.ndarray) -> None:
    """A JSON list holds null exactly where ``want`` is NaN, and otherwise
    agrees with it within 1e-12 relative."""
    nan = np.isnan(want)
    assert [v is None for v in got] == nan.tolist()
    np.testing.assert_allclose([v for v in got if v is not None], want[~nan],
                               rtol=1e-12, atol=0.0)


@given(seed=st.integers(0, 10_000), category=st.integers(1, 5),
       n_spans=st.integers(1, 4), position=st.sampled_from(CUT_POSITIONS))
@settings(max_examples=5, deadline=None, derandomize=True)
def test_cli_evaluate_agrees_with_library(tmp_path_factory, seed, category,
                                          n_spans, position):
    # The evaluate JSON is the library's report: the CUT at every
    # truncation, and with --all-channels every channel, null where the
    # library reads NaN (an inactive channel).
    link = _drawn_link(seed, category, n_spans, position)
    folder = tmp_path_factory.mktemp("evaluate")
    sys_path, out = folder / "sys.json", folder / "res.json"
    fileio.save_system(link, sys_path)
    for kind in CfmKind:
        variant = assets.model(kind)
        report = snr_report(link, variant)
        every = evaluate_all_channels(link, variant)
        for extra in ([], ["--all-channels"]):
            assert main(["evaluate", str(sys_path), "--model", kind.value,
                         *extra, "-o", str(out)]) == 0
            doc = json.loads(out.read_text())
            for key in ("per_span_snr_db", "p_ase_w", "p_nli_w"):
                np.testing.assert_allclose(doc["cut"][key],
                                           getattr(report, key),
                                           rtol=1e-12, atol=0.0)
        for key in ("snr_db", "p_nli_w", "p_ase_w"):
            _nulls_are_nans(doc["channels"][key], getattr(every, key))


def test_cli_main_calls_do_not_share_arguments(tmp_path, capsys):
    # The parser is built once per process; each call parses afresh.
    sys_path = _gen(tmp_path)
    assert cli.build_parser() is cli.build_parser()
    assert main(["evaluate", str(sys_path), "--all-channels"]) == 0
    assert "channels" in json.loads(capsys.readouterr().out)
    assert main(["evaluate", str(sys_path)]) == 0
    assert "channels" not in json.loads(capsys.readouterr().out)


def test_cli_evaluate_with_coefficients(tmp_path, capsys):
    sys_path = _gen(tmp_path)
    coeff = tmp_path / "c.json"
    fileio.save_coefficients(CfmKind.CFM2,
                             assets.shipped_coefficients(CfmKind.CFM2), coeff)
    rc = main(["evaluate", str(sys_path), "--model", "cfm2",
               "--coefficients", str(coeff)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"] == "cfm2"


def test_cli_oracle(tmp_path, capsys):
    sys_path = _gen(tmp_path)
    rc = main(["oracle", str(sys_path), "--n-spans", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rx_nli_psd_w_per_thz"] > 0
    link = fileio.load_system(sys_path)
    f = link.cut.f_center
    assert doc["rx_nli_psd_w_per_thz"] == gn_rx_psd(link, f, n_end=2)
    # One object per evaluated span: how its quadrature converged.
    _, stats = gn_span_psds(link, f, n_end=2)
    assert doc["spans"] == [
        {"points_per_channel": s.points_per_channel,
         "rel_change": s.rel_change, "pairs_kept": s.pairs_kept,
         "pairs_pruned": s.pairs_pruned} for s in stats]
    assert all(s["points_per_channel"] >= 32 and s["pairs_kept"] > 0
               for s in doc["spans"])


@pytest.mark.parametrize("f_eval, rate", [
    (193.9, 0.032),  # inside the 32-GBd neighbour, off the 64-GBd CUT
    (193.85, None),  # in the gap between the CUT and the neighbour
])
def test_cli_oracle_power_uses_the_band_holding_f_eval(tmp_path, capsys,
                                                       f_eval, rate):
    link = make_single_channel_link(rate=0.064, f_center=193.8)
    nch = ChannelSpec(f_center=193.9, symbol_rate=0.032, roll_off=0.1,
                      format=ModulationFormat.PM_16QAM,
                      power_w_per_span=(0.001,))
    sys_path = tmp_path / "sys.json"
    fileio.save_system(link_of(link.spans, (link.channels[0], nch), 0),
                       sys_path)
    assert main(["oracle", str(sys_path), "--f-eval-thz", str(f_eval)]) == 0
    doc = json.loads(capsys.readouterr().out)
    psd = doc["rx_nli_psd_w_per_thz"]
    assert psd > 0.0
    if rate is None:
        assert doc["nli_power_w"] is None
    else:
        assert doc["nli_power_w"] == psd * rate


def test_cli_oracle_power_prefers_the_cut_where_bands_overlap(tmp_path,
                                                              capsys):
    # A 32-GBd neighbour listed before the 64-GBd CUT overlaps it, and an
    # inactive 48-GBd one listed first covers both: in the overlap the
    # CUT's band wins, beside it the active neighbour's.
    link = make_single_channel_link(rate=0.064, f_center=193.8)
    neighbours = tuple(
        ChannelSpec(f_center=193.83, symbol_rate=rate, roll_off=0.1,
                    format=ModulationFormat.PM_16QAM,
                    power_w_per_span=(0.001,), active=active)
        for rate, active in ((0.048, False), (0.032, True)))
    sys_path = tmp_path / "sys.json"
    fileio.save_system(link_of(link.spans, (*neighbours, link.channels[0]),
                               2), sys_path)
    for f_eval, rate in ((193.82, 0.064), (193.84, 0.032)):
        assert main(["oracle", str(sys_path), "--f-eval-thz",
                     str(f_eval)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nli_power_w"] == doc["rx_nli_psd_w_per_thz"] * rate


@pytest.mark.parametrize("flags", [["--rel-tol", "0"],
                                   ["--points-per-channel", "0"],
                                   # NaN and Infinity are not JSON.
                                   ["--f-eval-thz", "nan"],
                                   ["--f-eval-thz", "inf"]])
def test_cli_oracle_rejects_unusable_quadrature(tmp_path, capsys, flags):
    sys_path = _gen(tmp_path)
    assert main(["oracle", str(sys_path), *flags]) == 3
    out = capsys.readouterr()
    assert "error:" in out.err and out.out == ""


def test_cli_oracle_outside_the_combs_reach(tmp_path, capsys):
    # At 0 THz no channel pair is integrated: every span reports level 0.
    sys_path = _gen(tmp_path)
    assert main(["oracle", str(sys_path), "--f-eval-thz", "0",
                 "--n-spans", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rx_nli_psd_w_per_thz"] == 0.0
    assert doc["nli_power_w"] is None
    n_ch = sum(c.active for c in fileio.load_system(sys_path).channels)
    assert doc["spans"] == [
        {"points_per_channel": 0, "rel_change": 0.0, "pairs_kept": 0,
         "pairs_pruned": n_ch * (n_ch + 1) // 2}] * 2


def test_cli_campaign(tmp_path):
    out = tmp_path / "campaign.json"
    hist = tmp_path / "hist.csv"
    rc = main(["campaign", "--n-systems", "2", "--band-width-thz", "0.5",
               "--n-spans", "3", "--models", "cfm1", "--benchmark", "cfm1",
               "-o", str(out), "--histogram-csv", str(hist)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["n_evaluated"] == 2
    draws = doc["draws"]
    assert [(d["category"], d["cut_position"]) for d in draws] == [
        (1, "center")]
    assert draws[0]["attempts"] - draws[0]["excluded_low_dispersion"] \
        - draws[0]["excluded_unreachable"] == 2
    assert draws[0]["excluded_low_dispersion"] \
        == doc["n_excluded_low_dispersion"]
    header = hist.read_text().splitlines()[0]
    assert header.startswith("variant,cut_position,bin_left_db")


def test_cli_fit(tmp_path, capsys, monkeypatch):
    configs = []
    real_fit = cli.fit_coefficients

    def recording_fit(cfg, kind, benchmark):
        configs.append(cfg)
        return real_fit(cfg, kind, benchmark)

    monkeypatch.setattr(cli, "fit_coefficients", recording_fit)
    out = tmp_path / "fit.json"
    rc = main(["fit", "cfm2", "--benchmark", "cfm2", "--n-systems", "2",
               "--band-width-thz", "0.4", "--n-spans", "3",
               "--cut-positions", "lowest", "highest",
               "--max-iterations", "50", "-o", str(out)])
    assert rc == 0
    assert configs[0].cut_positions == ("lowest", "highest")
    kind, coeffs = fileio.load_coefficients(out)
    assert kind is CfmKind.CFM2
    summary = json.loads(capsys.readouterr().out)
    assert summary["cost_final"] <= summary["cost_initial"]
    assert summary["n_evaluations"] > 0
    assert main(["fit", "cfm2", "--cut-positions", "middle",
                 "-o", str(out)]) == 2


def test_cli_fit_writes_a_non_finite_cost_as_null(tmp_path, capsys,
                                                  monkeypatch):
    # A start whose cost overflows: the summary holds null, not NaN.
    real_fit = cli.fit_coefficients
    a = list(assets.shipped_coefficients(CfmKind.CFM2).a)
    a[7] = 1e6

    def overflowing_fit(cfg, kind, benchmark):
        cfg = replace(cfg, initial=ModelCoefficients(a=tuple(a)))
        return real_fit(cfg, kind, benchmark)

    monkeypatch.setattr(cli, "fit_coefficients", overflowing_fit)
    rc = main(["fit", "cfm2", "--benchmark", "cfm2", "--n-systems", "2",
               "--band-width-thz", "0.4", "--n-spans", "3", "--seed", "9",
               "--max-iterations", "20", "-o", str(tmp_path / "fit.json")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cost_initial"] is None
    assert np.isfinite(summary["cost_final"])


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_json_text_rejects_non_finite_numbers(value):
    with pytest.raises(ValueError):
        fileio.json_text({"version": 1, "x": [1.0, value]})
    with pytest.raises(ValueError):
        fileio.json_text({"version": 1, "x": value})


def test_cli_fit_rejects_empty_training_set(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc = main(["fit", "cfm2", "--benchmark", "cfm2", "--n-systems", "0",
               "-o", str(out)])
    assert rc == 3
    assert not out.exists()
    assert "n_systems" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["nan", "inf"])
def test_campaign_rejects_a_bin_width_before_drawing(tmp_path, capsys,
                                                      monkeypatch, width):
    # A bin width the histogram cannot use is refused before any attempt is
    # drawn, not after the whole campaign.
    from nli_planner import campaign

    def drawn(*args):
        raise AssertionError("an attempt was drawn")

    monkeypatch.setattr(campaign, "draw_system", drawn)
    out = tmp_path / "out.json"
    assert main(["campaign", "--n-systems", "1", "--bin-width-db", width,
                 "-o", str(out)]) == 3
    assert "bin width" in capsys.readouterr().err
    assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys):
    # Usage error.
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    # Validation error: missing file.
    assert main(["evaluate", str(tmp_path / "absent.json")]) == 3
    capsys.readouterr()
    # Validation error: malformed document.
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1}')
    assert main(["evaluate", str(bad)]) == 3
    capsys.readouterr()
    # Validation error: a list field that holds no array.
    doc = fileio.system_to_json(make_system(86))
    for where, value in NOT_ARRAY_CASES:
        bad.write_text(json.dumps({**doc, where[1:]: value}))
        assert main(["evaluate", str(bad)]) == 3
        assert f"error: {where}: must be an array" in capsys.readouterr().err
    # Validation error: an integer beyond a float's range, in a system file
    # and in a coefficient file.
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    doc["spans"][1]["length_km"] = 10 ** 400
    bad.write_text(json.dumps(doc))
    assert main(["evaluate", str(bad)]) == 3
    assert "error: /spans/1/length_km: " in capsys.readouterr().err
    coeff = tmp_path / "c.json"
    coeff.write_text(json.dumps({"version": 1, "variant": "cfm2",
                                 "a": [1.0] * 17 + [10 ** 400]}))
    assert main(["evaluate", str(good), "--model", "cfm2",
                 "--coefficients", str(coeff)]) == 3
    assert "error: /a/17: " in capsys.readouterr().err
    # Validation error: a band too narrow for one channel, or no band.
    out = tmp_path / "out.json"
    for width in ("0.01", "0", "-1", "nan"):
        band = ["--band-width-thz", width, "--n-spans", "2"]
        assert main(["generate", *band, "-o", str(out)]) == 3
        assert main(["campaign", "--n-systems", "1", "--benchmark", "cfm1",
                     *band, "-o", str(out)]) == 3
        assert main(["fit", "cfm2", "--benchmark", "cfm2", "--n-systems",
                     "1", *band, "-o", str(out)]) == 3
        assert "error: band" in capsys.readouterr().err
    assert not out.exists()
    # Validation error: a band wide enough to reach non-positive
    # frequencies.
    assert main(["generate", "--band-width-thz", "500", "--n-spans", "2",
                 "-o", str(out)]) == 3
    assert "channel frequency must be > 0" in capsys.readouterr().err
    assert not out.exists()
    # ... refused before any draw, however wide: a draw walks the band one
    # channel at a time.
    band = ["--band-width-thz", "1e308", "--n-spans", "2"]
    for cmd in (["generate"], ["campaign", "--n-systems", "1"],
                ["fit", "cfm2", "--benchmark", "cfm2", "--n-systems", "1"]):
        assert main([*cmd, *band, "-o", str(out)]) == 3
        assert "channel frequency must be > 0" in capsys.readouterr().err
    assert not out.exists()
    # Validation error: a system whose frequencies are negated, which would
    # give NaN SNRs and a negative ASE power.
    doc = fileio.system_to_json(make_system(86))
    for ch in doc["channels"]:
        ch["f_center_thz"] = -ch["f_center_thz"]
    bad.write_text(json.dumps(doc))
    assert main(["evaluate", str(bad), "-o", str(out)]) == 3
    assert "channel frequency must be > 0" in capsys.readouterr().err
    assert not out.exists()
    # Validation error: a threshold that is no finite number, which the
    # result JSON could not hold.
    sys_path = tmp_path / "sys.json"
    fileio.save_system(make_system(86), sys_path)
    for threshold in ("nan", "inf", "-inf"):
        assert main(["evaluate", str(sys_path),
                     f"--threshold-db={threshold}", "-o", str(out)]) == 3
        assert "--threshold-db must be finite" in capsys.readouterr().err
    assert not out.exists()
    # Numeric failure, without a RuntimeWarning: a finite but huge
    # interferer frequency overflows the cross closed form, and the CUT's
    # results are NaN, which the result JSON could not hold.
    doc = fileio.system_to_json(make_system(86))
    doc["channels"][doc["cut_index"] - 1]["f_center_thz"] = 1e300
    bad.write_text(json.dumps(doc))
    for extra in ([], ["--all-channels"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["evaluate", str(bad), *extra, "-o", str(out)])
        assert rc == 4
        assert "non-finite result" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", [
    "/channels/0/power_w", "/channels/0/f_center_thz",
    "/channels/0/rate_tbaud", "/spans/0/length_km", "/spans/0/nf_db",
    "/spans/0/gain_db", "/spans/0/fiber/alpha_db_per_km"])
def test_cli_non_finite_value_exit_code(tmp_path, capsys, where):
    # JSON readers accept NaN and Infinity; no such number reaches a model.
    doc = _with_value(fileio.system_to_json(make_system(86)), where,
                      float("nan"))
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", str(path)]) == 3
    err = capsys.readouterr().err
    assert "must be finite" in err and where.rsplit("/", 1)[0] in err


@pytest.mark.parametrize("where, value", BOOLEAN_CASES)
def test_cli_boolean_value_exit_code(tmp_path, capsys, where, value):
    doc = _with_value(fileio.system_to_json(make_system(86)), where, value)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", str(path)]) == 3
    assert f"error: {where}:" in capsys.readouterr().err


def test_cli_zero_dispersion_exit_code(tmp_path, capsys):
    # An exactly-zero effective dispersion on a pair the CUT uses is a
    # numeric failure.
    path = tmp_path / "zero.json"
    fileio.save_system(make_zero_dispersion_link(cut_index=0), path)
    assert main(["evaluate", str(path)]) == 4
    assert "numeric error" in capsys.readouterr().err
