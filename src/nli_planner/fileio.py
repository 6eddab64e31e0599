"""JSON/CSV file formats: system files, coefficient files, result files.

All formats carry a ``version`` tag; readers reject unknown versions and
unknown fields so that files round-trip losslessly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from . import assets
from .campaign import CampaignResult, ErrorStats
from .types import (FORMATS, CfmKind, CombArrays, FiberParams, LinkSpec,
                    ModelCoefficients, ModelVariant, SpanArrays,
                    ValidationError)


class ParseError(ValueError):
    """Schema violation; ``pointer`` locates the offending field."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def _require(obj: dict, pointer: str, allowed: set[str],
             required: set[str]) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(pointer, f"unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ParseError(pointer, f"missing fields {sorted(missing)}")


def _is_number(value: Any) -> bool:
    """A JSON number; ``true``/``false`` are not numbers here, although
    Python's ``bool`` is an ``int``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(value: Any, pointer: str) -> float:
    """A JSON number as a float; ParseError at ``pointer`` if it is not a
    number, or an integer beyond a float's range."""
    if not _is_number(value):
        raise ParseError(pointer, "must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(pointer, "is beyond a float's range") from None


def _number(node: dict | list, key: str | int, pointer: str) -> float:
    """``node[key]`` as a float; ``pointer`` locates ``node``."""
    return _float(node[key], f"{pointer}/{key}")


def _numbers(values: list, pointer: str, field: str = "") -> list:
    """``values`` as floats; ParseError names ``pointer/i`` plus ``field``
    of the first that :func:`_float` refuses."""
    if set(map(type, values)) <= {float}:
        return values
    # Integers, and subclasses of float such as numpy.float64 in a document
    # built in Python, pass as the floats they equal.
    return [_float(v, f"{pointer}/{i}{field}") for i, v in enumerate(values)]


def _check_version(doc: dict, pointer: str) -> None:
    v = doc.get("version")
    if v != 1:
        raise ParseError(f"{pointer}/version", f"unsupported version {v!r}")


_FIBER_FIELDS = {"alpha_db_per_km", "beta2_ps2_per_km", "beta3_ps3_per_km",
                 "gamma_per_w_km", "f_ref_thz"}


def _parse_fiber(node: Any, pointer: str) -> FiberParams:
    if isinstance(node, str):
        presets = assets.fiber_presets()
        if node not in presets:
            raise ParseError(pointer, f"unknown fiber preset {node!r}")
        return presets[node]
    if not isinstance(node, dict):
        raise ParseError(pointer, "fiber must be a preset name or an object")
    _require(node, pointer, _FIBER_FIELDS, _FIBER_FIELDS)
    values = {k: _number(node, k, pointer) for k in _FIBER_FIELDS}
    try:
        return FiberParams(alpha_db_per_km=values["alpha_db_per_km"],
                           beta2=values["beta2_ps2_per_km"],
                           beta3=values["beta3_ps3_per_km"],
                           gamma=values["gamma_per_w_km"],
                           f_ref=values["f_ref_thz"])
    except ValueError as exc:
        raise ParseError(pointer, str(exc))


def _fiber_to_json(fiber: FiberParams) -> Any:
    if fiber.name and fiber.name in assets.fiber_presets():
        return fiber.name
    return {"alpha_db_per_km": fiber.alpha_db_per_km,
            "beta2_ps2_per_km": fiber.beta2,
            "beta3_ps3_per_km": fiber.beta3,
            "gamma_per_w_km": fiber.gamma,
            "f_ref_thz": fiber.f_ref}


_SPAN_FIELDS = {"fiber", "length_km", "nf_db", "gain_db"}
_CHANNEL_FIELDS = {"f_center_thz", "rate_tbaud", "roll_off", "format",
                   "power_w", "active"}
_FORMAT_CODE = {fmt.value: code for code, fmt in enumerate(FORMATS)}


def _entries(doc: dict, key: str, fields: set[str], optional: str) -> list:
    """The array ``doc[key]``, of objects with ``fields``, ``optional``
    among them, and no others."""
    nodes, required = doc[key], fields - {optional}
    if not all(type(n) is dict and required <= n.keys() <= fields
               for n in nodes):
        for i, node in enumerate(nodes):
            ptr = f"/{key}/{i}"
            if not isinstance(node, dict):
                raise ParseError(ptr, f"{key[:-1]} must be an object")
            _require(node, ptr, fields, required)
    return nodes


def _parse_spans(nodes: list) -> SpanArrays:
    """The spans' columns, each field read over every span in turn."""
    gain = [n.get("gain_db", "transparent") for n in nodes]
    for i, g in enumerate(gain):
        if g == "transparent":
            gain[i] = None
        elif not _is_number(g):
            raise ParseError(f"/spans/{i}/gain_db",
                             "must be a number or 'transparent'")
        else:
            gain[i] = _float(g, f"/spans/{i}/gain_db")
    fibers = [_parse_fiber(n["fiber"], f"/spans/{i}/fiber")
              for i, n in enumerate(nodes)]
    length, nf = (_numbers([n[k] for n in nodes], "/spans", f"/{k}")
                  for k in ("length_km", "nf_db"))
    if not nodes:
        raise ParseError("/spans", "at least one span required")
    try:
        return SpanArrays.columns(fibers, length, gain, nf)
    except ValidationError as exc:
        raise ParseError(f"/spans/{exc.index}", str(exc))


def _parse_channels(nodes: list, n_spans: int) -> CombArrays:
    """The channels' columns, read as :func:`_parse_spans` reads the
    spans'; ``power_w`` gives ``n_spans`` launch powers."""
    names = [n["format"] for n in nodes]
    fmt = [_FORMAT_CODE.get(v) if isinstance(v, str) else None
           for v in names]
    if None in fmt:
        i = fmt.index(None)
        raise ParseError(f"/channels/{i}/format",
                         f"unknown format {names[i]!r}")
    launch = [n["power_w"] for n in nodes]
    # Per-span lists of numbers pass in one check; else entry by entry.
    if not (set(map(type, launch)) <= {list}
            and set(map(len, launch)) <= {n_spans}
            and set(map(type, chain.from_iterable(launch))) <= {float}):
        for i, p in enumerate(launch):
            ptr = f"/channels/{i}/power_w"
            if _is_number(p):
                launch[i] = [_float(p, ptr)] * n_spans
            elif not isinstance(p, list):
                raise ParseError(ptr, "must be a number or array")
            elif len(p) != n_spans:
                raise ParseError(ptr, f"expected {n_spans} per-span values")
            else:
                launch[i] = _numbers(p, ptr)
    active = [n.get("active", True) for n in nodes]
    if not set(map(type, active)) <= {bool}:
        i = next(i for i, a in enumerate(active) if not isinstance(a, bool))
        raise ParseError(f"/channels/{i}/active", "must be true or false")
    f, rate, roll = (_numbers([n[k] for n in nodes], "/channels", f"/{k}")
                     for k in ("f_center_thz", "rate_tbaud", "roll_off"))
    launch = np.array(launch, float).reshape(len(nodes), n_spans).T
    if not nodes:
        raise ParseError("/channels", "at least one channel required")
    try:
        return CombArrays.columns(f, rate, roll, fmt, active, launch)
    except ValidationError as exc:
        raise ParseError(f"/channels/{exc.index}", str(exc))


def parse_system(doc: dict) -> LinkSpec:
    """Parse a SystemFileV1 document into a validated LinkSpec.  Each field
    is read over every span or channel in turn, and the columns validated
    as arrays: an error names the JSON pointer of the first bad entry of
    the first bad field, a type before a value."""
    if not isinstance(doc, dict):
        raise ParseError("", "document must be a JSON object")
    _require(doc, "", {"version", "spans", "channels", "cut_index"},
             {"version", "spans", "channels", "cut_index"})
    _check_version(doc, "")
    for key in ("spans", "channels"):
        if not isinstance(doc[key], list):
            raise ParseError(f"/{key}", "must be an array")
    spans = _parse_spans(_entries(doc, "spans", _SPAN_FIELDS, "gain_db"))
    comb = _parse_channels(_entries(doc, "channels", _CHANNEL_FIELDS,
                                    "active"), len(spans.length))
    cut_index = doc["cut_index"]
    if isinstance(cut_index, bool) or not isinstance(cut_index, int):
        raise ParseError("/cut_index", "must be an integer")
    link = LinkSpec(comb=comb, span_arrays=spans, cut_index=cut_index)
    try:
        link.validate()
    except ValueError as exc:
        # The spans and channels are checked above: only the CUT is left.
        raise ParseError("/cut_index", str(exc))
    return link


def system_to_json(link: LinkSpec) -> dict:
    """Serialize a link to a SystemFileV1 document, from its columns."""
    s, c = link.span_arrays, link.comb
    spans = [{"fiber": _fiber_to_json(s.fibers[k]), "length_km": length,
              "nf_db": nf, "gain_db": "transparent" if t else g}
             for k, length, nf, g, t in zip(
                 s.fiber.tolist(), s.length.tolist(), s.nf_db.tolist(),
                 s.gain_db.tolist(), s.transparent.tolist())]
    # A channel launched at one power into every span writes that power.
    one = (c.launch[1:] == c.launch[:1]).all(axis=0) & (link.n_spans > 0)
    channels = [{"f_center_thz": f, "rate_tbaud": rate, "roll_off": roll,
                 "format": FORMATS[k].value, "power_w": p[0] if u else p,
                 "active": a}
                for f, rate, roll, k, p, u, a in zip(
                    c.f.tolist(), c.rate.tolist(), c.roll.tolist(),
                    c.fmt.tolist(), c.launch.T.tolist(), one.tolist(),
                    c.active.tolist())]
    return {"version": 1, "spans": spans, "channels": channels,
            "cut_index": link.cut_index}


# json.dumps's defaults, except that NaN and infinity are refused.
_STRICT_JSON = json.JSONEncoder(allow_nan=False)


def json_text(doc: dict) -> str:
    """A document as JSON text, one top-level field per line and each
    element of a top-level array (a span, a channel, a coefficient) on a
    line of its own.  Every record goes through the C encoder, which
    ``json.dumps`` skips when asked to indent.  A NaN or infinity, which
    JSON cannot hold, raises ValueError."""
    dumps = _STRICT_JSON.encode
    fields = []
    for key, value in doc.items():
        if isinstance(value, list) and value:
            text = "[\n    " + ",\n    ".join(map(dumps, value)) + "\n  ]"
        else:
            text = dumps(value)
        fields.append(f"  {dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def load_system(path: str | Path) -> LinkSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_system(json.load(handle))


def save_system(link: LinkSpec, path: str | Path) -> None:
    Path(path).write_text(json_text(system_to_json(link)), encoding="utf-8")


# ---------------------------------------------------------------------------
# Coefficient files


def parse_coefficients(doc: dict) -> tuple[CfmKind, ModelCoefficients]:
    if not isinstance(doc, dict):
        raise ParseError("", "document must be a JSON object")
    _require(doc, "", {"version", "variant", "a"}, {"version", "variant", "a"})
    _check_version(doc, "")
    try:
        kind = CfmKind(doc["variant"])
    except ValueError:
        raise ParseError("/variant", f"unknown variant {doc['variant']!r}")
    values = doc["a"]
    if not isinstance(values, list):
        raise ParseError("/a", "must be an array")
    coeffs = ModelCoefficients(a=tuple(_numbers(values, "/a")))
    for i, x in enumerate(coeffs.a):
        if not math.isfinite(x):
            raise ParseError(f"/a/{i}", "must be finite")
    if len(coeffs) != kind.n_coefficients:
        raise ParseError("/a", f"{kind.value} expects "
                               f"{kind.n_coefficients} values")
    return kind, coeffs


def load_coefficients(path: str | Path) -> tuple[CfmKind, ModelCoefficients]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_coefficients(json.load(handle))


def save_coefficients(kind: CfmKind, coeffs: ModelCoefficients,
                      path: str | Path) -> None:
    doc = {"version": 1, "variant": kind.value, "a": list(coeffs.a)}
    Path(path).write_text(json_text(doc), encoding="utf-8")


def variant_from_files(kind: CfmKind,
                       coefficients_path: str | Path | None) -> ModelVariant:
    if coefficients_path is None:
        return assets.model(kind)
    file_kind, coeffs = load_coefficients(coefficients_path)
    if file_kind is not kind:
        raise ParseError("/variant", f"coefficients are for {file_kind.value}, "
                                     f"requested {kind.value}")
    return ModelVariant(kind=kind, coefficients=coeffs)


# ---------------------------------------------------------------------------
# Result files


def write_histogram_csv(stats: dict[tuple[str, str], ErrorStats],
                        path: str | Path) -> None:
    """Plot-ready histogram rows: one line per (variant, position, bin)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["variant", "cut_position", "bin_left_db",
                         "bin_right_db", "count"])
        for (variant, pos), st in sorted(stats.items()):
            for k, count in enumerate(st.bin_counts):
                writer.writerow([variant, pos, f"{st.bin_edges[k]:.6f}",
                                 f"{st.bin_edges[k + 1]:.6f}", count])


def campaign_to_json(result: CampaignResult) -> dict:
    stats = {}
    for (variant, pos), st in sorted(result.stats.items()):
        stats[f"{variant}/{pos}"] = {
            "mean_db": st.mean, "std_dev_db": st.std_dev,
            "peak_db": st.peak, "peak_to_peak_db": st.peak_to_peak,
            "n_samples": st.n_samples}
    return {"version": 1, "stats": stats,
            "n_evaluated": result.n_evaluated,
            "n_excluded_low_dispersion": result.n_excluded_low_dispersion,
            "n_excluded_unreachable": result.n_excluded_unreachable,
            "draws": [dataclasses.asdict(d) for d in result.draws]}
