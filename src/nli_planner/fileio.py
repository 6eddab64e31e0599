"""JSON/CSV file formats: system files, coefficient files, result files.

All formats carry a ``version`` tag; readers reject unknown versions and
unknown fields so that files round-trip losslessly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path
from typing import Any

from . import assets
from .campaign import CampaignResult, ErrorStats
from .types import (CfmKind, ChannelSpec, FiberParams, LinkSpec,
                    ModelCoefficients, ModelVariant, ModulationFormat,
                    SpanConfig)


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


def _number(node: dict | list, key: str | int, pointer: str) -> float:
    """``node[key]`` as a float; ``pointer`` locates ``node``."""
    value = node[key]
    if not _is_number(value):
        raise ParseError(f"{pointer}/{key}", "must be a number")
    return float(value)


def _numbers(values: list, pointer: str) -> tuple[float, ...]:
    """A JSON array of numbers as floats; ``pointer`` locates the array."""
    if not set(map(type, values)) <= {int, float}:
        # Name the first entry that is no number; subclasses of float, such
        # as numpy.float64 in a document built in Python, pass.
        for i in range(len(values)):
            _number(values, i, pointer)
    return tuple(map(float, values))


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


def parse_system(doc: dict) -> LinkSpec:
    """Parse a SystemFileV1 document into a validated LinkSpec."""
    if not isinstance(doc, dict):
        raise ParseError("", "document must be a JSON object")
    _require(doc, "", {"version", "spans", "channels", "cut_index"},
             {"version", "spans", "channels", "cut_index"})
    _check_version(doc, "")
    for key in ("spans", "channels"):
        if not isinstance(doc[key], list):
            raise ParseError(f"/{key}", "must be an array")

    spans = []
    for i, node in enumerate(doc["spans"]):
        ptr = f"/spans/{i}"
        if not isinstance(node, dict):
            raise ParseError(ptr, "span must be an object")
        _require(node, ptr, {"fiber", "length_km", "nf_db", "gain_db"},
                 {"fiber", "length_km", "nf_db"})
        gain = node.get("gain_db", "transparent")
        if gain == "transparent":
            gain = None
        elif not _is_number(gain):
            raise ParseError(f"{ptr}/gain_db",
                             "must be a number or 'transparent'")
        fiber = _parse_fiber(node["fiber"], f"{ptr}/fiber")
        length_km = _number(node, "length_km", ptr)
        nf_db = _number(node, "nf_db", ptr)
        try:
            spans.append(SpanConfig(fiber=fiber, length_km=length_km,
                                    gain_db=gain, noise_figure_db=nf_db))
        except ValueError as exc:
            raise ParseError(ptr, str(exc))
    n_spans = len(spans)
    if n_spans == 0:
        raise ParseError("/spans", "at least one span required")

    channels = []
    for i, node in enumerate(doc["channels"]):
        ptr = f"/channels/{i}"
        if not isinstance(node, dict):
            raise ParseError(ptr, "channel must be an object")
        _require(node, ptr,
                 {"f_center_thz", "rate_tbaud", "roll_off", "format",
                  "power_w", "active"},
                 {"f_center_thz", "rate_tbaud", "roll_off", "format",
                  "power_w"})
        try:
            fmt = ModulationFormat(node["format"])
        except ValueError:
            raise ParseError(f"{ptr}/format",
                             f"unknown format {node['format']!r}")
        power = node["power_w"]
        if _is_number(power):
            powers = tuple([float(power)] * n_spans)
        elif isinstance(power, list):
            if len(power) != n_spans:
                raise ParseError(f"{ptr}/power_w",
                                 f"expected {n_spans} per-span values")
            powers = _numbers(power, f"{ptr}/power_w")
        else:
            raise ParseError(f"{ptr}/power_w", "must be a number or array")
        active = node.get("active", True)
        if not isinstance(active, bool):
            raise ParseError(f"{ptr}/active", "must be true or false")
        f_center = _number(node, "f_center_thz", ptr)
        rate = _number(node, "rate_tbaud", ptr)
        roll_off = _number(node, "roll_off", ptr)
        try:
            channels.append(ChannelSpec(
                f_center=f_center, symbol_rate=rate, roll_off=roll_off,
                format=fmt, power_w_per_span=powers, active=active))
        except ValueError as exc:
            raise ParseError(ptr, str(exc))

    cut_index = doc["cut_index"]
    if isinstance(cut_index, bool) or not isinstance(cut_index, int):
        raise ParseError("/cut_index", "must be an integer")
    link = LinkSpec(spans=tuple(spans), channels=tuple(channels),
                    cut_index=cut_index)
    try:
        link.validate()
    except ValueError as exc:
        raise ParseError("", str(exc))
    return link


def system_to_json(link: LinkSpec) -> dict:
    """Serialize a link to a SystemFileV1 document."""
    spans = []
    for span in link.spans:
        spans.append({"fiber": _fiber_to_json(span.fiber),
                      "length_km": span.length_km,
                      "nf_db": span.noise_figure_db,
                      "gain_db": ("transparent" if span.gain_db is None
                                  else span.gain_db)})
    channels = []
    for ch in link.channels:
        powers = list(ch.power_w_per_span)
        power: Any = powers[0] if len(set(powers)) == 1 else powers
        channels.append({"f_center_thz": ch.f_center,
                         "rate_tbaud": ch.symbol_rate,
                         "roll_off": ch.roll_off,
                         "format": ch.format.value,
                         "power_w": power,
                         "active": ch.active})
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
    coeffs = ModelCoefficients(a=_numbers(values, "/a"))
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
