"""Versioned read-only data assets: fiber presets, Phi table, coefficient
tables and sensitivity thresholds.  Files are checksum-verified on first load.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .cfm import _CONST, _EXP, _O, _P, FACTOR_SLOTS
from .types import (CfmKind, FiberParams, ModelCoefficients, ModelVariant,
                    ModulationFormat, ValidationError)


class AssetError(RuntimeError):
    """A shipped data file is missing, corrupt, or has a bad version tag."""


def _read_bytes(name: str) -> bytes:
    return resources.files("nli_planner.data").joinpath(name).read_bytes()


@lru_cache(maxsize=None)
def _checksums() -> dict[str, str]:
    manifest = json.loads(_read_bytes("checksums.json"))
    if manifest.get("version") != 1:
        raise AssetError("unsupported checksum manifest version")
    return dict(manifest["sha256"])


@lru_cache(maxsize=None)
def _load(name: str) -> dict:
    raw = _read_bytes(name)
    expected = _checksums().get(name)
    if expected is None:
        raise AssetError(f"{name} missing from checksum manifest")
    digest = hashlib.sha256(raw).hexdigest()
    if digest != expected:
        raise AssetError(f"{name} checksum mismatch: {digest}")
    doc = json.loads(raw)
    if doc.get("version") != 1:
        raise AssetError(f"{name}: unsupported version {doc.get('version')}")
    return doc


@lru_cache(maxsize=None)
def fiber_presets() -> dict[str, FiberParams]:
    doc = _load("fiber_presets.json")
    f_ref = float(doc["f_ref_thz"])
    out = {}
    for name, row in doc["presets"].items():
        out[name] = FiberParams(
            alpha_db_per_km=float(row["alpha_db_per_km"]),
            beta2=float(row["beta2_ps2_per_km"]),
            beta3=float(row["beta3_ps3_per_km"]),
            gamma=float(row["gamma_per_w_km"]),
            f_ref=f_ref,
            name=name,
        )
    return out


@lru_cache(maxsize=None)
def phi_table() -> dict[ModulationFormat, Fraction]:
    doc = _load("phi_table.json")
    return {ModulationFormat(k): Fraction(v) for k, v in doc["phi"].items()}


@lru_cache(maxsize=None)
def qam_thresholds_db() -> dict[ModulationFormat, float]:
    doc = _load("qam_thresholds.json")
    return {ModulationFormat(k): float(v)
            for k, v in doc["snr_threshold_db"].items()}


@lru_cache(maxsize=None)
def gaussian_mi_range() -> tuple[float, float]:
    doc = _load("qam_thresholds.json")
    lo, hi = doc["gaussian_mi_range_bits"]
    return float(lo), float(hi)


@lru_cache(maxsize=None)
def shipped_coefficients(kind: CfmKind) -> ModelCoefficients:
    if kind is CfmKind.CFM1:
        raise ValidationError("CFM1 has no coefficient table")
    doc = _load(f"coefficients_{kind.value}.json")
    if doc["variant"] != kind.value:
        raise AssetError(f"coefficient file variant mismatch for {kind.value}")
    return ModelCoefficients(a=tuple(float(x) for x in doc["a"]))


def identity_coefficients(kind: CfmKind) -> ModelCoefficients:
    """Coefficients forcing every correction factor to exactly 1.

    From ``cfm.FACTOR_SLOTS``: 1 at each layout's constant, its exponents
    and its bracket's offset and power, 0 elsewhere.  Every other term is
    then 0, so CFM2 reduces to CFM1 bit-for-bit, and the unit exponents
    and offsets keep every power finite.
    """
    if kind is CfmKind.CFM1:
        raise ValidationError("CFM1 has no coefficients")
    ones = {*FACTOR_SLOTS[:, _EXP].flat,
            *FACTOR_SLOTS[:, [_CONST, _O, _P]].flat}
    return ModelCoefficients(a=tuple(float(k in ones)
                                     for k in range(kind.n_coefficients)))


def model(kind: CfmKind) -> ModelVariant:
    """Variant with its shipped coefficient table (none for CFM1)."""
    if kind is CfmKind.CFM1:
        return ModelVariant(kind=kind)
    return ModelVariant(kind=kind, coefficients=shipped_coefficients(kind))
