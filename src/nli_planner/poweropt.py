"""Launch-power setting: per-channel randomization, span-local optimization
and the final cubic-model refinement of the CUT launch PSD.

All channel PSDs are tied to the CUT PSD through fixed multipliers, so the
receiver NLI PSD is a cubic function of the CUT launch PSD and both the
span-local and the link-level optima have closed forms (ASE = 2 NLI).

Every step is one function of a :class:`~nli_planner.types.LinkStack`, a
link being ``link.stack``: :func:`optimize_powers` plans a link as the
stack of one of ``_optimize_stack``, which plans many links of one span
count with one kernel pass per step (each link reads its own RNG, the
span-local and refinement steps run on ``[span, link]`` arrays, the staged
plan re-powers the stack, and only the final links are built).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import assets
from .cfm import (ZeroDispersionError, check_dispersion, nli_terms,
                  one_low_dispersion_warning)
from .perf import rx_ase_psd, span_ase_psds
from .types import CfmKind, LinkSpec, LinkStack, ModelVariant

# Only for bench/tracing.py's LAYERS to patch here; nothing here calls them.
from .cfm import rx_nli_psd
from .perf import ase_power

# Fallback CUT PSD (W/THz) when a span produces no NLI and the span-local
# optimum is unbounded.
PSD_CEILING_W_PER_THZ = 0.1


@dataclass(frozen=True)
class PowerPlan:
    """Per-span CUT launch PSD plus the per-channel multipliers."""

    g_cut_per_span: tuple[float, ...]
    xi: tuple[float, ...]  # per channel index; 1.0 at the CUT
    eta_nli: float | None = None


def randomize_launch(link: LinkSpec,
                     rng: np.random.Generator) -> tuple[float, ...]:
    """Per-channel power multipliers, uniform in [0.7, 1.3]; 1 at the CUT.

    Drawn once and reused at every span.
    """
    xi = rng.uniform(0.7, 1.3, size=len(link.comb.f)).tolist()
    xi[link.cut_index] = 1.0
    return tuple(xi)


def _multipliers(stack: LinkStack, xis: Sequence[Sequence[float]]
                 ) -> np.ndarray:
    """The ``[link, channel]`` multipliers of each link, 1 on its pads."""
    xi = np.ones(stack.f.shape)
    for row, x in zip(xi, xis):
        row[:len(x)] = x
    return xi


def _tied_power(stack: LinkStack, xi: np.ndarray, g: np.ndarray
                ) -> np.ndarray:
    """Launch power ``[link, span, channel]`` for the PSD ``xi[j, i] *
    g[j, n]`` of channel ``i`` of link ``j`` at span ``n``: every channel's
    PSD tied to its CUT's."""
    return g[:, :, None] * xi[:, None, :] * stack.rate[:, None]


def _cut(stack: LinkStack, a: np.ndarray) -> np.ndarray:
    """Each link's CUT entry of a ``[link, channel]`` array."""
    return a[np.arange(len(stack.cut)), stack.cut]


def _span_eta(stack: LinkStack, xi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-span CFM1 NLI PSD at unit CUT PSD, ``[span, link]``, with each
    link's |beta2| minimum, every channel's PSD tied to its CUT's through
    ``xi``: the kernel on the stack with powers xi * R."""
    unit = stack.with_power(_tied_power(stack, xi, np.ones(stack.fiber.shape)))
    terms = nli_terms(unit, assets.model(CfmKind.CFM1))
    return terms.base, terms.min_abs_beta2


def _logo(stack: LinkStack, eta: np.ndarray) -> np.ndarray:
    """Span-local optimal CUT PSDs ``[link, span]`` from the ``[span,
    link]`` NLI PSDs ``eta`` at unit CUT PSD: each span's ASE PSD equals
    twice its NLI PSD, or the ceiling where a span produces no NLI."""
    ase = span_ase_psds(stack, _cut(stack, stack.f))
    flat = eta <= 0.0
    for _ in range(np.count_nonzero(flat)):
        warnings.warn("span produces no NLI; launch PSD capped",
                      stacklevel=3)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (ase / (2.0 * eta)) ** (1.0 / 3.0)
    return np.where(flat, PSD_CEILING_W_PER_THZ, g).T


def _plan_columns(stack: LinkStack, xi: np.ndarray, g: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The ``[link, span, channel]`` launch power and ``[link, span]`` lumped
    gains (dB) that realize the CUT PSD profiles ``g`` (``[link, span]``)
    on transparent links, every channel tied to its CUT through ``xi``."""
    alpha = np.array([fb.alpha_db_per_km for fb in stack.fibers])
    gain_db = alpha[stack.fiber] * stack.length
    # Span by span in Python floats, as each link was planned alone.
    ratio = (g[:, 1:] / g[:, :-1]).tolist()
    gain_db[:, :-1] += [[10.0 * math.log10(r) for r in row] for row in ratio]
    return _tied_power(stack, xi, g), gain_db


def _planned_link(link: LinkSpec, power: np.ndarray, gain_db: np.ndarray
                  ) -> LinkSpec:
    """The link with the launch power rows ``power`` (a stack's, padded)
    and the lumped gains ``gain_db``."""
    return LinkSpec(link.comb.with_power(power[:, :len(link.comb.f)]),
                    link.span_arrays.with_gains(gain_db), link.cut_index,
                    link.flags)


def _eta(stack: LinkStack, variant: ModelVariant) -> tuple[np.ndarray, ...]:
    """Each link's nonlinearity coefficient ``[link]``, and its |beta2|
    minimum: the receiver NLI PSD of its CUT normalized by the cube of its
    first-span CUT PSD."""
    terms = nli_terms(stack, variant)
    g1 = _cut(stack, stack.power[:, 0]) / _cut(stack, stack.rate)
    return terms.rx_psd()[-1] / g1 ** 3, terms.min_abs_beta2


def _refine(stack: LinkStack, eta: np.ndarray) -> np.ndarray:
    """Closed-form first-span CUT PSD ``[link]`` maximizing each link's
    receiver SNR, from its nonlinearity coefficient ``eta``."""
    if np.any(eta <= 0.0):
        raise ValueError("eta must be > 0")
    rate = _cut(stack, stack.rate)
    ase = rx_ase_psd(stack, _cut(stack, stack.f))[-1]
    return ((ase * rate / rate) / (2.0 * eta)) ** (1.0 / 3.0)


def _optimize_stack(links: Sequence[LinkSpec],
                    rngs: Sequence[np.random.Generator]
                    ) -> tuple[list[tuple[LinkSpec, PowerPlan]], np.ndarray]:
    """:func:`optimize_powers` of links of one span count, one RNG each,
    planned as one stack with one kernel pass per step: a list of ``(link,
    plan)``, and each link's smallest |beta2| (ps^2/km) of its CUT row.
    Each link reads its own RNG as if planned alone, and its plan does not
    depend on the others.  Raises for a zero dispersion and leaves the rest
    of the low-dispersion policy to the caller."""
    stack = LinkStack.of(links)
    xis = [randomize_launch(lk, r) for lk, r in zip(links, rngs)]
    xi = _multipliers(stack, xis)
    eta_span, min_abs_beta2 = _span_eta(stack, xi)
    if not min_abs_beta2.all():
        raise ZeroDispersionError("zero effective dispersion")
    g = _logo(stack, eta_span)
    power, gain_db = _plan_columns(stack, xi, g)
    staged = stack.with_power(power).with_gains(gain_db)
    eta = _eta(staged, assets.model(CfmKind.CFM4))[0]
    g = g * (_refine(staged, eta) / g[:, 0])[:, None]
    power, gain_db = _plan_columns(stack, xi, g)
    return [(_planned_link(lk, power[j], gain_db[j]),
             PowerPlan(g_cut_per_span=tuple(g[j].tolist()), xi=xis[j],
                       eta_nli=float(eta[j])))
            for j, lk in enumerate(links)], min_abs_beta2


@one_low_dispersion_warning
def optimize_powers(link: LinkSpec, rng: np.random.Generator
                    ) -> tuple[LinkSpec, PowerPlan]:
    """Full pipeline: xi randomization, span-local optimization, then the
    cubic-model refinement of the CUT launch; ``(link, plan)``.

    The span-local step always uses CFM1, the refinement always the shipped
    CFM4: its nonlinearity coefficient on the link planned with the
    span-local plan, to whose refined first-span PSD that plan's CUT PSDs
    are then scaled.
    """
    (out,), min_abs_beta2 = _optimize_stack([link], [rng])
    check_dispersion(min_abs_beta2)
    return out
