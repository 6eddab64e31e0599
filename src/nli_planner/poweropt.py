"""Launch-power setting: per-channel randomization, span-local optimization
and the final cubic-model refinement of the CUT launch PSD.

All channel PSDs are tied to the CUT PSD through fixed multipliers, so the
receiver NLI PSD is a cubic function of the CUT launch PSD and both the
span-local and the link-level optima have closed forms (ASE = 2 NLI).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import assets
from .cfm import (check_dispersion, nli_terms, one_low_dispersion_warning,
                  rx_nli_psds)
from .perf import ase_power, span_ase_psds
from .types import CfmKind, LinkSpec, ModelVariant, SpanArrays

# Only for bench/tracing.py's LAYERS to patch here; nothing here calls it.
from .cfm import rx_nli_psd

# Fallback CUT PSD (W/THz) when a span produces no NLI and the span-local
# optimum is unbounded.
PSD_CEILING_W_PER_THZ = 0.1


@dataclass(frozen=True)
class PowerPlan:
    """Per-span CUT launch PSD plus the per-channel multipliers."""

    g_cut_per_span: tuple[float, ...]
    xi: tuple[float, ...]  # per channel index; 1.0 at the CUT
    eta_nli: float | None = None

    def scaled(self, factor: float) -> "PowerPlan":
        return replace(self, g_cut_per_span=tuple(
            g * factor for g in self.g_cut_per_span))


def randomize_launch(link: LinkSpec,
                     rng: np.random.Generator) -> tuple[float, ...]:
    """Per-channel power multipliers, uniform in [0.7, 1.3]; 1 at the CUT.

    Drawn once and reused at every span.
    """
    xi = rng.uniform(0.7, 1.3, size=len(link.comb.f)).tolist()
    xi[link.cut_index] = 1.0
    return tuple(xi)


def _tied_power(link: LinkSpec, xi, g) -> np.ndarray:
    """Launch power ``[span, channel]`` for the PSD ``xi[i] * g[n]`` of
    channel ``i`` at span ``n``: every channel's PSD tied to the CUT's."""
    return np.multiply.outer(g, xi) * link.comb.rate


def span_eta(link: LinkSpec, xi: tuple[float, ...]) -> np.ndarray:
    """Per-span CFM1 NLI PSD at unit CUT PSD, every channel's PSD tied to
    the CUT's through xi: the kernel on the link with powers xi * R."""
    unit = link.comb.with_power(_tied_power(link, xi, np.ones(link.n_spans)))
    terms = nli_terms(replace(link, comb=unit), assets.model(CfmKind.CFM1),
                      rows=link.cut_index)
    check_dispersion(terms.min_abs_beta2)
    return terms.base[:, 0]


def logo_optimize(link: LinkSpec,
                  xi: tuple[float, ...] | None = None) -> tuple[float, ...]:
    """Span-local optimal CUT PSDs: the stationary point where each span's
    ASE PSD equals twice its NLI PSD."""
    if xi is None:
        xi = (1.0,) * len(link.comb.f)
    ase = span_ase_psds(link, link.comb.f[link.cut_index]).tolist()
    out = []
    for a, eta in zip(ase, span_eta(link, xi).tolist()):
        if eta <= 0.0:
            warnings.warn("span produces no NLI; launch PSD capped",
                          stacklevel=2)
            out.append(PSD_CEILING_W_PER_THZ)
        else:
            out.append((a / (2.0 * eta)) ** (1.0 / 3.0))
    return tuple(out)


def _planned_spans(link: LinkSpec, g) -> SpanArrays:
    """The link's spans with the lumped gains that realize the CUT PSD
    profile ``g`` on a transparent link."""
    s = link.span_arrays
    gain_db = [s.fibers[k].alpha_db_per_km * length
               for k, length in zip(s.fiber.tolist(), s.length.tolist())]
    for n in range(link.n_spans - 1):
        gain_db[n] += 10.0 * math.log10(g[n + 1] / g[n])
    return s.with_gains(gain_db)


def apply_power_plan(link: LinkSpec, plan: PowerPlan) -> LinkSpec:
    """Set per-span channel powers from the plan and re-derive the lumped
    gains that realize the per-span CUT PSD profile on a transparent link;
    every other column is the link's."""
    g = plan.g_cut_per_span
    comb = link.comb.with_power(_tied_power(link, plan.xi, g))
    return replace(link, comb=comb, span_arrays=_planned_spans(link, g))


def eta_nli(link: LinkSpec, variant: ModelVariant) -> float:
    """Link nonlinearity coefficient: Rx NLI PSD normalized by the cube of
    the first-span CUT PSD.  Invariant under uniform power scaling."""
    c, ch = link.cut_index, link.comb
    g1 = float(ch.power[0, c] / ch.rate[c])
    return float(rx_nli_psds(link, variant, c)[-1, 0]) / g1 ** 3


def refine_cut_launch(link: LinkSpec, eta: float) -> float:
    """Closed-form first-span CUT PSD maximizing the receiver SNR."""
    if eta <= 0.0:
        raise ValueError("eta must be > 0")
    g_ase_rx = ase_power(link, link.n_spans) / float(
        link.comb.rate[link.cut_index])
    return (g_ase_rx / (2.0 * eta)) ** (1.0 / 3.0)


@one_low_dispersion_warning
def optimize_powers(link: LinkSpec, rng: np.random.Generator,
                    variant: ModelVariant | None = None
                    ) -> tuple[LinkSpec, PowerPlan]:
    """Full pipeline: xi randomization, span-local optimization, then the
    cubic-model refinement of the CUT launch.

    The span-local step always uses CFM1.  The refinement reads the
    :func:`eta_nli` of ``variant`` (shipped CFM4 by default) on the link
    planned with the span-local plan, then scales that plan's CUT PSDs to
    the refined first-span PSD.
    """
    if variant is None:
        variant = assets.model(CfmKind.CFM4)
    xi = randomize_launch(link, rng)
    g = logo_optimize(link, xi)
    plan = PowerPlan(g_cut_per_span=g, xi=xi)
    staged = apply_power_plan(link, plan)
    eta = eta_nli(staged, variant)
    g_opt = refine_cut_launch(staged, eta)
    plan = replace(plan.scaled(g_opt / g[0]), eta_nli=eta)
    return apply_power_plan(link, plan), plan
