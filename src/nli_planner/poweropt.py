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
                  rx_nli_psd)
from .perf import ase_power, span_ase_psd
from .types import CfmKind, ChannelSpec, LinkSpec, ModelVariant

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


def randomize_launch(channels: tuple[ChannelSpec, ...], cut_index: int,
                     rng: np.random.Generator) -> tuple[float, ...]:
    """Per-channel power multipliers, uniform in [0.7, 1.3]; 1 at the CUT.

    Drawn once and reused at every span.
    """
    xi = [float(rng.uniform(0.7, 1.3)) for _ in channels]
    xi[cut_index] = 1.0
    return tuple(xi)


def span_eta(link: LinkSpec, xi: tuple[float, ...]) -> np.ndarray:
    """Per-span CFM1 NLI PSD at unit CUT PSD, every channel's PSD tied to
    the CUT's through xi: the kernel on the link with powers xi * R."""
    tied = tuple(ch.with_powers([x * ch.symbol_rate] * link.n_spans)
                 for x, ch in zip(xi, link.channels))
    terms = nli_terms(replace(link, channels=tied),
                      assets.model(CfmKind.CFM1), rows=link.cut_index)
    check_dispersion(terms.min_abs_beta2)
    return terms.base[:, 0]


def logo_optimize(link: LinkSpec,
                  xi: tuple[float, ...] | None = None) -> tuple[float, ...]:
    """Span-local optimal CUT PSDs: the stationary point where each span's
    ASE PSD equals twice its NLI PSD."""
    if xi is None:
        xi = tuple(1.0 for _ in link.channels)
    f_cut = link.cut.f_center
    out = []
    for span, eta in zip(link.spans, span_eta(link, xi).tolist()):
        if eta <= 0.0:
            warnings.warn("span produces no NLI; launch PSD capped",
                          stacklevel=2)
            out.append(PSD_CEILING_W_PER_THZ)
        else:
            ase = span_ase_psd(span, f_cut)
            out.append((ase / (2.0 * eta)) ** (1.0 / 3.0))
    return tuple(out)


def apply_power_plan(link: LinkSpec, plan: PowerPlan) -> LinkSpec:
    """Set per-span channel powers from the plan and re-derive the lumped
    gains that realize the per-span CUT PSD profile on a transparent link."""
    g = plan.g_cut_per_span
    channels = tuple(
        ch.with_powers([plan.xi[idx] * g[n] * ch.symbol_rate
                        for n in range(link.n_spans)])
        for idx, ch in enumerate(link.channels))
    new_spans = []
    for n, span in enumerate(link.spans):
        gain_db = span.fiber.alpha_db_per_km * span.length_km
        if n + 1 < link.n_spans:
            gain_db += 10.0 * math.log10(g[n + 1] / g[n])
        new_spans.append(replace(span, gain_db=gain_db))
    return replace(link, spans=tuple(new_spans), channels=channels)


def eta_nli(link: LinkSpec, variant: ModelVariant) -> float:
    """Link nonlinearity coefficient: Rx NLI PSD normalized by the cube of
    the first-span CUT PSD.  Invariant under uniform power scaling."""
    g1 = link.cut.psd(0)
    return rx_nli_psd(link, variant, link.n_spans) / g1 ** 3


def refine_cut_launch(link: LinkSpec, eta: float) -> float:
    """Closed-form first-span CUT PSD maximizing the receiver SNR."""
    if eta <= 0.0:
        raise ValueError("eta must be > 0")
    g_ase_rx = ase_power(link, link.n_spans) / link.cut.symbol_rate
    return (g_ase_rx / (2.0 * eta)) ** (1.0 / 3.0)


@one_low_dispersion_warning
def optimize_powers(link: LinkSpec, rng: np.random.Generator,
                    variant: ModelVariant | None = None
                    ) -> tuple[LinkSpec, PowerPlan]:
    """Full pipeline: xi randomization, span-local optimization, then the
    cubic-model refinement of the CUT launch.

    The span-local step always uses CFM1; the refinement uses ``variant``
    (shipped CFM4 by default).
    """
    if variant is None:
        variant = assets.model(CfmKind.CFM4)
    xi = randomize_launch(link.channels, link.cut_index, rng)
    g = logo_optimize(link, xi)
    plan = PowerPlan(g_cut_per_span=g, xi=xi)
    staged = apply_power_plan(link, plan)
    eta = eta_nli(staged, variant)
    g_opt = refine_cut_launch(staged, eta)
    plan = replace(plan.scaled(g_opt / g[0]), eta_nli=eta)
    return apply_power_plan(link, plan), plan
