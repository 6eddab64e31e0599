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
from .cfm import (CombArrays, check_dispersion, comb_arrays, comb_nli_terms,
                  one_low_dispersion_warning)
from .perf import ase_power, span_ase_psd
from .types import CfmKind, ChannelSpec, LinkSpec, ModelVariant, SpanConfig

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


def randomize_launch(channels: tuple[ChannelSpec, ...], cut_index: int,
                     rng: np.random.Generator) -> tuple[float, ...]:
    """Per-channel power multipliers, uniform in [0.7, 1.3]; 1 at the CUT.

    Drawn once and reused at every span.
    """
    xi = rng.uniform(0.7, 1.3, size=len(channels)).tolist()
    xi[cut_index] = 1.0
    return tuple(xi)


def _tied_power(link: LinkSpec, xi, g) -> np.ndarray:
    """Launch power ``[span, channel]`` for the PSD ``xi[i] * g[n]`` of
    channel ``i`` at span ``n``: every channel's PSD tied to the CUT's."""
    rate = np.array([ch.symbol_rate for ch in link.channels])
    return np.multiply.outer(g, xi) * rate


def span_eta(link: LinkSpec, xi: tuple[float, ...]) -> np.ndarray:
    """Per-span CFM1 NLI PSD at unit CUT PSD, every channel's PSD tied to
    the CUT's through xi: the kernel on the link with powers xi * R."""
    unit = comb_arrays(link, _tied_power(link, xi, np.ones(link.n_spans)))
    terms = comb_nli_terms(link, unit, assets.model(CfmKind.CFM1),
                           rows=link.cut_index)
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


def _planned_spans(link: LinkSpec, g) -> tuple[SpanConfig, ...]:
    """The link's spans with the lumped gains that realize the CUT PSD
    profile ``g`` on a transparent link."""
    new_spans = []
    for n, span in enumerate(link.spans):
        gain_db = span.fiber.alpha_db_per_km * span.length_km
        if n + 1 < link.n_spans:
            gain_db += 10.0 * math.log10(g[n + 1] / g[n])
        new_spans.append(SpanConfig(span.fiber, span.length_km, gain_db,
                                    span.noise_figure_db))
    return tuple(new_spans)


def apply_power_plan(link: LinkSpec, plan: PowerPlan) -> LinkSpec:
    """Set per-span channel powers from the plan and re-derive the lumped
    gains that realize the per-span CUT PSD profile on a transparent link."""
    g = plan.g_cut_per_span
    powers = _tied_power(link, plan.xi, g).T.tolist()
    channels = tuple(ch.with_powers(p)
                     for ch, p in zip(link.channels, powers))
    return replace(link, spans=_planned_spans(link, g), channels=channels)


def _eta(link: LinkSpec, ch: CombArrays, variant: ModelVariant) -> float:
    """:func:`eta_nli` of the link's spans with the channels ``ch``."""
    c = link.cut_index
    terms = comb_nli_terms(link, ch, variant, rows=c)
    check_dispersion(terms.min_abs_beta2)
    g1 = float(ch.power[0, c] / ch.rate[c])
    return float(terms.rx_psd()[-1, 0]) / g1 ** 3


def eta_nli(link: LinkSpec, variant: ModelVariant) -> float:
    """Link nonlinearity coefficient: Rx NLI PSD normalized by the cube of
    the first-span CUT PSD.  Invariant under uniform power scaling."""
    return _eta(link, comb_arrays(link), variant)


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
    # The link with the span-local plan applied, its powers kept as arrays.
    staged = replace(link, spans=_planned_spans(link, g))
    eta = _eta(staged, comb_arrays(link, _tied_power(link, xi, g)), variant)
    g_opt = refine_cut_launch(staged, eta)
    plan = replace(plan.scaled(g_opt / g[0]), eta_nli=eta)
    return apply_power_plan(link, plan), plan
