"""Multi-system evaluation campaigns, the span-increment diagnostic, and the
coefficient-fitting pipeline.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import assets
# rx_nli_psd is imported for callers that time calls through this module's
# names (bench/tracing.py); the benchmarks here read whole truncation vectors.
from .cfm import (coherence_bracket, comb_arrays, effective_beta2_cut,
                  one_low_dispersion_warning, propagate, rho_cross, rho_self,
                  rx_nli_psd, rx_nli_psd_truncations, span_integrals,
                  span_transfer)
from .oracle import QuadratureConfig, gn_span_psd
from .perf import (SensitivityPolicy, UnreachableError, ase_power,
                   cut_rx_power, max_reach_scan, snr, snr_from_powers)
from .poweropt import optimize_powers
from .sysgen import LOW_DISPERSION_FLAG, GeneratorConfig, generate_system
from .types import CfmKind, LinkSpec, ModelCoefficients, ModelVariant


# ---------------------------------------------------------------------------
# Benchmarks


class _LastLinkBenchmark:
    """A reference model that computes the CUT's receiver NLI PSD of every
    truncation of a link at once.

    Campaigns and fits ask about every truncation of one link before moving
    to the next, so one slot holding the last link, matched by identity,
    serves every repeat.
    """

    def __init__(self) -> None:
        self._link: LinkSpec | None = None
        self._psds: np.ndarray | None = None

    def _rx_psds(self, link: LinkSpec) -> np.ndarray:
        raise NotImplementedError

    def rx_psd(self, link: LinkSpec, n_end: int) -> float:
        if not 1 <= n_end <= link.n_spans:
            raise ValueError("n_end out of range")
        if link is not self._link:
            self._psds = self._rx_psds(link)
            self._link = link
        return float(self._psds[n_end - 1])

    def nli_power_w(self, link: LinkSpec, n_end: int) -> float:
        return self.rx_psd(link, n_end) * link.cut.symbol_rate

    def snr_db(self, link: LinkSpec, n_end: int) -> float:
        return float(snr_from_powers(cut_rx_power(link, n_end),
                                     ase_power(link, n_end),
                                     self.nli_power_w(link, n_end)))


class CfmBenchmark(_LastLinkBenchmark):
    """A closed-form variant used as reference model."""

    def __init__(self, variant: ModelVariant):
        super().__init__()
        self.variant = variant
        self.name = variant.kind.value

    def _rx_psds(self, link: LinkSpec) -> np.ndarray:
        return rx_nli_psd_truncations(link, self.variant)


class GnOracleBenchmark(_LastLinkBenchmark):
    """2-D quadrature GN model with incoherent span accumulation: one
    quadrature per span of a link, whatever truncations are asked for."""

    name = "gn-oracle"

    def __init__(self, quad: QuadratureConfig | None = None):
        super().__init__()
        self.quad = quad or QuadratureConfig()

    def _rx_psds(self, link: LinkSpec) -> np.ndarray:
        f_cut = link.cut.f_center
        return propagate(span_transfer(link), [
            gn_span_psd(link.spans[n], link.channels, f_cut, self.quad,
                        span_index=n)
            for n in range(link.n_spans)])


# ---------------------------------------------------------------------------
# Error statistics


@dataclass(frozen=True)
class ErrorStats:
    mean: float
    std_dev: float
    peak: float  # max |error|
    peak_to_peak: float
    n_samples: int
    bin_width: float
    bin_edges: tuple[float, ...]
    bin_counts: tuple[int, ...]


def error_stats(samples: list[float], bin_width: float = 0.02) -> ErrorStats:
    """Mean / population std / peak / peak-to-peak of dB errors, with a
    fixed-width histogram aligned on multiples of the bin width."""
    if not samples:
        raise ValueError("error_stats requires at least one sample")
    if bin_width <= 0:
        raise ValueError("bin width must be > 0")
    x = np.asarray(samples, dtype=float)
    lo = math.floor(x.min() / bin_width) * bin_width
    hi = math.ceil(x.max() / bin_width) * bin_width
    nbins = max(1, round((hi - lo) / bin_width))
    counts, edges = np.histogram(x, bins=nbins, range=(lo, lo + nbins * bin_width))
    return ErrorStats(mean=float(x.mean()), std_dev=float(x.std()),
                      peak=float(np.abs(x).max()),
                      peak_to_peak=float(x.max() - x.min()),
                      n_samples=len(x), bin_width=bin_width,
                      bin_edges=tuple(float(e) for e in edges),
                      bin_counts=tuple(int(c) for c in counts))


# ---------------------------------------------------------------------------
# Campaigns


@dataclass(frozen=True)
class SystemDraw:
    """Which randomized systems a campaign or a fit draws.

    Attempt k generates its system from an RNG seeded with ``[seed, k]``; the
    category and CUT position rotate through ``categories`` x
    ``cut_positions`` over the kept systems.
    """

    n_systems: int = 100
    categories: tuple[int, ...] = (1,)
    cut_positions: tuple[str, ...] = ("center",)
    seed: int = 0
    # Generator overrides (paper values by default; shrink for desk runs).
    band_width_thz: float = 5.0
    n_spans: int = 20
    nf_mode: str = "mixed"
    # Exclude systems whose CUT dips below the closed-form validity bound.
    exclude_low_dispersion: bool = True

    def __post_init__(self) -> None:
        if self.n_systems < 1:
            raise ValueError("n_systems must be >= 1")
        if not self.categories:
            raise ValueError("categories must not be empty")
        if not self.cut_positions:
            raise ValueError("cut_positions must not be empty")


UNREACHABLE = "unreachable"


@dataclass(frozen=True)
class DrawnSystem:
    """One attempt of a draw.  A kept system has the power-optimized link
    and the benchmark's max reach in spans.  An excluded one has ``reach``
    None and ``excluded`` set to ``LOW_DISPERSION_FLAG`` (the link as
    generated) or ``UNREACHABLE`` (the power-optimized link)."""

    attempt: int
    cut_position: str
    link: LinkSpec
    reach: int | None
    excluded: str | None


def draw_systems(draw: SystemDraw, benchmark,
                 policy: SensitivityPolicy | None = None
                 ) -> Iterator[DrawnSystem]:
    """Generate, screen, power-optimize and reach-scan systems, yielding
    every attempt, until ``draw.n_systems`` systems were kept.

    A system is kept when the benchmark reaches the drawn sensitivity
    threshold after at least one span.
    """
    policy = policy or SensitivityPolicy.default()
    mixes = [(cat, pos) for cat in draw.categories
             for pos in draw.cut_positions]
    kept = 0
    attempt = 0
    while kept < draw.n_systems:
        cat, pos = mixes[kept % len(mixes)]
        attempt += 1
        rng = np.random.default_rng([draw.seed, attempt])
        gen = GeneratorConfig(category=cat, cut_position=pos,
                              band_width=draw.band_width_thz,
                              n_spans=draw.n_spans, nf_mode=draw.nf_mode,
                              seed=draw.seed)
        link = generate_system(gen, rng)
        if draw.exclude_low_dispersion and LOW_DISPERSION_FLAG in link.flags:
            yield DrawnSystem(attempt, pos, link, None, LOW_DISPERSION_FLAG)
            continue
        link, _plan = optimize_powers(link, rng)
        threshold = policy.threshold_db(link.cut.format, rng)
        try:
            reach = max_reach_scan(lambda n: benchmark.snr_db(link, n),
                                   link.n_spans, threshold)
        except UnreachableError:
            yield DrawnSystem(attempt, pos, link, None, UNREACHABLE)
            continue
        kept += 1
        yield DrawnSystem(attempt, pos, link, reach.max_reach_spans, None)


@dataclass(frozen=True)
class CampaignConfig(SystemDraw):
    variants: tuple[CfmKind, ...] = (CfmKind.CFM1,)
    bin_width_db: float = 0.02

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.bin_width_db <= 0:
            raise ValueError("bin width must be > 0")


@dataclass(frozen=True)
class CampaignResult:
    stats: dict[tuple[str, str], ErrorStats]  # (variant, cut_position)
    n_evaluated: int
    n_excluded_low_dispersion: int
    n_excluded_unreachable: int
    seeds_used: tuple[int, ...]


@one_low_dispersion_warning
def run_campaign(cfg: CampaignConfig, benchmark,
                 policy: SensitivityPolicy | None = None) -> CampaignResult:
    """Score the variants against a benchmark on the drawn systems.

    Each system's SNR error is measured at the benchmark's max reach; the
    excluded attempts are counted by reason.
    """
    models = [assets.model(k) for k in cfg.variants]
    samples: dict[tuple[str, str], list[float]] = {
        (m.kind.value, pos): [] for m in models for pos in cfg.cut_positions}
    excluded: Counter[str] = Counter()
    seeds = []
    for d in draw_systems(cfg, benchmark, policy):
        if d.excluded is not None:
            excluded[d.excluded] += 1
            continue
        bmk_snr = benchmark.snr_db(d.link, d.reach)
        for model in models:
            samples[(model.kind.value, d.cut_position)].append(
                snr(d.link, model, d.reach) - bmk_snr)
        seeds.append(d.attempt)

    stats = {key: error_stats(vals, cfg.bin_width_db)
             for key, vals in samples.items() if vals}
    return CampaignResult(
        stats=stats, n_evaluated=len(seeds),
        n_excluded_low_dispersion=excluded[LOW_DISPERSION_FLAG],
        n_excluded_unreachable=excluded[UNREACHABLE], seeds_used=tuple(seeds))


# ---------------------------------------------------------------------------
# Span-increment diagnostic


@one_low_dispersion_warning
def span_increment_ratio(link: LinkSpec, model_a, model_b
                         ) -> list[tuple[float, float]]:
    """Per-span ratio of accumulated-NLI increments of two models.

    Returns (|accumulated dispersion at span start|, increment ratio) pairs;
    spans with a vanishing denominator increment are skipped.
    """
    if link.n_spans < 2:
        raise ValueError("diagnostic needs at least two spans")
    f_cut = link.cut.f_center
    acc = np.cumsum([0.0] + [effective_beta2_cut(s.fiber, f_cut) * s.length_km
                             for s in link.spans[:-1]])
    out = []
    prev_a, prev_b = 0.0, 0.0
    for n in range(1, link.n_spans + 1):
        cur_a = model_a.rx_psd(link, n)
        cur_b = model_b.rx_psd(link, n)
        da, db = cur_a - prev_a, cur_b - prev_b
        prev_a, prev_b = cur_a, cur_b
        if db == 0.0:
            continue
        out.append((abs(float(acc[n - 1])), da / db))
    return out


# ---------------------------------------------------------------------------
# Coefficient fitting


@dataclass(frozen=True)
class FitConfig(SystemDraw):
    n_systems: int = 50
    seed: int = 1000
    max_iterations: int = 4000
    n_restarts: int = 1
    initial: ModelCoefficients | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.n_restarts < 0:
            raise ValueError("n_restarts must be >= 0")


@dataclass(frozen=True)
class FitResult:
    kind: CfmKind
    coefficients: ModelCoefficients
    cost_initial: float
    cost_final: float
    improved: bool
    n_terms: int
    train_seeds: tuple[int, ...]

    @property
    def variant(self) -> ModelVariant:
        return ModelVariant(kind=self.kind, coefficients=self.coefficients)


class _FitData:
    """Precomputed coefficient-independent structure of the training cost.

    For each system, from the kernel's span integrals of the CUT row: the
    self-term bases of every span and the cross-term base of every active
    interferer and span, each propagated to every truncation and divided by
    the benchmark NLI power there (``sci``, ``xci``: [truncation, term]),
    plus the features the correction factors read.  A model then matches
    the benchmark exactly when ``sci @ rho_self + xci @ rho_cross`` is one.
    """

    def __init__(self, kind: CfmKind):
        self.kind = kind
        self.systems: list[dict] = []

    def add_system(self, link: LinkSpec, reach: int, p_bmk: np.ndarray) -> None:
        ch = comb_arrays(link)
        c = link.cut_index
        g = ch.power / ch.rate
        idx = np.flatnonzero(ch.active & (np.arange(len(ch.f)) != c))
        sci_inc, sci_coh, sci_acc = np.zeros((3, reach))
        xb, xacc = [], []
        for m, s in zip(range(reach), span_integrals(link, ch)):
            base = s.prefactor * g[m, c]
            sci_inc[m] = base * g[m, c] ** 2 * s.i_self[c]
            if self.kind.coherent_sci:
                sci_coh[m] = base * g[m, c] ** 2 * s.i_coherent[c]
            sci_acc[m] = s.abs_acc[c, c]
            xb.append(base * 2.0 * g[m, idx] ** 2 * s.i_cross[c, idx])
            xacc.append(s.abs_acc[c, idx])
        span_of_x = np.repeat(np.arange(reach), idx.size)
        xidx = np.tile(idx, reach)
        brackets = np.array([coherence_bracket(n) for n in range(1, reach + 1)])
        # [truncation, span] propagation, in units of the benchmark power.
        prop = (propagate(span_transfer(link)[:reach], np.eye(reach))
                * (ch.rate[c] / p_bmk)[:, None])
        self.systems.append({
            "sci": prop * (sci_inc + brackets[:, None] * sci_coh),
            "xci": prop[:, span_of_x] * np.concatenate(xb),
            "rate": ch.rate[c], "phi_cut": ch.phi[c], "roll_cut": ch.roll[c],
            "sci_acc": sci_acc, "xphi": ch.phi[xidx],
            "xacc": np.concatenate(xacc), "xroll": ch.roll[xidx],
            "m_count": reach,
        })

    def cost(self, a: np.ndarray) -> float:
        """Sum over systems and truncations of the squared relative
        NLI-power error.

        Wild simplex trial points can overflow to inf/NaN; those propagate
        into a non-finite cost, which the optimizer treats as arbitrarily bad.
        """
        kind = self.kind
        total = 0.0
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            for s in self.systems:
                rho_x = rho_cross(kind, a, s["xphi"], s["roll_cut"],
                                  s["xroll"])(s["xacc"])
                rho_c = rho_self(kind, a, s["phi_cut"], s["rate"],
                                 s["roll_cut"])(s["sci_acc"])
                rel = s["sci"] @ rho_c + s["xci"] @ rho_x - 1.0
                total += float(rel @ rel)
        return total

    @property
    def n_terms(self) -> int:
        return sum(s["m_count"] for s in self.systems)


@one_low_dispersion_warning
def build_fit_data(fit: FitConfig, kind: CfmKind, benchmark,
                   policy: SensitivityPolicy | None = None
                   ) -> tuple[_FitData, tuple[int, ...]]:
    """Draw the training systems and precompute the cost structure."""
    data = _FitData(kind)
    seeds = []
    for d in draw_systems(fit, benchmark, policy):
        if d.excluded is None:
            p_bmk = np.array([benchmark.nli_power_w(d.link, n)
                              for n in range(1, d.reach + 1)])
            data.add_system(d.link, d.reach, p_bmk)
            seeds.append(d.attempt)
    return data, tuple(seeds)


def fit_coefficients(fit: FitConfig, kind: CfmKind, benchmark,
                     policy: SensitivityPolicy | None = None) -> FitResult:
    """Minimize the summed relative NLI-power error over the free parameters.

    Derivative-free local search (Nelder-Mead) from the shipped table, the
    identity point and optional perturbed restarts; the result never has a
    higher cost than the initial point.
    """
    if kind is CfmKind.CFM1:
        raise ValueError("CFM1 has no free parameters to fit")
    data, seeds = build_fit_data(fit, kind, benchmark, policy)
    initial = fit.initial or assets.shipped_coefficients(kind)
    x0 = np.array(initial.a)
    cost0 = data.cost(x0)

    starts = [x0, np.array(assets.identity_coefficients(kind).a)]
    rng = np.random.default_rng(fit.seed + 17)
    for _ in range(fit.n_restarts):
        starts.append(starts[1] * (1.0 + 0.05 * rng.standard_normal(len(x0))))

    best_x, best_cost = x0, cost0
    for start in starts:
        res = minimize(data.cost, start, method="Nelder-Mead",
                       options={"maxiter": fit.max_iterations,
                                "xatol": 1e-8, "fatol": 1e-12})
        if res.fun < best_cost:
            best_x, best_cost = res.x, res.fun

    improved = best_cost < cost0
    coeffs = ModelCoefficients(a=tuple(float(v) for v in
                                       (best_x if improved else x0)))
    return FitResult(kind=kind, coefficients=coeffs, cost_initial=cost0,
                     cost_final=min(best_cost, cost0), improved=improved,
                     n_terms=data.n_terms, train_seeds=seeds)
