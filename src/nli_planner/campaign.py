"""Multi-system evaluation campaigns, the span-increment diagnostic, and the
coefficient-fitting pipeline, whose residual and Jacobian read the
correction factors and their partials from ``cfm``.

:func:`draw_systems` screens attempts one at a time and plans and scores
the screened-in ones in blocks of up to :data:`BLOCK_SIZE`: one stacked
planning call (``poweropt._optimize_stack``) and, for a closed-form
benchmark, one stacked kernel pass per block.  Each drawn system carries
the benchmark's CUT report, which campaigns and fits read instead of
asking again.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from . import assets
from .cfm import (RHO_LAYOUT, _check_n_end, check_dispersion,
                  coherence_brackets, nli_terms, one_low_dispersion_warning,
                  propagate, rho_cross, rho_partials, rho_self, rx_nli_psds,
                  span_integrals)
from .oracle import QuadratureConfig, QuadratureStats, gn_span_psds
from .perf import (LinkReport, SensitivityPolicy, UnreachableError,
                   link_report, max_reach_scan)
from .poweropt import _optimize_stack
from .sysgen import LOW_DISPERSION_FLAG, GeneratorConfig, draw_system
from .types import (FORMATS, CfmKind, LinkSpec, LinkStack, ModelCoefficients,
                    ModelVariant, check_integers)

# Only for bench/tracing.py (LAYERS, minimize) to patch; nothing calls them.
from scipy.optimize import minimize
from .cfm import rx_nli_psd
from .oracle import gn_span_psd
from .perf import ase_power, snr
from .poweropt import optimize_powers
from .sysgen import generate_system

# Screened-in attempts planned and scored together by draw_systems.
BLOCK_SIZE = 16


def _report_of_row(report: LinkReport, j: int) -> LinkReport:
    """Row ``j`` of a report of many rows, as a report of one."""
    return LinkReport(*(a[:, j:j + 1] for a in (
        report.snr_db, report.p_nli_w, report.p_ase_w, report.p_rx_w)))


# ---------------------------------------------------------------------------
# Benchmarks


class _LastLinkBenchmark:
    """A reference model that computes the CUT's receiver NLI PSD of every
    truncation of a link at once, and the link's report from it.

    Campaigns and fits ask about every truncation of one link before moving
    to the next, so one slot holding the last link, matched by identity,
    serves every repeat.
    """

    def __init__(self) -> None:
        self._link: LinkSpec | None = None
        self._last = None  # the link's rx PSDs and report

    def _rx_psds(self, link: LinkSpec) -> np.ndarray:
        """The CUT's receiver NLI PSD (W/THz) as ``[truncation, 1]``."""
        raise NotImplementedError

    def _read(self, link: LinkSpec, n_end: int):
        _check_n_end(link, n_end)
        if link is not self._link:
            psds = self._rx_psds(link)
            self._last = psds, link_report(link.stack, psds)
            self._link = link
        return self._last

    def rx_psd(self, link: LinkSpec, n_end: int) -> float:
        return float(self._read(link, n_end)[0][n_end - 1, 0])

    def nli_power_w(self, link: LinkSpec, n_end: int) -> float:
        return float(self._read(link, n_end)[1].p_nli_w[n_end - 1, 0])

    def snr_db(self, link: LinkSpec, n_end: int) -> float:
        return float(self._read(link, n_end)[1].snr_db[n_end - 1, 0])

    def cut_reports(self, links: Sequence[LinkSpec]
                    ) -> Iterator[LinkReport]:
        """The CUT report of every truncation of each link, in order,
        computed as each is read."""
        for link in links:
            yield self._read(link, 1)[1]


class CfmBenchmark(_LastLinkBenchmark):
    """A closed-form variant used as reference model."""

    def __init__(self, variant: ModelVariant):
        super().__init__()
        self.variant = variant
        self.name = variant.kind.value

    def _rx_psds(self, link: LinkSpec) -> np.ndarray:
        return rx_nli_psds(link.stack, self.variant)

    def cut_reports(self, links: Sequence[LinkSpec]
                    ) -> Iterator[LinkReport]:
        """The CUT report of every truncation of each link, from one kernel
        pass over their stack made now.  It applies no low-dispersion
        policy: the caller checks the links it uses."""
        stack = LinkStack.of(links)
        report = link_report(stack, nli_terms(stack, self.variant).rx_psd())
        return iter([_report_of_row(report, j) for j in range(len(links))])


class GnOracleBenchmark(_LastLinkBenchmark):
    """2-D quadrature GN model with incoherent span accumulation: one
    quadrature per span of a link, whatever truncations are asked for.
    ``last_stats`` holds how each span of the last link converged."""

    name = "gn-oracle"

    def __init__(self, quad: QuadratureConfig | None = None):
        super().__init__()
        self.quad = quad or QuadratureConfig()
        self.last_stats: tuple[QuadratureStats, ...] = ()

    def _rx_psds(self, link: LinkSpec) -> np.ndarray:
        psds, self.last_stats = gn_span_psds(
            link, float(link.comb.f[link.cut_index]), self.quad)
        return propagate(link.span_arrays.transfer, psds)[:, None]


# ---------------------------------------------------------------------------
# Error statistics


# The most bins a histogram may have (8 MB of edges): a width far finer
# than the errors' spread asks for gigabytes, or more than NumPy can hold.
MAX_HISTOGRAM_BINS = 1_000_000


def _check_bin_width(bin_width: float) -> None:
    if not 0.0 < bin_width < math.inf:
        raise ValueError("bin width must be finite and > 0")


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
    _check_bin_width(bin_width)
    x = np.asarray(samples, dtype=float)
    # Counted before any edge is made; samples too large for edges on
    # multiples of the width count as infinitely many.
    with np.errstate(over="ignore", invalid="ignore"):
        need = np.nan_to_num(np.ceil(x.max() / bin_width)
                             - np.floor(x.min() / bin_width), nan=np.inf)
    if not need <= MAX_HISTOGRAM_BINS:
        raise ValueError(f"a {bin_width:g}-dB bin width needs {need:.3g} "
                         f"histogram bins, more than {MAX_HISTOGRAM_BINS}")
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

    def __post_init__(self) -> None:
        check_integers(self, "n_systems", "seed", "n_spans")
        if self.n_systems < 1:
            raise ValueError("n_systems must be >= 1")
        if not self.categories:
            raise ValueError("categories must not be empty")
        if not self.cut_positions:
            raise ValueError("cut_positions must not be empty")


UNREACHABLE = "unreachable"


@dataclass(frozen=True)
class DrawnSystem:
    """One attempt of a draw.  A kept system has the power-optimized link,
    the benchmark's max reach in spans and its CUT report of every
    truncation.  An excluded one has ``reach`` None and ``excluded`` set to
    ``LOW_DISPERSION_FLAG``, with ``link`` and ``report`` None since the
    attempt was screened before its link was built, or ``UNREACHABLE``,
    with the power-optimized link and its report."""

    attempt: int
    category: int
    cut_position: str
    link: LinkSpec | None
    reach: int | None
    excluded: str | None
    report: LinkReport | None = field(default=None, compare=False,
                                      repr=False)


@dataclass(frozen=True)
class DrawCounts:
    """How many attempts a draw made for one (category, CUT position), and
    how many of them it excluded, by reason."""

    category: int
    cut_position: str
    attempts: int
    excluded_low_dispersion: int
    excluded_unreachable: int


def draw_systems(draw: SystemDraw, benchmark) -> Iterator[DrawnSystem]:
    """Draw, screen, build, power-optimize and reach-scan systems,
    yielding every attempt, until ``draw.n_systems`` systems were kept.

    A system is kept when its CUT stays above the closed-form validity
    bound and the benchmark reaches the drawn sensitivity threshold after
    at least one span.  The bound is screened on the attempt's draws, so
    an attempt that fails it builds no link.

    Attempts are screened one at a time, and the screened-in ones planned
    and scored in blocks of up to :data:`BLOCK_SIZE` (no more than the
    systems still to keep), each assumed kept.  When one is unreachable,
    the attempts after it drew for the wrong category and CUT position:
    they are dropped unseen, and the draw resumes after it.  A block that
    fails is planned again one attempt at a time, so an error, like each
    low-dispersion warning, comes from the attempt it belongs to.
    """
    policy = SensitivityPolicy.default()
    mixes = [(cat, pos, GeneratorConfig(
        category=cat, cut_position=pos, band_width=draw.band_width_thz,
        n_spans=draw.n_spans, seed=draw.seed))
        for cat in draw.categories for pos in draw.cut_positions]
    kept = 0
    attempt = 0
    one_by_one = 0  # attempts up to this one are planned alone
    while kept < draw.n_systems:
        size = (1 if attempt < one_by_one
                else min(BLOCK_SIZE, draw.n_systems - kept))
        block = []  # (attempt, category, position, built link, rng)
        n_in = 0
        while n_in < size:
            cat, pos, gen = mixes[(kept + n_in) % len(mixes)]
            attempt += 1
            rng = np.random.default_rng([draw.seed, attempt])
            drawn = draw_system(gen, rng)
            link = None if drawn.low_dispersion else drawn.build()
            block.append((attempt, cat, pos, link, rng))
            n_in += link is not None
        planned = None
        for att, cat, pos, link, rng in block:
            if link is None:
                yield DrawnSystem(att, cat, pos, None, None,
                                  LOW_DISPERSION_FLAG)
                continue
            if planned is None:
                try:
                    planned = _plan_block(block, benchmark)
                except Exception:
                    # Whichever attempt failed, planning the block's
                    # attempts alone raises it where the loop of one
                    # attempt at a time would.
                    if n_in == 1:
                        raise
                    attempt, one_by_one = att - 1, block[-1][0]
                    break
            link, min_abs_beta2 = next(planned[0])
            check_dispersion(min_abs_beta2)
            threshold = policy.threshold_db(
                FORMATS[link.comb.fmt[link.cut_index]], rng)
            report = next(planned[1])
            try:
                reach = max_reach_scan(lambda n: report.snr_db[n - 1, 0],
                                       link.n_spans, threshold)
            except UnreachableError:
                yield DrawnSystem(att, cat, pos, link, None, UNREACHABLE,
                                  report)
                attempt = att
                break
            kept += 1
            yield DrawnSystem(att, cat, pos, link, reach.max_reach_spans,
                              None, report)


def _plan_block(block, benchmark) -> tuple[Iterator, Iterator]:
    """Plan the screened-in attempts of a block as one stack, and ask the
    benchmark for their reports: iterators over each planned link with the
    smallest |beta2| of its CUT row, and over its report, in attempt
    order."""
    built = [(link, rng) for _att, _cat, _pos, link, rng in block
             if link is not None]
    planned, min_abs_beta2 = _optimize_stack(*zip(*built))
    links = [link for link, _plan in planned]
    return (zip(links, min_abs_beta2.tolist()),
            benchmark.cut_reports(links))


@dataclass(frozen=True)
class CampaignConfig(SystemDraw):
    variants: tuple[CfmKind, ...] = (CfmKind.CFM1,)
    bin_width_db: float = 0.02

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_bin_width(self.bin_width_db)


@dataclass(frozen=True)
class CampaignResult:
    stats: dict[tuple[str, str], ErrorStats]  # (variant, cut_position)
    n_evaluated: int
    n_excluded_low_dispersion: int
    n_excluded_unreachable: int
    seeds_used: tuple[int, ...]
    draws: tuple[DrawCounts, ...]  # per (category, CUT position)


@one_low_dispersion_warning
def run_campaign(cfg: CampaignConfig, benchmark) -> CampaignResult:
    """Score the variants against a benchmark on the drawn systems.

    Each system's SNR error is measured at the benchmark's max reach; the
    attempts and excluded attempts are counted by reason, in total and per
    (category, CUT position).  The variants score the kept systems in
    stacks of up to :data:`BLOCK_SIZE`, one kernel pass per stack.
    """
    models = [assets.model(k) for k in cfg.variants]
    samples: dict[tuple[str, str], list[float]] = {
        (m.kind.value, pos): [] for m in models for pos in cfg.cut_positions}
    attempts: Counter[tuple] = Counter()  # by (category, position)
    excluded: Counter[tuple] = Counter()  # by (category, position, reason)
    seeds = []
    block: list[DrawnSystem] = []

    def score() -> None:
        stack = LinkStack.of([d.link for d in block])
        for model in models:
            snr_db = link_report(stack, rx_nli_psds(stack, model)).snr_db
            for j, d in enumerate(block):
                samples[(model.kind.value, d.cut_position)].append(
                    float(snr_db[d.reach - 1, j])
                    - float(d.report.snr_db[d.reach - 1, 0]))
        seeds.extend(d.attempt for d in block)
        block.clear()

    for d in draw_systems(cfg, benchmark):
        attempts[d.category, d.cut_position] += 1
        if d.excluded is not None:
            excluded[d.category, d.cut_position, d.excluded] += 1
            continue
        block.append(d)
        if len(block) == BLOCK_SIZE:
            score()
    if block:
        score()

    stats = {key: error_stats(vals, cfg.bin_width_db)
             for key, vals in samples.items() if vals}
    draws = tuple(
        DrawCounts(cat, pos, attempts[cat, pos],
                   excluded[cat, pos, LOW_DISPERSION_FLAG],
                   excluded[cat, pos, UNREACHABLE])
        for cat, pos in dict.fromkeys((cat, pos) for cat in cfg.categories
                                      for pos in cfg.cut_positions))
    return CampaignResult(
        stats=stats, n_evaluated=len(seeds),
        n_excluded_low_dispersion=sum(d.excluded_low_dispersion
                                      for d in draws),
        n_excluded_unreachable=sum(d.excluded_unreachable for d in draws),
        seeds_used=tuple(seeds), draws=draws)


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
    c = link.cut_index
    acc = span_integrals(link.stack).abs_acc()[:, 0, c]
    out = []
    prev_a, prev_b = 0.0, 0.0
    for n in range(1, link.n_spans + 1):
        cur_a = model_a.rx_psd(link, n)
        cur_b = model_b.rx_psd(link, n)
        da, db = cur_a - prev_a, cur_b - prev_b
        prev_a, prev_b = cur_a, cur_b
        if db == 0.0:
            continue
        out.append((float(acc[n - 1]), da / db))
    return out


# ---------------------------------------------------------------------------
# Coefficient fitting


@dataclass(frozen=True)
class FitConfig(SystemDraw):
    """A draw of training systems and the solver's budget.

    ``max_iterations`` is the number of residual evaluations each start of
    the least-squares solve may spend.
    """

    n_systems: int = 50
    seed: int = 1000
    max_iterations: int = 4000
    n_restarts: int = 1
    initial: ModelCoefficients | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        check_integers(self, "max_iterations", "n_restarts")
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
    n_evaluations: int  # residual evaluations, summed over all starts
    train_seeds: tuple[int, ...]

    @property
    def variant(self) -> ModelVariant:
        return ModelVariant(kind=self.kind, coefficients=self.coefficients)


@dataclass(frozen=True)
class _TermBlock:
    """One kind of correction-factor term (self or cross) of every training
    system, stacked.

    The block's [residual row, term] matrix is kept as (row, term, value)
    triplets; ``feat`` holds the features its correction factor reads, one
    value per term, and ``log`` their natural logarithms, taken as 0 where
    the feature is 0.
    """

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    feat: dict[str, np.ndarray]
    log: dict[str, np.ndarray]

    def times(self, per_term: np.ndarray, n_rows: int) -> np.ndarray:
        """The block's matrix times a per-term vector: one segment sum."""
        return np.bincount(self.row, self.val * per_term[self.col],
                           minlength=n_rows)


class _FitData:
    """Precomputed coefficient-independent structure of the training cost.

    One residual row per system and truncation.  From the kernel's span
    integrals of its CUT row, every system contributes a self term per span
    and a cross term per active interferer and span; each term's base is
    propagated to every truncation and divided by the benchmark NLI power
    there, giving the matrices ``S`` (self terms) and ``X`` (cross terms).
    A model then matches the benchmark exactly when the residual
    ``r(a) = S @ rho_self(a) + X @ rho_cross(a) - 1`` is zero.  All systems
    are stacked into one block of each kind, so that evaluating ``r`` or
    its Jacobian costs a fixed number of NumPy calls.
    """

    def __init__(self, kind: CfmKind):
        self.kind = kind
        self.n_rows = 0  # one per system and truncation
        self._parts: dict[str, dict[str, list]] = {"self": {}, "cross": {}}
        self._n_cols = {"self": 0, "cross": 0}
        self._stacked: dict[str, _TermBlock] | None = None

    def add_systems(self, links: Sequence[LinkSpec], reaches: Sequence[int],
                    p_bmk: Sequence[np.ndarray]) -> None:
        """Append systems of one span count, each with its reach and the
        benchmark NLI power (W) of every truncation up to it, in order:
        their terms read the CUT rows of one stack's span integrals."""
        stack = LinkStack.of(links)
        s = span_integrals(stack)
        n_links, n_spans = stack.fiber.shape
        j, cut = np.arange(n_links), stack.cut
        reach = np.array(reaches)
        upto = np.arange(n_spans) < reach[:, None]  # [link, span]
        rate, roll = stack.rate[j, cut], stack.roll[j, cut]
        g = stack.power / stack.rate[:, None]  # [link, span, channel]
        g_cut = g[j, :, cut]  # [link, span]
        abs_acc = s.abs_acc().transpose(1, 0, 2)  # [link, span, channel]
        base = s.prefactor.T * g_cut
        sci_inc = base * g_cut ** 2 * s.per_span(s.i_self).T
        sci_coh = (base * g_cut ** 2 * s.i_coherent.T
                   if self.kind.coherent_sci else np.zeros_like(base))
        xb = (base[:, :, None] * 2.0 * g ** 2
              * s.per_span(s.i_cross).transpose(1, 0, 2))
        # [link, truncation, span] propagation, in units of the benchmark
        # power.
        p = np.ones((n_links, n_spans))
        for row, values in zip(p, p_bmk):
            row[:len(values)] = values
        eye = np.broadcast_to(np.eye(n_spans)[:, None],
                              (n_spans, n_links, n_spans))
        prop = (propagate(stack.transfer.T[:, :, None], eye).transpose(1, 0, 2)
                * (rate[:, None] / p)[:, :, None])
        pair = upto[:, :, None] & upto[:, None]  # [link, truncation, span]
        first = self.n_rows + np.cumsum(reach) - reach
        row = (first[:, None] + np.arange(n_spans))[:, :, None]
        brackets = coherence_brackets(n_spans)[:, None]
        self._append("self", pair,
                     prop * (sci_inc[:, None] + brackets * sci_coh[:, None]),
                     row, upto, phi=stack.phi[j, cut], rate=rate,
                     roll_cut=roll, acc=abs_acc[j, :, cut])
        # Cross terms span by span, interferer by interferer.
        inter = stack.active & (np.arange(stack.f.shape[1]) != cut[:, None])
        self._append("cross", pair[..., None] & inter[:, None, None],
                     prop[..., None] * xb[:, None], row[..., None],
                     upto[:, :, None] & inter[:, None], phi=stack.phi[:, None],
                     roll_cut=roll, roll_nch=stack.roll[:, None], acc=abs_acc)
        self.n_rows += int(reach.sum())

    def _append(self, block: str, entries: np.ndarray, matrix: np.ndarray,
                row: np.ndarray, terms: np.ndarray, **features) -> None:
        """Append systems' ``[link, truncation, term...]`` matrices where
        ``entries``, in row-major order, as (row, term, value) triplets;
        ``row`` broadcasts each entry's residual row, ``terms`` marks each
        system's ``[link, term...]`` terms, and each feature broadcasts to
        ``terms`` from its leading link axis."""
        n_terms = terms.reshape(len(terms), -1).sum(axis=1)
        first = self._n_cols[block] + np.cumsum(n_terms) - n_terms
        col = np.cumsum(terms.reshape(len(terms), -1), axis=1) - 1
        col = (first[:, None] + col).reshape(terms.shape)
        parts = self._parts[block]
        values = {
            "row": np.broadcast_to(row, entries.shape)[entries],
            "col": np.broadcast_to(col[:, None], entries.shape)[entries],
            "val": matrix[entries]}
        for name, value in features.items():
            value = np.asarray(value, dtype=float)
            value = value.reshape(value.shape + (1,) * (terms.ndim
                                                        - value.ndim))
            values[name] = np.broadcast_to(value, terms.shape)[terms]
        for key, value in values.items():
            parts.setdefault(key, []).append(value)
        self._n_cols[block] += int(n_terms.sum())
        self._stacked = None

    def _blocks(self) -> dict[str, _TermBlock]:
        if self._stacked is None:
            self._stacked = {}
            for block, parts in self._parts.items():
                arrays = {k: np.concatenate(v) for k, v in parts.items()}
                # Keep one copy: later systems append to the stacked arrays.
                self._parts[block] = {k: [v] for k, v in arrays.items()}
                row, col, val = (arrays.pop(k) for k in ("row", "col", "val"))
                log = {k: np.log(v, where=v > 0.0, out=np.zeros_like(v))
                       for k, v in arrays.items() if k != "acc"}
                self._stacked[block] = _TermBlock(row, col, val, arrays, log)
        return self._stacked

    def residual(self, a: np.ndarray) -> np.ndarray:
        """Relative NLI-power error of every system and truncation.

        Trial points can overflow to inf/NaN; those propagate into the
        residual, and the solver steps back from them.
        """
        blocks = self._blocks()
        s, x = blocks["self"], blocks["cross"]
        kind = self.kind
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            rho_s = rho_self(kind, a, s.feat["phi"], s.feat["rate"],
                             s.feat["roll_cut"])(s.feat["acc"])
            rho_x = rho_cross(kind, a, x.feat["phi"], x.feat["roll_cut"],
                              x.feat["roll_nch"])(x.feat["acc"])
            return (s.times(rho_s, self.n_rows) + x.times(rho_x, self.n_rows)
                    - 1.0)

    def cost(self, a: np.ndarray) -> float:
        """Sum over systems and truncations of the squared relative
        NLI-power error."""
        r = self.residual(a)
        return float(r @ r)

    def jacobian(self, a: np.ndarray) -> np.ndarray:
        """d residual / d a as [row, coefficient], built column by column
        from the analytic partial derivatives of the correction factors."""
        cfm4 = self.kind is CfmKind.CFM4
        jac = np.empty((self.n_rows, self.kind.n_coefficients))
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            for block, t in self._blocks().items():
                for k, d in rho_partials(RHO_LAYOUT[block], a, t.feat, t.log,
                                         cfm4):
                    jac[:, k] = t.times(d, self.n_rows)
        return jac


@one_low_dispersion_warning
def build_fit_data(fit: FitConfig, kind: CfmKind, benchmark
                   ) -> tuple[_FitData, tuple[int, ...]]:
    """Draw the training systems and precompute the cost structure, from
    each system's benchmark report, in stacks of up to :data:`BLOCK_SIZE`
    systems."""
    data = _FitData(kind)
    kept = [d for d in draw_systems(fit, benchmark) if d.excluded is None]
    for i in range(0, len(kept), BLOCK_SIZE):
        block = kept[i:i + BLOCK_SIZE]
        data.add_systems([d.link for d in block], [d.reach for d in block],
                         [d.report.p_nli_w[:d.reach, 0] for d in block])
    return data, tuple(d.attempt for d in kept)


# The first trust region of each solve, as a fraction of the shipped
# coefficient magnitudes.  Started at the solver's default, the scaled norm
# of a table near the shipped one (~5 for 24 coefficients), a CFM4 fit from
# a 5% perturbation could leave for a valley of cost ~0.3 and stall there.
_FIRST_STEP = 0.2


def _restart_points(kind: CfmKind, n: int, rng) -> list[np.ndarray]:
    """``n`` random starts around the identity point: each coefficient moved
    by a normal step of 5% of its shipped magnitude, so the identity's zero
    entries move too."""
    identity = np.array(assets.identity_coefficients(kind).a)
    step = 0.05 * np.abs(assets.shipped_coefficients(kind).a)
    return [identity + step * rng.standard_normal(identity.size)
            for _ in range(n)]


def fit_coefficients(fit: FitConfig, kind: CfmKind, benchmark) -> FitResult:
    """Minimize the summed squared relative NLI-power error over the free
    parameters.

    A trust-region least-squares solve (TRF) of the stacked residual with
    its analytic Jacobian, scaled by the magnitudes of the shipped table,
    from the initial table, the identity point and optional perturbed
    restarts; each start may spend ``fit.max_iterations`` residual
    evaluations.  The result never has a higher cost than the initial point.
    """
    if kind is CfmKind.CFM1:
        raise ValueError("CFM1 has no free parameters to fit")
    data, seeds = build_fit_data(fit, kind, benchmark)
    initial = fit.initial or assets.shipped_coefficients(kind)
    x0 = np.array(initial.a)
    cost0 = data.cost(x0)

    starts = [x0, np.array(assets.identity_coefficients(kind).a),
              *_restart_points(kind, fit.n_restarts,
                               np.random.default_rng(fit.seed + 17))]
    x_scale = _FIRST_STEP * np.abs(assets.shipped_coefficients(kind).a)
    # A non-finite (inf or NaN) initial cost is worse than any finite one.
    bound0 = cost0 if np.isfinite(cost0) else np.inf
    best_x, best_cost = x0, bound0
    n_evaluations = 0
    for start in starts:
        if not np.isfinite(data.cost(start)):
            continue  # the solver needs a finite residual to start from
        # TRF's first trust region is the scaled norm of its initial
        # vector; solving for the offset from the start makes that a step
        # of _FIRST_STEP times the shipped magnitudes.
        res = least_squares(lambda d: data.residual(start + d),
                            np.zeros_like(start),
                            jac=lambda d: data.jacobian(start + d),
                            method="trf", x_scale=x_scale,
                            max_nfev=fit.max_iterations)
        n_evaluations += res.nfev
        cost = float(res.fun @ res.fun)
        if cost < best_cost:
            best_x, best_cost = start + res.x, cost

    improved = best_cost < bound0
    coeffs = ModelCoefficients(a=tuple(float(v) for v in
                                       (best_x if improved else x0)))
    return FitResult(kind=kind, coefficients=coeffs, cost_initial=cost0,
                     cost_final=best_cost if improved else cost0,
                     improved=improved,
                     n_terms=data.n_rows, n_evaluations=n_evaluations,
                     train_seeds=seeds)
