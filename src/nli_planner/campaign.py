"""Multi-system evaluation campaigns and the coefficient-fitting pipeline,
whose residual and Jacobian read ``cfm``'s correction-factor layout and
take each factor once per source and span.

:func:`draw_systems` screens attempts one at a time and plans and scores
the screened-in ones in blocks of up to :data:`BLOCK_SIZE`: one stacked
planning call (``poweropt._optimize_stack``) and, for a closed-form
benchmark, one stacked kernel pass per block.  Each drawn system carries
the benchmark's CUT report, which campaigns and fits read instead of
asking again.  The outcomes of attempts a restart drops are kept, so no
(category, CUT position, attempt) is drawn or planned twice.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import assets
from .cfm import (_BRACKET_FLOOR, RHO_LAYOUT, _check_n_end, check_dispersion,
                  coherence_brackets, nli_terms, one_low_dispersion_warning,
                  propagate, rx_nli_psds, span_integrals)
from .oracle import QuadratureConfig, QuadratureStats, gn_span_psds
from .perf import (LinkReport, SensitivityPolicy, UnreachableError,
                   link_report, max_reach_scan)
from .poweropt import _optimize_stack
from .sysgen import LOW_DISPERSION_FLAG, GeneratorConfig, draw_system
from .types import (FORMATS, CfmKind, LinkSpec, LinkStack, ModelCoefficients,
                    ModelVariant, check_integers)

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

# Only for bench/tracing.py (LAYERS, minimize) to patch; nothing calls them.
from .cfm import rx_nli_psd
from .oracle import gn_span_psd
from .perf import ase_power, snr
from .poweropt import optimize_powers
from .sysgen import generate_system


def __getattr__(name: str):
    """``minimize``, imported and kept on its first read, so that SciPy's
    optimizer loads only when the tracer reads it."""
    if name == "minimize":
        from scipy.optimize import minimize
        globals()[name] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        computed as each is read.  A benchmark that scores the links at
        once returns the reports as a list instead, and
        :func:`draw_systems` keeps them for the links it reaches later."""
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

    def cut_reports(self, links: Sequence[LinkSpec]) -> list[LinkReport]:
        """The CUT report of every truncation of each link, from one kernel
        pass over their stack made now.  It applies no low-dispersion
        policy: the caller checks the links it uses."""
        stack = LinkStack.of(links)
        report = link_report(stack, nli_terms(stack, self.variant).rx_psd())
        return [_report_of_row(report, j) for j in range(len(links))]


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
    edge = max(abs(lo), abs(hi))
    if edge + bin_width == edge:
        raise ValueError(f"a {bin_width:g}-dB bin width is below the float "
                         f"resolution of samples near {edge:g} dB")
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


class _Attempt:
    """A screened-in attempt: its mix, and its built link and RNG until it
    is planned; then its planned link, the smallest |beta2| of its CUT row,
    the RNG as planning left it and, from a benchmark that scores a stack
    at once, its report."""

    __slots__ = ("mix", "link", "rng", "min_abs_beta2", "report")

    def __init__(self, mix: tuple, link: LinkSpec, rng: np.random.Generator):
        self.mix, self.link, self.rng = mix, link, rng
        self.min_abs_beta2 = self.report = None


def _kept_outcome(tail: list, i: int, mix: tuple):
    """Entry ``i`` of a kept block tail, if it was drawn for ``mix``'s
    category and CUT position: an attempt's outcome depends on nothing
    else."""
    if 0 <= i < len(tail):
        got = tail[i]
        drawn_for = got.mix if isinstance(got, _Attempt) else got
        if drawn_for[0] == mix[0] and drawn_for[1] == mix[1]:
            return got
    return None


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
    the attempts after it drew for the mixes that follow a kept one: they
    are dropped unseen, with no warning, count or error of theirs, and the
    draw resumes after it.  Their outcomes are kept, screened out or
    planned, and an attempt whose category and CUT position the restart
    leaves as they were takes its kept outcome instead of being drawn and
    planned again.  A block that fails is planned again one attempt at a
    time, so an error, like each low-dispersion warning, comes from the
    attempt it belongs to.
    """
    policy = SensitivityPolicy.default()
    mixes = [(cat, pos, GeneratorConfig(
        category=cat, cut_position=pos, band_width=draw.band_width_thz,
        n_spans=draw.n_spans, seed=draw.seed))
        for cat in draw.categories for pos in draw.cut_positions]
    kept = 0
    attempt = 0
    one_by_one = 0  # attempts up to this one are planned alone
    # The kept outcomes of dropped attempts, from attempt tail_from on.
    tail: list = []
    tail_from = 0
    while kept < draw.n_systems:
        size = (1 if attempt < one_by_one
                else min(BLOCK_SIZE, draw.n_systems - kept))
        # Each attempt from `first` on: its mix if screened out, else its
        # _Attempt.
        first = attempt + 1
        block: list = []
        n_in = 0
        while n_in < size:
            mix = mixes[(kept + n_in) % len(mixes)]
            attempt += 1
            got = _kept_outcome(tail, attempt - tail_from, mix)
            if got is None:
                rng = np.random.default_rng([draw.seed, attempt])
                drawn = draw_system(mix[2], rng)
                got = (mix if drawn.low_dispersion
                       else _Attempt(mix, drawn.build(), rng))
            block.append(got)
            n_in += isinstance(got, _Attempt)
        planned = False
        for att, got in enumerate(block, first):
            if not isinstance(got, _Attempt):
                yield DrawnSystem(att, got[0], got[1], None, None,
                                  LOW_DISPERSION_FLAG)
                continue
            if not planned:
                try:
                    _plan_block(block, benchmark)
                except Exception:
                    # Whichever attempt failed, planning the block's
                    # attempts alone raises it where the loop of one
                    # attempt at a time would.
                    if n_in == 1:
                        raise
                    attempt, one_by_one = att - 1, first + len(block) - 1
                    break
                planned = True
            cat, pos, _gen = got.mix
            link = got.link
            check_dispersion(got.min_abs_beta2)
            threshold = policy.threshold_db(
                FORMATS[link.comb.fmt[link.cut_index]], got.rng)
            report = got.report
            if report is None:
                report = next(iter(benchmark.cut_reports([link])))
            try:
                reach = max_reach_scan(lambda n: report.snr_db[n - 1, 0],
                                       link.n_spans, threshold)
            except UnreachableError:
                yield DrawnSystem(att, cat, pos, link, None, UNREACHABLE,
                                  report)
                tail = (block[att + 1 - first:]
                        + tail[first + len(block) - tail_from:])
                attempt, tail_from = att, att + 1
                break
            kept += 1
            yield DrawnSystem(att, cat, pos, link, reach.max_reach_spans,
                              None, report)


def _plan_block(block: list, benchmark) -> None:
    """Plan a block's screened-in attempts not yet planned as one stack,
    and keep each one's planned link, the smallest |beta2| of its CUT row
    and, when the benchmark's ``cut_reports`` scores the stack at once (a
    list), its report."""
    todo = [got for got in block
            if isinstance(got, _Attempt) and got.min_abs_beta2 is None]
    if not todo:
        return
    planned, min_abs_beta2 = _optimize_stack([a.link for a in todo],
                                             [a.rng for a in todo])
    links = [link for link, _plan in planned]
    reports = benchmark.cut_reports(links)
    if not isinstance(reports, list):
        reports = [None] * len(links)  # read as the draw reaches each link
    for a, link, b2, report in zip(todo, links, min_abs_beta2.tolist(),
                                   reports):
        a.link, a.min_abs_beta2, a.report = link, b2, report


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
class FitStart:
    """One start of the least-squares solve: its index (0 the initial
    table, 1 the identity point, then the perturbed restarts), its cost
    before and after, the residual evaluations it spent and
    ``least_squares``' status.  A start of non-finite cost is not solved:
    it spends nothing, keeps its cost and has status None."""

    index: int
    cost_initial: float
    cost_final: float
    n_evaluations: int
    status: int | None


@dataclass(frozen=True)
class FitResult:
    kind: CfmKind
    coefficients: ModelCoefficients
    cost_initial: float
    cost_final: float
    improved: bool
    n_terms: int  # residual rows: one per training system and truncation
    n_evaluations: int  # residual evaluations, summed over all starts
    train_seeds: tuple[int, ...]
    starts: tuple[FitStart, ...] = ()

    @property
    def variant(self) -> ModelVariant:
        return ModelVariant(kind=self.kind, coefficients=self.coefficients)


# A correction factor reads its features from a source: the CUT for the
# self term, the interferer for a cross term.  The fit reads both layouts'
# coefficients in one order of slots (see _slot_table): the coefficients
# of a source's five powered features (phi, phi, rate and two roll-offs),
# their exponents, the constant, and the bracket's (b, o, p).
_LIN, _EXP = slice(0, 5), slice(5, 10)
_CONST, _B, _O, _P = 10, 11, 12, 13
_N_SLOTS = 14
_CROSS, _SELF = 0, 1  # the layouts


def _slot_table(kind: CfmKind) -> np.ndarray:
    """The coefficient each slot reads, ``[layout, slot]``: the index
    ``kind.n_coefficients``, which reads 0, where the layout has none."""
    absent = kind.n_coefficients
    table = []
    for layout in (RHO_LAYOUT["cross"], RHO_LAYOUT["self"]):
        i = layout.first
        rate = layout.rate or (absent, absent)
        rolls = [(c, e) for c, e, _name in layout.rolls
                 if kind is CfmKind.CFM4]
        (c1, e1), (c2, e2) = rolls + [(absent, absent)] * (2 - len(rolls))
        table.append([i + 1, i + 3, rate[0], c1, c2,
                      i + 2, i + 4, rate[1], e1, e2, i, *layout.bracket])
    return np.array(table)


def _source_features(layout: str, **feat) -> np.ndarray:
    """A layout's five powered features, ``[..., feature]``, from the
    features its correction factor reads by name; 1.0 where it has none."""
    rolls = [feat[name] for _c, _e, name in RHO_LAYOUT[layout].rolls]
    return np.stack(np.broadcast_arrays(
        feat["phi"], feat["phi"], feat.get("rate", 1.0), *rolls,
        *[1.0] * (2 - len(rolls))), axis=-1)


def _csr(counts: np.ndarray, indices: np.ndarray, data: np.ndarray,
         n_cols: int) -> csr_matrix:
    """The sparse matrix of rows of ``counts`` entries, whose column
    indices and values are given in row order, sharing their arrays."""
    from scipy.sparse import csr_matrix
    return csr_matrix((data, indices, np.concatenate(([0], np.cumsum(counts)))),
                      shape=(len(counts), n_cols))


@dataclass(frozen=True)
class _FitStack:
    """The stacked structure of :class:`_FitData`.

    ``w`` holds the terms, ``[3 slot + part, 2 source + factor]``: a
    slot's cross terms (part 0), its self term (1) and the self term's
    coherent part (2), each term stored once as a pair of entries in its
    source's columns, its value (factor 0) and its value times its bracket
    power at the last point (factor 1).  ``prop`` carries those slot sums
    to every truncation, ``[2 row + layout, 3 slot + part]``, in units of
    the benchmark NLI power: the cross sum to the row's cross half, the
    self sums to its self half, the coherent part times the truncation's
    coherence bracket.
    """

    w: csr_matrix
    prop: csr_matrix
    acc: np.ndarray  # [term] the |accumulated dispersion| (ps^2) it reads
    lay: np.ndarray  # [term] its layout
    feat: np.ndarray  # [source, feature] powered features
    log_feat: np.ndarray  # [source, feature] their logarithms, 0 where 0
    lay_src: np.ndarray  # [source] its layout


class _Point:
    """What the residual and the Jacobian read at one coefficient vector,
    computed once: every power of the sources' features and of the terms'
    brackets is taken here.

    A term's correction factor is ``k0 + k1 * pw``, with ``pw = br ** p``
    its bracket's power and ``(k0, k1)`` its source's; the point writes
    each term's value times ``pw`` into ``w``.
    """

    def __init__(self, stack: _FitStack, slots: np.ndarray, a: np.ndarray):
        self.key = a.tobytes()
        c = np.append(a, 0.0)[slots]  # [layout, slot]
        op = np.take(c[:, _O:], stack.lay, axis=0)  # [term, (o, p)]
        self.c = c = np.take(c, stack.lay_src, axis=0)  # [source, slot]
        # A feature of 0 takes 0 for a positive exponent, as in cfm._rho.
        self.pw = stack.feat ** c[:, _EXP]
        self.lin = lin = c[:, _LIN] * self.pw
        self.sc = lin[:, 1]
        self.inner = 1.0 + lin[:, 2]
        self.roll = 1.0 + lin[:, 3] + lin[:, 4]
        self.core = c[:, _CONST] + lin[:, 0] + self.sc * self.inner
        self.scb = self.sc * c[:, _B]
        self.k = np.empty((len(c), 2))
        np.multiply(self.core, self.roll, out=self.k[:, 0])
        np.multiply(self.scb, self.roll, out=self.k[:, 1])
        br = stack.acc + op[:, 0]
        self.br = np.maximum(br, _BRACKET_FLOOR, out=br)
        data = stack.w.data
        np.multiply(data[0::2], br ** op[:, 1], out=data[1::2])
        self.residual: np.ndarray | None = None

    def partials(self, log_feat: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Each source's factors of its correction factor's partial
        derivatives: ``[source, factor, slot]`` against its terms' ``(1,
        pw)``, and ``[source, factor, (o, p)]`` against their ``(pw / br,
        pw ln br)``.  A zero-safe power does not move with its exponent
        (its logarithm is taken as 0), and a floored bracket not with its
        offset (``pw / br`` is 0 there)."""
        c, roll, sc, core, scb = self.c, self.roll, self.sc, self.core, self.scb
        n = len(c)
        # Each powered feature's term's multiplier, [source, factor,
        # feature]: its coefficient's partial is the power times it, its
        # exponent's the term times the feature's logarithm times it.
        mult = np.empty((n, 2, 5))
        mult[:, 0, 0] = roll
        np.multiply(self.inner, roll, out=mult[:, 0, 1])
        np.multiply(sc, roll, out=mult[:, 0, 2])
        mult[:, 0, 3:] = core[:, None]
        mult[:, 1, 0:3:2] = 0.0  # the offset and rate terms hold no pw
        np.multiply(c[:, _B], roll, out=mult[:, 1, 1])
        mult[:, 1, 3:] = scb[:, None]
        lead = np.zeros((n, 2, _N_SLOTS))
        np.multiply(self.pw[:, None], mult, out=lead[:, :, _LIN])
        np.multiply((self.lin * log_feat)[:, None], mult, out=lead[:, :, _EXP])
        lead[:, 0, _CONST] = roll
        lead[:, 1, _B] = mult[:, 0, 2]
        bracket = np.zeros((n, 2, 2))
        np.multiply(self.k[:, 1], c[:, _P], out=bracket[:, 0, 0])
        bracket[:, 1, 1] = self.k[:, 1]
        return lead, bracket


class _FitData:
    """Precomputed coefficient-independent structure of the training cost.

    One residual row per system and truncation, and one slot per system
    and span up to its reach.  From the kernel's span integrals of its CUT
    row, every system has a self term per slot and a cross term per slot
    and active interferer, each stored once: its value (the NLI PSD it adds
    at the span's end with a unit correction factor) and the |accumulated
    dispersion| its bracket reads.  A term's correction factor reads its
    source's features, held once per source.  The NLI at truncation t is
    ``sum_{s <= t} P[t, s] * sum_terms value * rho`` over the terms of slot
    s, with P the system's propagation to the receiver times the CUT's
    rate over the benchmark NLI power, and the self term's coherent part
    times the truncation's coherence bracket.  A model matches the
    benchmark exactly when the residual, that sum minus 1, is zero.

    Evaluating the residual or its Jacobian costs a fixed number of NumPy
    calls: one sparse product of the terms into the slots, and one of the
    slots into the rows.  The powers of a point are taken once, and the
    Jacobian at the point of the last residual reuses them.
    """

    def __init__(self, kind: CfmKind):
        self.kind = kind
        self.n_rows = 0  # one per system and truncation, and per slot
        self._slots = _slot_table(kind)
        # Each coefficient's column among the Jacobian's [layout, slot] ones.
        self._columns = np.array([
            np.flatnonzero(self._slots.ravel() == k)[0]
            for k in range(kind.n_coefficients)])
        # Each CSR matrix as its rows' counts, column indices and values.
        self._parts: dict[str, list[np.ndarray]] = {k: [] for k in (
            "w_counts", "w_indices", "w_data", "prop_counts", "prop_indices",
            "prop_data", "acc", "lay", "feat", "lay_src")}
        self._n_src = 0
        self._stacked: _FitStack | None = None
        self._point: _Point | None = None

    def add_systems(self, links: Sequence[LinkSpec], reaches: Sequence[int],
                    p_bmk: Sequence[np.ndarray]) -> None:
        """Append systems of one span count, each with its reach and the
        benchmark NLI power (W) of every truncation up to it, in order:
        their terms read the CUT rows of one stack's span integrals."""
        stack = LinkStack.of(links)
        s = span_integrals(stack)
        n_links, n_spans = stack.fiber.shape
        n_ch = stack.f.shape[1]
        j, cut = np.arange(n_links), stack.cut
        reach = np.array(reaches)
        upto = np.arange(n_spans) < reach[:, None]  # [link, span]
        rate, roll = stack.rate[j, cut], stack.roll[j, cut]
        g = stack.power / stack.rate[:, None]  # [link, span, channel]
        g_cut = g[j, :, cut]  # [link, span]
        abs_acc = s.abs_acc().transpose(1, 0, 2)  # [link, span, channel]
        base = s.prefactor.T * g_cut
        sci = base * g_cut ** 2
        # A link's sources are its active interferers, then its CUT; a
        # slot's terms are a cross term per channel, then the self term
        # and its coherent part, in the order of w's rows.
        inter = stack.active & (np.arange(n_ch) != cut[:, None])
        is_src = np.concatenate((inter, np.ones((n_links, 1), bool)), axis=1)
        src = self._n_src + np.cumsum(is_src).reshape(is_src.shape) - 1
        src = np.concatenate((src, src[:, -1:]), axis=1)  # [link, term]
        has = np.concatenate(
            (is_src, np.full((n_links, 1), self.kind.coherent_sci)), axis=1)
        terms = upto[:, :, None] & has[:, None]  # [link, span, term]
        value = np.concatenate((
            base[:, :, None] * 2.0 * g ** 2
            * s.per_span(s.i_cross).transpose(1, 0, 2),
            (sci * s.per_span(s.i_self).T)[:, :, None],
            (sci * s.i_coherent.T)[:, :, None]), axis=2)[terms]
        term_src = np.broadcast_to(src[:, None], terms.shape)[terms]
        acc_cut = abs_acc[j, :, cut][:, :, None]
        lay = np.full(n_ch + 2, _SELF, np.int8)
        lay[:n_ch] = _CROSS
        feat = np.concatenate((
            _source_features("cross", phi=stack.phi, roll_cut=roll[:, None],
                             roll_nch=stack.roll),
            _source_features("self", phi=stack.phi[j, cut], rate=rate,
                             roll_cut=roll)[:, None]), axis=1)
        parts = dict(
            w_counts=2 * np.broadcast_to(
                np.stack((inter.sum(axis=1), has[:, -2], has[:, -1]),
                         axis=1)[:, None], (n_links, n_spans, 3))[upto].ravel(),
            w_indices=(2 * term_src[:, None]
                       + np.arange(2)).ravel().astype(np.int32),
            w_data=np.stack((value, np.zeros_like(value)), axis=1).ravel(),
            acc=np.concatenate((abs_acc, acc_cut, acc_cut), axis=2)[terms],
            lay=np.broadcast_to(lay, terms.shape)[terms],
            feat=feat[is_src],
            lay_src=np.broadcast_to(lay[:-1], is_src.shape)[is_src])

        # [link, truncation, span] propagation, in units of the benchmark
        # power: a row's cross half reads each slot's cross sum, its self
        # half the self sum and the coherent part times the row's coherence
        # bracket.  It keeps its zeros above the diagonal, so that a term
        # whose factor is not finite leaves every row of its system so.
        p = np.ones((n_links, n_spans))
        for row, values in zip(p, p_bmk):
            row[:len(values)] = values
        eye = np.broadcast_to(np.eye(n_spans)[:, None],
                              (n_spans, n_links, n_spans))
        prop = (propagate(stack.transfer.T[:, :, None], eye).transpose(1, 0, 2)
                * (rate[:, None] / p)[:, :, None])
        on = (upto[:, :, None, None] & upto[:, None, None]
              & np.array([True, True, self.kind.coherent_sci])[:, None])
        first = self.n_rows + np.cumsum(reach) - reach
        slot = first[:, None, None, None] + np.arange(n_spans)
        parts.update(
            prop_counts=np.stack((on[:, :, 0].sum(axis=-1),
                                  on[:, :, 1:].sum(axis=(-2, -1))),
                                 axis=-1)[upto].ravel(),
            prop_indices=np.broadcast_to(3 * slot + np.arange(3)[:, None],
                                         on.shape)[on].astype(np.int32),
            prop_data=np.stack(np.broadcast_arrays(
                prop, prop, coherence_brackets(n_spans)[:, None] * prop),
                axis=2)[on])
        for key, value in parts.items():
            self._parts[key].append(value)
        self._n_src += int(is_src.sum())
        self.n_rows += int(reach.sum())
        self._stacked = self._point = None

    def _stack(self) -> _FitStack:
        if self._stacked is None:
            arrays = {k: np.concatenate(v) for k, v in self._parts.items()}
            # Keep one copy: later systems append to the stacked arrays.
            self._parts = {k: [v] for k, v in arrays.items()}
            w = _csr(arrays.pop("w_counts"), arrays.pop("w_indices"),
                     arrays.pop("w_data"), 2 * self._n_src)
            prop = _csr(arrays.pop("prop_counts"), arrays.pop("prop_indices"),
                        arrays.pop("prop_data"), 3 * self.n_rows)
            feat = arrays["feat"]
            self._stacked = _FitStack(
                w=w, prop=prop, log_feat=np.log(feat, where=feat > 0.0,
                                                out=np.zeros_like(feat)),
                **arrays)
        return self._stacked

    def _at(self, a: np.ndarray) -> _Point:
        """The point ``a``: the last one, or a new one."""
        a = np.asarray(a, dtype=float)
        if self._point is None or self._point.key != a.tobytes():
            self._point = _Point(self._stack(), self._slots, a)
        return self._point

    def residual(self, a: np.ndarray) -> np.ndarray:
        """Relative NLI-power error of every system and truncation.

        Trial points can overflow to inf/NaN; those propagate into the
        residual, and the solver steps back from them.
        """
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            point = self._at(a)
            if point.residual is None:
                stack = self._stack()
                halves = stack.prop @ (stack.w @ point.k.ravel())
                point.residual = halves[0::2] + halves[1::2] - 1.0
                point.residual.flags.writeable = False
        return point.residual

    def cost(self, a: np.ndarray) -> float:
        """Sum over systems and truncations of the squared relative
        NLI-power error."""
        r = self.residual(a)
        return float(r @ r)

    def jacobian(self, a: np.ndarray) -> np.ndarray:
        """d residual / d a as [row, coefficient], from the analytic partial
        derivatives of the correction factors."""
        from scipy.sparse import csr_matrix
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            point = self._at(a)
            stack = self._stack()
            lead, bracket = point.partials(stack.log_feat)
            w, br = stack.w, point.br
            # w's terms with each value times (pw / br, pw ln br) instead.
            weighted = np.zeros_like(w.data)
            np.divide(w.data[1::2], br, out=weighted[0::2],
                      where=br > _BRACKET_FLOOR)
            np.multiply(w.data[1::2], np.log(br), out=weighted[1::2])
            w_log = csr_matrix((weighted, w.indices, w.indptr), shape=w.shape)
            slots = w @ lead.reshape(-1, _N_SLOTS)
            slots[:, _O:] += w_log @ bracket.reshape(-1, 2)
            jac = (stack.prop @ slots).reshape(self.n_rows, -1)
        return jac[:, self._columns]


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
    from scipy.optimize import least_squares
    if kind is CfmKind.CFM1:
        raise ValueError("CFM1 has no free parameters to fit")
    # The initial table's length is checked before any system is drawn; an
    # empty one is a table of the wrong length, not an absent one.
    initial = ModelVariant(kind, assets.shipped_coefficients(kind)
                           if fit.initial is None else fit.initial
                           ).coefficients
    data, seeds = build_fit_data(fit, kind, benchmark)
    x0 = np.array(initial.a)
    starts = [x0, np.array(assets.identity_coefficients(kind).a),
              *_restart_points(kind, fit.n_restarts,
                               np.random.default_rng(fit.seed + 17))]
    x_scale = _FIRST_STEP * np.abs(assets.shipped_coefficients(kind).a)
    records = []
    best_x, best_cost = x0, np.inf
    for index, start in enumerate(starts):
        cost_start = data.cost(start)
        if not np.isfinite(cost_start):
            # The solver needs a finite residual to start from.
            records.append(FitStart(index, cost_start, cost_start, 0, None))
            continue
        # TRF's first trust region is the scaled norm of its initial
        # vector; solving for the offset from the start makes that a step
        # of _FIRST_STEP times the shipped magnitudes.  Its first residual
        # is the one just computed, which data keeps.
        res = least_squares(lambda d: data.residual(start + d),
                            np.zeros_like(start),
                            jac=lambda d: data.jacobian(start + d),
                            method="trf", x_scale=x_scale,
                            max_nfev=fit.max_iterations)
        cost = float(res.fun @ res.fun)
        records.append(FitStart(index, cost_start, cost, res.nfev,
                                res.status))
        if cost < best_cost:
            best_x, best_cost = start + res.x, cost

    # A non-finite (inf or NaN) initial cost is worse than any finite one.
    cost0 = records[0].cost_initial
    improved = best_cost < (cost0 if np.isfinite(cost0) else np.inf)
    coeffs = ModelCoefficients(a=tuple(float(v) for v in
                                       (best_x if improved else x0)))
    return FitResult(kind=kind, coefficients=coeffs, cost_initial=cost0,
                     cost_final=best_cost if improved else cost0,
                     improved=improved,
                     n_terms=data.n_rows,
                     n_evaluations=sum(r.n_evaluations for r in records),
                     train_seeds=seeds, starts=tuple(records))
