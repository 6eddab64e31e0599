"""Numerical GN-model benchmark: 2-D quadrature of the single-span NLI PSD
with rectangular channel spectra and incoherent multi-span accumulation.
The comb and spans are read from the arrays a link carries (``link.comb``
and ``link.span_arrays``), the span prefactor from ``cfm.span_prefactor``.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .cfm import (_check_n_end, effective_beta2_xci, propagate,
                  span_prefactor)
from .types import (CombArrays, FiberParams, LinkSpec, SpanArrays,
                    ValidationError, check_integers)


class QuadratureError(RuntimeError):
    """Quadrature failed to converge.  The best estimate, the points per
    channel of the last level and the relative change between the last two
    levels are attached."""

    def __init__(self, message: str, estimate: float,
                 points_per_channel: int, rel_change: float):
        super().__init__(message)
        self.estimate = estimate
        self.points_per_channel = points_per_channel
        self.rel_change = rel_change


@dataclass(frozen=True)
class QuadratureConfig:
    points_per_channel: int = 32  # midpoint-rule points across one bandwidth
    rel_tol: float = 0.02  # convergence target between two resolutions
    max_points_per_channel: int = 256

    def __post_init__(self) -> None:
        check_integers(self, "points_per_channel", "max_points_per_channel")
        if self.points_per_channel < 1:
            raise ValidationError("points_per_channel must be >= 1")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValidationError("rel_tol must be finite and > 0")
        # The first convergence test compares two levels; both must fit.
        if self.max_points_per_channel < max(self.points_per_channel,
                                             2 * self.first_level):
            raise ValidationError(
                f"max_points_per_channel must be >= points_per_channel and "
                f">= {2 * self.first_level}, the level of the first "
                f"convergence test")

    @property
    def first_level(self) -> int:
        """Points per channel of the first quadrature level; each further
        level doubles it."""
        return max(8, self.points_per_channel // 2)


@dataclass(frozen=True)
class QuadratureStats:
    """How the quadrature of one span converged."""

    points_per_channel: int  # final level; 0 when no pair is integrated
    rel_change: float  # between the last two levels
    pairs_kept: int  # channel pairs (i <= j) integrated
    pairs_pruned: int  # pairs whose third frequency misses the comb


# Kernel elements (pairs x rows of f1 x points of f2) per chunk of one
# quadrature level, whatever the resolution, the number of channel pairs
# and the number of spans in a fiber group.  Each of a worker's four
# buffers is 64 KiB.  On 2 CPUs, chunks of 16384 elements ran ~5% faster
# but raised an oracle campaign's peak RSS ~0.4 MB.
_CHUNK_ELEMENTS = 1 << 13

# A level's chunks run on up to W threads, W being the CPUs this process may
# use (``taskset`` confines it), capped at one per chunk and at
# _MAX_WORKERS.  Each worker has its own buffers, ~0.45 MB of traced peak
# memory at 256 points per channel, so working memory is bounded per worker
# and in total, whatever the CPU count.  Values do not depend on W: a
# pair's sum is formed by one worker, and the calling thread accumulates the
# pairs in pair order.
_MAX_WORKERS = 4


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class _Shared:
    """Items that several threads iterate over together: each item goes to
    exactly one of them, the next free one."""

    def __init__(self, items):
        self._items, self._lock = iter(items), threading.Lock()

    def __iter__(self):
        while True:
            with self._lock:
                item = next(self._items, None)
            if item is None:
                return
            yield item


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _worker_pool() -> ThreadPoolExecutor:
    """This process's worker threads, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_MAX_WORKERS - 1,
                                       thread_name_prefix="nli-oracle")
        return _pool


def _forget_pool() -> None:
    """In a child made by ``os.fork()``: the parent's worker threads do not
    exist there, and one of its threads may have held the lock."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_workers(work, workers: int) -> None:
    """Calls ``work()`` on the calling thread and on ``workers - 1`` threads
    of the pool.  Returns, or raises the first exception, only once every
    call has ended, so no worker writes afterwards."""
    futures = []
    try:
        for _ in range(workers - 1):
            futures.append(_worker_pool().submit(work))
        work()
    finally:
        wait(futures)
    for future in futures:
        future.result()


class _CombPairs:
    """The part of the GN integrand at ``f_eval`` that depends on the comb
    alone, shared by every span of a link: the active channels' edges, the
    sorted edges ``breaks`` that a comb PSD table is read over, and the
    channel pairs whose third frequency f1 + f2 - f can land in the comb.
    """

    def __init__(self, ch: CombArrays, f_eval: float):
        self.channels = np.flatnonzero(ch.active)  # comb indices
        self.f_eval = f_eval
        centers = ch.f[self.channels]
        half = ch.rate[self.channels] / 2.0
        lo, hi = centers - half, centers + half
        self.lo, self.hi = lo, hi
        self.breaks = np.unique(np.concatenate((lo, hi)))
        self.edge_index = (np.searchsorted(self.breaks, lo),
                           np.searchsorted(self.breaks, hi))

        # The third frequency of pair (i, j) spans (x_lo, x_hi); the pair
        # counts when a channel overlaps that range, that is when, among
        # the channels starting below x_hi, the furthest-reaching one ends
        # above x_lo.
        i, j = np.triu_indices(len(self.channels))
        x_lo = lo[i] + lo[j] - f_eval
        x_hi = hi[i] + hi[j] - f_eval
        by_lo = np.argsort(lo, kind="stable")
        reach = np.maximum.accumulate(hi[by_lo])
        below = np.searchsorted(lo[by_lo], x_hi, side="left")
        keep = (below > 0) & (reach[np.maximum(below - 1, 0)] > x_lo)
        self.i, self.j = i[keep], j[keep]
        self.n_pruned = len(keep) - len(self.i)


class _SpanTerms:
    """The part of the integrand that is span ``index``'s own: the comb PSD
    table of its launch PSDs ``psd`` (W/THz) of the active channels, the pair
    weights, its length, loss and prefactor (``[span]`` columns ``cols``)."""

    def __init__(self, pairs: _CombPairs, psd: np.ndarray,
                 cols: tuple[np.ndarray, ...], index: int):
        self.index = index
        # The comb PSD on [breaks[k-1], breaks[k]) is table[k], so that
        # table[searchsorted(breaks, x, side="right")] samples it with the
        # channels' [lo, hi) edges; outside the comb it reads zero.  Each
        # interval adds its channels' PSDs in comb order, so overlapping
        # channels sum exactly as a per-channel loop would.
        self.table = np.zeros(len(pairs.breaks) + 1)
        for a, b, g in zip(*pairs.edge_index, psd):
            self.table[a + 1:b + 1] += g
        # psd_i psd_j, doubled off the diagonal for the (j, i) term.
        self.pair_weight = psd[pairs.i] * psd[pairs.j]
        self.pair_weight[pairs.i != pairs.j] *= 2.0
        self.length, self.loss, self.prefactor = (float(col[index])
                                                   for col in cols)


class _FiberGroup:
    """The spans of a link that share one fiber, at ``f_eval``.

    The group holds the parameters of each kept pair's two grids.  A grid
    over a channel that straddles ``f_eval`` is sinh-graded across the
    phase-matching ridge when the ridge, at the conjugate channel's far
    edge, is narrower than the channel; every other grid is uniform.
    :meth:`levels` evaluates one quadrature level for several of its spans
    at once.  The grids, the comb-table indices of the third frequency, the
    phase and the denominator depend on the fiber alone and are computed
    once per chunk; each span then applies its own comb table, cos(phase L)
    and loss terms.  A level evaluates the four-wave-mixing kernel for many
    pairs at once, in chunks of at most ``_CHUNK_ELEMENTS`` points, which
    up to W threads share.
    """

    def __init__(self, pairs: _CombPairs, fiber: FiberParams,
                 spans: list[_SpanTerms]):
        self.pairs, self.fiber, self.spans = pairs, fiber, spans
        f_eval, lo, hi = pairs.f_eval, pairs.lo, pairs.hi
        # Each pair integrates f1 over channel i and f2 over channel j.
        # With the conjugate frequency nu from f_eval, the ridge's
        # Lorentzian half-width is 2a / (4 pi^2 |b2| nu).  nu is taken at
        # the conjugate channel's far edge, where the ridge is narrowest, so
        # the CUT's self pair is graded on both axes.
        b2_scale = abs(effective_beta2_xci(fiber, f_eval, f_eval))
        nu = np.maximum(np.abs(lo - f_eval), np.abs(hi - f_eval))
        ridge = np.full(len(nu), math.inf)
        if b2_scale > 0.0:
            ridge = fiber.two_alpha / (4.0 * math.pi ** 2 * b2_scale * nu)
        straddle = (lo < f_eval) & (f_eval < hi)

        def grid_params(own, other):
            start, width, r = lo[own], hi[own] - lo[own], ridge[other]
            graded = straddle[own] & (r < width)
            for p in np.flatnonzero(graded):
                u_lo = math.asinh((lo[own[p]] - f_eval) / r[p])
                u_hi = math.asinh((hi[own[p]] - f_eval) / r[p])
                start[p], width[p] = u_lo, u_hi - u_lo
            return start, width, r, graded

        self.grid1 = grid_params(pairs.i, pairs.j)
        self.grid2 = grid_params(pairs.j, pairs.i)

    def _grid(self, params, res: int) -> tuple[np.ndarray, np.ndarray]:
        """Points and weights [pairs, res] of midpoint grids, uniform in f
        or, where graded, in u = asinh((f - f_eval) / ridge)."""
        start, width, ridge, graded = params
        step = (width / res)[:, None]
        x = start[:, None] + step * (np.arange(res) + 0.5)
        w = np.repeat(step, res, axis=1)
        if graded.any():
            u, r = x[graded], ridge[graded, None]
            x[graded] = self.pairs.f_eval + r * np.sinh(u)
            w[graded] = r * np.cosh(u) * step[graded]
        return x, w

    def levels(self, res: int, spans: list[_SpanTerms]) -> list[float]:
        """Single-span NLI PSD of each of ``spans``, members of this group,
        with ``res`` grid points per channel."""
        n_pairs = len(self.pairs.i)
        if res * res <= _CHUNK_ELEMENTS:
            chunk_pairs, chunk_rows = _CHUNK_ELEMENTS // (res * res), res
        else:
            chunk_pairs, chunk_rows = 1, max(1, _CHUNK_ELEMENTS // res)
        sums = np.empty((len(spans), n_pairs))
        # The workers draw the chunks one at a time, so a worker that is
        # slowed down takes fewer of them.
        starts = range(0, n_pairs, chunk_pairs)
        shared = _Shared(starts)
        _run_workers(lambda: self._chunks(res, spans, shared, chunk_pairs,
                                          chunk_rows, sums),
                     min(_cpu_count(), _MAX_WORKERS, len(starts)))
        # Accumulate the pair terms one after another, in pair order.
        return [float(span.prefactor
                      * np.add.accumulate(span.pair_weight * row)[-1])
                for span, row in zip(spans, sums)]

    def _chunks(self, res: int, spans: list[_SpanTerms], starts: Iterable[int],
                chunk_pairs: int, chunk_rows: int, sums: np.ndarray) -> None:
        """Writes the kernel sum of each pair of the chunks at ``starts``,
        and of each of ``spans``, into the pair's column of ``sums``."""
        fib, f_eval, breaks = self.fiber, self.pairs.f_eval, self.pairs.breaks
        n_pairs = len(self.pairs.i)
        f_sum, phase, num, val = (
            np.empty(min(n_pairs, chunk_pairs) * chunk_rows * res)
            for _ in range(4))
        n_chunks = -(-res // chunk_rows)
        for p0 in starts:
            pairs = slice(p0, p0 + chunk_pairs)
            f1, w1 = self._grid([a[pairs] for a in self.grid1], res)
            nu1 = (f1 - f_eval)[:, :, None]
            f1, w1 = f1[:, :, None], w1[:, :, None]
            f2, w2 = self._grid([a[pairs] for a in self.grid2], res)
            nu2 = (f2 - f_eval)[:, None, :]
            f2, w2 = f2[:, None, :], w2[:, None, :]
            parts = np.empty((len(spans), len(f2), n_chunks))
            for c, r0 in enumerate(range(0, res, chunk_rows)):
                rows = slice(r0, min(r0 + chunk_rows, res))
                shape = (len(f2), rows.stop - r0, res)
                size = math.prod(shape)
                s, ph, nm, v = (buf[:size].reshape(shape)
                                for buf in (f_sum, phase, num, val))
                np.add(f1[:, rows], f2, out=s)
                np.subtract(s, f_eval, out=ph)
                third = np.searchsorted(breaks, ph, side="right")
                # phase = 4 pi^2 b2(f1 + f2) (f1 - f) (f2 - f)
                np.subtract(s, 2.0 * fib.f_ref, out=ph)
                ph *= math.pi * fib.beta3
                ph += fib.beta2
                ph *= 4.0 * math.pi ** 2
                ph *= nu1[:, rows]
                ph *= nu2
                # The denominator phase^2 + (2a)^2 takes the place of f1 + f2.
                den = s
                np.square(ph, out=den)
                den += fib.two_alpha ** 2
                for m, span in enumerate(spans):
                    np.take(span.table, third, out=v, mode="clip")
                    np.multiply(ph, span.length, out=nm)
                    np.cos(nm, out=nm)
                    nm *= 2.0 * span.loss
                    np.subtract(1.0 + span.loss ** 2, nm, out=nm)
                    v *= nm
                    v /= den
                    v *= w1[:, rows]
                    v *= w2
                    parts[m, :, c] = v.reshape(shape[0], -1).sum(axis=1)
            for m, part in enumerate(parts):
                # NumPy sums a contiguous array by halves.  Adding the row
                # chunks' sums by halves too makes a pair's sum, for a
                # power-of-two resolution, bit-identical to np.sum over its
                # whole grid.
                while part.shape[1] % 2 == 0:
                    part = part[:, 0::2] + part[:, 1::2]
                sums[m, pairs] = part.sum(axis=1)


def _converge(groups: list[_FiberGroup], q: QuadratureConfig,
              ) -> dict[int, tuple[float, QuadratureStats]]:
    """Each span's PSD and stats, by span index.

    Every span doubles its per-channel resolution until two successive
    levels agree within ``q.rel_tol``; a level is evaluated once per fiber
    group, for the group's spans that have not converged.  Raises the
    :class:`QuadratureError` of the lowest span index that would need a
    level above ``q.max_points_per_channel``.
    """
    out: dict[int, tuple[float, QuadratureStats]] = {}
    failed: dict[int, QuadratureError] = {}
    for group in groups:
        kept, pruned = len(group.pairs.i), group.pairs.n_pruned
        if not kept:
            # No channel is active, or no pair's third frequency lands in
            # the comb: the PSD is zero, and no level is evaluated.
            for span in group.spans:
                out[span.index] = 0.0, QuadratureStats(0, 0.0, 0, pruned)
            continue
        res = q.first_level
        todo = group.spans
        prev = group.levels(res, todo)
        while todo:
            res *= 2
            cur = group.levels(res, todo)
            left = []
            for span, c, p in zip(todo, cur, prev):
                if c == 0.0 and p == 0.0:
                    out[span.index] = 0.0, QuadratureStats(res, 0.0, kept,
                                                           pruned)
                elif abs(c - p) <= q.rel_tol * abs(c):
                    out[span.index] = c, QuadratureStats(
                        res, abs(c - p) / abs(c), kept, pruned)
                elif 2 * res > q.max_points_per_channel:
                    rel = abs(c - p) / abs(c) if c else math.inf
                    failed[span.index] = QuadratureError(
                        f"quadrature not converged at {res} points per "
                        f"channel: relative change {rel:.3g} between the "
                        f"last two levels exceeds rel_tol {q.rel_tol:g}",
                        estimate=c, points_per_channel=res, rel_change=rel)
                else:
                    left.append((span, c))
            todo = [span for span, _ in left]
            prev = [c for _, c in left]
    if failed:
        raise failed[min(failed)]
    return out


def _fiber_groups(link: LinkSpec, f_eval: float,
                  n_end: int) -> list[_FiberGroup]:
    """The first ``n_end`` spans of a link, by fiber."""
    ch, spans = link.comb, link.span_arrays
    pairs = _CombPairs(ch, f_eval)
    cols = spans.length, spans.loss, span_prefactor(spans)
    psd = ch.power[:, pairs.channels] / ch.rate[pairs.channels]
    return [_FiberGroup(pairs, fiber, [_SpanTerms(pairs, psd[n], cols, n)
                                       for n in members.tolist() if n < n_end])
            for fiber, members in zip(spans.fibers, spans.spans_of_fiber)
            if members[0] < n_end]


def gn_span_psds(link: LinkSpec, f_eval: float,
                 q: QuadratureConfig | None = None, n_end: int | None = None,
                 ) -> tuple[np.ndarray, tuple[QuadratureStats, ...]]:
    """The GN-model NLI PSD (W/THz) at ``f_eval`` of each of the first
    ``n_end`` spans, with how each span's quadrature converged.

    Each span doubles its resolution until two levels agree within
    ``q.rel_tol``.  The comb set-up is built once per link and a level
    once per group of spans sharing a fiber.  A span that would need a
    level above ``q.max_points_per_channel`` raises
    :class:`QuadratureError`, the lowest such span's if several do.  A
    span with no channel pair to integrate reads 0 at level 0.  A
    non-finite ``f_eval`` raises :class:`ValidationError`.
    """
    n_end = _check_n_end(link, n_end)
    if not math.isfinite(f_eval):
        raise ValidationError(f"f_eval must be finite, got {f_eval}")
    done = _converge(_fiber_groups(link, f_eval, n_end),
                     q or QuadratureConfig())
    return (np.array([done[n][0] for n in range(n_end)]),
            tuple(done[n][1] for n in range(n_end)))


def gn_span_psd(link: LinkSpec, f_eval: float,
                q: QuadratureConfig | None = None,
                span_index: int = 0) -> float:
    """GN-model NLI PSD (W/THz) at ``f_eval`` of span ``span_index`` of a
    link alone: the :func:`gn_span_psds` of the one-span link of that
    span's columns and launch powers."""
    s, n = link.span_arrays, range(link.n_spans)[span_index]
    one = LinkSpec(
        link.comb.with_power(link.comb.launch[n:n + 1]),
        SpanArrays.columns([s.fibers[s.fiber[n]]], s.length[n:n + 1],
                           [None if s.transparent[n] else s.gain_db[n]],
                           s.nf_db[n:n + 1]),
        cut_index=0)
    return float(gn_span_psds(one, f_eval, q)[0][0])


def gn_rx_psd(link: LinkSpec, f_eval: float,
              q: QuadratureConfig | None = None,
              n_end: int | None = None) -> float:
    """Incoherent accumulation of the per-span quadrature values, propagated
    to the receiver exactly like the closed-form accumulation."""
    psds, _ = gn_span_psds(link, f_eval, q, n_end)
    return float(propagate(link.span_arrays.transfer[:len(psds)], psds)[-1])
