"""Numerical GN-model benchmark: 2-D quadrature of the single-span NLI PSD
with rectangular channel spectra and incoherent multi-span accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cfm import _check_n_end, propagate, span_transfer
from .types import ChannelSpec, LinkSpec, SpanConfig, ValidationError


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


def _active(comb: tuple[ChannelSpec, ...]) -> list[ChannelSpec]:
    return [c for c in comb if c.active]


# Kernel elements (pairs x rows of f1 x points of f2) per chunk of one
# quadrature level, whatever the resolution and the number of channel
# pairs.  Each of the four buffers is 64 KiB.  On 2 CPUs, chunks of 16384
# elements ran ~5% faster but raised an oracle campaign's peak RSS ~0.4 MB.
_CHUNK_ELEMENTS = 1 << 13


class _SpanIntegrand:
    """The GN integrand of one span at ``f_eval``, set up once per
    quadrature; :meth:`level` evaluates one quadrature level.

    The set-up holds the comb PSD as a table over the sorted channel edges,
    the channel pairs whose third frequency f1 + f2 - f can land in the
    comb, and the parameters of each pair's grids.  A level evaluates the
    four-wave-mixing kernel for many pairs at once, in chunks of at most
    ``_CHUNK_ELEMENTS`` points.
    """

    def __init__(self, span: SpanConfig, comb: tuple[ChannelSpec, ...],
                 f_eval: float, span_index: int):
        channels = _active(comb)
        fib = span.fiber
        self.span = span
        self.f_eval = f_eval
        lo = np.array([c.f_center - c.symbol_rate / 2.0 for c in channels])
        hi = np.array([c.f_center + c.symbol_rate / 2.0 for c in channels])
        psd = np.array([c.psd(span_index) for c in channels])
        centers = np.array([c.f_center for c in channels])

        # The comb PSD on [breaks[k-1], breaks[k]) is table[k], so that
        # table[searchsorted(breaks, x, side="right")] samples it with the
        # channels' [lo, hi) edges; outside the comb it reads zero.  Each
        # interval adds its channels' PSDs in comb order, so overlapping
        # channels sum exactly as a per-channel loop would.
        self.breaks = np.unique(np.concatenate((lo, hi)))
        self.table = np.zeros(len(self.breaks) + 1)
        for a, b, g in zip(np.searchsorted(self.breaks, lo),
                           np.searchsorted(self.breaks, hi), psd):
            self.table[a + 1:b + 1] += g

        # The third frequency of pair (i, j) spans (x_lo, x_hi); the pair
        # counts when a channel overlaps that range, that is when, among
        # the channels starting below x_hi, the furthest-reaching one ends
        # above x_lo.
        i, j = np.triu_indices(len(channels))
        x_lo = lo[i] + lo[j] - f_eval
        x_hi = hi[i] + hi[j] - f_eval
        by_lo = np.argsort(lo, kind="stable")
        reach = np.maximum.accumulate(hi[by_lo])
        below = np.searchsorted(lo[by_lo], x_hi, side="left")
        keep = (below > 0) & (reach[np.maximum(below - 1, 0)] > x_lo)
        i, j = i[keep], j[keep]

        # Each pair integrates f1 over channel i and f2 over channel j.
        # A grid is uniform, or sinh-graded across the phase-matching ridge
        # when its channel straddles f_eval while the conjugate channel sits
        # nu away: the Lorentzian's half-width is then 2a / (4 pi^2 |b2| nu).
        b2_scale = abs(fib.beta2 + math.pi * fib.beta3
                       * 2.0 * (f_eval - fib.f_ref))
        nu = np.abs(centers - f_eval)
        ridge = np.full(len(channels), math.inf)
        if b2_scale > 0.0:
            near = nu > 0.0
            ridge[near] = fib.two_alpha / (4.0 * math.pi ** 2 * b2_scale
                                           * nu[near])
        straddle = (lo < f_eval) & (f_eval < hi)

        def grid_params(own, other):
            start, width, r = lo[own], hi[own] - lo[own], ridge[other]
            graded = straddle[own] & (r < width)
            for p in np.flatnonzero(graded):
                u_lo = math.asinh((lo[own[p]] - f_eval) / r[p])
                u_hi = math.asinh((hi[own[p]] - f_eval) / r[p])
                start[p], width[p] = u_lo, u_hi - u_lo
            return start, width, r, graded

        self.grid1 = grid_params(i, j)
        self.grid2 = grid_params(j, i)
        # psd_i psd_j, doubled off the diagonal for the (j, i) term.
        self.pair_weight = psd[i] * psd[j]
        self.pair_weight[i != j] *= 2.0

    def _grid(self, params, res: int) -> tuple[np.ndarray, np.ndarray]:
        """Points and weights [pairs, res] of midpoint grids, uniform in f
        or, where graded, in u = asinh((f - f_eval) / ridge)."""
        start, width, ridge, graded = params
        step = (width / res)[:, None]
        x = start[:, None] + step * (np.arange(res) + 0.5)
        w = np.repeat(step, res, axis=1)
        if graded.any():
            u, r = x[graded], ridge[graded, None]
            x[graded] = self.f_eval + r * np.sinh(u)
            w[graded] = r * np.cosh(u) * step[graded]
        return x, w

    def level(self, res: int) -> float:
        """Single-span NLI PSD with ``res`` grid points per channel."""
        span, f_eval = self.span, self.f_eval
        fib = span.fiber
        loss = span.span_loss_lin
        n_pairs = len(self.pair_weight)
        if res * res <= _CHUNK_ELEMENTS:
            chunk_pairs, chunk_rows = _CHUNK_ELEMENTS // (res * res), res
        else:
            chunk_pairs, chunk_rows = 1, max(1, _CHUNK_ELEMENTS // res)
        f_sum, phase, num, val = (
            np.empty(min(n_pairs, chunk_pairs) * chunk_rows * res)
            for _ in range(4))
        n_chunks = -(-res // chunk_rows)
        sums = np.empty(n_pairs)
        for p0 in range(0, n_pairs, chunk_pairs):
            pairs = slice(p0, p0 + chunk_pairs)
            f1, w1 = self._grid([a[pairs] for a in self.grid1], res)
            nu1 = (f1 - f_eval)[:, :, None]
            f1, w1 = f1[:, :, None], w1[:, :, None]
            f2, w2 = self._grid([a[pairs] for a in self.grid2], res)
            nu2 = (f2 - f_eval)[:, None, :]
            f2, w2 = f2[:, None, :], w2[:, None, :]
            parts = np.empty((len(f2), n_chunks))
            for c, r0 in enumerate(range(0, res, chunk_rows)):
                rows = slice(r0, min(r0 + chunk_rows, res))
                shape = (len(f2), rows.stop - r0, res)
                size = math.prod(shape)
                s, ph, nm, v = (buf[:size].reshape(shape)
                                for buf in (f_sum, phase, num, val))
                np.add(f1[:, rows], f2, out=s)
                np.subtract(s, f_eval, out=ph)
                np.take(self.table,
                        np.searchsorted(self.breaks, ph, side="right"),
                        out=v, mode="clip")
                # phase = 4 pi^2 b2(f1 + f2) (f1 - f) (f2 - f)
                np.subtract(s, 2.0 * fib.f_ref, out=ph)
                ph *= math.pi * fib.beta3
                ph += fib.beta2
                ph *= 4.0 * math.pi ** 2
                ph *= nu1[:, rows]
                ph *= nu2
                np.multiply(ph, span.length_km, out=nm)
                np.cos(nm, out=nm)
                nm *= 2.0 * loss
                np.subtract(1.0 + loss ** 2, nm, out=nm)
                np.square(ph, out=ph)
                ph += fib.two_alpha ** 2
                v *= nm
                v /= ph
                v *= w1[:, rows]
                v *= w2
                parts[:, c] = v.reshape(shape[0], -1).sum(axis=1)
            # NumPy sums a contiguous array by halves.  Adding the row
            # chunks' sums by halves too makes a pair's sum, for a
            # power-of-two resolution, bit-identical to np.sum over its
            # whole grid.
            while parts.shape[1] % 2 == 0:
                parts = parts[:, 0::2] + parts[:, 1::2]
            sums[pairs] = parts.sum(axis=1)
        # Accumulate the pair terms one after another, in pair order.
        total = np.add.accumulate(self.pair_weight * sums)[-1] if n_pairs \
            else 0.0
        prefactor = ((16.0 / 27.0) * fib.gamma ** 2
                     * span.gain_lin * loss)
        return float(prefactor * total)


def gn_span_psd(span: SpanConfig, comb: tuple[ChannelSpec, ...],
                f_eval: float, q: QuadratureConfig | None = None,
                span_index: int = 0) -> float:
    """Single-span GN-model NLI PSD (W/THz) at ``f_eval`` by 2-D quadrature.

    Converges by doubling the per-channel resolution until two successive
    results agree within the configured tolerance; raises
    :class:`QuadratureError` rather than evaluate a level above
    ``q.max_points_per_channel``.
    """
    if q is None:
        q = QuadratureConfig()
    if not _active(comb):
        return 0.0
    integrand = _SpanIntegrand(span, comb, f_eval, span_index)
    res = q.first_level
    prev = integrand.level(res)
    while True:
        res *= 2
        cur = integrand.level(res)
        if cur == 0.0 and prev == 0.0:
            return 0.0
        if abs(cur - prev) <= q.rel_tol * abs(cur):
            return cur
        if 2 * res > q.max_points_per_channel:
            rel = abs(cur - prev) / abs(cur) if cur else math.inf
            raise QuadratureError(
                f"quadrature not converged at {res} points per channel: "
                f"relative change {rel:.3g} between the last two levels "
                f"exceeds rel_tol {q.rel_tol:g}",
                estimate=cur, points_per_channel=res, rel_change=rel)
        prev = cur


def gn_rx_psd(link: LinkSpec, f_eval: float,
              q: QuadratureConfig | None = None,
              n_end: int | None = None) -> float:
    """Incoherent accumulation of the per-span quadrature values, propagated
    to the receiver exactly like the closed-form accumulation."""
    n_end = _check_n_end(link, n_end)
    psds = [gn_span_psd(link.spans[n], link.channels, f_eval, q, span_index=n)
            for n in range(n_end)]
    return float(propagate(span_transfer(link)[:n_end], psds)[-1])

