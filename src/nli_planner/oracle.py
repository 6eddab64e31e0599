"""Numerical GN-model benchmark: 2-D quadrature of the single-span NLI PSD
with rectangular channel spectra, incoherent multi-span accumulation, and
the matched-filter NLI power integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cfm import propagate, span_transfer
from .types import ChannelSpec, LinkSpec, SpanConfig


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; the best estimate is attached."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class QuadratureConfig:
    points_per_channel: int = 32  # midpoint-rule points across one bandwidth
    rel_tol: float = 0.02  # convergence target between two resolutions
    max_points_per_channel: int = 256


@dataclass(frozen=True)
class MatchedFilter:
    """Root-raised-cosine receiver filter; |H|^2 is the unit-peak
    raised-cosine power response."""

    f_center: float  # THz
    symbol_rate: float  # TBaud
    roll_off: float

    def power_response(self, f_offset: np.ndarray) -> np.ndarray:
        """|H(f)|^2 at baseband offsets f (THz) from the filter center."""
        r = self.symbol_rate
        b = self.roll_off
        af = np.abs(np.asarray(f_offset, dtype=float))
        flat_edge = (1.0 - b) * r / 2.0
        stop_edge = (1.0 + b) * r / 2.0
        out = np.zeros_like(af)
        out[af <= flat_edge] = 1.0
        if b > 0.0:
            mask = (af > flat_edge) & (af < stop_edge)
            out[mask] = 0.5 * (1.0 + np.cos(
                math.pi / (b * r) * (af[mask] - flat_edge)))
        return out

    @property
    def equivalent_bandwidth(self) -> float:
        """Integral of |H|^2 over frequency: R for any roll-off."""
        return self.symbol_rate


def _active(comb: tuple[ChannelSpec, ...]) -> list[ChannelSpec]:
    return [c for c in comb if c.active]


def _comb_psd(edges_lo: np.ndarray, edges_hi: np.ndarray, psd: np.ndarray,
              x: np.ndarray) -> np.ndarray:
    """Rectangular-spectrum comb PSD sampled at frequencies x."""
    out = np.zeros_like(x)
    for lo, hi, g in zip(edges_lo, edges_hi, psd):
        out += np.where((x >= lo) & (x < hi), g, 0.0)
    return out


def _gn_span_psd_at_res(span: SpanConfig, comb: tuple[ChannelSpec, ...],
                        f_eval: float, span_index: int, res: int) -> float:
    channels = _active(comb)
    fib = span.fiber
    two_alpha = fib.two_alpha
    length = span.length_km
    loss = span.span_loss_lin

    lo = np.array([c.f_center - c.symbol_rate / 2.0 for c in channels])
    hi = np.array([c.f_center + c.symbol_rate / 2.0 for c in channels])
    psd = np.array([c.psd(span_index) for c in channels])
    centers = np.array([c.f_center for c in channels])

    b2_scale = abs(fib.beta2 + math.pi * fib.beta3
                   * 2.0 * (f_eval - fib.f_ref))

    total = 0.0
    n = len(channels)
    for i in range(n):
        for j in range(i, n):
            # The third frequency f1 + f2 - f must land inside the comb.
            x_lo = lo[i] + lo[j] - f_eval
            x_hi = hi[i] + hi[j] - f_eval
            if np.all((hi <= x_lo) | (lo >= x_hi)):
                continue
            f1, w1 = _pair_grid(lo[i], hi[i], res, f_eval, two_alpha,
                                b2_scale, abs(centers[j] - f_eval))
            f2, w2 = _pair_grid(lo[j], hi[j], res, f_eval, two_alpha,
                                b2_scale, abs(centers[i] - f_eval))
            g3 = _comb_psd(lo, hi, psd, f1[:, None] + f2[None, :] - f_eval)
            nu1 = f1[:, None] - f_eval
            nu2 = f2[None, :] - f_eval
            b2 = fib.beta2 + math.pi * fib.beta3 * (f1[:, None] + f2[None, :]
                                                    - 2.0 * fib.f_ref)
            phase = 4.0 * math.pi ** 2 * b2 * nu1 * nu2
            num = 1.0 + loss ** 2 - 2.0 * loss * np.cos(phase * length)
            den = two_alpha ** 2 + phase ** 2
            val = psd[i] * psd[j] * np.sum(g3 * num / den
                                           * w1[:, None] * w2[None, :])
            total += val if i == j else 2.0 * val
    prefactor = ((16.0 / 27.0) * fib.gamma ** 2
                 * span.gain_lin(f_eval) * loss)
    return prefactor * total


def _pair_grid(lo: float, hi: float, n: int, f_eval: float, two_alpha: float,
               b2_scale: float, nu_other: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature points and weights on [lo, hi].

    Uniform midpoints, except when the interval straddles ``f_eval`` while
    the conjugate frequency sits ``nu_other`` away: the phase-matching
    Lorentzian then has half-width 2a / (4 pi^2 |b2| nu_other) around
    ``f_eval``, and a sinh-graded grid concentrates points on that ridge.
    """
    ridge = math.inf
    if b2_scale > 0.0 and nu_other > 0.0:
        ridge = two_alpha / (4.0 * math.pi ** 2 * b2_scale * nu_other)
    if not lo < f_eval < hi or ridge >= (hi - lo):
        step = (hi - lo) / n
        return (lo + step * (np.arange(n) + 0.5),
                np.full(n, step))
    u_lo = math.asinh((lo - f_eval) / ridge)
    u_hi = math.asinh((hi - f_eval) / ridge)
    du = (u_hi - u_lo) / n
    u = u_lo + du * (np.arange(n) + 0.5)
    return f_eval + ridge * np.sinh(u), ridge * np.cosh(u) * du


def gn_span_psd(span: SpanConfig, comb: tuple[ChannelSpec, ...],
                f_eval: float, q: QuadratureConfig | None = None,
                span_index: int = 0) -> float:
    """Single-span GN-model NLI PSD (W/THz) at ``f_eval`` by 2-D quadrature.

    Converges by doubling the per-channel resolution until two successive
    results agree within the configured tolerance.
    """
    if q is None:
        q = QuadratureConfig()
    if not _active(comb):
        return 0.0
    res = max(8, q.points_per_channel // 2)
    prev = _gn_span_psd_at_res(span, comb, f_eval, span_index, res)
    while True:
        res *= 2
        cur = _gn_span_psd_at_res(span, comb, f_eval, span_index, res)
        if cur == 0.0 and prev == 0.0:
            return 0.0
        if abs(cur - prev) <= q.rel_tol * abs(cur):
            return cur
        if res >= q.max_points_per_channel:
            raise QuadratureError(
                f"quadrature not converged at {res} points per channel",
                estimate=cur)
        prev = cur


def gn_rx_psd(link: LinkSpec, f_eval: float,
              q: QuadratureConfig | None = None,
              n_end: int | None = None) -> float:
    """Incoherent accumulation of the per-span quadrature values, propagated
    to the receiver exactly like the closed-form accumulation."""
    if n_end is None:
        n_end = link.n_spans
    psds = [gn_span_psd(link.spans[n], link.comb(n), f_eval, q, span_index=n)
            for n in range(n_end)]
    return float(propagate(span_transfer(link)[:n_end], psds)[-1])


def nli_power_matched(f_offsets: np.ndarray, psd_samples: np.ndarray,
                      filt: MatchedFilter) -> float:
    """Matched-filter NLI power (W): trapezoid rule over the filter support.

    ``f_offsets`` are baseband offsets (THz) from the filter center and must
    cover the full (1+roll_off)*R support.
    """
    f = np.asarray(f_offsets, dtype=float)
    g = np.asarray(psd_samples, dtype=float)
    half = (1.0 + filt.roll_off) * filt.symbol_rate / 2.0
    if f[0] > -half or f[-1] < half:
        raise ValueError("PSD samples do not cover the filter support")
    return float(np.trapezoid(g * filt.power_response(f), f))
