"""Per-pair GN quadrature level: the independent oracle for the batched one.

One channel pair at a time, with the third-frequency PSD sampled by a loop
over every channel and each pair's midpoint / sinh-graded grids built on
their own.  The package evaluates the same level for many pairs and spans
at once (:meth:`nli_planner.oracle._FiberGroup.levels`); the tests compare
the two.
"""

from __future__ import annotations

import math

import numpy as np

from conftest import SpanConfig
from nli_planner.types import ChannelSpec
from reference_cfm import gain_lin, span_loss_lin


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
    loss = span_loss_lin(span)

    lo = np.array([c.f_center - c.symbol_rate / 2.0 for c in channels])
    hi = np.array([c.f_center + c.symbol_rate / 2.0 for c in channels])
    psd = np.array([c.power_w_per_span[span_index] / c.symbol_rate
                    for c in channels])

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
            # The ridge is narrowest at the conjugate channel's far edge.
            f1, w1 = _pair_grid(lo[i], hi[i], res, f_eval, two_alpha,
                                b2_scale, max(abs(lo[j] - f_eval),
                                              abs(hi[j] - f_eval)))
            f2, w2 = _pair_grid(lo[j], hi[j], res, f_eval, two_alpha,
                                b2_scale, max(abs(lo[i] - f_eval),
                                              abs(hi[i] - f_eval)))
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
                 * gain_lin(span) * loss)
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
