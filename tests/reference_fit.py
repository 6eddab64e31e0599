"""Per-system fit cost: the independent reference for the stacked residual.

One system at a time: its truncation-by-term matrices and features are kept
apart, and the cost is a Python loop over systems that evaluates the
correction factors of each one and sums its squared relative errors.  The
package stacks every system's terms into one residual
(:class:`nli_planner.campaign._FitData`); the tests compare the two.
"""

from __future__ import annotations

import numpy as np

from nli_planner.cfm import propagate, rho_cross, rho_self, span_integrals
from nli_planner.types import CfmKind, LinkSpec
from reference_cfm import coherence_bracket


class LoopFitData:
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
        ch = link.comb
        c = link.cut_index
        g = ch.power / ch.rate
        idx = np.flatnonzero(ch.active & (np.arange(len(ch.f)) != c))
        sci_inc, sci_coh, sci_acc = np.zeros((3, reach))
        xb, xacc = [], []
        s = span_integrals(link)  # every channel as CUT
        abs_acc = s.abs_acc()
        for m in range(reach):
            base = s.prefactor[m, 0] * g[m, c]
            f = s.fiber[m, 0]
            sci_inc[m] = base * g[m, c] ** 2 * s.i_self[f, c]
            if self.kind.coherent_sci:
                sci_coh[m] = base * g[m, c] ** 2 * s.i_coherent[m, c]
            sci_acc[m] = abs_acc[m, c, c]
            xb.append(base * 2.0 * g[m, idx] ** 2 * s.i_cross[f, c, idx])
            xacc.append(abs_acc[m, c, idx])
        span_of_x = np.repeat(np.arange(reach), idx.size)
        xidx = np.tile(idx, reach)
        brackets = np.array([coherence_bracket(n) for n in range(1, reach + 1)])
        # [truncation, span] propagation, in units of the benchmark power.
        prop = (propagate(link.span_arrays.transfer[:reach], np.eye(reach))
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
