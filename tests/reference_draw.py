"""The system draw one attempt at a time, as an independent reference for
``campaign.draw_systems``, which plans and scores attempts in blocks.

Each attempt is drawn, screened, built, power-optimized alone, given its
sensitivity threshold and reach-scanned against the benchmark's own
per-link reads, so an unreachable attempt changes the category and CUT
position of the attempts after it with nothing to throw away.
"""

from __future__ import annotations

import numpy as np

from nli_planner.campaign import UNREACHABLE, DrawnSystem, SystemDraw
from nli_planner.perf import SensitivityPolicy, UnreachableError, \
    max_reach_scan
from nli_planner.poweropt import optimize_powers
from nli_planner.sysgen import LOW_DISPERSION_FLAG, GeneratorConfig, \
    draw_system
from nli_planner.types import FORMATS


def draw_one_at_a_time(draw: SystemDraw, benchmark):
    """Yield every attempt of the draw until ``draw.n_systems`` were
    kept, as ``campaign.draw_systems`` does, without its reports."""
    policy = SensitivityPolicy.default()
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
                              n_spans=draw.n_spans, seed=draw.seed)
        drawn = draw_system(gen, rng)
        if drawn.low_dispersion:
            yield DrawnSystem(attempt, cat, pos, None, None,
                              LOW_DISPERSION_FLAG)
            continue
        link, _plan = optimize_powers(drawn.build(), rng)
        threshold = policy.threshold_db(
            FORMATS[link.comb.fmt[link.cut_index]], rng)
        try:
            reach = max_reach_scan(lambda n: benchmark.snr_db(link, n),
                                   link.n_spans, threshold)
        except UnreachableError:
            yield DrawnSystem(attempt, cat, pos, link, None, UNREACHABLE)
            continue
        kept += 1
        yield DrawnSystem(attempt, cat, pos, link, reach.max_reach_spans,
                          None)
