"""In-memory span tracing around the public calls of nli_planner.

The benchmark never edits the package. It replaces, for the duration of a
traced pass, the names that each caller module imported (for example
``nli_planner.perf.rx_nli_psd``) by timing wrappers, and puts the originals
back afterwards. A span's self time is its duration minus the time covered
by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Span name -> modules whose imported name of that function is wrapped. The
# defining module is listed too, so calls that resolve through its own
# globals (perf.max_reach -> perf.snr, oracle.gn_rx_psd -> gn_span_psd) are
# seen as well.
LAYERS = {
    "cfm.rx_nli_psd": ("cfm", "perf", "poweropt", "campaign"),
    "cfm.rx_nli_psd_all_channels": ("cfm", "perf"),
    "perf.ase_power": ("perf", "poweropt", "campaign"),
    "perf.snr": ("perf", "campaign"),
    "perf.snr_report": ("perf", "cli"),
    "perf.max_reach": ("perf", "cli"),
    "perf.max_reach_scan": ("perf", "campaign"),
    "perf.evaluate_all_channels": ("perf", "cli"),
    "sysgen.generate_system": ("sysgen", "campaign"),
    "poweropt.optimize_powers": ("poweropt", "campaign", "cli"),
    "oracle.gn_span_psd": ("oracle", "campaign"),
    "campaign.build_fit_data": ("campaign",),
    "fileio.save_system": ("fileio",),
    "fileio.load_system": ("fileio",),
    "cli.main": ("cli",),
}

# Entry points the benchmark calls for a whole unit. Their self time is the
# campaign loop's own bookkeeping; it is reported but not counted as a
# named layer when checking how much of a unit the layers explain.
ENTRY_POINTS = {
    "campaign.run_campaign": ("campaign",),
    "campaign.fit_coefficients": ("campaign",),
}

ORACLE_SNR = "campaign.GnOracleBenchmark.snr_db"
MINIMIZE = "campaign.minimize"
COST_EVAL = "campaign.cost_eval"
UNIT = "unit"


class Tracer:
    """Keeps spans as ``[name, parent, start, end]`` rows plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        row = [name, parent, time.perf_counter(), None]
        self.spans.append(row)
        self._stack.append(idx)
        try:
            yield
        finally:
            row[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counter: str | None = None):
        """Time calls made inside a unit span; calls outside one (the
        benchmark's own output checks) pass straight through."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            if counter is not None:
                self.counters[counter] += 1
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_minimize(self, fn):
        """Time each objective evaluation and sum the optimizer's nfev."""
        @functools.wraps(fn)
        def traced(fun, *args, **kwargs):
            if not self._stack:
                return fn(fun, *args, **kwargs)
            with self.span(MINIMIZE):
                res = fn(self.wrap(COST_EVAL, fun), *args, **kwargs)
            self.counters["campaign.cost_evals"] += int(res.nfev)
            return res
        return traced

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        for table in (LAYERS, ENTRY_POINTS):
            for name, callers in table.items():
                attr = name.split(".", 1)[1]
                for mod_name in callers:
                    mod = importlib.import_module(f"nli_planner.{mod_name}")
                    counter = ("campaign.attempts" if mod_name == "campaign"
                               and name == "sysgen.generate_system" else None)
                    patch(mod, attr, self.wrap(name, getattr(mod, attr),
                                               counter))
        campaign = importlib.import_module("nli_planner.campaign")
        bench_cls = campaign.GnOracleBenchmark
        patch(bench_cls, "snr_db", self.wrap(ORACLE_SNR, bench_cls.snr_db))
        patch(campaign, "minimize", self.wrap_minimize(campaign.minimize))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total duration, self time, durations."""
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, _parent, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "durations": []})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[idx]
            row["durations"].append(end - start)
        return out

    def rows(self) -> list[dict]:
        return [{"id": i, "name": n, "parent": p, "start": s, "end": e}
                for i, (n, p, s, e) in enumerate(self.spans)]
