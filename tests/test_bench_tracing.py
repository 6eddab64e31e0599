"""The names the benchmark's tracer patches still resolve in the package,
and the benchmark's workloads still run on it.

``bench/tracing.py`` times a traced run by replacing module attributes of
``nli_planner`` (the functions each caller module imported, plus
``campaign.minimize`` and ``GnOracleBenchmark.snr_db``).  A rename in the
package would make a traced run fail with ``AttributeError``; this test
loads the tracer from its file, without importing the benchmark package,
and checks every name.  It loads ``bench/workloads.py`` the same way and
runs the fit workload's held-out check, cut short, so that a deletion the
benchmark reads fails here too.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from nli_planner import assets, campaign
from nli_planner.types import ModelVariant

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched_names(tracing):
    for table in (tracing.LAYERS, tracing.ENTRY_POINTS):
        for name, callers in table.items():
            attr = name.split(".", 1)[1]
            for mod_name in callers:
                yield f"nli_planner.{mod_name}", attr


def test_every_patched_name_resolves(tracing):
    missing = [f"{mod}.{attr}" for mod, attr in _patched_names(tracing)
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert missing == []
    assert tracing.MINIMIZE == "campaign.minimize"
    assert callable(campaign.minimize)
    assert tracing.ORACLE_SNR == "campaign.GnOracleBenchmark.snr_db"
    assert callable(campaign.GnOracleBenchmark.snr_db)


def test_tracer_installs_and_restores(tracing):
    names = list(_patched_names(tracing))
    before = {(mod, attr): getattr(importlib.import_module(mod), attr)
              for mod, attr in names}
    minimize, snr_db = campaign.minimize, campaign.GnOracleBenchmark.snr_db
    with tracing.Tracer().installed():
        assert campaign.minimize is not minimize
        assert campaign.GnOracleBenchmark.snr_db is not snr_db
    for (mod, attr), original in before.items():
        assert getattr(importlib.import_module(mod), attr) is original
    assert campaign.minimize is minimize
    assert campaign.GnOracleBenchmark.snr_db is snr_db


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while being made.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_fit_workload_heldout_check_runs(workloads):
    # The held-out check draws, plans and scans systems and reads the CUT's
    # format, perf.snr and the truth's snr_db: with the truth table itself
    # every error is exactly 0, with the perturbed start it is not.
    fit = workloads.FitRoundtrip()
    fit.n_heldout = 3
    case = next(fit.cases(1))
    assert fit.heldout_sigma(case, assets.model(case.kind)) == 0.0
    sigma = fit.heldout_sigma(case, ModelVariant(case.kind, case.start))
    assert math.isfinite(sigma) and sigma > 0.0
