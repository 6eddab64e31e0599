"""Seeded benchmark of nli-planner.

Usage, from the repository root:

    python3 bench/run.py --workload plan-paper --seed 1 --seconds 25 --trace 0

One process, one caller, closed loop: each unit of work starts when the
previous one has finished and been checked. With ``--trace 0`` the run
measures for ``--seconds`` seconds of unit time and reports the end-to-end
metrics; with ``--trace 1`` it runs a fixed number of units untraced, then
the same units traced, and reports the per-layer metrics. The last line of
standard output is the result as one JSON object. See bench/README.md.
"""

import os

# Pin BLAS and OpenMP to one thread before anything can import NumPy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["plan-paper", "oracle-campaign", "fit-roundtrip"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="unit time to measure with --trace 0")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-units", type=int, default=None,
                   help="cap on units per pass (toy-size smoke runs)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import nli_planner from this checkout's src/ and nowhere else."""
    if not (SRC / "nli_planner" / "__init__.py").is_file():
        raise SystemExit(f"error: no nli_planner sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nli_planner
    if Path(nli_planner.__file__).resolve().parent != SRC / "nli_planner":
        raise SystemExit(f"error: nli_planner imported from "
                         f"{nli_planner.__file__}, not {SRC}")
    return nli_planner


def first_asset_load() -> float:
    """Time the first checksum-verified load of every shipped asset."""
    from nli_planner import assets
    from nli_planner.types import CfmKind
    t0 = time.perf_counter()
    assets.fiber_presets()
    assets.phi_table()
    assets.qam_thresholds_db()
    assets.gaussian_mi_range()
    for kind in (CfmKind.CFM2, CfmKind.CFM3, CfmKind.CFM4):
        assets.shipped_coefficients(kind)
    return time.perf_counter() - t0


def setup_probe(args) -> None:
    """Body of one fresh interpreter timed for setup_s."""
    import_program()
    assets_s = first_asset_load()
    import workloads
    workload = workloads.WORKLOADS[args.workload]()
    workload.load_reference()
    cases = workload.cases(args.seed)
    for _ in range(workload.trace_units):
        next(cases)
    print(json.dumps({"assets_first_load_s": assets_s}))


# Fresh interpreters timed for setup_s, which is their median.
SETUP_REPEATS = 5


def measure_setup(args) -> dict[str, list[float]]:
    """Wall time of fresh interpreters that import the program, load its
    assets and build the workload's inputs, then exit. Each wall time is
    also scaled to reference speed by the calibration kernel timed just
    before and just after that interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = {"walls_s": [], "scaled_s": [], "assets_s": []}
    for _ in range(SETUP_REPEATS):
        before = [calibrate() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
        kernel = statistics.median(before + [calibrate() for _ in range(3)])
        out["walls_s"].append(wall)
        out["scaled_s"].append(wall * CALIBRATION_REF_S / kernel)
        out["assets_s"].append(json.loads(proc.stdout.splitlines()[-1])
                               ["assets_first_load_s"])
    return out


# Speed of the reference machine, defined as the one on which the
# calibration kernel takes this long.
CALIBRATION_REF_S = 0.010


def calibrate() -> float:
    """Time a fixed mix of scalar Python math and NumPy array work, the two
    kinds of work the program does, to track the machine's current speed.

    On a small shared machine the same unit runs up to ~40% slower from one
    half-minute to the next, with the CPU time rising with the wall time.
    Unit times are scaled by CALIBRATION_REF_S over this kernel's time,
    measured next to each unit, so that runs made at different moments
    compare. The kernel is benchmark code: no change to the program can
    move it.
    """
    x = np.linspace(0.1, 1.0, 2048)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(200):
        for j in range(40):
            acc += math.asinh(j * 1e-3 + i) * math.sqrt(j + 1.0)
        acc += float(np.sum(np.cos(x * (i + 1.0)) / (1.0 + x * x)))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite sum")
    return elapsed


def environment(args, workload) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "why": workload.why,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def run_pass(workload, cases, args, *, seconds=None, tracer=None) -> dict:
    """Run units from ``cases`` until it is exhausted or, with ``seconds``,
    until the round boundary nearest to ``seconds`` of unit time at
    reference speed. Checks and calibration run between units, untimed."""
    from nli_planner.cfm import LowDispersionWarning
    cap = args.max_units
    times, failures, low_dispersion = [], [], 0
    calibration = [[calibrate() for _ in range(3)]]
    workload.observed = defaultdict(list)
    session = None
    rnd = workload.round_size
    for i, case in enumerate(cases):
        if cap is not None and i >= cap:
            break
        if seconds is not None and i and i % rnd == 0:
            scaled = scale_times(times, calibration)
            if sum(scaled) + sum(scaled[-rnd:]) / 2 >= seconds:
                break
        if session is None or (workload.session_every
                               and i % workload.session_every == 0):
            session = workload.new_session()
        output, error = None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", LowDispersionWarning)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = workload.run(session, case)
                else:
                    with tracer.span("unit"):
                        output = workload.run(session, case)
            except Exception as exc:  # a failed unit, counted and reported
                error = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            in_unit = len(caught)
            if error is None:
                try:
                    error = workload.check(session, case, output)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
        # Low-dispersion warnings carry their value, so they never
        # deduplicate: count the unit's own instead of printing them.
        for j, w in enumerate(caught):
            if issubclass(w.category, LowDispersionWarning):
                low_dispersion += j < in_unit
            else:
                warnings.showwarning(w.message, w.category, w.filename,
                                     w.lineno)
        if error is not None:
            failures.append({"unit": i, "case": repr(case), "error": error})
        # One kernel sample per 0.1 s of unit, from 1 to 7: longer units
        # see more changes of machine speed.
        reps = min(7, max(1, int(times[-1] / 0.1)))
        calibration.append([calibrate() for _ in range(reps)])
    return {"times": times, "scaled_times": scale_times(times, calibration),
            "failures": failures,
            "calibration": calibration,
            "low_dispersion_warnings": low_dispersion,
            "observed": dict(workload.observed)}


def scale_times(times, calibration) -> list[float]:
    """Unit times at reference speed. ``calibration[k]`` holds the kernel
    samples taken just before unit ``k``; unit ``i`` is scaled by the
    median of the samples from the boundaries ``i - 1`` to ``i + 2``."""
    out = []
    for i, t in enumerate(times):
        near = [c for b in calibration[max(0, i - 1):i + 3] for c in b]
        out.append(t * CALIBRATION_REF_S / statistics.median(near))
    return out


def percentile_ms(values, q) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def end_to_end_metrics(res, setup) -> dict:
    times = res["scaled_times"]
    done = len(times) - len(res["failures"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup["scaled_s"]), "s"),
        "units_per_s": (done / sum(times), "1/s"),
        "unit_ms.p50": (percentile_ms(times, 50), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, plain, traced, assets_s) -> dict:
    import tracing
    summ = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def layer(name):
        return summ.get(name, empty)

    counters = tracer.counters
    m = {}
    for name in (list(tracing.LAYERS) + list(tracing.ENTRY_POINTS)
                 + [tracing.ORACLE_SNR, tracing.MINIMIZE, tracing.COST_EVAL]):
        m[f"{name}.calls"] = (layer(name)["calls"], "count")
        m[f"{name}.self_s"] = (layer(name)["self_s"], "s")
    for name in ("perf.snr", "perf.snr_report", "perf.max_reach",
                 "perf.evaluate_all_channels", "poweropt.optimize_powers",
                 "oracle.gn_span_psd"):
        durations = layer(name)["durations"]
        m[f"{name}.ms.p50"] = (percentile_ms(durations, 50), "ms")
    m["oracle.gn_span_psd.ms.p90"] = (
        percentile_ms(layer("oracle.gn_span_psd")["durations"], 90), "ms")
    m["cfm.low_dispersion_warnings"] = (traced["low_dispersion_warnings"],
                                        "count")
    observed = traced["observed"]
    attempts = counters["campaign.attempts"]
    kept = sum(observed.get("kept_systems", []))
    m["campaign.attempts"] = (attempts, "count")
    m["campaign.kept_ratio"] = (kept / attempts if attempts else 0.0, "ratio")
    m["campaign.cost_evals"] = (counters["campaign.cost_evals"], "count")
    m["campaign.cost_eval_ms"] = (
        percentile_ms(layer(tracing.COST_EVAL)["durations"], 50), "ms")
    m["fileio.bytes_written"] = (sum(observed.get("bytes_written", [])),
                                 "bytes")
    sigmas = observed.get("heldout_sigma_db", [])
    m["fit.heldout_sigma_db"] = (statistics.median(sigmas) if sigmas
                                 else 0.0, "dB")
    m["assets.first_load_s"] = (statistics.median(assets_s), "s")

    unit_s = layer(tracing.UNIT)["total_s"]
    named_s = sum(row["self_s"] for name, row in summ.items()
                  if name not in tracing.ENTRY_POINTS and name != tracing.UNIT)
    m["trace.layer_share"] = (named_s / unit_s if unit_s else 0.0, "ratio")
    m["trace.wall_s"] = (sum(traced["times"]), "s")
    m["trace.overhead_s"] = (sum(traced["scaled_times"])
                             - sum(plain["scaled_times"]), "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_program()
    setup = measure_setup(args)
    import workloads
    workload = workloads.WORKLOADS[args.workload]()
    workload.load_reference()
    env = environment(args, workload)
    print(f"# {json.dumps(env)}", file=sys.stderr)

    out = {"environment": env, "setup": setup}
    if args.trace == 0:
        res = run_pass(workload, workload.cases(args.seed), args,
                       seconds=args.seconds)
        metrics = end_to_end_metrics(res, setup)
        runs = [res]
    else:
        import tracing
        cases = workload.trace_cases(args.seed)
        plain = run_pass(workload, cases, args)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_pass(workload, cases, args, tracer=tracer)
        metrics = per_layer_metrics(tracer, plain, traced, setup["assets_s"])
        runs = [plain, traced]
        out["spans_file"] = str(write_spans(args, tracer))

    attempted = sum(len(r["times"]) for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    out.update(result=result, runs=runs)
    record = workloads.OUT_DIR / (f"{args.workload}-seed{args.seed}"
                                  f"-trace{args.trace}.json")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(out, indent=1, default=str) + "\n")
    for r in runs:
        for f in r["failures"]:
            print(f"FAILED unit {f['unit']}: {f['error']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def write_spans(args, tracer) -> Path:
    import workloads
    path = workloads.OUT_DIR / (f"spans-{args.workload}-seed{args.seed}"
                                ".jsonl")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for row in tracer.rows():
            handle.write(json.dumps(row) + "\n")
    return path


if __name__ == "__main__":
    sys.exit(main())
