"""Command-line interface.

Commands: generate, evaluate, campaign, fit, oracle.  Exit codes:
0 success, 2 usage error, 3 validation/parse error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time

import numpy as np

from . import fileio
from .campaign import (CampaignConfig, CfmBenchmark, FitConfig,
                       GnOracleBenchmark, fit_coefficients, run_campaign)
from .cfm import (ZeroDispersionError, _check_n_end,
                  one_low_dispersion_warning, propagate, rx_nli_psds)
from .oracle import QuadratureConfig, QuadratureError, gn_span_psds
from .perf import UnreachableError, link_report, max_reach_scan
from .poweropt import optimize_powers
from .sysgen import (CUT_POSITIONS, NF_MODES, GeneratorConfig,
                     generate_system_from_seed)
from .types import CfmKind, ValidationError

# Only for bench/tracing.py's LAYERS to patch here; nothing here calls them.
from .perf import evaluate_all_channels, max_reach, snr_report

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4


def _variant(args) -> "CfmKind":
    return CfmKind(args.model)


def _emit(doc: dict, path: str | None) -> None:
    text = fileio.json_text(doc)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=[k.value for k in CfmKind],
                   default="cfm4", help="closed-form variant (default cfm4)")
    p.add_argument("--coefficients", metavar="FILE",
                   help="JSON coefficient file overriding the shipped table")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nli-planner",
        description="Closed-form NLI models for coherent WDM link planning")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="draw a randomized system")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--category", type=int, choices=range(1, 6), default=1)
    g.add_argument("--cut-position", choices=CUT_POSITIONS, default="center")
    g.add_argument("--band-width-thz", type=float, default=5.0)
    g.add_argument("--n-spans", type=int, default=20)
    g.add_argument("--nf-mode", choices=NF_MODES, default="mixed")
    g.add_argument("--optimize-powers", action="store_true",
                   help="run the launch-power pipeline before writing")
    g.add_argument("-o", "--output", help="system JSON path (default stdout)")

    e = sub.add_parser("evaluate", help="SNR and reach of a system file")
    e.add_argument("system", help="system JSON file")
    _add_model_args(e)
    e.add_argument("--all-channels", action="store_true",
                   help="evaluate every active channel as CUT")
    e.add_argument("--threshold-db", type=float, default=None,
                   help="also report max reach against this SNR threshold")
    e.add_argument("-o", "--output", help="result JSON path (default stdout)")

    c = sub.add_parser("campaign", help="multi-system accuracy campaign")
    c.add_argument("--n-systems", type=int, default=100)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--categories", type=int, nargs="+", default=[1],
                   choices=range(1, 6))
    c.add_argument("--cut-positions", nargs="+", default=["center"],
                   choices=CUT_POSITIONS)
    c.add_argument("--models", nargs="+", default=["cfm1"],
                   choices=[k.value for k in CfmKind])
    c.add_argument("--benchmark", choices=["gn-oracle"] +
                   [k.value for k in CfmKind], default="gn-oracle")
    c.add_argument("--band-width-thz", type=float, default=5.0)
    c.add_argument("--n-spans", type=int, default=20)
    c.add_argument("--bin-width-db", type=float, default=0.02)
    c.add_argument("--histogram-csv", help="per-bin histogram CSV path")
    c.add_argument("-o", "--output", help="summary JSON path (default stdout)")

    f = sub.add_parser("fit", help="fit model coefficients to a benchmark")
    f.add_argument("model", choices=["cfm2", "cfm3", "cfm4"])
    f.add_argument("--benchmark", choices=["gn-oracle"] +
                   [k.value for k in CfmKind], default="gn-oracle")
    f.add_argument("--n-systems", type=int, default=50)
    f.add_argument("--seed", type=int, default=1000)
    f.add_argument("--categories", type=int, nargs="+", default=[1],
                   choices=range(1, 6))
    f.add_argument("--cut-positions", nargs="+", default=["center"],
                   choices=CUT_POSITIONS)
    f.add_argument("--band-width-thz", type=float, default=5.0)
    f.add_argument("--n-spans", type=int, default=20)
    f.add_argument("--max-iterations", type=int, default=4000,
                   help="residual evaluations per start of the solve")
    f.add_argument("-o", "--output", required=True,
                   help="fitted coefficient JSON path")

    o = sub.add_parser("oracle", help="quadrature NLI PSD of a system file")
    o.add_argument("system", help="system JSON file")
    o.add_argument("--f-eval-thz", type=float, default=None,
                   help="evaluation frequency (default: CUT center)")
    o.add_argument("--n-spans", type=int, default=None,
                   help="truncate to this many spans")
    o.add_argument("--points-per-channel", type=int, default=32)
    o.add_argument("--rel-tol", type=float, default=0.02)
    o.add_argument("-o", "--output", help="result JSON path (default stdout)")

    return parser


def _make_benchmark(name: str):
    if name == "gn-oracle":
        return GnOracleBenchmark()
    return CfmBenchmark(fileio.variant_from_files(CfmKind(name), None))


def _cmd_generate(args) -> int:
    cfg = GeneratorConfig(category=args.category,
                          cut_position=args.cut_position,
                          band_width=args.band_width_thz,
                          n_spans=args.n_spans, nf_mode=args.nf_mode,
                          seed=args.seed)
    link = generate_system_from_seed(cfg)
    if args.optimize_powers:
        link, _plan = optimize_powers(
            link, np.random.default_rng([cfg.seed, 1]))
    _emit(fileio.system_to_json(link), args.output)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    if args.threshold_db is not None and not np.isfinite(args.threshold_db):
        raise ValueError("--threshold-db must be finite")
    link = fileio.load_system(args.system)
    variant = fileio.variant_from_files(_variant(args), args.coefficients)
    doc: dict = {"version": 1, "model": variant.kind.value,
                 "n_spans": link.n_spans, "cut_index": link.cut_index}

    # One kernel pass: every row with --all-channels, else the CUT row.
    rows = link if args.all_channels else link.stack
    start = time.perf_counter()
    report = link_report(rows, rx_nli_psds(rows, variant))
    elapsed = 1e3 * (time.perf_counter() - start)
    col = link.cut_index if args.all_channels else 0
    active = link.comb.active if args.all_channels else slice(None)
    if not all(np.isfinite(a[:, active]).all()
               for a in (report.snr_db, report.p_nli_w, report.p_ase_w)):
        raise FloatingPointError("non-finite result for an active channel")
    snrs = report.snr_db[:, col].tolist()
    doc["cut"] = {"per_span_snr_db": snrs,
                  "p_ase_w": report.p_ase_w[:, col].tolist(),
                  "p_nli_w": report.p_nli_w[:, col].tolist()}
    if args.threshold_db is not None:
        try:
            reach = max_reach_scan(lambda n: snrs[n - 1], link.n_spans,
                                   args.threshold_db)
            doc["reach"] = {"threshold_db": reach.threshold_db,
                            "max_reach_spans": reach.max_reach_spans,
                            "snr_at_reach_db": reach.snr_at_reach_db}
        except UnreachableError:
            doc["reach"] = {"threshold_db": args.threshold_db,
                            "max_reach_spans": 0}
    if args.all_channels:

        def _clean(arr):
            """The values, None where not finite (an inactive channel)."""
            return np.where(np.isfinite(arr), arr, None).tolist()

        doc["channels"] = {
            "f_center_thz": link.comb.f.tolist(),
            "active": link.comb.active.tolist(),
            "snr_db": _clean(report.snr_db[-1]),
            "p_nli_w": _clean(report.p_nli_w[-1]),
            "p_ase_w": _clean(report.p_ase_w[-1]),
            "elapsed_ms": elapsed,
        }
    _emit(doc, args.output)
    return EXIT_OK


def _cmd_campaign(args) -> int:
    cfg = CampaignConfig(n_systems=args.n_systems,
                         categories=tuple(args.categories),
                         cut_positions=tuple(args.cut_positions),
                         variants=tuple(CfmKind(m) for m in args.models),
                         seed=args.seed, bin_width_db=args.bin_width_db,
                         band_width_thz=args.band_width_thz,
                         n_spans=args.n_spans)
    result = run_campaign(cfg, _make_benchmark(args.benchmark))
    if args.histogram_csv:
        fileio.write_histogram_csv(result.stats, args.histogram_csv)
    _emit(fileio.campaign_to_json(result), args.output)
    return EXIT_OK


def _cmd_fit(args) -> int:
    cfg = FitConfig(n_systems=args.n_systems, seed=args.seed,
                    categories=tuple(args.categories),
                    cut_positions=tuple(args.cut_positions),
                    band_width_thz=args.band_width_thz,
                    n_spans=args.n_spans,
                    max_iterations=args.max_iterations)
    result = fit_coefficients(cfg, CfmKind(args.model),
                              _make_benchmark(args.benchmark))
    fileio.save_coefficients(result.kind, result.coefficients, args.output)
    # A non-finite cost, which JSON cannot hold, is written as null.
    cost_initial, cost_final = (c if np.isfinite(c) else None for c in
                                (result.cost_initial, result.cost_final))
    summary = {"version": 1, "variant": result.kind.value,
               "cost_initial": cost_initial, "cost_final": cost_final,
               "improved": result.improved, "n_terms": result.n_terms,
               "n_evaluations": result.n_evaluations}
    _emit(summary, None)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    link = fileio.load_system(args.system)
    ch, c = link.comb, link.cut_index
    f_eval = args.f_eval_thz if args.f_eval_thz is not None \
        else float(ch.f[c])
    n_end = _check_n_end(link, args.n_spans)
    quad = QuadratureConfig(points_per_channel=args.points_per_channel,
                            rel_tol=args.rel_tol)
    psds, stats = gn_span_psds(link, f_eval, quad, n_end)
    psd = float(propagate(link.span_arrays.transfer[:n_end], psds)[-1])
    # The NLI power in the band [f_c - R/2, f_c + R/2) of the active
    # channel holding f_eval, the CUT first where channels overlap; none
    # in a gap between channels.
    holds = sorted(np.flatnonzero(
        ch.active & (ch.f - ch.rate / 2.0 <= f_eval)
        & (f_eval < ch.f + ch.rate / 2.0)).tolist(), key=lambda i: i != c)
    _emit({"version": 1, "f_eval_thz": f_eval, "n_spans": n_end,
           "rx_nli_psd_w_per_thz": psd,
           "nli_power_w": psd * float(ch.rate[holds[0]]) if holds else None,
           "spans": [dataclasses.asdict(stat) for stat in stats]}, args.output)
    return EXIT_OK


_COMMANDS = {"generate": _cmd_generate, "evaluate": _cmd_evaluate,
             "campaign": _cmd_campaign, "fit": _cmd_fit,
             "oracle": _cmd_oracle}


@one_low_dispersion_warning
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (fileio.ParseError, ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (QuadratureError, ZeroDispersionError, UnreachableError,
            ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
