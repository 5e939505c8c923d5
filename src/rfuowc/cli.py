"""Command-line driver: sweeps, validation, plotting, preset listing.

A sweep runs each method over all its points through system.evaluate.  Exit
codes: 0 success, 1 validation failure, 2 bad config or output.  A sweep cell
whose method raises a typed numerical error is a NaN row; it still exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import pathlib
import sys
from datetime import datetime, timezone

from . import __version__
from .channels import WATER_PRESETS
from .config import ConfigError, SweepSpec, load_sweep_spec, parse_config, \
    resolve_seed
from .mc import McConfig
from .plotting import PlotError, emit_plot
from .system import evaluate
from .validation import run_level

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2

CSV_HEADER = ("axis", "axis_value", "method", "p_out", "err_est", "c_used",
              "elapsed_ms", "scenario")


def run_sweep(spec: SweepSpec):
    """Evaluate the sweep in this process, each method over all the points
    through system.evaluate; rows ordered by axis value, then method order."""
    runs = [evaluate(spec.points, method, spec.mc) for method in spec.methods]
    return [{"axis": spec.axis, "axis_value": repr(float(value)), "method": res.method,
             "p_out": repr(float(res.value)), "err_est": repr(float(res.err_est)),
             "c_used": repr(float(res.c_used)), "elapsed_ms": format(res.elapsed_ms, ".3f"),
             "scenario": spec.label, "clamped": bool(res.clamped), "error": res.error}
            for value, *cells in zip(spec.values, *runs) for res in cells]


def sweep(cfgs, out_path, seed=None, methods=None, mc_samples=None, config_bytes=None):
    """Run one sweep per parsed config dict, in order, into one CSV, and into
    its manifest given config_bytes (the sweep command's one config file).

    Each of seed, methods and mc_samples that is given overwrites its config
    key (mc.seed, methods, mc.samples), so a flag and its key share one
    check.  Configs are checked and outputs opened before any point is
    evaluated.  Returns the specs and the rows written."""
    flags = {"mc.seed": seed, "methods": methods, "mc.samples": mc_samples}
    flags = {key: value for key, value in flags.items() if value is not None}
    specs = [load_sweep_spec({**cfg, **flags}) for cfg in cfgs]
    paths = [out_path] + ([out_path + ".manifest.json"] if config_bytes is not None else [])
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", newline="")) for path in paths]
        rows = [row for spec in specs for row in run_sweep(spec)]
        writer = csv.writer(files[0], lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([row[col] for col in CSV_HEADER] for row in rows)
        if config_bytes is not None:
            _write_manifest(files[1], config_bytes, specs[0].mc.seed, rows)
    return specs, rows


def figure_main(name: str, scenarios, mc_samples=None):
    """A figure script: sweep `scenarios` into <out-dir>/<name>.csv and .svg.

    Takes --out-dir and --seed, and --mc-samples (default `mc_samples`) when
    `mc_samples` is given."""
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", type=pathlib.Path, default="results")
    if mc_samples is not None:
        ap.add_argument("--mc-samples", type=int, default=mc_samples)
    ap.add_argument("--seed", type=int, default=McConfig.seed)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / f"{name}.csv"
    _, rows = sweep(scenarios, csv_path, seed=args.seed,
                    mc_samples=vars(args).get("mc_samples"))
    emit_plot(str(csv_path), str(args.out_dir / f"{name}.svg"))
    print(f"wrote {csv_path} and companion SVG ({len(rows)} rows)")


def _write_manifest(fh, config_bytes, seed, rows):
    manifest = {
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "tool_version": __version__,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "points": [
            {"axis_value": row["axis_value"], "method": row["method"],
             "elapsed_ms": row["elapsed_ms"], "clamped": row["clamped"],
             "error": row["error"]}
            for row in rows
        ],
    }
    json.dump(manifest, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, "rb") as fh:
            config_bytes = fh.read()
        cfg = parse_config(config_bytes.decode("utf-8"))
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _, rows = sweep([cfg], args.out, seed=args.seed, methods=args.methods,
                        mc_samples=args.mc_samples, config_bytes=config_bytes)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    failed = sum(row["error"] is not None for row in rows)
    if failed:
        print(f"{failed} of {len(rows)} cells raised a numerical error and are NaN rows; "
              f"the manifest names each error", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {args.out} (manifest: {args.out}.manifest.json)")
    return EXIT_OK


def _cmd_validate(args) -> int:
    seed = resolve_seed(args.seed, "--seed")
    n_checks = n_fail = 0
    for suite, results, seconds in run_level(args.level, seed=seed):
        for res in results:
            print(res.line())
            n_fail += 0 if res.ok else 1
        n_checks += len(results)
        print(f"time  {suite}: {seconds:.1f} s", flush=True)
    print(f"\n{n_checks - n_fail}/{n_checks} checks passed "
          f"(level={args.level})")
    return EXIT_OK if n_fail == 0 else EXIT_VALIDATION


def _cmd_plot(args) -> int:
    try:
        emit_plot(args.csv, args.svg)
    except (PlotError, OSError) as exc:
        print(f"plot error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {args.svg}")
    return EXIT_OK


def _cmd_presets(_args) -> int:
    for key in sorted(WATER_PRESETS):
        egg = WATER_PRESETS[key].egg
        print(f"{key:11s}  w={egg.w:.4f}  lam={egg.lam:.4f}  a={egg.a:.4f}  "
              f"b={egg.b:.4f}  c={egg.c:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfuowc",
        description="Outage probability of a dual-hop RF / underwater optical "
                    "link: closed form, quadrature and Monte Carlo.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    p_sweep.add_argument("config", help="flat key=value config file")
    p_sweep.add_argument("--out", default="sweep.csv", help="output CSV path")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="Monte Carlo seed (overrides config and RFUOWC_SEED)")
    p_sweep.add_argument("--mc-samples", type=int, default=None,
                         help="Monte Carlo samples per point (overrides config)")
    p_sweep.add_argument("--methods", default=None,
                         help="comma-separated method subset (overrides config)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run the invariant suites")
    p_val.add_argument("--level", choices=("fast", "full"), default="fast")
    p_val.add_argument("--seed", type=int, default=None)
    p_val.set_defaults(func=_cmd_validate)

    p_plot = sub.add_parser("plot", help="render a sweep CSV as an SVG chart")
    p_plot.add_argument("csv")
    p_plot.add_argument("svg")
    p_plot.set_defaults(func=_cmd_plot)

    p_pre = sub.add_parser("presets", help="list the water/turbulence presets")
    p_pre.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
