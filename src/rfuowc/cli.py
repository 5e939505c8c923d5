"""Command-line driver: sweeps, validation, plotting, preset listing.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .channels import WATER_PRESETS
from .config import ConfigError, SweepSpec, load_sweep_spec, parse_config
from .mc import McConfig, mc_outage
from .plotting import PlotError, emit_plot
from .quadrature import QuadratureError
from .specfun import CapabilityError, SpecfunError
from .system import OutageQuery, outage_closed_form, outage_quadrature
from .validation import run_level

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

CSV_HEADER = ("axis", "axis_value", "method", "p_out", "err_est", "c_used",
              "elapsed_ms", "scenario")


def _resolve_seed(cli_seed, cfg_seed):
    if cli_seed is not None:
        return int(cli_seed)
    if cfg_seed is not None:
        return int(cfg_seed)
    env = os.environ.get("RFUOWC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"RFUOWC_SEED must be an integer, got {env!r}") from exc
    return 20240717


def _eval_point(spec: SweepSpec, value: float, method: str, seed: int):
    """One (axis value, method) cell: (p_out, err_est, c_used, clamped, ms)."""
    cfg = spec.scenario.build(spec.axis, value)
    gth = value if spec.axis == "gamma_th" else spec.gamma_th
    q = OutageQuery(gth)
    t0 = time.perf_counter()
    if method == "closed_form":
        try:
            res = outage_closed_form(cfg, q)
        except CapabilityError:
            # expected above the supported integer exponent; row kept as NaN
            ms = (time.perf_counter() - t0) * 1e3
            return math.nan, math.nan, float(math.floor(cfg.egg.c)), False, ms
        out = (res.value, res.err_est, res.c_used, res.clamped)
    elif method == "quadrature":
        res = outage_quadrature(cfg, q)
        out = (res.value, res.err_est, res.c_used, res.clamped)
    elif method == "monte_carlo":
        est = mc_outage(cfg, q, McConfig(n_samples=spec.mc_samples, seed=seed,
                                         chunk_size=spec.mc_chunk))
        out = (est.mean, est.std_err, cfg.egg.c, False)
    else:
        raise ConfigError(f"unknown method {method!r}")
    ms = (time.perf_counter() - t0) * 1e3
    return (*out, ms)


def run_sweep(spec: SweepSpec, seed: int, jobs: int = 1):
    """Evaluate the sweep; rows ordered by axis value, then method order."""
    cells = [(value, method) for value in spec.values for method in spec.methods]
    results = [None] * len(cells)
    if jobs <= 1:
        for i, (value, method) in enumerate(cells):
            results[i] = _eval_point(spec, value, method, seed)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futs = {pool.submit(_eval_point, spec, value, method, seed): i
                    for i, (value, method) in enumerate(cells)}
            for fut in concurrent.futures.as_completed(futs):
                results[futs[fut]] = fut.result()
    rows = []
    for (value, method), (p, err, c_used, clamped, ms) in zip(cells, results):
        rows.append({
            "axis": spec.axis,
            "axis_value": repr(float(value)),
            "method": method,
            "p_out": repr(float(p)),
            "err_est": repr(float(err)),
            "c_used": repr(float(c_used)),
            "elapsed_ms": format(ms, ".3f"),
            "scenario": spec.scenario.label,
            "clamped": bool(clamped),
        })
    return rows


def _write_csv(rows, out_path):
    with open(out_path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for row in rows:
            fh.write(",".join(row[col] for col in CSV_HEADER) + "\n")


def _write_manifest(out_path, config_bytes, seed, jobs, rows):
    manifest = {
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "tool_version": __version__,
        "seed": seed,
        "jobs": jobs,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "points": [
            {"axis_value": row["axis_value"], "method": row["method"],
             "elapsed_ms": row["elapsed_ms"], "clamped": row["clamped"]}
            for row in rows
        ],
    }
    path = out_path + ".manifest.json"
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, "rb") as fh:
            config_bytes = fh.read()
        cfg = parse_config(config_bytes.decode("utf-8"))
        spec = load_sweep_spec(cfg)
        if args.methods:
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            spec = dataclasses.replace(spec, methods=methods)
        if args.mc_samples:
            spec = dataclasses.replace(spec, mc_samples=int(args.mc_samples))
        seed = _resolve_seed(args.seed, spec.mc_seed)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rows = run_sweep(spec, seed=seed, jobs=args.jobs)
    except (SpecfunError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _write_csv(rows, args.out)
    manifest = _write_manifest(args.out, config_bytes, seed, args.jobs, rows)
    print(f"wrote {len(rows)} rows to {args.out} (manifest: {manifest})")
    return EXIT_OK


def _cmd_validate(args) -> int:
    seed = _resolve_seed(args.seed, None)
    results = run_level(args.level, seed=seed)
    n_fail = 0
    for res in results:
        print(res.line())
        n_fail += 0 if res.ok else 1
    print(f"\n{len(results) - n_fail}/{len(results)} checks passed "
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
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel workers for sweep points")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
