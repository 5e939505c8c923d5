"""Command-line driver: sweeps, validation, plotting, preset listing.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
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
from .system import outage_closed_form, outage_quadrature
from .validation import run_level

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

CSV_HEADER = ("axis", "axis_value", "method", "p_out", "err_est", "c_used",
              "elapsed_ms", "scenario")


def _resolve_seed(cli_seed, cfg_seed):
    """The Monte Carlo seed: --seed, else mc.seed, else RFUOWC_SEED, else the
    sampler's default.  McConfig checks that it fits in 64 bits."""
    for source, seed in (("--seed", cli_seed), ("mc.seed", cfg_seed),
                         ("RFUOWC_SEED", os.environ.get("RFUOWC_SEED"))):
        if seed is not None:
            break
    else:
        return McConfig.seed
    try:
        return McConfig(n_samples=1, seed=int(seed)).seed
    except ValueError as exc:
        raise ConfigError(f"{source} must be an integer that fits in 64 bits, "
                          f"got {seed!r}") from exc


def _eval_point(spec: SweepSpec, value: float, method: str, seed: int):
    """One (axis value, method) cell: (p_out, err_est, c_used, clamped, ms)."""
    cfg, q = spec.point(value)
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
    else:
        est = mc_outage(cfg, q, McConfig(n_samples=spec.mc_samples, seed=seed,
                                         chunk_size=spec.mc_chunk))
        out = (est.mean, est.std_err, cfg.egg.c, False)
    ms = (time.perf_counter() - t0) * 1e3
    return (*out, ms)


def run_sweep(spec: SweepSpec, seed: int, jobs: int = 1):
    """Evaluate the sweep; rows ordered by axis value, then method order."""
    cells = [(value, method) for value in spec.values for method in spec.methods]
    eval_cell = functools.partial(_eval_point, spec, seed=seed)
    values, methods = zip(*cells)
    if jobs <= 1:
        results = list(map(eval_cell, values, methods))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(eval_cell, values, methods))
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
            "scenario": spec.label,
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
        if args.mc_samples is not None:
            spec = dataclasses.replace(spec, mc_samples=args.mc_samples)
        seed = _resolve_seed(args.seed, spec.mc_seed)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rows = run_sweep(spec, seed=seed, jobs=args.jobs)
    except (SpecfunError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_csv(rows, args.out)
    manifest = _write_manifest(args.out, config_bytes, seed, args.jobs, rows)
    print(f"wrote {len(rows)} rows to {args.out} (manifest: {manifest})")
    return EXIT_OK


def _cmd_validate(args) -> int:
    seed = _resolve_seed(args.seed, None)
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
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
