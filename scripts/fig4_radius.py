#!/usr/bin/env python3
"""Outage vs buoy-circle radius for several UAV heights and relay counts on
the physical power budget.  Path loss makes outage grow with both lengths."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rfuowc.cli import run_sweep, _write_csv  # noqa: E402
from rfuowc.config import load_sweep_spec  # noqa: E402
from rfuowc.mc import McConfig  # noqa: E402
from rfuowc.plotting import emit_plot  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--seed", type=int, default=McConfig.seed)
    args = ap.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for height in (20.0, 100.0):
        for n in (1, 3):
            cfg = {
                "label": f"L{height:g} N{n}",
                "mode": "physical",
                "axis": "radius",
                "values": "25,50,100,150,200,300,400,500",
                "methods": "quadrature",
                "gamma_th": 10.0,
                "preset": "salty/16.5",
                "pointing.a0": 0.5076,
                "pointing.xi": 0.6079,
                "rf.p1": 0.1,
                "rf.noise": 1e-12,  # -90 dBm
                "rf.g0": 1e-3,  # -30 dB
                "rf.height": height,
                "rf.n_relays": n,
                "uowc.eta": 0.8,
                "uowc.p2": 0.1,
                "uowc.n0": 1e-21,
                "uowc.pr": 0.1,
            }
            spec = load_sweep_spec(cfg)
            rows.extend(run_sweep(spec, seed=args.seed))

    csv_path = out_dir / "fig4_radius.csv"
    _write_csv(rows, csv_path)
    emit_plot(str(csv_path), str(out_dir / "fig4_radius.svg"))
    print(f"wrote {csv_path} and companion SVG ({len(rows)} rows)")


if __name__ == "__main__":
    main()
