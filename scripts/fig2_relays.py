#!/usr/bin/env python3
"""Outage vs number of relays for both salinities, two bubble levels and two
thresholds.  Shows the improve-then-saturate behavior of relay selection."""

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
    ap.add_argument("--mc-samples", type=int, default=500_000)
    ap.add_argument("--seed", type=int, default=McConfig.seed)
    args = ap.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for preset in ("salty/4.7", "salty/16.5", "fresh/4.7", "fresh/16.5"):
        for gth_db in (0.0, 10.0):
            cfg = {
                "label": f"{preset} th{gth_db:g}dB",
                "mode": "direct",
                "axis": "n_relays",
                "values": "1:16",
                "methods": "quadrature,monte_carlo",
                "gamma_th": 10.0 ** (gth_db / 10.0),
                "preset": preset,
                "pointing.a0": 0.5076,
                "pointing.xi": 0.6079,
                "direct.mu1": 100.0,
                "direct.uowc_scale": 100.0,
                "mc.samples": args.mc_samples,
            }
            spec = load_sweep_spec(cfg)
            rows.extend(run_sweep(spec, seed=args.seed))

    csv_path = out_dir / "fig2_relays.csv"
    _write_csv(rows, csv_path)
    emit_plot(str(csv_path), str(out_dir / "fig2_relays.svg"))
    print(f"wrote {csv_path} and companion SVG ({len(rows)} rows)")


if __name__ == "__main__":
    main()
