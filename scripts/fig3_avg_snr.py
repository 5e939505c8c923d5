#!/usr/bin/env python3
"""Outage vs average SNR for the two misalignment presets and several relay
counts (salty water, bubble level 16.5).  The weaker-misalignment curves
should dominate at every point."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rfuowc.cli import run_sweep, _write_csv  # noqa: E402
from rfuowc.config import load_sweep_spec  # noqa: E402
from rfuowc.mc import McConfig  # noqa: E402
from rfuowc.plotting import emit_plot  # noqa: E402

POINTING = {
    "weak": (0.5076, 0.6079),
    "strong": (0.1641, 0.5244),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--mc-samples", type=int, default=500_000)
    ap.add_argument("--seed", type=int, default=McConfig.seed)
    args = ap.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    snr_db = range(0, 41, 4)
    values = ",".join(str(10.0 ** (v / 10.0)) for v in snr_db)
    rows = []
    for tag, (a0, xi) in POINTING.items():
        for n in (1, 2, 4):
            cfg = {
                "label": f"{tag} N{n}",
                "mode": "direct",
                "axis": "avg_snr",
                "values": values,
                "methods": "quadrature",
                "gamma_th": 10.0,
                "preset": "salty/16.5",
                "pointing.a0": a0,
                "pointing.xi": xi,
                "rf.n_relays": n,
                "direct.uowc_scale": "track",
                "mc.samples": args.mc_samples,
            }
            spec = load_sweep_spec(cfg)
            rows.extend(run_sweep(spec, seed=args.seed))

    csv_path = out_dir / "fig3_avg_snr.csv"
    _write_csv(rows, csv_path)
    emit_plot(str(csv_path), str(out_dir / "fig3_avg_snr.svg"))
    print(f"wrote {csv_path} and companion SVG ({len(rows)} rows)")


if __name__ == "__main__":
    main()
