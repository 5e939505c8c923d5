#!/usr/bin/env python3
"""Outage vs average SNR for the two misalignment presets and several relay
counts (salty water, bubble level 16.5).  The weaker-misalignment curves
should dominate at every point."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rfuowc.cli import figure_main  # noqa: E402

POINTING = {
    "weak": (0.5076, 0.6079),
    "strong": (0.1641, 0.5244),
}

SCENARIOS = [
    {
        "label": f"{tag} N{n}",
        "mode": "direct",
        "axis": "avg_snr",
        "values": ",".join(str(10.0 ** (v / 10.0)) for v in range(0, 41, 4)),
        "methods": "quadrature",
        "gamma_th": 10.0,
        "preset": "salty/16.5",
        "pointing.a0": a0,
        "pointing.xi": xi,
        "rf.n_relays": n,
        "direct.uowc_scale": "track",
    }
    for tag, (a0, xi) in POINTING.items()
    for n in (1, 2, 4)
]

if __name__ == "__main__":
    figure_main("fig3_avg_snr", SCENARIOS)
