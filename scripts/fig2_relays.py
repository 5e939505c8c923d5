#!/usr/bin/env python3
"""Outage vs number of relays for both salinities, two bubble levels and two
thresholds.  Shows the improve-then-saturate behavior of relay selection."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rfuowc.cli import figure_main  # noqa: E402

SCENARIOS = [
    {
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
    }
    for preset in ("salty/4.7", "salty/16.5", "fresh/4.7", "fresh/16.5")
    for gth_db in (0.0, 10.0)
]

if __name__ == "__main__":
    figure_main("fig2_relays", SCENARIOS, mc_samples=500_000)
