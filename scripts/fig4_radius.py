#!/usr/bin/env python3
"""Outage vs buoy-circle radius for several UAV heights and relay counts on
the physical power budget.  Path loss makes outage grow with both lengths."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rfuowc.cli import figure_main  # noqa: E402

SCENARIOS = [
    {
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
    for height in (20.0, 100.0)
    for n in (1, 3)
]

if __name__ == "__main__":
    figure_main("fig4_radius", SCENARIOS)
