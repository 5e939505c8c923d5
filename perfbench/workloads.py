"""The outage points each benchmark workload evaluates.

Pure data: this module imports nothing from rfuowc, so run.py, the
worker and the reference generator agree on the points without loading the
program.  Every scenario is the acceptance-grid one: SNR-pinned, optical
scale tied to mu1, generalized-gamma exponent rounded down (floor_c).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (a0, xi) of the two misalignment presets of the acceptance grid
POINTINGS = {"weak": (0.5076, 0.6079), "strong": (0.1641, 0.5244)}
GRID_PRESETS = ("salty/4.7", "salty/7.1", "salty/16.5",
                "fresh/4.7", "fresh/7.1", "fresh/16.5")
GRID_MU1 = (1e2, 1e4)
GRID_GAMMA_TH = (1.0, 10.0, 100.0)
GRID_N_RELAYS = 3

# every 5th point of the 72-point acceptance grid (preset, pointing, mu1,
# gamma_th nested in that order): 15 points that keep all six presets, both
# pointings, both mu1 and all three thresholds
QUAD_STRIDE = 5

# the five presets with floor(c) <= 120; fresh/16.5 (c = 216) is refused by
# the closed form by design
CF_PRESETS = ("salty/4.7", "salty/7.1", "salty/16.5", "fresh/4.7", "fresh/7.1")
CF_GAMMA_TH = tuple(10.0 ** (k / 2.0 - 1.0) for k in range(9))  # 0.1 .. 1e3

MC_PRESETS = ("salty/4.7", "fresh/16.5")
MC_N_RELAYS = (1, 2, 4, 8, 16)
MC_GAMMA_TH = 10.0
MC_SAMPLES = 1 << 21


@dataclass(frozen=True)
class Point:
    preset: str
    pointing: str
    mu1: float
    n_relays: int
    gamma_th: float

    @property
    def key(self) -> str:
        """Reference-table key; floats in shortest round-trip form."""
        return (f"{self.preset}|{self.pointing}|{self.mu1!r}|"
                f"{self.n_relays}|{self.gamma_th!r}")

    @property
    def scenario(self) -> tuple:
        """Everything but the threshold: outage must grow with gamma_th."""
        return (self.preset, self.pointing, self.mu1, self.n_relays)


def _quad_grid():
    grid = [Point(key, pointing, mu1, GRID_N_RELAYS, gth)
            for key in GRID_PRESETS
            for pointing in ("weak", "strong")
            for mu1 in GRID_MU1
            for gth in GRID_GAMMA_TH]
    return grid[::QUAD_STRIDE]


def _cf_sweep():
    return [Point(key, "weak", 1e2, GRID_N_RELAYS, gth)
            for key in CF_PRESETS for gth in CF_GAMMA_TH]


def _mc_sweep():
    return [Point(key, "weak", 1e2, n, MC_GAMMA_TH)
            for key in MC_PRESETS for n in MC_N_RELAYS]


# name -> (outage method, points)
WORKLOADS = {
    "quad-grid": ("quadrature", _quad_grid()),
    "cf-threshold-sweep": ("closed_form", _cf_sweep()),
    "mc-relay-sweep": ("monte_carlo", _mc_sweep()),
}


def ordered_points(workload: str, seed: int) -> list[Point]:
    """The workload's points in the order a run with this seed calls them."""
    points = list(WORKLOADS[workload][1])
    random.Random(seed).shuffle(points)
    return points


def all_points() -> list[Point]:
    """Every distinct point any workload evaluates, in a fixed order."""
    seen = {}
    for _, points in WORKLOADS.values():
        for p in points:
            seen.setdefault(p.key, p)
    return list(seen.values())
