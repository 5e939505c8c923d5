"""Outage benchmark of rfuowc: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run repeats whole rounds, at least
MIN_ROUNDS, until S seconds have passed; each round is a fresh worker
process (worker.py), so each starts with rfuowc's process-wide series-table
cache empty, and calls every point of the workload twice (cold pass, then
warm pass).  Call times are reported at a reference machine speed, from the
speed probes the worker times between calls (see scaled_times).  Every value
is checked here, outside all timings, against the stored mpmath reference
(reference.json) and for warm == cold, monotonicity in gamma_th and
bit-identical results across processes.  Set-up is timed in every round and
in a few set-up-only processes.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics of the traced ones, plus the
tracing overhead against the untraced ones.  The last stdout line is one
JSON object: correct, attempted, failed, metrics.  Human-readable detail
goes to stderr; span files go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import PASSES  # noqa: E402
from workloads import MC_SAMPLES, WORKLOADS, ordered_points  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
REL_TOL = 1e-6      # closed form vs quadrature tolerance of the acceptance suite
MC_SIGMAS = 4.0
# at least two rounds, so every run has the same make-up whichever side of
# --seconds a round ends; three on mc-relay-sweep, whose rounds are the
# shortest (about 11 s) and whose call times spread the most
MIN_ROUNDS = {"quad-grid": 2, "cf-threshold-sweep": 2, "mc-relay-sweep": 3}
SETUP_PROBES_PER_ROUND = 5
# worker.speed_probe() seconds at the reference speed: its median on the
# machine of README.md's figures.  Call times are reported at this speed.
REFERENCE_PROBE_S = 0.0047
WORKER_TIMEOUT_S = 150  # rounds take 10-22 s; a hung worker must not stall the run

END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("point_ms_p50", "ms"),
    ("warm_points_per_s", "points/s"),
    ("peak_rss_mb", "MB"),
)

# metric name -> (span name, field, pass); counts come from one traced
# round, seconds are the median over the run's traced rounds
LAYER_SPANS = {
    "specfun.meijer_g_log.calls": ("specfun.meijer_g_log", "calls", "cold"),
    "specfun.meijer_g_log.s": ("specfun.meijer_g_log", "s", "cold"),
    "specfun.meijer_g_log.warm_s": ("specfun.meijer_g_log", "s", "warm"),
    "specfun.meijer_g_batch.calls": ("specfun.meijer_g_batch", "calls", "cold"),
    "specfun.meijer_g_batch.args": ("specfun.meijer_g_batch", "work", "cold"),
    "specfun.meijer_g_batch.s": ("specfun.meijer_g_batch", "s", "cold"),
    "specfun.contour.calls": ("specfun.contour", "calls", "cold"),
    "specfun.contour.s": ("specfun.contour", "s", "cold"),
    "specfun.contour.warm_calls": ("specfun.contour", "calls", "warm"),
    "specfun.contour.warm_s": ("specfun.contour", "s", "warm"),
    "specfun.series_table.builds": ("specfun.series_table", "calls", "cold"),
    "specfun.series_table.build_s": ("specfun.series_table", "s", "cold"),
    "specfun.series_table.warm_builds": ("specfun.series_table", "calls", "warm"),
    "channels.pdf_times_x.calls": ("channels.pdf_times_x", "calls", "cold"),
    "channels.pdf_times_x.nodes": ("channels.pdf_times_x", "work", "cold"),
    "channels.pdf_times_x.self_s": ("channels.pdf_times_x", "self_s", "cold"),
    "channels.uowc_snr_cdf.calls": ("channels.uowc_snr_cdf", "calls", "cold"),
    "channels.uowc_snr_cdf.s": ("channels.uowc_snr_cdf", "s", "cold"),
    "channels.rf_snr_cdf.calls": ("channels.rf_snr_cdf", "calls", "cold"),
    "channels.rf_snr_cdf.s": ("channels.rf_snr_cdf", "s", "cold"),
    "quadrature.adaptive_quad.calls": ("quadrature.adaptive_quad", "calls", "cold"),
    "quadrature.nodes": ("quadrature.adaptive_quad", "work", "cold"),
    "quadrature.adaptive_quad.self_s": ("quadrature.adaptive_quad", "self_s", "cold"),
    "system.outage_quadrature.self_s": ("system.outage_quadrature", "self_s", "cold"),
    "system.outage_closed_form.self_s": ("system.outage_closed_form", "self_s", "cold"),
    "mc.mc_outage.self_s": ("mc.mc_outage", "self_s", "cold"),
    "mc.chunks": ("mc.chunk_stream", "calls", "cold"),
    "mc.sample_rf_best_snr.s": ("mc.sample_rf_best_snr", "s", "cold"),
    "mc.sample_egg_irradiance.s": ("mc.sample_egg_irradiance", "s", "cold"),
    "mc.sample_pointing.s": ("mc.sample_pointing", "s", "cold"),
}
TIME_FIELDS = ("s", "self_s")


class BenchError(Exception):
    pass


def _worker(workload, seed, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past {WORKER_TIMEOUT_S} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _load_reference(points):
    try:
        with open(REFERENCE) as fh:
            table = json.load(fh)["values"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read {REFERENCE}: {exc}") from None
    missing = [p.key for p in points if p.key not in table]
    if missing:
        raise BenchError(f"reference lacks {len(missing)} points, e.g. {missing[0]}; "
                         "run python3 perfbench/reference.py --jobs 2")
    return [table[p.key]["p_out"] for p in points]


class Checker:
    """Counts attempted and failed outage calls over a run's rounds.

    A call fails when it raised or when its value misses a check; the latter
    also makes the run incorrect.
    """

    def __init__(self, workload, seed):
        self.points = ordered_points(workload, seed)
        self.method = WORKLOADS[workload][0]
        self.ref = _load_reference(self.points)
        self.attempted = self.failed = self.wrong = 0
        self.notes = []
        self.first_cold = None

    def _miss(self, i, value):
        ref = self.ref[i]
        if self.method == "monte_carlo":
            mean, std_err = value
            sigma = max(std_err, math.sqrt(ref * (1.0 - ref) / MC_SAMPLES))
            if abs(mean - ref) > MC_SIGMAS * sigma:
                return f"MC {mean!r} is {abs(mean - ref) / sigma:.2f} sigma from {ref!r}"
        elif not abs(value - ref) <= REL_TOL * abs(ref):
            return f"{value!r} is {abs(value - ref) / abs(ref):.2e} rel from {ref!r}"
        return None

    def check_round(self, rnd):
        cold = rnd["passes"]["cold"]["values"]
        for label in PASSES:
            result = rnd["passes"][label]
            values = result["values"]
            raised, missed = {}, {}
            for i, (value, error) in enumerate(zip(values, result["errors"])):
                if error is not None:
                    raised[i] = error
                    continue
                why = self._miss(i, value)
                if why is None and value != cold[i]:
                    why = "warm pass differs from cold pass"
                if why is None and self.first_cold and value != self.first_cold[i]:
                    why = "differs from an earlier process with the same seed"
                if why:
                    missed[i] = why
            for i, why in self._monotone_misses(values).items():
                missed.setdefault(i, why)
            self.attempted += len(values)
            self.failed += len(raised) + len(missed)
            self.wrong += len(missed)
            for i, why in list(raised.items()) + list(missed.items()):
                self.notes.append(f"{label} {self.points[i].key}: {why}")
        if self.first_cold is None:
            self.first_cold = cold

    def _monotone_misses(self, values):
        by_scenario = {}
        for i, p in enumerate(self.points):
            if values[i] is not None:
                by_scenario.setdefault(p.scenario, []).append(i)
        out = {}
        for idx in by_scenario.values():
            idx.sort(key=lambda i: self.points[i].gamma_th)
            for lo, hi in zip(idx, idx[1:]):
                v_lo, v_hi = self._scalar(values[lo]), self._scalar(values[hi])
                if v_hi < v_lo:
                    out[hi] = f"outage falls from {v_lo!r} at a lower threshold"
        return out

    def _scalar(self, value):
        return value[0] if self.method == "monte_carlo" else value


def _pass_seconds(rnd, label="cold"):
    return math.fsum(rnd["passes"][label]["times"])


def scaled_times(pass_):
    """Each call's time at the reference speed.

    The call's time is multiplied by REFERENCE_PROBE_S over the median of
    the four speed probes nearest to it, two before and two after; the
    median ignores a probe that a preemption stretched.
    """
    speed = pass_["speed"]
    return [t * REFERENCE_PROBE_S / statistics.median(speed[max(0, i - 1):i + 3])
            for i, t in enumerate(pass_["times"])]


def end_to_end_metrics(rounds, setups):
    cold = [t for r in rounds for t in scaled_times(r["passes"]["cold"])]
    warm = [t for r in rounds for t in scaled_times(r["passes"]["warm"])]
    return {
        "setup_s": statistics.median(setups),
        "points_per_s": len(cold) / math.fsum(cold),
        "point_ms_p50": 1e3 * statistics.median(cold),
        "warm_points_per_s": len(warm) / math.fsum(warm),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024.0,
    }


def layer_metrics(traced, untraced):
    """Per-layer metrics, plus the notes on counts that differ by round."""
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
    notes = []

    def field(rnd, span, name, pass_label):
        return rnd["layers"][pass_label].get(span, zero)[name]

    out = {}
    for metric, (span, name, pass_label) in LAYER_SPANS.items():
        per_round = [field(r, span, name, pass_label) for r in traced]
        if name in TIME_FIELDS:
            out[metric] = (statistics.median(per_round), "s")
        else:
            out[metric] = (per_round[0], "count")
            if len(set(per_round)) > 1:
                notes.append(f"{metric} differs between traced rounds: {per_round}")
    g_values = (out["specfun.meijer_g_log.calls"][0]
                + out["specfun.meijer_g_batch.args"][0])
    contour = out["specfun.contour.calls"][0]
    out["specfun.g_values"] = (g_values, "count")
    out["specfun.series_hit_ratio"] = (
        (g_values - contour) / g_values if g_values else 0.0, "ratio")
    cold_rows = traced[0]["layers"]["cold"].values()
    out["trace.spans"] = (sum(row["calls"] for row in cold_rows), "count")
    def scaled_cold_s(rnd):
        return math.fsum(scaled_times(rnd["passes"]["cold"]))

    out["trace.overhead"] = (
        statistics.median(scaled_cold_s(r) for r in traced)
        / statistics.median(scaled_cold_s(r) for r in untraced), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}, notes


def run(workload, seed, seconds, traced_run):
    checker = Checker(workload, seed)
    if traced_run:
        os.makedirs(OUT_DIR, exist_ok=True)
    _worker(workload, seed, "--probe")  # the program imports; bytecode is warm
    start = time.monotonic()
    untraced, traced, setups = [], [], []
    while (len(untraced) + len(traced) < MIN_ROUNDS[workload]
           or time.monotonic() - start < seconds):
        rnd = _worker(workload, seed)
        checker.check_round(rnd)
        untraced.append(rnd)
        setups.append(rnd["setup_s"])
        if traced_run:
            path = os.path.join(
                OUT_DIR, f"spans-{workload}-seed{seed}-round{len(traced)}.json")
            rnd = _worker(workload, seed, "--trace", path)
            checker.check_round(rnd)
            traced.append(rnd)
        else:
            # set-up-only processes after every round, so the set-up samples
            # spread over the whole run rather than one stretch of it
            setups += [_worker(workload, seed, "--probe")["setup_s"]
                       for _ in range(SETUP_PROBES_PER_ROUND)]

    if traced_run:
        metrics, notes = layer_metrics(traced, untraced)
        absent = sorted({name for r in traced for name in r["absent"]})
        if absent:
            notes.append("absent, not traced: " + ", ".join(absent))
    else:
        units = dict(END_TO_END)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in end_to_end_metrics(untraced, setups).items()}
        cold = [t for r in untraced for t in r["passes"]["cold"]["times"]]
        probes = [t for r in untraced for p in r["passes"].values() for t in p["speed"]]
        notes = [f"unscaled points_per_s {len(cold) / math.fsum(cold):.4f}, "
                 f"speed probe median {1e3 * statistics.median(probes):.3f} ms "
                 f"(reference {1e3 * REFERENCE_PROBE_S:.1f} ms)"]
        if WORKLOADS[workload][0] == "monte_carlo":
            rate = metrics["points_per_s"]["value"] * MC_SAMPLES / 1e6
            notes.append(f"msamples_per_s {rate:.4f} 1e6 samples/s (cold passes)")

    print(f"{workload} seed {seed}: {checker.attempted} calls, "
          f"{checker.failed} failed", file=sys.stderr)
    for r in untraced + traced:
        cold, warm = (_pass_seconds(r, label) for label in PASSES)
        print(f"  {'traced' if 'layers' in r else 'round'}: setup {r['setup_s']:.3f} s, "
              f"cold {cold:.3f} s, warm {warm:.3f} s, "
              f"rss {r['peak_rss_kb'] / 1024:.1f} MB", file=sys.stderr)
    for note in checker.notes + notes:
        print("  " + note, file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    return {"correct": checker.wrong == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rfuowc outage benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
