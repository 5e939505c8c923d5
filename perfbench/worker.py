"""One fresh process of a benchmark run.

    python3 perfbench/worker.py --workload NAME --seed N [--probe] [--trace FILE]

Sets up (imports rfuowc from the checkout's src/ and builds the workload's
SystemConfigs), then calls the workload's outage function once per point,
timing each call from outside, in two passes: a cold one with the
process-wide series-table cache empty and a warm one right after.  A speed
probe (speed_probe) is timed before the first call and after every call.  With
--probe it stops after set-up.  With --trace it records spans (see
spans.py) and writes them to FILE.  Prints one JSON object on stdout; the
values are checked by run.py, outside every timing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from workloads import MC_SAMPLES, POINTINGS, WORKLOADS, ordered_points  # noqa: E402

PASSES = ("cold", "warm")


def _build_calls(method, points, seed):
    """Import the program and turn each point into a zero-argument call."""
    sys.path.insert(0, SRC)
    import rfuowc
    from rfuowc import mc, system
    from rfuowc.channels import PointingParams, get_preset

    if not os.path.abspath(rfuowc.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"rfuowc imported from {rfuowc.__file__}, not {SRC}")
    mc_config = mc.McConfig(n_samples=MC_SAMPLES, seed=seed)

    def make(p):
        cfg = system.SystemConfig.from_direct_snr(
            mu1=p.mu1, n_relays=p.n_relays, egg=get_preset(p.preset).egg,
            pointing=PointingParams(*POINTINGS[p.pointing]), uowc_scale=p.mu1)
        q = system.OutageQuery(p.gamma_th)
        # module attributes are read at call time, so traced names are seen
        if method == "quadrature":
            return lambda: system.outage_quadrature(cfg, q, floor_c=True).value
        if method == "closed_form":
            return lambda: system.outage_closed_form(cfg, q).value

        def monte_carlo():
            est = mc.mc_outage(cfg, q, mc_config, floor_c=True)
            return [est.mean, est.std_err]
        return monte_carlo

    return [make(p) for p in points]


def speed_probe():
    """Seconds taken by a fixed CPU kernel that runs no rfuowc code.

    Timed between the outage calls, it shows how fast the machine runs at
    that moment; run.py scales each call's time by it (see README.md).
    numpy is imported here, after set-up, so set-up still pays its import.
    """
    import numpy as np

    x = np.linspace(0.1, 5.0, 64)
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 6000):
        u = i * 1e-3
        s += math.lgamma(u + 1.0) * math.exp(-u) + math.log1p(u)
    for i in range(300):
        v = np.exp(-x * (1.0 + i * 1e-3)) * np.log1p(x)
        s += float(np.dot(v, v))
    return time.perf_counter() - t0


def _run_pass(calls):
    times, values, errors = [], [], []
    speed = [speed_probe()]
    for call in calls:
        t0 = time.perf_counter()
        try:
            value = call()
        except Exception as exc:  # a failed call is counted, the pass goes on
            value = None
            errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        else:
            errors.append(None)
        times.append(time.perf_counter() - t0)
        values.append(value)
        speed.append(speed_probe())
    return {"times": times, "values": values, "errors": errors, "speed": speed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    method = WORKLOADS[args.workload][0]
    points = ordered_points(args.workload, args.seed)

    t0 = time.perf_counter()
    calls = _build_calls(method, points, args.seed)
    out = {"setup_s": time.perf_counter() - t0}
    if not args.probe:
        tracer = None
        if args.trace:
            from spans import Tracer, summarize
            tracer = Tracer()
            tracer.install()
        out["passes"] = {}
        for label in PASSES:
            if tracer:
                tracer.begin(label)
            out["passes"][label] = _run_pass(calls)
        if tracer:
            tracer.uninstall()
            out["layers"] = {label: summarize(spans)
                             for label, spans in tracer.passes.items()}
            out["absent"] = tracer.absent
            tracer.write(args.trace)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
