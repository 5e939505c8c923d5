"""Monte Carlo oracle for both hops.

Sampling works from first principles (order statistics of exponentials,
mixture turbulence, misalignment power transform) so estimates are fully
independent of the analytic machinery.  The best of N relays costs one uniform
(inverse CDF).  The turbulence takes its exponential-branch count from one
binomial draw and builds every generalized-gamma variate from a shape-boosted
gamma, Gamma(a) = Gamma(a + 1) * U^(1/a), in log space.
Streams are counter-based: chunk i of a run is generated by Philox keyed with
(seed, i), in consecutive blocks of 2^14 samples whose temporaries stay in
cache (whole 2^18-sample chunks page-faulted their buffers in on every call).
Chunks run on a thread pool and are combined in chunk order, so results
depend only on (seed, n_samples, chunk_size), never on thread count."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .channels import EggParams, PointingParams, _whole

__all__ = [
    "McConfig",
    "McEstimate",
    "chunk_stream",
    "sample_rf_best_snr",
    "sample_egg_irradiance",
    "sample_pointing",
    "sample_uowc_snr",
    "mc_outage",
    "mc_moments",
]

# samples drawn at once inside a chunk: a block's temporaries stay in cache
# and are reused instead of being returned to the OS and faulted in again
_BLOCK = 1 << 14
# largest double below one: U^(1/N) rounds up to 1.0 for U within N ulp of 1
_BELOW_ONE = 1.0 - 2.0 ** -53


@dataclass(frozen=True)
class McConfig:
    """Sampling budget and stream identity."""

    n_samples: int
    seed: int = 20240717
    chunk_size: int = 1 << 18

    def __post_init__(self):
        for name in ("n_samples", "seed", "chunk_size"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")

    def chunks(self):
        full, rem = divmod(self.n_samples, self.chunk_size)
        sizes = [self.chunk_size] * full
        if rem:
            sizes.append(rem)
        return sizes


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_err: float
    n: int


def chunk_stream(seed: int, chunk_index: int) -> Generator:
    """Independent deterministic substream for one chunk."""
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return Generator(Philox(key=key))


def sample_rf_best_snr(stream: Generator, mu1: float, n_relays: int, size=None):
    """Best-of-N first-hop SNR, the max of N exponentials of mean mu1, drawn
    by inverting its CDF (1 - e^{-x/mu1})^N at one uniform: log1p keeps the
    lower tail exact, and U^(1/N) is held below one so the draw is finite."""
    if mu1 <= 0 or n_relays < 1:
        raise ValueError("need mu1 > 0 and n_relays >= 1")
    root = np.minimum(stream.random(size=size) ** (1.0 / int(n_relays)), _BELOW_ONE)
    out = -mu1 * np.log1p(-root)
    return float(out) if size is None else out


def sample_egg_irradiance(stream: Generator, egg: EggParams, size=None):
    """Turbulence irradiance: exponential branch with probability w, else a
    power-transformed gamma variate (generalized gamma).

    The exponential-branch count is one Binomial(size, w) draw, and the output
    is grouped by branch: exponential draws first, then generalized gamma.  So
    callers may take only order-free statistics of it (sums, counts, sorts),
    or combine it elementwise with independent draws."""
    n = 1 if size is None else size
    n_exp = int(stream.binomial(n, egg.w))
    out = np.empty(n)
    out[:n_exp] = egg.lam * stream.standard_exponential(size=n_exp)
    # Gamma(a) = Gamma(a + 1) * U^(1/a), folded in log space: a plain gamma
    # draw underflows to zero for tiny shapes
    g = stream.standard_gamma(egg.a + 1.0, size=n - n_exp)
    ln_x = np.log(g) + np.log1p(-stream.random(size=n - n_exp)) / egg.a
    out[n_exp:] = egg.b * np.exp(ln_x / egg.c)
    return float(out[0]) if size is None else out


def sample_pointing(stream: Generator, pointing: PointingParams, size=None):
    """Misalignment factor a0 * U^(1/xi^2)."""
    u = stream.random(size=size)
    out = pointing.a0 * np.exp(np.log1p(-u) / pointing.xi2)
    return float(out) if size is None else out


def sample_uowc_snr(stream: Generator, cfg: SystemConfig, size=None):
    """Optical-hop SNR samples rho * I matching the analytic density."""
    it = sample_egg_irradiance(stream, cfg.egg, size)
    ip = sample_pointing(stream, cfg.pointing, size)
    return cfg.rho * it * ip


def _blocks(size: int):
    """Sizes of the consecutive blocks one chunk of `size` samples is drawn in."""
    return [min(_BLOCK, size - start) for start in range(0, size, _BLOCK)]


def _map_chunks(fn, mc: McConfig) -> list:
    """[fn(stream_i, size_i) for each chunk i] on a thread pool (numpy's
    generators and ufuncs release the GIL), in chunk order."""
    # imported here: it pulls in logging, which would slow `import rfuowc`
    from concurrent.futures import ThreadPoolExecutor

    sizes = mc.chunks()
    # the cores this process may run on; sched_getaffinity is Linux-only
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(len(sizes), cores)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda i, size: fn(chunk_stream(mc.seed, i), size),
                             range(len(sizes)), sizes))


def mc_outage(cfg: SystemConfig, q: OutageQuery, mc: McConfig,
              floor_c: bool = False) -> McEstimate:
    """Empirical Pr[end-to-end SNR < gamma_th].

    floor_c draws the turbulence with the rounded generalized-gamma exponent
    (and the matching re-derived rho) so the estimate is comparable with the
    closed form.
    """
    sys_e = cfg.floored() if floor_c else cfg
    mu1, c_const, n_relays = sys_e.mu1, sys_e.c_const, sys_e.n_relays
    gth = q.gamma_th

    def hits(rng, size):
        count = 0
        for n in _blocks(size):
            g1 = sample_rf_best_snr(rng, mu1, n_relays, n)
            g2 = sample_uowc_snr(rng, sys_e, n)
            count += int(np.count_nonzero(g1 * (g2 / (g2 + c_const)) < gth))
        return count

    n = mc.n_samples
    p = sum(_map_chunks(hits, mc)) / n
    return McEstimate(mean=p, std_err=math.sqrt(p * (1.0 - p) / n), n=n)


def mc_moments(orders, egg: EggParams, pointing: PointingParams,
               mc: McConfig) -> list[McEstimate]:
    """Empirical moments E[I^n] of the combined irradiance, one estimate per
    order, all from one set of draws.  Order 0 is exact and draws nothing."""
    if any(n < 0 or n != int(n) for n in orders):
        raise ValueError("moment order must be a non-negative integer")
    drawn = sorted({int(n) for n in orders if n != 0})

    def power_sums(rng, size):
        # per-block numpy sums are deterministic; block subtotals are then
        # combined exactly, so results do not depend on scheduling
        sums = []
        for n in _blocks(size):
            i = sample_egg_irradiance(rng, egg, n) * sample_pointing(rng, pointing, n)
            block = {}
            for k in drawn:
                with np.errstate(over="ignore"):  # checked on the totals
                    ik = i ** k
                    block[k] = (float(np.sum(ik)), float(np.sum(ik * ik)))
            sums.append(block)
        return sums

    blocks = [b for c in _map_chunks(power_sums, mc) for b in c] if drawn else []
    count = mc.n_samples
    est = {0: McEstimate(mean=1.0, std_err=0.0, n=count)}
    for k in drawn:
        try:  # fsum raises on finite block sums whose total overflows
            mean = math.fsum(b[k][0] for b in blocks) / count
            var = math.fsum(b[k][1] for b in blocks) / count - mean * mean
        except OverflowError:
            var = math.inf
        if not math.isfinite(var):
            raise ValueError(f"irradiance moment {2 * k} is beyond the range of a double")
        est[k] = McEstimate(mean=mean, std_err=math.sqrt(max(var, 0.0) / count), n=count)
    return [est[int(n)] for n in orders]
