"""Monte Carlo oracle for both hops.

Sampling works from first principles (order statistics of exponentials,
mixture turbulence, misalignment power transform) so estimates are fully
independent of the analytic machinery.  The best of N relays costs one uniform
(inverse CDF).  The turbulence takes its exponential-branch count from one
binomial draw and builds every generalized-gamma variate from a shape-boosted
gamma, Gamma(a) = Gamma(a + 1) * U^(1/a), in log space.
mc_outage draws what sample_rf_best_snr and sample_uowc_snr draw, in their
order, and counts the outage event g1 g2 / (g2 + C) < gamma_th in the log
domain: with g1 = -mu1 ln(1 - R) and L = ln g2 = ln(rho a0) + ln(1 - u)/xi^2
plus ln(lam E) on the exponential branch or ln b + (ln G + ln(1 - V)/a)/c on
the generalized-gamma one, it is ln(1 - R) > -(gamma_th/mu1)(1 + C e^-L),
tested as -gamma_th/mu1 - ln(1 - R) < e^(ln(gamma_th C/mu1) - L) on block
buffers updated in place.  At g2 = 0 (L = -inf), and where e^-L overflows,
the right side is inf and the sample counts, as g2 = 0 counts in the linear
test; where e^-L underflows the test is g1 < gamma_th, as it is there.
Chunk i of a run draws from SFC64 seeded by SeedSequence(seed, spawn_key=(i,)),
the i-th child of SeedSequence(seed).spawn, so chunks are independent,
reproducible substreams.  Each chunk is drawn in consecutive blocks of 2^14
samples whose temporaries stay in cache (whole 2^18-sample chunks
page-faulted their buffers in on every call).
Chunks run on a thread pool and are combined in chunk order, so results
depend only on (seed, n_samples, chunk_size), never on thread count, for a
given numpy version (numpy does not promise that Generator's distribution
streams stay the same across versions)."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .channels import EggParams, PointingParams, _check_rf, _whole

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
    """Independent deterministic substream for one chunk.

    The chunk index is a spawn key, not a second entropy word:
    SeedSequence([seed, i]) flattens its entropy to 32-bit words and drops
    trailing zeros, so (2^32 + 5, 0) and (5, 1) would draw the same stream."""
    return Generator(SFC64(SeedSequence(seed, spawn_key=(chunk_index,))))


def _best_of_n_tail(u, n_relays):
    """ln(1 - R) at the best-of-N level R = min(U^(1/N), 1 - 2^-53) of the
    uniforms u: in place on an array, a new value for a float.  The first-hop
    SNR is -mu1 ln(1 - R), the inverse of its CDF (1 - e^{-x/mu1})^N at U:
    log1p keeps the lower tail exact, and R below one keeps it finite."""
    u **= 1.0 / n_relays
    out = u if isinstance(u, np.ndarray) else None
    return np.log1p(np.negative(np.minimum(u, _BELOW_ONE, out=out), out=out), out=out)


def _draw_turbulence(stream, egg: EggParams, out, scratch) -> int:
    """Draw out.size turbulence samples into out in raw form and return the
    exponential-branch count k, one Binomial(out.size, w) draw: out[:k] holds
    standard exponentials E (irradiance lam E), out[k:] generalized-gamma
    exponents ln(X) / c (irradiance b e^(ln(X) / c)).  scratch holds the
    out.size - k boost uniforms."""
    n = out.size
    n_exp = int(stream.binomial(n, egg.w))
    stream.standard_exponential(out=out[:n_exp])
    # Gamma(a) = Gamma(a + 1) * U^(1/a), folded in log space: a plain gamma
    # draw underflows to zero for tiny shapes
    ln_x, boost = out[n_exp:], scratch[:n - n_exp]
    stream.standard_gamma(egg.a + 1.0, out=ln_x)
    np.log(ln_x, out=ln_x)
    stream.random(out=boost)
    np.log1p(np.negative(boost, out=boost), out=boost)
    boost /= egg.a
    ln_x += boost
    ln_x /= egg.c
    return n_exp


def _pointing_exponent(u, xi2):
    """ln(1 - U) / xi^2, the log of the misalignment factor over a0, at the
    uniforms u: in place on an array, a new value for a float."""
    out = u if isinstance(u, np.ndarray) else None
    return np.divide(np.log1p(np.negative(u, out=out), out=out), xi2, out=out)


def sample_rf_best_snr(stream: Generator, mu1: float, n_relays: int, size=None):
    """Best-of-N first-hop SNR, the max of N exponentials of mean mu1, drawn
    by inverting its CDF at one uniform (see _best_of_n_tail)."""
    n = _check_rf(mu1, n_relays)
    out = -mu1 * _best_of_n_tail(stream.random(size=size), n)
    return float(out) if size is None else out


def sample_egg_irradiance(stream: Generator, egg: EggParams, size=None):
    """Turbulence irradiance: exponential branch with probability w, else a
    power-transformed gamma variate (generalized gamma).

    The exponential-branch count is one Binomial(size, w) draw, and the output
    is grouped by branch: exponential draws first, then generalized gamma.  So
    callers may take only order-free statistics of it (sums, counts, sorts),
    or combine it elementwise with independent draws."""
    n = 1 if size is None else size
    out = np.empty(n)
    n_exp = _draw_turbulence(stream, egg, out, np.empty(n))
    out[:n_exp] *= egg.lam
    gg = out[n_exp:]
    np.exp(gg, out=gg)
    gg *= egg.b
    return float(out[0]) if size is None else out


def sample_pointing(stream: Generator, pointing: PointingParams, size=None):
    """Misalignment factor a0 * U^(1/xi^2), as a0 e^(ln(1 - U) / xi^2)."""
    out = pointing.a0 * np.exp(_pointing_exponent(stream.random(size=size), pointing.xi2))
    return float(out) if size is None else out


def sample_uowc_snr(stream: Generator, cfg: SystemConfig, size=None):
    """Optical-hop SNR samples rho * I matching the analytic density."""
    it = sample_egg_irradiance(stream, cfg.egg, size)
    ip = sample_pointing(stream, cfg.pointing, size)
    # I_t I_p first: rho I_t alone can overflow where rho I_t I_p is finite
    return cfg.rho * (it * ip)


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
    """Empirical Pr[end-to-end SNR < gamma_th], counted in the log domain
    (see the module docstring) on the draws of sample_rf_best_snr and
    sample_uowc_snr, in their order.

    floor_c draws the turbulence with the rounded generalized-gamma exponent
    (and the matching re-derived rho) so the estimate is comparable with the
    closed form.
    """
    sys_e = cfg.floored() if floor_c else cfg
    egg, pointing, n_relays = sys_e.egg, sys_e.pointing, sys_e.n_relays
    gth, mu1 = q.gamma_th, sys_e.mu1
    # ln(gth C / mu1) less the constant part of L on each branch
    ln_k = math.log(gth) + math.log(sys_e.c_const) - math.log(mu1)
    ln_k -= math.log(sys_e.rho) + math.log(pointing.a0)
    ln_k_exp, ln_k_gg = ln_k - math.log(egg.lam), ln_k - math.log(egg.b)
    neg_k = -(gth / mu1)

    def hits(rng, size):
        tail, arg, scratch = np.empty(_BLOCK), np.empty(_BLOCK), np.empty(_BLOCK)
        below = np.empty(_BLOCK, dtype=bool)
        count = 0
        # ln 0 = -inf and e^(large) = inf are the right limits here
        with np.errstate(divide="ignore", over="ignore"):
            for n in _blocks(size):
                t, y, s = tail[:n], arg[:n], scratch[:n]
                # -gth/mu1 - ln(1 - R)
                np.subtract(neg_k, _best_of_n_tail(rng.random(out=t), n_relays), out=t)
                n_exp = _draw_turbulence(rng, egg, y, s)
                ln_e = y[:n_exp]
                np.subtract(ln_k_exp, np.log(ln_e, out=ln_e), out=ln_e)
                np.subtract(ln_k_gg, y[n_exp:], out=y[n_exp:])
                y -= _pointing_exponent(rng.random(out=s), pointing.xi2)
                # (gth C / mu1) e^-L
                np.exp(y, out=y)
                count += int(np.count_nonzero(np.less(t, y, out=below[:n])))
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
