"""Flat key-value experiment configs.

One scenario per file.  Dotted keys address sections (rf.*, uowc.*,
pointing.*, egg.*, direct.*, mc.*).  Keys ending in _db or _dbm are converted
to linear or watts on parse, with the suffix stripped.  A sweep may set only
the keys of KEYS, and a key of MODE_KEYS only in the mode that reads it.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from .channels import (
    EggParams,
    PointingParams,
    RfLinkParams,
    UowcLinkParams,
    WATER_PRESETS,
)
from .mc import McConfig
from .system import METHODS, OutageQuery, SystemConfig

__all__ = ["ConfigError", "SweepSpec", "KEYS", "parse_config", "load_sweep_spec",
           "resolve_seed", "db_to_linear", "dbm_to_watts"]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def dbm_to_watts(x_dbm: float) -> float:
    return 1e-3 * 10.0 ** (x_dbm / 10.0)


def _coerce(raw: str):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


# a line up to its first '#' outside double quotes
_BODY = re.compile(r'(?:[^"#]|"[^"]*")*')


def parse_config(text: str) -> dict:
    """Parse 'key = value' lines into a flat dict, applying unit suffixes."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = _BODY.match(line).group()
        if line[len(body):].startswith('"'):
            raise ConfigError(f"line {lineno}: unclosed quote in {line!r}")
        body = body.strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        value = _coerce(raw)
        if key.endswith("_dbm"):
            key = key[: -len("_dbm")]
            value = dbm_to_watts(_require_number(value, key, lineno))
        elif key.endswith("_db"):
            key = key[: -len("_db")]
            value = db_to_linear(_require_number(value, key, lineno))
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _require_number(value, key, lineno):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"line {lineno}: {key} needs a numeric value")
    return float(value)


def _values_list(raw) -> list[float]:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return [float(raw)]
    if not isinstance(raw, str):
        raise ConfigError(f"cannot read sweep values from {raw!r}")
    raw = raw.strip()
    if ":" in raw and "," not in raw:
        lo, hi = raw.split(":", 1)
        try:
            vals = [float(v) for v in range(int(lo), int(hi) + 1)]
        except ValueError as exc:
            raise ConfigError(f"range values must be integers: {raw!r}") from exc
    else:
        try:
            vals = [float(piece) for piece in raw.split(",") if piece.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad sweep values {raw!r}") from exc
    if not vals:
        raise ConfigError(f"empty sweep values {raw!r}")
    return vals


# Every key a sweep config may set (unit suffixes already stripped), with its
# default.  None means unset.  Any other key is rejected.
KEYS = {
    "label": "scenario", "mode": "direct", "axis": None, "values": "",
    "methods": "closed_form,quadrature", "gamma_th": 10.0,
    "rho_convention": "as-written",
    # turbulence: a preset, or all five egg.* values; salty/4.7 if neither
    "preset": None,
    "egg.w": None, "egg.lam": None, "egg.a": None, "egg.b": None, "egg.c": None,
    "pointing.a0": 1.0, "pointing.xi": 6.7,
    "rf.n_relays": 1,
    # physical mode
    "gain_convention": "squared",
    "rf.p1": 0.1, "rf.noise": 1e-12, "rf.g0": 1e-3, "rf.radius": 100.0,
    "rf.height": 20.0,
    "uowc.eta": 0.8, "uowc.p2": 0.1, "uowc.n0": 1e-21, "uowc.pr": 0.1,
    "uowc.bandwidth": 1.0,
    # direct mode: uowc_scale may be "track" (this point's mu1), the default
    # when mu2 is unset too
    "direct.mu1": 100.0, "direct.uowc_scale": None, "direct.mu2": None,
    "mc.samples": 1_000_000, "mc.seed": None, "mc.chunk": McConfig.chunk_size,
}
# The keys only one mode reads.  Setting one in the other mode is an error;
# every other key is read in both modes (mc.* only by Monte Carlo).
MODE_KEYS = {
    "physical": ("rf.p1", "rf.noise", "rf.g0", "rf.radius", "rf.height",
                 "uowc.eta", "uowc.p2", "uowc.n0", "uowc.pr", "uowc.bandwidth",
                 "gain_convention"),
    "direct": ("direct.mu1", "direct.uowc_scale", "direct.mu2"),
}
# The key each sweep axis sets, and the mode an axis needs.
AXIS_KEYS = {"n_relays": "rf.n_relays", "gamma_th": "gamma_th",
             "avg_snr": "direct.mu1", "radius": "rf.radius", "height": "rf.height"}
AXIS_MODE = {axis: mode for axis, key in AXIS_KEYS.items()
             for mode, keys in MODE_KEYS.items() if key in keys}
EGG_KEYS = ("egg.w", "egg.lam", "egg.a", "egg.b", "egg.c")


def _egg_from(cfg: dict) -> EggParams:
    custom = {k[len("egg."):]: cfg[k] for k in EGG_KEYS if cfg[k] is not None}
    preset_key = cfg["preset"]
    if custom and preset_key:
        raise ConfigError("give either a preset or explicit egg.* values, not both")
    if custom:
        if len(custom) < len(EGG_KEYS):
            missing = [k for k in EGG_KEYS if cfg[k] is None]
            raise ConfigError(f"incomplete turbulence spec, missing {missing}")
        return EggParams(**{k: float(v) for k, v in custom.items()})
    preset_key = preset_key or "salty/4.7"
    if preset_key not in WATER_PRESETS:
        raise ConfigError(
            f"unknown preset {preset_key!r}; known: {', '.join(sorted(WATER_PRESETS))}")
    return WATER_PRESETS[preset_key].egg


def _build_point(cfg: dict) -> tuple[SystemConfig, OutageQuery]:
    """The system and threshold that a complete config dict describes."""
    egg = _egg_from(cfg)
    pointing = PointingParams(a0=float(cfg["pointing.a0"]),
                              xi=float(cfg["pointing.xi"]))
    n_relays = cfg["rf.n_relays"]
    query = OutageQuery(float(cfg["gamma_th"]))
    if cfg["mode"] == "direct":
        mu1, mu2 = cfg["direct.mu1"], cfg["direct.mu2"]
        scale = cfg["direct.uowc_scale"]
        if scale == "track" or (scale is None and mu2 is None):
            scale = mu1
        system = SystemConfig.from_direct_snr(
            mu1=float(mu1), n_relays=n_relays, egg=egg, pointing=pointing,
            uowc_scale=None if scale is None else float(scale),
            mu2=None if mu2 is None else float(mu2),
            rho_convention=cfg["rho_convention"])
    else:
        rf = RfLinkParams(
            p1=float(cfg["rf.p1"]), sigma1_sq=float(cfg["rf.noise"]),
            g0=float(cfg["rf.g0"]), radius_r=float(cfg["rf.radius"]),
            height_l=float(cfg["rf.height"]), n_relays=n_relays)
        uowc = UowcLinkParams(*(float(cfg[f"uowc.{k}"]) for k in
                                ("eta", "p2", "n0", "pr", "bandwidth")))
        system = SystemConfig.from_link(
            rf, uowc, egg, pointing, gain_convention=cfg["gain_convention"],
            rho_convention=cfg["rho_convention"])
    return system, query


@dataclass(frozen=True)
class SweepSpec:
    """A checked sweep: points[i] is the system and threshold at values[i]."""

    axis: str
    values: list[float]
    points: list[tuple[SystemConfig, OutageQuery]]
    methods: list[str]
    label: str
    mc: McConfig


def resolve_seed(seed, source: str) -> int:
    """The Monte Carlo seed: `seed` (read from `source`), else RFUOWC_SEED,
    else the sampler's default.  It must fit in 64 bits."""
    if seed is None:
        # read like a config value
        source = "RFUOWC_SEED"
        seed = _coerce(os.environ.get(source, str(McConfig.seed)))
    try:
        return McConfig(n_samples=1, seed=seed).seed
    except ValueError as exc:
        raise ConfigError(f"{source} must be an integer that fits in 64 bits, "
                          f"got {seed!r}") from exc


def load_sweep_spec(cfg: dict) -> SweepSpec:
    """Validate a parsed config dict and build every axis value's point once,
    so a bad value fails now, before any outage is computed."""
    unknown = sorted(set(cfg) - set(KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    given, cfg = cfg, {**KEYS, **cfg}
    axis, mode = cfg["axis"], cfg["mode"]
    if axis not in AXIS_KEYS:
        raise ConfigError(f"axis must be one of {tuple(AXIS_KEYS)}, got {axis!r}")
    if mode not in MODE_KEYS:
        raise ConfigError(f"mode must be 'direct' or 'physical', got {mode!r}")
    if AXIS_MODE.get(axis, mode) != mode:
        raise ConfigError(f"axis {axis!r} needs mode = {AXIS_MODE[axis]}")
    foreign = [k for other, keys in MODE_KEYS.items() if other != mode
               for k in keys if k in given]
    if foreign:
        raise ConfigError(f"mode = {mode} does not read {foreign}")
    values = _values_list(cfg["values"])
    if sorted(set(values)) != values:
        raise ConfigError("sweep values must be strictly increasing")
    methods = [m.strip() for m in str(cfg["methods"]).split(",") if m.strip()]
    if not methods or not set(methods) <= set(METHODS):
        raise ConfigError(f"methods must be a nonempty subset of {METHODS}, "
                          f"got {cfg['methods']!r}")
    seed = resolve_seed(cfg["mc.seed"], "mc.seed")
    try:
        mc = McConfig(n_samples=cfg["mc.samples"], seed=seed, chunk_size=cfg["mc.chunk"])
        points = [_build_point({**cfg, AXIS_KEYS[axis]: value}) for value in values]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return SweepSpec(axis=axis, values=values, points=points, methods=methods,
                     label=str(cfg["label"]), mc=mc)
