"""Flat key-value experiment configs.

One scenario per file.  Dotted keys address sections (rf.*, uowc.*,
pointing.*, egg.*, direct.*, mc.*).  Keys ending in _db or _dbm are converted
to linear or watts on parse, with the suffix stripped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .channels import (
    EggParams,
    PointingParams,
    RfLinkParams,
    UowcLinkParams,
    WATER_PRESETS,
    get_preset,
)
from .mc import McConfig
from .system import SystemConfig

__all__ = ["ConfigError", "SweepSpec", "parse_config", "load_sweep_spec",
           "db_to_linear", "dbm_to_watts"]

AXES = ("n_relays", "gamma_th", "avg_snr", "radius", "height")
METHODS = ("closed_form", "quadrature", "monte_carlo")


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


def parse_config(text: str) -> dict:
    """Parse 'key = value' lines into a flat dict, applying unit suffixes."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
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
            lo_i, hi_i = int(lo), int(hi)
        except ValueError as exc:
            raise ConfigError(f"range values must be integers: {raw!r}") from exc
        if hi_i < lo_i:
            raise ConfigError(f"empty range {raw!r}")
        return [float(v) for v in range(lo_i, hi_i + 1)]
    vals = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            vals.append(float(piece))
        except ValueError as exc:
            raise ConfigError(f"bad sweep value {piece!r}") from exc
    if not vals:
        raise ConfigError("empty sweep values")
    return vals


@dataclass
class Scenario:
    """Everything needed to build a SystemConfig at one sweep point."""

    mode: str
    label: str
    egg: EggParams
    pointing: PointingParams
    rho_convention: str
    gain_convention: str
    # physical mode
    rf: dict = field(default_factory=dict)
    uowc: dict = field(default_factory=dict)
    # direct mode
    mu1: float | None = None
    uowc_scale: float | None = None
    mu2: float | None = None
    track_axis: bool = False

    def build(self, axis: str, value: float) -> SystemConfig:
        try:
            return self._build(axis, value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def _build(self, axis: str, value: float) -> SystemConfig:
        if self.mode == "direct":
            if axis in ("radius", "height"):
                raise ConfigError(f"axis {axis!r} needs mode = physical")
            mu1 = value if axis == "avg_snr" else self.mu1
            n = int(value) if axis == "n_relays" else int(self.rf.get("n_relays", 1))
            scale, mu2 = self.uowc_scale, self.mu2
            if self.track_axis and axis == "avg_snr":
                scale, mu2 = value, None
            return SystemConfig.from_direct_snr(
                mu1=mu1, n_relays=n, egg=self.egg, pointing=self.pointing,
                uowc_scale=scale, mu2=mu2, rho_convention=self.rho_convention)
        rf = dict(self.rf)
        if axis == "n_relays":
            rf["n_relays"] = int(value)
        elif axis == "radius":
            rf["radius_r"] = value
        elif axis == "height":
            rf["height_l"] = value
        elif axis == "avg_snr":
            raise ConfigError("axis 'avg_snr' needs mode = direct")
        rf_params = RfLinkParams(**rf)
        uowc_params = UowcLinkParams(**self.uowc)
        return SystemConfig(
            rf_params, uowc_params, self.egg, self.pointing,
            gain_convention=self.gain_convention,
            rho_convention=self.rho_convention)


@dataclass
class SweepSpec:
    axis: str
    values: list[float]
    methods: list[str]
    scenario: Scenario
    gamma_th: float
    mc_samples: int
    mc_seed: int | None
    mc_chunk: int

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"unknown axis {self.axis!r}; expected one of {AXES}")
        if not self.values:
            raise ConfigError("sweep needs at least one axis value")
        if sorted(self.values) != self.values or len(set(self.values)) != len(self.values):
            raise ConfigError("sweep values must be strictly increasing")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigError(f"unknown methods {bad}; expected subset of {METHODS}")
        if not self.methods:
            raise ConfigError("need at least one method")
        if self.gamma_th <= 0 and self.axis != "gamma_th":
            raise ConfigError("gamma_th must be positive")


def _scenario_from(cfg: dict) -> Scenario:
    mode = cfg.get("mode", "direct")
    if mode not in ("direct", "physical"):
        raise ConfigError(f"mode must be 'direct' or 'physical', got {mode!r}")
    try:
        egg = _egg_from(cfg)
        pointing = PointingParams(a0=float(cfg.get("pointing.a0", 1.0)),
                                  xi=float(cfg.get("pointing.xi", 6.7)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rho_conv = cfg.get("rho_convention", "as-written")
    gain_conv = cfg.get("gain_convention", "squared")
    label = str(cfg.get("label", "scenario"))
    sc = Scenario(mode=mode, label=label, egg=egg, pointing=pointing,
                  rho_convention=rho_conv, gain_convention=gain_conv)
    sc.rf = {
        "p1": float(cfg.get("rf.p1", 0.1)),
        "sigma1_sq": float(cfg.get("rf.noise", 1e-12)),
        "g0": float(cfg.get("rf.g0", 1e-3)),
        "radius_r": float(cfg.get("rf.radius", 100.0)),
        "height_l": float(cfg.get("rf.height", 20.0)),
        "n_relays": int(cfg.get("rf.n_relays", 1)),
    }
    if mode == "physical":
        sc.uowc = {
            "eta": float(cfg.get("uowc.eta", 0.8)),
            "p2": float(cfg.get("uowc.p2", 0.1)),
            "n0": float(cfg.get("uowc.n0", 1e-21)),
            "pr": float(cfg.get("uowc.pr", 0.1)),
            "bandwidth": float(cfg.get("uowc.bandwidth", 1.0)),
        }
    else:
        sc.mu1 = float(cfg.get("direct.mu1", 100.0))
        raw_scale = cfg.get("direct.uowc_scale")
        raw_mu2 = cfg.get("direct.mu2")
        if raw_scale == "track" or (raw_scale is None and raw_mu2 is None):
            sc.track_axis = True
            sc.uowc_scale = sc.mu1
        elif raw_scale is not None and raw_mu2 is not None:
            raise ConfigError("set only one of direct.uowc_scale and direct.mu2")
        elif raw_scale is not None:
            sc.uowc_scale = float(raw_scale)
        else:
            sc.mu2 = float(raw_mu2)
    return sc


def _egg_from(cfg: dict) -> EggParams:
    custom = {k: v for k, v in cfg.items() if k.startswith("egg.")}
    preset_key = cfg.get("preset")
    if custom and preset_key:
        raise ConfigError("give either a preset or explicit egg.* values, not both")
    if preset_key:
        if preset_key not in WATER_PRESETS:
            raise ConfigError(
                f"unknown preset {preset_key!r}; known: {', '.join(sorted(WATER_PRESETS))}")
        return get_preset(preset_key).egg
    if custom:
        need = {"egg.w", "egg.lam", "egg.a", "egg.b", "egg.c"}
        missing = need - set(custom)
        if missing:
            raise ConfigError(f"incomplete turbulence spec, missing {sorted(missing)}")
        return EggParams(w=float(custom["egg.w"]), lam=float(custom["egg.lam"]),
                         a=float(custom["egg.a"]), b=float(custom["egg.b"]),
                         c=float(custom["egg.c"]))
    return get_preset("salty/4.7").egg


def load_sweep_spec(cfg: dict) -> SweepSpec:
    """Validate a parsed config dict and assemble the sweep description."""
    axis = cfg.get("axis")
    if axis is None:
        raise ConfigError("config needs an 'axis' key")
    values = _values_list(cfg.get("values", ""))
    methods_raw = cfg.get("methods", "closed_form,quadrature")
    methods = [m.strip() for m in str(methods_raw).split(",") if m.strip()]
    scenario = _scenario_from(cfg)
    gamma_th = float(cfg.get("gamma_th", 10.0))
    if axis == "n_relays":
        ints_ok = all(float(v).is_integer() and v >= 1 for v in values)
        if not ints_ok:
            raise ConfigError("n_relays sweep values must be positive integers")
    spec = SweepSpec(
        axis=axis, values=values, methods=methods, scenario=scenario,
        gamma_th=gamma_th,
        mc_samples=int(cfg.get("mc.samples", 1_000_000)),
        mc_seed=int(cfg["mc.seed"]) if "mc.seed" in cfg else None,
        mc_chunk=int(cfg.get("mc.chunk", McConfig.chunk_size)),
    )
    if spec.mc_samples < 1:
        raise ConfigError("mc.samples must be >= 1")
    return spec
