"""Run configuration: one JSON document drives every experiment command.

The schema is deliberately flat:

    {
      "schema_version": 1,
      "params":     {"beta": 1.0, "m_sq": 1.0, "m0_sq": 1.0, "lam": 0.1},
      "profile":    {"mu": 1.0},
      "packets":    [{"k_center": 1.0, "k_width": 0.5,
                      "t_center": 2.0, "t_width": 0.3}, ...],
      "ladders":    {"mu": [...], "orders": [...], "horizons": [...], "k": [...]},
      "quadrature": {"n_radial": 64, "n_time": 80},
      "tolerances": {...}
    }

Every number must be finite, every tolerance positive, every ladder
strictly increasing, every order within the series order cap and every
quadrature node count within ``NODE_CAP``;
violations raise :class:`ConfigError`, which the CLI maps to its
config-error exit code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .combinatorics import DEFAULT_ORDER_CAP
from .modes import SwitchingProfile
from .spectral import QuadratureSpec, TestPacket
from .thermal import ThermalParams

SCHEMA_VERSION = 1

# the largest quadrature node count: numpy's leggauss builds an n x n matrix,
# and pair_report doubles the count once more
NODE_CAP = 1024

DEFAULT_TOLERANCES = {
    "derivative_tower_rel": 1e-6,
    "temperature_shift_abs": 1e-12,
    "wronskian_abs": 1e-8,
    "switch_final_abs": 1e-2,
    "pairing_final_rel": 1e-2,
    "series_final_rel": 1e-8,
    "series_dual_path_rel": 1e-10,
    "bogoliubov_norm_abs": 1e-8,
    "sudden_quench_abs": 1e-3,
    "ness_ccr_abs": 1e-10,
    "ness_limit_abs": 1e-12,
    "cumulant_vanish_abs": 1e-12,
}


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for the experiment driver."""

    params: ThermalParams
    profile: SwitchingProfile
    packets: tuple[TestPacket, ...]
    mu_ladder: tuple[float, ...] = (5.0, 10.0, 20.0, 40.0)
    order_ladder: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    horizon_ladder: tuple[float, ...] = (50.0, 100.0, 200.0, 400.0)
    k_values: tuple[float, ...] = (0.0, 1.0)
    quadrature: QuadratureSpec = QuadratureSpec()
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {self.schema_version}; expected {SCHEMA_VERSION}"
            )
        if len(self.packets) < 2:
            raise ConfigError("at least two packets are required (a pairing needs f and g)")
        for name, ladder in (
            ("mu", self.mu_ladder),
            ("orders", self.order_ladder),
            ("horizons", self.horizon_ladder),
            ("k", self.k_values),
        ):
            if not ladder:
                raise ConfigError(f"ladder {name!r} must not be empty")
            if any(b <= a for a, b in zip(ladder, ladder[1:])):
                raise ConfigError(f"ladder {name!r} must be strictly increasing: {ladder}")
        if not all(map(math.isfinite, (*self.mu_ladder, *self.horizon_ladder, *self.k_values))):
            raise ConfigError("mu, horizon and k ladders must be finite")
        if not math.isfinite(self.profile.mu):
            raise ConfigError(f"profile mu must be finite, got {self.profile.mu}")
        if any(m <= 0 for m in self.mu_ladder) or any(h <= 0 for h in self.horizon_ladder):
            raise ConfigError("mu and horizon ladders must be positive")
        if any(n < 1 or n > DEFAULT_ORDER_CAP for n in self.order_ladder):
            raise ConfigError(f"orders must lie in [1, {DEFAULT_ORDER_CAP}]")
        if any(k < 0 for k in self.k_values):
            raise ConfigError("k values must be >= 0")
        if max(self.quadrature.n_radial, self.quadrature.n_time) > NODE_CAP:
            raise ConfigError(
                f"quadrature node counts must be <= {NODE_CAP}, got n_radial="
                f"{self.quadrature.n_radial}, n_time={self.quadrature.n_time}"
            )
        missing = set(DEFAULT_TOLERANCES) - set(self.tolerances)
        if missing:
            raise ConfigError(f"tolerances missing keys: {sorted(missing)}")
        for key, val in self.tolerances.items():
            if not (isinstance(val, (int, float)) and math.isfinite(val) and val > 0):
                raise ConfigError(f"tolerance {key!r} must be a positive number, got {val!r}")

    @property
    def packet_pair(self) -> tuple[TestPacket, TestPacket]:
        return self.packets[0], self.packets[1]

    def refined(self) -> "RunConfig":
        """Double quadrature node counts and densify the mu/horizon ladders
        with geometric midpoints (orders are already consecutive integers)."""
        return RunConfig(
            params=self.params,
            profile=self.profile,
            packets=self.packets,
            mu_ladder=_densify(self.mu_ladder),
            order_ladder=self.order_ladder,
            horizon_ladder=_densify(self.horizon_ladder),
            k_values=self.k_values,
            quadrature=self.quadrature.refined(),
            tolerances=dict(self.tolerances),
            schema_version=self.schema_version,
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "params": {
                "beta": self.params.beta,
                "m_sq": self.params.m_sq,
                "m0_sq": self.params.m0_sq,
                "lam": self.params.lam,
            },
            "profile": {"mu": self.profile.mu},
            "packets": [
                {
                    "k_center": p.k_center,
                    "k_width": p.k_width,
                    "t_center": p.t_center,
                    "t_width": p.t_width,
                }
                for p in self.packets
            ],
            "ladders": {
                "mu": list(self.mu_ladder),
                "orders": list(self.order_ladder),
                "horizons": list(self.horizon_ladder),
                "k": list(self.k_values),
            },
            "quadrature": {
                "n_radial": self.quadrature.n_radial,
                "n_time": self.quadrature.n_time,
            },
            "tolerances": dict(sorted(self.tolerances.items())),
        }


def _densify(ladder: tuple[float, ...]) -> tuple[float, ...]:
    out = [ladder[0]]
    for a, b in zip(ladder, ladder[1:]):
        out.append(math.sqrt(a * b))
        out.append(b)
    return tuple(out)


def default_config() -> RunConfig:
    """The desk-scale defaults: series bench parameters and two packets
    whose temporal support sits after the switch-off time."""
    return RunConfig(
        params=ThermalParams(beta=1.0, m_sq=1.0, m0_sq=1.0, lam=0.1),
        profile=SwitchingProfile(mu=1.0),
        packets=(
            TestPacket(k_center=1.0, k_width=0.5, t_center=2.0, t_width=0.3),
            TestPacket(k_center=1.0, k_width=0.5, t_center=2.5, t_width=0.3),
        ),
    )


def _require(d: dict, key: str, ctx: str):
    if key not in d:
        raise ConfigError(f"missing {ctx}.{key}" if ctx else f"missing {key}")
    return d[key]


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    known = {"schema_version", "params", "profile", "packets", "ladders", "quadrature", "tolerances"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    base = default_config()
    try:
        params_d = doc.get("params", {})
        params = ThermalParams(
            beta=float(params_d.get("beta", base.params.beta)),
            m_sq=float(params_d.get("m_sq", base.params.m_sq)),
            m0_sq=float(params_d.get("m0_sq", base.params.m0_sq)),
            lam=float(params_d.get("lam", base.params.lam)),
        )
        profile = SwitchingProfile(mu=float(doc.get("profile", {}).get("mu", base.profile.mu)))
        if "packets" in doc:
            packets = tuple(
                TestPacket(
                    k_center=float(_require(p, "k_center", "packets[]")),
                    k_width=float(_require(p, "k_width", "packets[]")),
                    t_center=float(_require(p, "t_center", "packets[]")),
                    t_width=float(_require(p, "t_width", "packets[]")),
                )
                for p in doc["packets"]
            )
        else:
            packets = base.packets
        ladders = doc.get("ladders", {})
        quad_d = doc.get("quadrature", {})
        quad = QuadratureSpec(
            n_radial=int(quad_d.get("n_radial", base.quadrature.n_radial)),
            n_time=int(quad_d.get("n_time", base.quadrature.n_time)),
        )
        tol = dict(DEFAULT_TOLERANCES)
        tol.update(doc.get("tolerances", {}))
        return RunConfig(
            params=params,
            profile=profile,
            packets=packets,
            mu_ladder=tuple(float(x) for x in ladders.get("mu", base.mu_ladder)),
            order_ladder=tuple(int(x) for x in ladders.get("orders", base.order_ladder)),
            horizon_ladder=tuple(float(x) for x in ladders.get("horizons", base.horizon_ladder)),
            k_values=tuple(float(x) for x in ladders.get("k", base.k_values)),
            quadrature=quad,
            tolerances=tol,
            schema_version=int(doc.get("schema_version", SCHEMA_VERSION)),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)
