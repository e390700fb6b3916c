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

The schema is written down once: each section is read under the field
names of the type it builds (``ThermalParams``, ``SwitchingProfile``,
``TestPacket``, ``QuadratureSpec``), the tolerances under the keys of
``DEFAULT_TOLERANCES`` and the ladders under the names in ``LADDERS``.
Every key is optional except the four fields of a packet; an omitted key
takes its value from :func:`default_config`.  An unknown key at any level
is an error.  Every value is a JSON number, never a string or a boolean,
and the four counts (``n_radial``, ``n_time``, ``orders`` and
``schema_version``) are integers.  Every number must be finite, every
tolerance positive, every ladder strictly increasing, every order within
the series order cap and every quadrature node count within ``NODE_CAP``;
violations raise :class:`ConfigError`, which the CLI maps to its
config-error exit code.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

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

# JSON ladder name -> RunConfig field
LADDERS = {"mu": "mu_ladder", "orders": "order_ladder", "horizons": "horizon_ladder", "k": "k_values"}
# the integer-valued fields; every other number is read as a float
COUNTS = {"n_radial", "n_time", "orders", "schema_version"}
# JSON section -> the type it builds; each section's name is its RunConfig field
SECTIONS = {
    "params": ThermalParams,
    "profile": SwitchingProfile,
    "quadrature": QuadratureSpec,
    "tolerances": dict,
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
        for name, attr in LADDERS.items():
            ladder = getattr(self, attr)
            if not ladder:
                raise ConfigError(f"ladder {name!r} must not be empty")
            if any(b <= a for a, b in zip(ladder, ladder[1:])):
                raise ConfigError(f"ladder {name!r} must be strictly increasing: {ladder}")
        if not all(map(math.isfinite, (*self.mu_ladder, *self.horizon_ladder, *self.k_values))):
            raise ConfigError("mu, horizon and k ladders must be finite")
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
        return replace(
            self,
            mu_ladder=_densify(self.mu_ladder),
            horizon_ladder=_densify(self.horizon_ladder),
            quadrature=self.quadrature.refined(),
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "params": asdict(self.params),
            "profile": asdict(self.profile),
            "packets": [asdict(p) for p in self.packets],
            "ladders": {name: list(getattr(self, attr)) for name, attr in LADDERS.items()},
            "quadrature": asdict(self.quadrature),
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


def _number(value, where: str, count: bool):
    """A JSON number as a float, or as an int for a count."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a JSON number, got {value!r}")
    if not count:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _object(doc, ctx: str, names) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{ctx} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ConfigError(f"unknown keys in {ctx}: {unknown}")
    return doc


def _array(doc, ctx: str) -> list:
    if not isinstance(doc, list):
        raise ConfigError(f"{ctx} must be a JSON array, got {doc!r}")
    return doc


def _record(cls, doc, ctx: str, base=None):
    """``cls`` built from the JSON object ``doc``, one number per key.

    The keys are the field names of ``cls``, or those of ``base`` when
    ``cls`` is ``dict``.  An omitted key keeps its value in ``base``; with no
    base every key is required."""
    names = base.keys() if cls is dict else [f.name for f in fields(cls)]
    values = {
        key: _number(value, f"{ctx}.{key}", key in COUNTS)
        for key, value in _object(doc, ctx, names).items()
    }
    if base is None:
        missing = sorted(set(names) - set(values))
        if missing:
            raise ConfigError(f"missing keys in {ctx}: {missing}")
        return cls(**values)
    return {**base, **values} if cls is dict else replace(base, **values)


def config_from_dict(doc: dict) -> RunConfig:
    base = default_config()
    try:
        _object(doc, "config", {"schema_version", "packets", "ladders", *SECTIONS})
        changes = {
            name: _record(cls, doc[name], name, getattr(base, name))
            for name, cls in SECTIONS.items()
            if name in doc
        }
        if "packets" in doc:
            changes["packets"] = tuple(
                _record(TestPacket, p, f"packets[{i}]")
                for i, p in enumerate(_array(doc["packets"], "packets"))
            )
        for name, ladder in _object(doc.get("ladders", {}), "ladders", LADDERS).items():
            changes[LADDERS[name]] = tuple(
                _number(x, f"ladders.{name}[{i}]", name in COUNTS)
                for i, x in enumerate(_array(ladder, f"ladders.{name}"))
            )
        if "schema_version" in doc:
            changes["schema_version"] = _number(doc["schema_version"], "schema_version", True)
        return replace(base, **changes)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
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
