"""Run configuration: one JSON document drives every experiment command.

The schema is deliberately flat:

    {
      "schema_version": 1,
      "params":     {"beta": 1.0, "m_sq": 1.0, "m0_sq": 1.0, "lam": 0.1},
      "profile":    {"mu": 1.0},
      "packets":    [{"k_center": 1.0, "k_width": 0.5,
                      "t_center": 2.0, "t_width": 0.3}, {...}],
      "ladders":    {"mu": [...], "orders": [...], "k": [...]},
      "quadrature": {"n_radial": 64, "n_time": 80}
    }

The schema is written down once: each section is read under the field
names of the type it builds (``ThermalParams``, ``SwitchingProfile``,
``TestPacket``, ``QuadratureSpec``) and the ladders under the names in
``LADDERS``.  The acceptance tolerances are not part of it: they are pinned
in ``verify.TOLERANCES``, so a ``tolerances`` key is an unknown key.
Every key is optional except the four fields of a packet; an omitted key
takes its value from :func:`default_config`.  ``packets`` holds exactly two
packets, the f and g of every pairing.  An unknown key at any level
is an error.  Every value is a JSON number, never a string or a boolean,
and the four counts (``n_radial``, ``n_time``, ``orders`` and
``schema_version``) are integers.  Every number must be finite, every
ladder strictly increasing, the ``orders`` ladder every order from 1 to
its last, N, with N within the series order cap (``series`` and criterion
7 run exactly those orders), and every quadrature node count within
``NODE_CAP``; violations raise :class:`ConfigError`, which the CLI maps to
its config-error exit code.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

from .combinatorics import DEFAULT_ORDER_CAP
from .modes import SwitchingProfile
from .spectral import QuadratureSpec, TestPacket
from .thermal import ThermalParams

SCHEMA_VERSION = 1

# the largest quadrature node count: numpy's leggauss builds an n x n matrix,
# and pair_report doubles the count once more
NODE_CAP = 1024

# JSON ladder name -> RunConfig field
LADDERS = {"mu": "mu_ladder", "orders": "order_ladder", "k": "k_values"}
# the integer-valued fields; every other number is read as a float
COUNTS = {"n_radial", "n_time", "orders", "schema_version"}
# JSON section -> the type it builds; each section's name is its RunConfig field
SECTIONS = {
    "params": ThermalParams,
    "profile": SwitchingProfile,
    "quadrature": QuadratureSpec,
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
    k_values: tuple[float, ...] = (0.0, 1.0)
    quadrature: QuadratureSpec = QuadratureSpec()
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {self.schema_version}; expected {SCHEMA_VERSION}"
            )
        if len(self.packets) != 2:
            raise ConfigError(f"exactly two packets (f and g) are required, got {len(self.packets)}")
        for name, attr in LADDERS.items():
            ladder = getattr(self, attr)
            if not ladder:
                raise ConfigError(f"ladder {name!r} must not be empty")
            if any(b <= a for a, b in zip(ladder, ladder[1:])):
                raise ConfigError(f"ladder {name!r} must be strictly increasing: {ladder}")
        if not all(map(math.isfinite, (*self.mu_ladder, *self.k_values))):
            raise ConfigError("mu and k ladders must be finite")
        if any(m <= 0 for m in self.mu_ladder):
            raise ConfigError("the mu ladder must be positive")
        # series and criterion 7 run every order from 1 to the last
        n = len(self.order_ladder)
        if list(self.order_ladder) != list(range(1, n + 1)) or n > DEFAULT_ORDER_CAP:
            raise ConfigError(f"ladder 'orders' must be [1, 2, ..., N] with N <= {DEFAULT_ORDER_CAP}")
        if any(k < 0 for k in self.k_values):
            raise ConfigError("k values must be >= 0")
        if max(self.quadrature.n_radial, self.quadrature.n_time) > NODE_CAP:
            raise ConfigError(
                f"quadrature node counts must be <= {NODE_CAP}, got n_radial="
                f"{self.quadrature.n_radial}, n_time={self.quadrature.n_time}"
            )

    @property
    def packet_pair(self) -> tuple[TestPacket, TestPacket]:
        return self.packets[0], self.packets[1]

    def refined(self) -> "RunConfig":
        """Double quadrature node counts and densify the mu ladder with
        geometric midpoints (orders and momenta are kept as given)."""
        return replace(self, mu_ladder=_densify(self.mu_ladder), quadrature=self.quadrature.refined())

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            **{name: asdict(getattr(self, name)) for name in SECTIONS},
            "packets": [asdict(p) for p in self.packets],
            "ladders": {name: list(getattr(self, attr)) for name, attr in LADDERS.items()},
        }


def _densify(ladder: tuple[float, ...]) -> tuple[float, ...]:
    out = [ladder[0]]
    for a, b in zip(ladder, ladder[1:]):
        out.append(math.sqrt(a * b))
        out.append(b)
    return tuple(out)


def default_config() -> RunConfig:
    """The desk-scale defaults: series bench parameters and two packets
    centred after the switch-off time t = 0, at t = 2 and 2.5 with width
    0.3.  Their time rules span ``spectral.TIME_SIGMAS`` widths each side of
    the centre, so the first reaches back to t = -0.4, inside the ramp: 15
    of the 160 time nodes of a pairing lie there, where the packet's weight
    is under 2e-14, and the early screen that
    :func:`~thermalquench.spectral.pair_finite_mu` runs on each rung's
    trajectory proves that they cannot move the pairing at any rung of the
    ladder, so none is read."""
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

    The keys are the field names of ``cls``.  An omitted key keeps its value
    in ``base``; with no base every key is required."""
    names = [f.name for f in fields(cls)]
    values = {
        key: _number(value, f"{ctx}.{key}", key in COUNTS)
        for key, value in _object(doc, ctx, names).items()
    }
    if base is None:
        missing = sorted(set(names) - set(values))
        if missing:
            raise ConfigError(f"missing keys in {ctx}: {missing}")
        return cls(**values)
    return replace(base, **values)


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
    except (ValueError, RecursionError) as exc:
        # ValueError: a JSONDecodeError or bytes that are not UTF-8;
        # RecursionError: nesting deeper than the json module descends
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)
