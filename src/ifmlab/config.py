"""Declarative experiment configs: schema validation and object building.

A config is a single YAML document selecting a space, an operator pair, an
optional self-map, exactly one action (audit, check, or solve) with its
parameters, solver settings, sampling settings, and output paths.
Validation types, defaults and range-checks every field once, builds the
space and the map once, and its errors carry the offending field path.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import yaml

from .contractions import SelfMap, self_map_from_spec
from .operators import OPERATOR_FACTORIES, operator_pair
from .spaces import (
    BASE_METRICS,
    BallSpec,
    CoordinateSpace,
    FiniteTabulated,
    IfmSpace,
    MIN_SEPARATION_FRACTION,
    PointDomain,
    finite_tabulated,
    induced_from_metric,
    triangle_shifts,
)
from .solver import DEFAULT_UNIFORM_EPSILONS, SolveConfig


class ConfigError(ValueError):
    """Validation failure of a config or result document, annotated with the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def expect_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


def expect_list(obj: Any, path: str) -> list:
    if not isinstance(obj, list):
        raise ConfigError(path, f"expected a list, got {type(obj).__name__}")
    return obj


def _number(value: Any, path: str, integer: bool = False) -> Any:
    """``value`` when it is a number (an integer if ``integer``, else one a
    float can hold), else a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ConfigError(path, f"expected {kind}, got {type(value).__name__}")
    if not integer and isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            raise ConfigError(path, "integer is too large for a float") from None
    return value


def _float_sized(value: Any, path: str, domain: Any = None) -> Any:
    """``value`` as written, once each integer in its nested lists fits a float."""
    for i, item in enumerate(value if isinstance(value, list) else ()):
        # a float fits already, and so does a list of floats: no check, no path
        if not (isinstance(item, float) or type(item) is list and all(isinstance(v, float) for v in item)):
            _float_sized(item, f"{path}[{i}]")
    return _number(value, path) if _is_number(value) else value


def _numbers(value: Any, path: str) -> np.ndarray:
    return np.asarray([_number(v, f"{path}[{i}]") for i, v in enumerate(expect_list(value, path))], float)


def _get(d: dict, key: str, path: str) -> Any:
    if key not in d:
        raise ConfigError(f"{path}.{key}", "required field is missing")
    return d[key]


# A field table maps each key to (reader, default).  A reader turns the raw
# value into a typed one or raises a ConfigError with the field's path (the
# domain is there for point fields).  An absent key takes its default:
# REQUIRED makes it an error, START is the domain's start point and UNSET
# leaves the key out.
Reader = Callable[[Any, str, Any], Any]
REQUIRED, START, UNSET = object(), object(), object()


def _between(lo: float, hi: float, integer: bool = False, closed: bool = False) -> Reader:
    """Reader of a number (an integer if ``integer``) in ``(lo, hi)``, ``[lo, hi)`` if ``closed``."""
    def read(value: Any, path: str, domain: Any = None) -> Any:
        x = _number(value, path, integer)
        if not ((lo <= x) if closed else (lo < x)) or not x < hi:
            raise ConfigError(path, f"must lie in {'[' if closed else '('}{lo:g}, {hi:g}), got {value!r}")
        return x if integer else float(x)
    return read


UNIT = _between(0.0, 1.0)
POSITIVE = _between(0.0, math.inf)
NONNEGATIVE = _between(0.0, math.inf, closed=True)


def _at_least(lo: int) -> Reader:
    return _between(lo, math.inf, integer=True, closed=True)


def _halfwidth(value: Any, path: str, domain: Any = None) -> float:
    """A halfwidth whose box, twice as wide, is finite, as is the smallest pair separation in it."""
    h = POSITIVE(value, path)
    if not 0.0 < MIN_SEPARATION_FRACTION * (2.0 * h) < math.inf:
        raise ConfigError(path, f"must give a box of finite width that separates pairs, got {value!r}")
    return h


def _flag(value: Any, path: str, domain: Any = None) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _probe_ts(value: Any, path: str, domain: Any = None) -> tuple[float, ...]:
    """The probe times as written; null or an empty list keeps the default grid."""
    return () if value is None else tuple(_numbers(value, path))


def _epsilons(value: Any, path: str, domain: Any = None) -> tuple[float, ...]:
    if not expect_list(value, path):
        raise ConfigError(path, "must name at least one epsilon")
    return tuple(UNIT(e, f"{path}[{i}]") for i, e in enumerate(value))


def _point(value: Any, path: str, domain: PointDomain, many: bool = False) -> Any:
    """``value`` read by the domain as one point, or as a point sequence if ``many``."""
    try:
        return domain.read(value) if many else domain.as_point(value)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _prefix(value: Any, path: str, domain: PointDomain) -> list:
    if len(expect_list(value, path)) < 3:
        raise ConfigError(path, "must hold at least 3 points")
    _point(value, path, domain, many=True)
    return value


def _known(body: Any, known: Any, path: str) -> dict:
    """The mapping ``body`` when each of its keys is in ``known``; ``path`` "" is the top level."""
    for key in expect_mapping(body, path or "config"):
        if key not in known:
            raise ConfigError(f"{path}.{key}" if path else str(key),
                              f"unknown key (known: {', '.join(known) or 'none'})")
    return body


def _fields(body: Any, table: dict[str, tuple[Reader, Any]], path: str, domain: Any = None) -> dict:
    """``body`` (null reads as empty) through the field ``table``; a key outside it is an error."""
    body = _known({} if body is None else body, table, path)
    fields = {}
    for key, (read, default) in table.items():
        if key in body:
            fields[key] = read(body[key], f"{path}.{key}", domain)
        elif default is REQUIRED:
            raise ConfigError(f"{path}.{key}", "required field is missing")
        elif default is not UNSET:
            fields[key] = domain.default_start() if default is START else default
    return fields


def _as_is(value: Any, path: str, domain: Any = None) -> Any:
    return value


def _text(value: Any, path: str, domain: Any = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, "output paths must be strings")
    return value


def _metric(value: Any, path: str, domain: Any = None) -> str:
    if value not in BASE_METRICS:
        raise ConfigError(path, f"unknown base metric {value!r} (known: {', '.join(BASE_METRICS)})")
    return value


def _labels(value: Any, path: str, domain: Any = None) -> list[str]:
    for i, label in enumerate(expect_list(value, path)):
        if not isinstance(label, str):
            raise ConfigError(f"{path}[{i}]", f"a label is a string, got {label!r}")
    return list(value)


def _between_labels(value: Any, path: str, domain: Any = None) -> list[str]:
    if len(expect_list(value, path)) != 2:
        raise ConfigError(path, "must name exactly two labels")
    return _labels(value, path)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _curve(value: Any, path: str, domain: Any = None) -> Any:
    """A tabulated curve as written; its values are checked when the domain is built."""
    if not _is_number(value) and not (isinstance(value, list) and value and all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)) for p in value)):
        raise ConfigError(path, f"a curve is a constant or a list of [t, value] pairs, got {value!r}")
    return _float_sized(value, path)


def _pairs(value: Any, path: str, domain: Any = None) -> list[dict]:
    return [_fields(entry, PAIR_FIELDS, f"{path}[{i}]") for i, entry in enumerate(expect_list(value, path))]


def _ball(value: Any, path: str, domain: PointDomain) -> BallSpec:
    table = {"center": (_point, REQUIRED), "radius": (UNIT, REQUIRED), "time": (POSITIVE, REQUIRED)}
    return BallSpec(**_fields(value, table, path, domain))


# solve: keeps SolveConfig's defaults; sampling: goes in as sample_<key>,
# and a check samples more pairs than a solve's gates do
SOLVE_FIELDS = {"epsilon": (UNIT, UNSET), "max_iterations": (_at_least(1), UNSET),
                "probe_ts": (_probe_ts, UNSET), "window": (_at_least(1), UNSET),
                "hypothesis_checks": (_flag, UNSET)}
SAMPLING_FIELDS = {"pairs": (_at_least(1), UNSET), "halfwidth": (_halfwidth, UNSET)}
CHECK_SAMPLING_FIELDS = {**SAMPLING_FIELDS, "pairs": (_at_least(1), 1000)}

PAIR_FIELDS = {"between": (_between_labels, REQUIRED), "mu": (_curve, REQUIRED), "nu": (_curve, REQUIRED)}
SPACE_FIELDS = {
    "induced": {"dimension": (_at_least(1), REQUIRED), "base_metric": (_metric, "euclidean")},
    "tabulated": {"labels": (_labels, REQUIRED), "pairs": (_pairs, REQUIRED)},
}
# map kind -> the fields of its body; a table, constant or builtin body is a value
MAP_FIELDS = {"affine": {"matrix": (_float_sized, REQUIRED), "offset": (_float_sized, REQUIRED)},
              "power": {"of": (_as_is, REQUIRED), "m": (_at_least(1), REQUIRED)}}
OUTPUT_FIELDS = {key: (_text, UNSET) for key in ("result", "trace", "report")}
CONFIG_KEYS = ("seed", "operators", "space", "map", "action", "solve", "sampling", "output")

K = (UNIT, 0.5)
X0 = (_point, START)
BALL = (_ball, REQUIRED)
COINCIDENT = (_flag, False)

# kind -> (key naming the target/notion/regime, its default)
NAME_KEYS = {"audit": ("target", "space"), "check": ("notion", REQUIRED), "solve": ("regime", REQUIRED)}
# kind -> target/notion/regime -> parameter -> (reader, default)
ACTIONS: dict[str, dict[str, dict[str, tuple[Reader, Any]]]] = {
    "audit": {
        "space": {"samples": (_at_least(1), 1000), "tolerance": (NONNEGATIVE, 1e-9)},
        "operators": {"grid_size": (_at_least(2), 100), "tolerance": (NONNEGATIVE, 1e-12)},
    },
    "check": {
        "if_contractive": {},
        "direct_ratio": {"include_coincident": COINCIDENT},
        "t_uniform_continuity": {"epsilons": (_epsilons, DEFAULT_UNIFORM_EPSILONS)},
        # an explicit prefix replaces the iterates of x0 and needs no map
        "contractive_sequence": {"k": K, "prefix": (_prefix, None), "x0": X0,
                                 "steps": (_at_least(1), 16)},
        "closed_ball_hypotheses": {"ball": BALL, "k": K},
    },
    "solve": {
        "picard": {"x0": X0},
        "closed_ball": {"ball": BALL, "k": K},
        "power": {"m": (_at_least(1), 1), "x0": X0},
        "direct_ratio": {"x0": X0, "include_coincident": COINCIDENT},
    },
}


@dataclass(frozen=True)
class Action:
    """A validated action: the parameters of its target, notion or regime, typed and defaulted."""

    kind: str  # audit | check | solve
    name: str  # the target, notion or regime
    written: dict  # the action body as written, pinned in result documents
    params: dict  # keyed as ACTIONS lists them


@dataclass(frozen=True)
class ExperimentConfig:
    operators_name: str
    space_spec: dict
    space: IfmSpace | None  # built once at validation, as is map; None for an operator audit
    action: Action
    solve: SolveConfig  # from solve:, seed and sampling:
    map_spec: dict | None = None
    map: SelfMap | None = None
    output: dict = field(default_factory=dict)


def _tabulated_domain(body: dict) -> FiniteTabulated:
    return FiniteTabulated(body["labels"], {tuple(p["between"]): (p["mu"], p["nu"]) for p in body["pairs"]})


# space kind -> (its point domain from the validated body, its space over that domain)
SPACE_KINDS = {
    "induced": (lambda body: CoordinateSpace(body["dimension"], body["base_metric"]), induced_from_metric),
    "tabulated": (_tabulated_domain, finite_tabulated),
}


def _validate_space(spec: Any) -> tuple[dict, PointDomain]:
    """The normalised space spec and its point domain."""
    spec = _known(spec, SPACE_FIELDS, "space")
    if len(spec) != 1:
        raise ConfigError("space", "exactly one of 'induced' or 'tabulated' is required")
    (kind, body), = spec.items()
    body = _fields(body, SPACE_FIELDS[kind], f"space.{kind}")
    try:
        return {kind: body}, SPACE_KINDS[kind][0](body)
    except ValueError as exc:  # a tabulated label set or curve
        raise ConfigError(f"space.{kind}", str(exc)) from exc


def build_space(space_spec: dict, domain: PointDomain, operators_name: str) -> IfmSpace:
    """The space of a validated spec over ``domain``, the point domain built from it;
    a pair that is not idempotent is a ConfigError at ``operators``."""
    (kind,) = space_spec
    try:
        return SPACE_KINDS[kind][1](domain, operator_pair(operators_name))
    except ValueError as exc:
        raise ConfigError("operators", str(exc)) from exc


def _validate_operators(name: Any) -> str:
    if not isinstance(name, str) or name not in OPERATOR_FACTORIES:
        known = ", ".join(sorted(OPERATOR_FACTORIES))
        raise ConfigError("operators", f"unknown operator pair {name!r} (known: {known})")
    return name


def _map_fields(spec: dict, path: str) -> None:
    """An affine or power body, and the map a power raises, has each of its fields and no other."""
    for kind, body in spec.items():
        if kind in MAP_FIELDS:
            _fields(body, MAP_FIELDS[kind], f"{path}.{kind}")
            if kind == "power" and isinstance(body["of"], dict):
                _map_fields(body["of"], f"{path}.power.of")


def _validate_map(spec: Any, space_spec: dict, path: str = "map") -> SelfMap:
    """The map of ``spec``, once it suits the space of ``space_spec``."""
    spec = expect_mapping(spec, path)
    _map_fields(spec, path)
    if "constant" in spec:
        constant = _float_sized(spec["constant"], f"{path}.constant")
        if not (isinstance(constant, str) or _is_number(constant)
                or isinstance(constant, list) and all(map(_is_number, constant))):
            raise ConfigError(f"{path}.constant", "must be a number, a list of numbers or a label, "
                              f"got {reprlib.aRepr.repr1(constant, 2)}")  # two levels shown
    try:
        map_ = build_map(spec)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(path, str(exc)) from exc
    if "affine" in spec and "induced" in space_spec:
        dim = space_spec["induced"]["dimension"]
        shapes = {"matrix": (np.atleast_2d, (dim, dim)), "offset": (np.atleast_1d, (dim,))}
        for key, (atleast, shape) in shapes.items():
            got = atleast(np.asarray(spec["affine"][key], float)).shape
            if got != shape:
                raise ConfigError(f"{path}.affine.{key}",
                                  f"{key} shape {got} does not match space dimension {dim}")
    if ("table" in spec or ("constant" in spec and isinstance(spec["constant"], str))) \
            and "tabulated" not in space_spec:
        raise ConfigError(path, "label-valued maps require a tabulated space")
    return map_


def build_map(spec: dict) -> SelfMap:
    return self_map_from_spec(spec)


def _validate_action(raw: Any, domain: PointDomain) -> Action:
    raw = _known(raw, ACTIONS, "action")
    kinds = [k for k in ACTIONS if k in raw]
    if len(kinds) != 1:
        raise ConfigError("action", "exactly one of 'audit', 'check' or 'solve' is required")
    kind = kinds[0]
    path = f"action.{kind}"
    body = expect_mapping(raw[kind], path)
    key, default = NAME_KEYS[kind]
    name = _get(body, key, path) if default is REQUIRED else body.get(key, default)
    if not isinstance(name, str) or name not in ACTIONS[kind]:
        raise ConfigError(f"{path}.{key}", f"must be one of {tuple(ACTIONS[kind])}, got {name!r}")
    params = _fields({k: v for k, v in body.items() if k != key}, ACTIONS[kind][name], path, domain)
    return Action(kind, name, dict(body), params)


def _solve_config(body: Any, path: str, **settings: Any) -> SolveConfig:
    """``SolveConfig`` of a ``solve:`` block; only the probe grid is left for it to check."""
    fields = _fields(body, SOLVE_FIELDS, path)
    try:
        return SolveConfig(**fields, **settings)
    except ValueError as exc:
        raise ConfigError(f"{path}.probe_ts", str(exc)) from exc


def solve_record(config: SolveConfig) -> dict:
    """The ``solve:`` settings of ``config``, as result documents record them."""
    return {key: getattr(config, key) for key in SOLVE_FIELDS}


def _rebuild_experiment(exp: dict) -> tuple[IfmSpace, SelfMap, SelfMap, SolveConfig, Action]:
    """Space, maps, solve settings and solve action of a result document's
    experiment, checked as in a config."""
    try:
        space_spec, domain = _validate_space(exp.get("space"))
        space = build_space(space_spec, domain, _validate_operators(exp.get("operators", "min-max")))
        map_ = _validate_map(exp.get("map"), space_spec)
        step_map = _validate_map(exp.get("iteration_map", exp.get("map")), space_spec, "iteration_map")
        action = _validate_action(exp.get("action"), domain)
        if action.kind != "solve":
            raise ConfigError("action", f"must be a solve, got {action.kind!r}")
        return space, map_, step_map, _solve_config(exp.get("solve_config"), "solve_config"), action
    except ConfigError as exc:
        raise ConfigError(f"experiment.{exc.path}", exc.message) from exc


def validate_config(doc: Any, seed: int | None = None) -> ExperimentConfig:
    """The typed config of ``doc``; ``seed``, when given, replaces its seed."""
    doc = _known(doc, CONFIG_KEYS, "")
    if seed is not None:
        doc = {**doc, "seed": seed}
    space_spec, domain = _validate_space(_get(doc, "space", "config"))
    action = _validate_action(_get(doc, "action", "config"), domain)
    operators_name = _validate_operators(doc.get("operators", "min-max"))
    space = None if (action.kind, action.name) == ("audit", "operators") else build_space(
        space_spec, domain, operators_name)

    map_spec = doc.get("map")
    map_ = None if map_spec is None else _validate_map(map_spec, space_spec)
    if map_ is None and action.kind != "audit" and action.params.get("prefix") is None:
        raise ConfigError("map", f"action {action.kind!r} requires a map")

    sampling = _fields(doc.get("sampling"),
                       CHECK_SAMPLING_FIELDS if action.kind == "check" else SAMPLING_FIELDS, "sampling")
    solve = _solve_config(doc.get("solve"), "solve", seed=_at_least(0)(doc.get("seed", 0), "seed"),
                          **{f"sample_{key}": value for key, value in sampling.items()})
    if (action.kind, action.name) == ("audit", "space"):
        try:
            triangle_shifts(solve.probe_ts)
        except ValueError as exc:
            raise ConfigError("solve.probe_ts", str(exc)) from exc
    output = _fields(doc.get("output"), OUTPUT_FIELDS, "output")
    return ExperimentConfig(operators_name, space_spec, space, action, solve, map_spec, map_, output)


# Nodes a config may expand to through YAML aliases: far above a 120-label tabulated space
# (about 3e5), far below the 1e8 of a 550-byte chain of eight anchors, each ten aliases of the last
NODE_BUDGET = 10**7


def _expansion(doc: Any, seen: dict[int, tuple[int, int]]) -> tuple[int, int]:
    """Node count and depth of ``doc`` with its aliases expanded, each distinct container walked once."""
    if not isinstance(doc, (dict, list)):
        return 1, 0
    if id(doc) not in seen:
        parts = [_expansion(item, seen) for item in (doc.values() if isinstance(doc, dict) else doc)]
        seen[id(doc)] = 1 + sum(n for n, _ in parts), 1 + max((d for _, d in parts), default=0)
    return seen[id(doc)]


def load_config(path: str, seed: int | None = None) -> ExperimentConfig:
    """Parse and validate a YAML experiment config file.  A document nested
    too deeply to parse or to walk, or above ``NODE_BUDGET`` nodes, is a
    ConfigError at ``config``."""
    try:
        with open(path) as handle:
            doc = yaml.safe_load(handle)
        nodes, depth = _expansion(doc, {})
        if depth >= sys.getrecursionlimit():  # too deep for validation, whose walks recurse
            raise RecursionError
        if nodes > NODE_BUDGET:
            raise ConfigError("config", f"expands to more than {NODE_BUDGET:,} nodes through YAML aliases")
        return validate_config(doc, seed)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError("config", f"YAML parse error{where}: {exc}") from exc
    except RecursionError:
        raise ConfigError("config", "nested too deeply to read") from None
