"""Declarative experiment configs: schema validation and object building.

A config is a single YAML document selecting a space, an operator pair, an
optional self-map, exactly one action (audit, check, or solve) with its
parameters, solver settings, sampling settings, and output paths.
Validation errors carry the offending field path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .contractions import SelfMap, self_map_from_spec
from .operators import OPERATOR_FACTORIES, operator_pair
from .spaces import (
    BallSpec,
    CoordinateSpace,
    FiniteTabulated,
    IfmSpace,
    finite_tabulated,
    induced_from_metric,
)
from .solver import SolveConfig


class ConfigError(ValueError):
    """Validation failure of a config or result document, annotated with the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


CHECK_NOTIONS = (
    "if_contractive",
    "direct_ratio",
    "t_uniform_continuity",
    "contractive_sequence",
    "closed_ball_hypotheses",
)
SOLVE_REGIMES = ("picard", "closed_ball", "power", "direct_ratio")
AUDIT_TARGETS = ("space", "operators")


@dataclass
class ExperimentConfig:
    seed: int
    operators_name: str
    space_spec: dict
    action_kind: str  # "audit" | "check" | "solve"
    action: dict
    map_spec: dict | None = None
    solve: dict = field(default_factory=dict)
    sampling: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def solve_config(self, hypothesis_override: bool | None = None) -> SolveConfig:
        kwargs: dict[str, Any] = dict(self.solve)
        kwargs.setdefault("seed", self.seed)
        kwargs["sample_pairs"] = int(self.sampling.get("pairs", kwargs.pop("sample_pairs", 400)))
        if "halfwidth" in self.sampling:
            kwargs["sample_halfwidth"] = float(self.sampling["halfwidth"])
        if hypothesis_override is not None:
            kwargs["hypothesis_checks"] = hypothesis_override
        try:
            return SolveConfig(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError("solve", str(exc)) from exc


def expect_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


def expect_list(obj: Any, path: str) -> list:
    if not isinstance(obj, list):
        raise ConfigError(path, f"expected a list, got {type(obj).__name__}")
    return obj


def _number(value: Any, path: str, integer: bool = False) -> Any:
    """``value`` when it is a number (an integer if ``integer``), else a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ConfigError(path, f"expected {kind}, got {type(value).__name__}")
    return value


def _get(d: dict, key: str, path: str, required: bool = True, default: Any = None) -> Any:
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}", "required field is missing")
        return default
    return d[key]


def _validate_space(spec: Any) -> dict:
    spec = expect_mapping(spec, "space")
    kinds = [k for k in ("induced", "tabulated") if k in spec]
    if len(kinds) != 1:
        raise ConfigError("space", "exactly one of 'induced' or 'tabulated' is required")
    kind = kinds[0]
    body = expect_mapping(spec[kind], f"space.{kind}")
    if kind == "induced":
        dim = _get(body, "dimension", "space.induced")
        if not isinstance(dim, int) or dim < 1:
            raise ConfigError("space.induced.dimension", f"must be a positive integer, got {dim!r}")
        metric = body.get("base_metric", "euclidean")
        try:
            CoordinateSpace(dim, metric)
        except ValueError as exc:
            raise ConfigError("space.induced.base_metric", str(exc)) from exc
        return {"induced": {"dimension": dim, "base_metric": metric}}
    labels = expect_list(_get(body, "labels", "space.tabulated"), "space.tabulated.labels")
    pairs_raw = expect_list(_get(body, "pairs", "space.tabulated"), "space.tabulated.pairs")
    pairs = []
    for i, entry in enumerate(pairs_raw):
        p = f"space.tabulated.pairs[{i}]"
        entry = expect_mapping(entry, p)
        between = expect_list(_get(entry, "between", p), f"{p}.between")
        if len(between) != 2:
            raise ConfigError(f"{p}.between", "must name exactly two labels")
        pairs.append(
            {"between": [str(between[0]), str(between[1])],
             "mu": _get(entry, "mu", p), "nu": _get(entry, "nu", p)}
        )
    normalized = {"tabulated": {"labels": [str(l) for l in labels], "pairs": pairs}}
    try:
        _domain_from_spec(normalized)
    except ValueError as exc:
        raise ConfigError("space.tabulated", str(exc)) from exc
    return normalized


def _domain_from_spec(space_spec: dict) -> CoordinateSpace | FiniteTabulated:
    if "induced" in space_spec:
        body = space_spec["induced"]
        return CoordinateSpace(body["dimension"], body.get("base_metric", "euclidean"))
    body = space_spec["tabulated"]
    pairwise = {
        tuple(entry["between"]): (entry["mu"], entry["nu"]) for entry in body["pairs"]
    }
    return FiniteTabulated(body["labels"], pairwise)


def build_space(space_spec: dict, operators_name: str) -> IfmSpace:
    domain = _domain_from_spec(space_spec)
    pair = operator_pair(operators_name)
    if isinstance(domain, CoordinateSpace):
        return induced_from_metric(domain, pair)
    return finite_tabulated(domain, pair)


def _validate_operators(name: Any) -> str:
    if not isinstance(name, str) or name not in OPERATOR_FACTORIES:
        raise ConfigError(
            "operators",
            f"unknown operator pair {name!r} (known: {', '.join(sorted(OPERATOR_FACTORIES))})",
        )
    return name


def _validate_map(spec: Any, space_spec: dict, path: str = "map") -> dict:
    spec = expect_mapping(spec, path)
    try:
        self_map_from_spec(spec)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(path, str(exc)) from exc
    if "affine" in spec and "induced" in space_spec:
        dim = space_spec["induced"]["dimension"]
        a = np.atleast_2d(np.asarray(spec["affine"]["matrix"], float))
        if a.shape != (dim, dim):
            raise ConfigError(f"{path}.affine.matrix",
                              f"matrix shape {a.shape} does not match space dimension {dim}")
    if ("table" in spec or ("constant" in spec and isinstance(spec["constant"], str))) \
            and "tabulated" not in space_spec:
        raise ConfigError(path, "label-valued maps require a tabulated space")
    return spec


def build_map(config: ExperimentConfig) -> SelfMap:
    if config.map_spec is None:
        raise ConfigError("map", "this action requires a map")
    return self_map_from_spec(config.map_spec)


def _validate_action(raw: Any) -> tuple[str, dict]:
    raw = expect_mapping(raw, "action")
    kinds = [k for k in ("audit", "check", "solve") if k in raw]
    if len(kinds) != 1:
        raise ConfigError("action", "exactly one of 'audit', 'check' or 'solve' is required")
    kind = kinds[0]
    body = expect_mapping(raw[kind], f"action.{kind}")
    if kind == "audit":
        target = body.get("target", "space")
        if target not in AUDIT_TARGETS:
            raise ConfigError("action.audit.target",
                              f"must be one of {AUDIT_TARGETS}, got {target!r}")
    elif kind == "check":
        notion = _get(body, "notion", "action.check")
        if notion not in CHECK_NOTIONS:
            raise ConfigError("action.check.notion",
                              f"must be one of {CHECK_NOTIONS}, got {notion!r}")
    else:
        regime = _get(body, "regime", "action.solve")
        if regime not in SOLVE_REGIMES:
            raise ConfigError("action.solve.regime",
                              f"must be one of {SOLVE_REGIMES}, got {regime!r}")
    return kind, dict(body)


def _validate_points(kind: str, action: dict, domain: CoordinateSpace | FiniteTabulated) -> None:
    """The action's start point and ball center, when given, are points of the domain."""
    ball = action.get("ball")
    center = ball.get("center") if isinstance(ball, dict) else None
    for path, point in ((f"action.{kind}.x0", action.get("x0")),
                        (f"action.{kind}.ball.center", center)):
        if point is not None:
            try:
                domain.as_point(point)
            except (TypeError, ValueError) as exc:
                raise ConfigError(path, str(exc)) from exc


def _validate_sampling(sampling: Any) -> dict:
    sampling = expect_mapping(sampling, "sampling")
    pairs, halfwidth = sampling.get("pairs"), sampling.get("halfwidth")
    if "pairs" in sampling and _number(pairs, "sampling.pairs", integer=True) < 1:
        raise ConfigError("sampling.pairs", f"must be at least 1, got {pairs!r}")
    if "halfwidth" in sampling and not 0.0 < _number(halfwidth, "sampling.halfwidth") < math.inf:
        raise ConfigError("sampling.halfwidth", f"must be finite and positive, got {halfwidth!r}")
    return sampling


def parse_ball(params: dict, path: str) -> BallSpec:
    ball = expect_mapping(_get(params, "ball", path), f"{path}.ball")
    try:
        return BallSpec(
            center=_get(ball, "center", f"{path}.ball"),
            radius=float(_get(ball, "radius", f"{path}.ball")),
            time=float(_get(ball, "time", f"{path}.ball")),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}.ball", str(exc)) from exc


def validate_config(doc: Any) -> ExperimentConfig:
    doc = expect_mapping(doc, "config")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed", f"must be an integer, got {seed!r}")
    operators_name = _validate_operators(doc.get("operators", "min-max"))
    space_spec = _validate_space(_get(doc, "space", "config"))
    action_kind, action = _validate_action(_get(doc, "action", "config"))
    _validate_points(action_kind, action, _domain_from_spec(space_spec))

    map_spec = None
    if "map" in doc and doc["map"] is not None:
        map_spec = _validate_map(doc["map"], space_spec)
    needs_map = action_kind in ("solve", "check")
    if (action_kind == "check" and action.get("notion") == "contractive_sequence"
            and "prefix" in action):
        needs_map = False
    if map_spec is None and needs_map:
        raise ConfigError("map", f"action {action_kind!r} requires a map")

    solve = expect_mapping(doc.get("solve") or {}, "solve")
    sampling = _validate_sampling(doc.get("sampling") or {})
    output = expect_mapping(doc.get("output") or {}, "output")
    for key, value in output.items():
        if not isinstance(value, str):
            raise ConfigError(f"output.{key}", "output paths must be strings")

    return ExperimentConfig(
        seed=seed,
        operators_name=operators_name,
        space_spec=space_spec,
        action_kind=action_kind,
        action=action,
        map_spec=map_spec,
        solve=dict(solve),
        sampling=dict(sampling),
        output=dict(output),
    )


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment config file."""
    try:
        with open(path) as handle:
            doc = yaml.safe_load(handle)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError("config", f"YAML parse error{where}: {exc}") from exc
    return validate_config(doc)
