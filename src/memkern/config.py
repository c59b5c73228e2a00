"""Declarative experiment configs: parsing, validation, canonical hashing.

Configs are plain JSON, checked against one key table, ``_SCHEMA``; every
problem is reported as a (json-pointer, message) pair, so a bad file can be
fixed in one pass.  The canonical serialization (sorted keys, repr floats)
is hashed into result manifests.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .measure import MeasureError, MeasureSpec, gamma_bar
from .geometry import phi_bar, scaling_p_sup
from .harnack import _anchor_slice, critical_exponent
from .solver import (BoundaryCondition, CoefficientField, SolverError,
                     SpatialGrid)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "config_hash",
    "holder_horizon",
]

EXPERIMENTS = ("kernels", "verify", "solve", "harnack", "holder")
REQUIRED, ABSENT = object(), object()  # defaults of keys that have none


class Key(NamedTuple):
    """``type`` is a JSON type name, a key table (an object), ``_Kinds`` or
    ``[Key]`` (an array of such items); ``rule`` the allowed values, or
    bounds such as ``"> 0, < 1"`` (of the length, for an array).  A key
    whose default is None may be null, and one with ``needs`` is read only
    when that sibling is true."""
    type: object
    default: object = REQUIRED
    rule: object = None
    read_by: tuple = EXPERIMENTS
    needs: str | None = None


class _Kinds(dict):
    """Key tables by an object's ``kind``; the first kind is the default."""


_GRIDDED = ("solve", "harnack", "holder")
_NUMBERS = Key([Key("number")], [])
_SIDE = {"type": Key("string", "dirichlet", ("dirichlet", "neumann_zero")),
         "value": Key("number", 0.0)}
_SCHEMA = {
    "experiment": Key("string", REQUIRED, EXPERIMENTS),
    "measure": Key({
        "atoms": Key([Key({"alpha": Key("number"), "q": Key("number")})], []),
        "weight": Key({"breaks": _NUMBERS, "values": _NUMBERS}, None),
        "gamma_slack": Key("number", 0.01)}),
    "horizon": Key("number", 1.0, "> 0", ("kernels", "verify", "solve")),
    "n_steps": Key("integer", 256, ">= 16"),
    "grid": Key({"extents": Key([Key([Key("number")], REQUIRED, "== 2")],
                                []),
                 "n_cells": Key([Key("integer", REQUIRED, ">= 3")], []),
                 "boundary": Key([Key([Key(_SIDE)], REQUIRED, "== 2")], [])},
                None, None, _GRIDDED),
    "coefficients": Key(_Kinds(
        constant={"matrix": Key("array", None)},
        checkerboard=dict.fromkeys(("low", "high", "period"),
                                   Key("number", REQUIRED, "> 0")),
        table={"values": Key("array")}), None, None, _GRIDDED),
    "params": Key({
        "delta": Key("number", 0.5, "> 0, < 1", ("harnack",)),
        "tau": Key("number", 1.0, "> 0", ("harnack",)),
        "p": Key("number", 1.0, "> 0", ("harnack",)),
        "theta": Key("number", 1.0, ">= 0", ("kernels", "holder")),
        "eta": Key("number", 0.25, "> 0", ("holder",)),
        "t0": Key("number", 0.0, ">= 0", ("harnack",)),
        "x0": Key("number", 0.5, None, ("harnack",)),
        "x1": Key("number", 0.4, None, ("holder",)),
        "t1": Key("number", None, "> 0", ("holder",)),
        "r": Key("number", 0.2, "> 0", ("verify", "harnack", "holder")),
        "n_yosida": Key("integer", 256, ">= 1", ("solve",), "use_yosida"),
        "seed": Key("integer", 0, ">= 0"),
        "n_members": Key("integer", 20, ">= 1", ("harnack",)),
        "ode_lambda": Key("number", 1.0, None, ("solve",)),
        "levels": Key([Key("integer")], [1, 2, 3, 4], ">= 3", ("holder",)),
        "u0": Key(_Kinds(constant={"value": Key("number", 1.0)},
                         sine={"amplitude": Key("number", 1.0)},
                         fourier={"member": Key("integer", 0, ">= 0")}),
                  {"kind": "sine", "amplitude": 1.0}, None,
                  ("solve", "holder")),
        "f": Key(_Kinds(constant={"value": Key("number", 0.0)}),
                 {"kind": "constant", "value": 0.0}, None, ("solve",)),
        "use_yosida": Key("boolean", ABSENT, None, ("solve",)),
        "p_scaling": Key("number", ABSENT, ">= 1", ("verify",)),
    }, {}),
}

# JSON type -> (the exact Python types json gives for it, its name in a
# message); so a bool is neither a number nor an integer
_JSON = {"number": ((int, float), "a number"),
         "integer": ((int,), "an integer"),
         "boolean": ((bool,), "true or false"), "string": ((str,), "a string"),
         "array": ((list,), "an array"), "object": ((dict,), "an object")}
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
        "==": operator.eq}
_FALLBACK_CELLS = {"harnack": 64, "holder": 256}


class ConfigError(ValueError):
    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = violations
        msg = "; ".join(f"{ptr}: {txt}" for ptr, txt in violations)
        super().__init__(f"invalid config: {msg}")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    measure: MeasureSpec
    horizon: float
    n_steps: int
    grid_spec: dict | None
    coefficients_spec: dict | None
    params: dict
    # pointers of the file's keys that this experiment does not read
    unread_keys: tuple[str, ...] = field(default=(), compare=False)

    def grid(self) -> SpatialGrid:
        """The config's grid.  Without one, harnack and holder run on (0, 1),
        Dirichlet 0, with 64 or 256 cells, kept out of ``to_dict``."""
        return _grid_from_dict(self.grid_spec, self.experiment)

    def coefficients(self, grid: SpatialGrid) -> CoefficientField:
        data = self.coefficients_spec or {}
        kind = data.get("kind", "constant")
        if kind == "checkerboard":
            return CoefficientField.checkerboard(float(data["low"]),
                                                 float(data["high"]),
                                                 float(data["period"]))
        if kind == "table":
            return CoefficientField.from_table(data["values"], grid)
        mat = data.get("matrix")
        return CoefficientField.constant(1.0 if mat is None
                                         else np.diagonal(mat))

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "measure": self.measure.to_dict(),
            "horizon": self.horizon,
            "n_steps": self.n_steps,
            "params": dict(self.params),
        }
        if self.grid_spec is not None:
            out["grid"] = self.grid_spec
        if self.coefficients_spec is not None:
            out["coefficients"] = self.coefficients_spec
        return out


# ---------------------------------------------------------------------------
# sub-object builders


def _grid_from_dict(data: dict | None, experiment: str) -> SpatialGrid:
    if data is None and experiment in _FALLBACK_CELLS:
        data = {"extents": [[0.0, 1.0]],
                "n_cells": [_FALLBACK_CELLS[experiment]]}
    data = data or {}

    def side(bc: dict) -> BoundaryCondition:
        if bc.get("type") == "neumann_zero":
            return BoundaryCondition.neumann_zero()
        return BoundaryCondition.dirichlet(
            float(bc.get("value", _SIDE["value"].default)))

    return SpatialGrid(
        extents=tuple(tuple(map(float, e)) for e in data.get("extents", ())),
        n_cells=tuple(map(int, data.get("n_cells", ()))),
        boundary=tuple(tuple(map(side, pair))
                       for pair in data.get("boundary", ())))


def _kind_value(desc: dict, param: str, kind: str):
    """The one number of a ``params`` object ``desc`` of ``param`` (``u0`` or
    ``f``) read as ``kind``: its own, or else the default of ``_SCHEMA``."""
    [(name, key)] = _SCHEMA["params"].type[param].type[kind].items()
    return desc.get(name, key.default)


# ---------------------------------------------------------------------------
# validation


def _non_finite(value, ptr: str = ""):
    """JSON pointers of the NaN and infinite numbers in ``value``."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _non_finite(item, f"{ptr}/{key}")
    elif isinstance(value, float) and not math.isfinite(value):
        yield ptr


def _walk(data: dict, experiment) -> tuple[list, list]:
    """The violations of ``data`` against ``_SCHEMA``, and the pointers of
    its keys that ``experiment`` does not read (checked all the same)."""
    bad, unread = [], []

    def check(value, key: Key, ptr: str) -> None:
        types, name = _JSON[key.type if isinstance(key.type, str) else "array"
                            if isinstance(key.type, list) else "object"]
        size = len(value) if type(value) is list else value
        if value is None and key.default is None:
            return
        if type(value) not in types:
            bad.append((ptr, f"must be {name}"))
        elif isinstance(key.rule, tuple) and value not in key.rule:
            bad.append((ptr, f"must be one of {key.rule}, not {value!r}"))
        elif isinstance(key.rule, str) and not all(
                _OPS[op](size, float(bound))
                for op, bound in map(str.split, key.rule.split(", "))):
            what = "an array of length" if type(value) is list else name
            bad.append((ptr, f"must be {what} {key.rule}"))
        elif isinstance(key.type, list):
            for i, item in enumerate(value):
                check(item, key.type[0], f"{ptr}/{i}")
        elif isinstance(key.type, dict):
            check_object(value, key.type, ptr)

    def check_object(obj: dict, table: dict, ptr: str) -> None:
        if isinstance(table, _Kinds):
            kind = obj.get("kind", next(iter(table)))
            if type(kind) is not str or kind not in table:
                return bad.append((f"{ptr}/kind", "must be one of "
                                   f"{tuple(table)}, not {kind!r}"))
            table = {"kind": Key("string"), **table[kind]}
        for name, value in obj.items():
            key = table.get(name)
            if key is None:
                bad.append((f"{ptr}/{name}",
                            "unknown key; use one of " + ", ".join(table)))
                continue
            active = key.needs is None or obj.get(key.needs)
            if active:
                check(value, key, f"{ptr}/{name}")
            if not active or experiment not in key.read_by:
                unread.append(f"{ptr}/{name}")
        bad.extend((f"{ptr}/{name}", "required") for name, key in table.items()
                   if key.default is REQUIRED and name not in obj)

    check_object(data, _SCHEMA, "")
    return bad, unread


def _coefficient_values(data: dict, grid: SpatialGrid) -> list:
    """Violations of a ``matrix`` that is not diagonal with positive entries
    and of a ``values`` table not of positive numbers in the grid's shape."""
    d, bad = max(grid.dim, 1), []
    for key, shape, what in (
            ("matrix", (d, d), "a diagonal matrix with positive entries"),
            ("values", grid.shape, "positive numbers")):
        if data.get(key) is None:
            continue
        arr = np.asarray(data[key], dtype=object)
        if arr.shape == shape and all(type(v) in (int, float)
                                      for v in arr.ravel()):
            arr = arr.astype(float)
            if np.all(arr > 0 if key == "values" else np.where(
                    np.eye(d, dtype=bool), arr > 0, arr == 0)):
                continue
        bad.append((f"/coefficients/{key}", f"must be {what} of shape {shape}"))
    return bad


def holder_horizon(measure: MeasureSpec, params: dict) -> float:
    """The end 2 eta Phi_bar(r) of a holder run's trajectory."""
    return 2.0 * float(params["eta"]) * phi_bar(measure, float(params["r"]))


def _measured(experiment: str, measure: MeasureSpec, grid: SpatialGrid,
              params: dict, n_steps: int) -> list:
    """Violations of the values whose range depends on the measure or the
    grid: harnack's ``p`` below the critical exponent, verify's
    ``p_scaling`` below 1/(1 - gamma_bar), the anchor ``x0`` or ``x1`` on
    the grid on every axis, and holder's ``t1`` within its horizon and not
    before its first step."""
    bad = []
    if experiment == "harnack" and params["p"] >= (
            kappa := critical_exponent(gamma_bar(measure), grid.dim)):
        bad.append(("/params/p",
                    f"p exceeds the critical exponent bound {kappa:.6g}"))
    if experiment == "verify" and "p_scaling" in params and not (
            params["p_scaling"] < (top := scaling_p_sup(measure))):
        bad.append(("/params/p_scaling",
                    f"must be < 1/(1 - gamma_bar) = {top:.6g}"))
    anchor = {"harnack": "x0", "holder": "x1"}.get(experiment)
    if anchor and not all(lo <= params[anchor] <= hi
                          for lo, hi in grid.extents):
        bad.append((f"/params/{anchor}", "must lie in the grid's extents "
                    f"{list(map(list, grid.extents))} on every axis"))
    if experiment == "holder" and params["t1"] is not None:
        horizon = holder_horizon(measure, params)
        if params["t1"] > horizon:
            bad.append(("/params/t1", "must be at most the horizon "
                        f"2 eta Phi_bar(r) = {horizon:.6g}"))
        elif _anchor_slice(params["t1"], step := horizon / n_steps) < 1:
            bad.append(("/params/t1", "must be at least the first step time "
                        f"2 eta Phi_bar(r) / n_steps = {step:.6g}"))
    return bad


def parse_config(source, experiment: str | None = None,
                 n_steps: int | None = None,
                 seed: int | None = None) -> ExperimentConfig:
    """Parse and validate a config from a path, JSON text, or dict.

    ``experiment``, ``n_steps`` and ``seed``, when given, replace the
    file's own before validation, so a subcommand's rules apply to the
    config it runs and an override meets the file's rule.  Raises
    ``ConfigError`` with every (json-pointer, message) violation: first
    the NaN and infinite numbers (Python's ``json`` reads ``NaN``,
    ``Infinity`` and ``1e999``), then the keys not in ``_SCHEMA`` and the
    values of the wrong type or range, then what depends on other keys.
    A key that this experiment does not read goes to ``unread_keys``.
    """
    text = source
    if not isinstance(source, dict) and os.path.exists(str(source)):
        with open(source) as fh:
            text = fh.read()
    try:  # a dict as json gives it back: no numpy scalars, no tuples
        if isinstance(text, dict):
            text = json.dumps(text, default=_json_default)
        data = json.loads(str(text))
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError([("/", f"not valid JSON: {exc}")]) from exc
    if not isinstance(data, dict):
        raise ConfigError([("/", "must be an object")])
    bad = [(ptr, "must be a finite number") for ptr in _non_finite(data)]
    if bad:
        raise ConfigError(bad)

    data.update((k, v) for k, v in (("experiment", experiment),
                                    ("n_steps", n_steps)) if v is not None)
    if seed is not None and isinstance(data.setdefault("params", {}), dict):
        data["params"]["seed"] = seed
    experiment = data.get("experiment")
    bad, unread = _walk(data, experiment)
    if bad:
        raise ConfigError(bad)

    try:
        measure, bad = MeasureSpec.from_dict(data["measure"]), []
    except MeasureError as exc:
        measure, bad = None, [("/measure" + v.pointer, v.message)
                              for v in exc.violations]
    try:
        grid = _grid_from_dict(data.get("grid"), experiment)
    except SolverError as exc:
        raise ConfigError(bad + [("/grid", str(exc))]) from None
    if experiment == "solve" and grid.dim \
            and "ode_lambda" in data.get("params", {}):
        unread.append("/params/ode_lambda")  # the rate of a gridless solve
    if grid.dim == 0 and experiment in _FALLBACK_CELLS:
        bad.append(("/grid", f"{experiment} needs a 1d or 2d grid"))
    bad += _coefficient_values(data.get("coefficients") or {}, grid)
    params = {name: key.default for name, key in
              _SCHEMA["params"].type.items() if key.default is not ABSENT}
    params.update(data.get("params", {}))
    # a solve config without a grid runs in the space-free relaxation mode
    if experiment == "solve" and grid.dim == 0 \
            and "u0" in data.get("params", {}) \
            and params["u0"].get("kind", "constant") != "constant":
        bad.append(("/params/u0/kind", "a solve without a grid takes only "
                    "'constant' initial data"))
    if len(set(params["levels"])) < len(params["levels"]):
        bad.append(("/params/levels", "must not repeat a level"))
    steps = int(data.get("n_steps", _SCHEMA["n_steps"].default))
    if not bad:
        bad = _measured(experiment, measure, grid, params, steps)
    if bad:
        raise ConfigError(bad)
    return ExperimentConfig(
        experiment=experiment, measure=measure,
        horizon=float(data.get("horizon", _SCHEMA["horizon"].default)),
        n_steps=steps,
        grid_spec=data.get("grid"), coefficients_spec=data.get("coefficients"),
        params=params, unread_keys=tuple(unread))


# ---------------------------------------------------------------------------
# canonical serialization


def serialize_config(config: ExperimentConfig) -> str:
    return json.dumps(config.to_dict(), sort_keys=True, indent=2,
                      default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True,
                           separators=(",", ":"), default=_json_default)
    return hashlib.sha256(canonical.encode()).hexdigest()
