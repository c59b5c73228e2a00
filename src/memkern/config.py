"""Declarative experiment configs: parsing, validation, canonical hashing.

Configs are plain JSON.  Validation reports every problem it finds as a
(json-pointer, message) pair so a bad file can be fixed in one pass, and the
canonical serialization (sorted keys, repr floats) is what gets hashed into
result manifests for reproducibility.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .measure import MeasureSpec, gamma_bar, validate_measure
from .harnack import critical_exponent
from .solver import BoundaryCondition, CoefficientField, SpatialGrid

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "config_hash",
]

EXPERIMENTS = ("kernels", "verify", "solve", "harnack", "holder")

_DEFAULT_PARAMS: dict = {
    "delta": 0.5,
    "tau": 1.0,
    "p": 1.0,
    "theta": 1.0,
    "eta": 0.25,
    "t0": 0.0,
    "x0": 0.5,
    "x1": 0.4,
    "t1": None,
    "r": 0.2,
    "n_yosida": 256,
    "seed": 0,
    "n_members": 20,
    "ode_lambda": 1.0,
    "levels": [1, 2, 3, 4],
    "u0": {"kind": "sine", "amplitude": 1.0},
    "f": {"kind": "constant", "value": 0.0},
}


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

    def grid(self) -> SpatialGrid:
        """The config's grid.  Without one, harnack and holder run on (0, 1),
        Dirichlet 0, with 64 or 256 cells, kept out of ``to_dict``."""
        return _grid_from_dict(_with_fallback(self.grid_spec, self.experiment))

    def coefficients(self, grid: SpatialGrid) -> CoefficientField:
        return _coeffs_from_dict(self.coefficients_spec or {}, grid)

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


def _with_fallback(grid_spec: dict | None, experiment: str) -> dict:
    if grid_spec is None and experiment in _FALLBACK_CELLS:
        return {"extents": [[0.0, 1.0]],
                "n_cells": [_FALLBACK_CELLS[experiment]]}
    return grid_spec or {}


def _grid_from_dict(data: dict) -> SpatialGrid:
    extents = tuple(tuple(float(v) for v in e) for e in data.get("extents", ()))
    n_cells = tuple(int(n) for n in data.get("n_cells", ()))
    bcs = []
    for axis, pair in enumerate(data.get("boundary", ())):
        ax = []
        for i, side in enumerate(pair):
            kind = side.get("type", "dirichlet")
            if kind == "dirichlet":
                ax.append(BoundaryCondition.dirichlet(float(side.get("value", 0.0))))
            elif kind == "neumann_zero":
                ax.append(BoundaryCondition.neumann_zero())
            else:
                raise ConfigError([(f"/grid/boundary/{axis}/{i}/type",
                                    f"unknown boundary type {kind!r}; use "
                                    "'dirichlet' or 'neumann_zero'")])
        bcs.append(tuple(ax))
    return SpatialGrid(extents=extents, n_cells=n_cells, boundary=tuple(bcs))


def _coeffs_from_dict(data: dict, grid: SpatialGrid) -> CoefficientField:
    kind = data.get("kind", "constant")
    if kind == "constant":
        mat = data.get("matrix")
        return CoefficientField.constant(1.0 if mat is None
                                         else np.diagonal(mat))
    if kind == "checkerboard":
        return CoefficientField.checkerboard(float(data["low"]),
                                             float(data["high"]),
                                             float(data["period"]))
    if kind == "table":
        return CoefficientField.from_table(data["values"], grid)
    raise ConfigError([("/coefficients/kind", f"unknown kind {kind!r}")])


# ---------------------------------------------------------------------------
# validation


def _validate_measure_dict(data, bad: list[tuple[str, str]]) -> None:
    """JSON-shape checks; ``validate_measure`` checks the values."""
    if not isinstance(data, dict):
        bad.append(("/measure", "must be an object"))
        return
    shape = []

    def container(ptr, value, kind):
        """``value`` if it is a JSON ``kind``, else an empty one."""
        if isinstance(value, kind):
            return value
        name = "an object" if kind is dict else "an array"
        shape.append((f"/measure/{ptr}", f"must be {name}"))
        return kind()

    weight = container("weight", data.get("weight") or {}, dict)
    entries = [(f"atoms/{i}/{key}", atom.get(key) if isinstance(atom, dict)
                else None)
               for i, atom in enumerate(container("atoms",
                                                  data.get("atoms", []), list))
               for key in ("alpha", "q")]
    entries += [(f"weight/{key}/{i}", v) for key in ("breaks", "values")
                for i, v in enumerate(container(f"weight/{key}",
                                                weight.get(key, []), list))]
    entries.append(("gamma_slack", data.get("gamma_slack", 0.01)))
    shape += [(f"/measure/{ptr}", "must be a number") for ptr, v in entries
              if type(v) not in (int, float)]  # bool is not a number here
    bad.extend(shape)
    if not shape:
        bad.extend(("/measure" + v.pointer, v.message)
                   for v in validate_measure(MeasureSpec.from_dict(data))
                   .violations)


def _number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)  # not bool


def _non_finite(value, ptr: str = ""):
    """JSON pointers of the NaN and infinite numbers in ``value``."""
    if isinstance(value, (dict, list, tuple)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _non_finite(item, f"{ptr}/{key}")
    elif isinstance(value, float) and not math.isfinite(value):
        yield ptr


# kind -> (required keys, optional keys) of ``coefficients``
_COEFFICIENT_KEYS = {"constant": ((), ("matrix",)),
                     "checkerboard": (("low", "high", "period"), ()),
                     "table": (("values",), ())}


def _validate_coefficients(data, grid: SpatialGrid | None,
                           bad: list[tuple[str, str]]) -> None:
    """The kind, the keys it takes and those it requires, positive numbers,
    a diagonal matrix with positive entries and a table in the grid's shape
    (these two only when the grid itself is valid)."""
    if not isinstance(data, dict):
        bad.append(("/coefficients", "must be an object"))
        return
    kind = data.get("kind", "constant")
    if kind not in _COEFFICIENT_KEYS:
        bad.append(("/coefficients/kind", f"unknown kind {kind!r}; use one "
                    f"of {tuple(_COEFFICIENT_KEYS)}"))
        return
    required, optional = _COEFFICIENT_KEYS[kind]
    taken = ("kind",) + required + optional
    bad.extend((f"/coefficients/{key}", f"{kind!r} coefficients take only "
                f"{taken}") for key in data if key not in taken)
    given = {key: data[key] for key in required + optional
             if data.get(key) is not None}
    bad.extend((f"/coefficients/{key}", "required") for key in required
               if key not in given)
    bad.extend((f"/coefficients/{key}", "must be a positive number")
               for key, value in given.items()
               if key not in ("matrix", "values")
               and not (_number(value) and value > 0))
    if grid is None:
        return
    d = max(grid.dim, 1)
    for key, shape, what in (
            ("matrix", (d, d), "a diagonal matrix with positive entries"),
            ("values", grid.shape, "positive numbers")):
        if key not in given:
            continue
        arr = np.asarray(given[key], dtype=object)
        if arr.shape == shape and all(map(_number, arr.ravel())):
            arr = arr.astype(float)
            if np.all(arr > 0 if key == "values" else np.where(
                    np.eye(d, dtype=bool), arr > 0, arr == 0)):
                continue
        bad.append((f"/coefficients/{key}", f"must be {what} of shape {shape}"))


def parse_config(source, experiment: str | None = None,
                 n_steps: int | None = None,
                 seed: int | None = None) -> ExperimentConfig:
    """Parse and validate a config from a path, JSON text, or dict.

    ``experiment``, ``n_steps`` and ``seed``, when given, replace the
    file's own before validation, so a subcommand's rules apply to the
    config it runs and an override meets the file's rule.
    Raises ``ConfigError`` carrying every (json-pointer, message) violation;
    a NaN or infinite number (Python's ``json`` reads ``NaN``, ``Infinity``
    and ``1e999``) is refused before the other checks, which compare numbers.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if os.path.exists(text):
            with open(text) as fh:
                text = fh.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([("/", f"not valid JSON: {exc}")]) from exc
    if not isinstance(data, dict):
        raise ConfigError([("/", "must be an object")])

    bad: list[tuple[str, str]] = [(ptr, "must be a finite number")
                                  for ptr in _non_finite(data)]
    if bad:
        raise ConfigError(bad)
    if n_steps is not None:
        data = dict(data, n_steps=n_steps)
    if experiment is None:
        experiment = data.get("experiment")
    if experiment not in EXPERIMENTS:
        bad.append(("/experiment", f"must be one of {EXPERIMENTS}"))
    if "measure" not in data:
        bad.append(("/measure", "required"))
    else:
        _validate_measure_dict(data["measure"], bad)
    horizon = data.get("horizon", 1.0)
    if not (isinstance(horizon, (int, float)) and horizon > 0.0):
        bad.append(("/horizon", "must be a positive number"))
    n_steps = data.get("n_steps", 256)
    if not (isinstance(n_steps, int) and n_steps >= 16):
        bad.append(("/n_steps", "must be an integer >= 16"))

    params = dict(_DEFAULT_PARAMS)
    raw_params = data.get("params", {})
    if not isinstance(raw_params, dict):
        bad.append(("/params", "must be an object"))
        raw_params = {}
    params.update(raw_params)
    if seed is not None:
        params["seed"] = seed
    for key, low in (("n_members", 1), ("seed", 0)):
        if not (type(params[key]) is int and params[key] >= low):
            bad.append((f"/params/{key}", f"must be an integer >= {low}"))
    n_yosida = params["n_yosida"]  # "type is int" also refuses JSON true
    if params.get("use_yosida") and not (type(n_yosida) is int
                                         and n_yosida >= 1):
        bad.append(("/params/n_yosida", "must be an integer >= 1"))
    f_desc = params["f"]  # solve takes a constant source term only
    if not (isinstance(f_desc, dict)
            and f_desc.get("kind", "constant") == "constant"):
        bad.append(("/params/f/kind", "the only source kind is 'constant'"))

    grid_spec = data.get("grid")
    grid = None  # see ExperimentConfig.grid
    try:
        grid = _grid_from_dict(_with_fallback(grid_spec, experiment))
    except ConfigError as exc:
        bad.extend(exc.violations)
    except Exception as exc:
        bad.append(("/grid", str(exc)))
    else:
        if grid.dim == 0 and experiment in _FALLBACK_CELLS:
            bad.append(("/grid", f"{experiment} needs a 1d or 2d grid"))
    # a solve config without a grid runs in the space-free relaxation mode
    n_dim = int(experiment in _FALLBACK_CELLS) if grid is None else grid.dim
    if data.get("coefficients") is not None:
        _validate_coefficients(data["coefficients"], grid, bad)

    u0 = params["u0"]
    kind = u0.get("kind", "constant") if isinstance(u0, dict) else None
    if kind not in ("constant", "sine", "fourier"):
        bad.append(("/params/u0/kind", "use 'constant', 'sine' or 'fourier'"))
    elif experiment == "solve" and n_dim == 0 and "u0" in raw_params \
            and kind != "constant":
        bad.append(("/params/u0/kind", "a solve without a grid takes only "
                    "'constant' initial data"))

    if not bad and experiment == "harnack":
        kappa = critical_exponent(
            gamma_bar(MeasureSpec.from_dict(data["measure"])), n_dim)
        if not (0.0 < float(params["p"]) < kappa):
            bad.append(("/params/p",
                        f"p exceeds the critical exponent bound {kappa:.6g}"))

    if bad:
        raise ConfigError(bad)
    return ExperimentConfig(
        experiment=experiment,
        measure=MeasureSpec.from_dict(data["measure"]),
        horizon=float(horizon),
        n_steps=int(n_steps),
        grid_spec=grid_spec,
        coefficients_spec=data.get("coefficients"),
        params=params,
    )


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
