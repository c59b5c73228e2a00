"""Declarative experiment configs: parsing, validation, canonical hashing.

Configs are plain JSON.  Validation reports every problem it finds as a
(json-pointer, message) pair so a bad file can be fixed in one pass, and the
canonical serialization (sorted keys, repr floats) is what gets hashed into
result manifests for reproducibility.
"""

from __future__ import annotations

import hashlib
import json
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
        return _grid_from_dict(self.grid_spec or {})

    def coefficients(self, grid: SpatialGrid) -> CoefficientField:
        return _coeffs_from_dict(self.coefficients_spec or
                                 {"kind": "constant", "matrix": None}, grid)

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
        if mat is None:
            mat = np.eye(max(grid.dim, 1))
        return CoefficientField.constant(np.asarray(mat, dtype=float),
                                         lam=data.get("lam"),
                                         nu=data.get("nu"))
    if kind == "checkerboard":
        return CoefficientField.checkerboard(float(data["low"]),
                                             float(data["high"]),
                                             float(data["period"]),
                                             dim=max(grid.dim, 1))
    if kind == "table":
        return CoefficientField.from_table(np.asarray(data["values"],
                                                      dtype=float), grid,
                                           lam=data.get("lam"),
                                           nu=data.get("nu"))
    raise ConfigError([("/coefficients/kind", f"unknown kind {kind!r}")])


# ---------------------------------------------------------------------------
# validation


def _validate_measure_dict(data, bad: list[tuple[str, str]]) -> None:
    if not isinstance(data, dict):
        bad.append(("/measure", "must be an object"))
        return
    atoms = data.get("atoms", [])
    prev = None
    for i, atom in enumerate(atoms):
        alpha = atom.get("alpha")
        q = atom.get("q")
        if alpha is None or not (0.0 < float(alpha) < 1.0):
            bad.append((f"/measure/atoms/{i}/alpha", "order must lie in (0,1)"))
        elif prev is not None and float(alpha) <= prev:
            bad.append((f"/measure/atoms/{i}/alpha",
                        "orders must be strictly increasing"))
        if alpha is not None:
            prev = float(alpha)
        if q is None or float(q) < 0.0:
            bad.append((f"/measure/atoms/{i}/q", "mass must be >= 0"))
    weight = data.get("weight") or {}
    breaks = weight.get("breaks", [])
    values = weight.get("values", [])
    if (len(breaks) == 0) != (len(values) == 0) or \
            (breaks and len(values) != len(breaks) - 1):
        bad.append(("/measure/weight", "need len(values) == len(breaks) - 1"))
    for i, b in enumerate(breaks):
        if not (0.0 <= float(b) <= 1.0):
            bad.append((f"/measure/weight/breaks/{i}", "must lie in [0,1]"))
        if i and float(b) <= float(breaks[i - 1]):
            bad.append((f"/measure/weight/breaks/{i}",
                        "breaks must be strictly increasing"))
    for i, v in enumerate(values):
        if float(v) < 0.0:
            bad.append((f"/measure/weight/values/{i}", "must be >= 0"))
    if not bad:
        spec = MeasureSpec.from_dict(data)
        report = validate_measure(spec)
        for v in report.violations:
            bad.append(("/measure", v.message))


def parse_config(source) -> ExperimentConfig:
    """Parse and validate a config from a path, JSON text, or dict.

    Raises ``ConfigError`` carrying every (json-pointer, message) violation.
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

    bad: list[tuple[str, str]] = []
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
    n_yosida = params["n_yosida"]  # "type is int" also refuses JSON true
    if params.get("use_yosida") and not (type(n_yosida) is int
                                         and n_yosida >= 1):
        bad.append(("/params/n_yosida", "must be an integer >= 1"))
    f_desc = params["f"]  # solve takes a constant source term only
    if not (isinstance(f_desc, dict)
            and f_desc.get("kind", "constant") == "constant"):
        bad.append(("/params/f/kind", "the only source kind is 'constant'"))

    grid_spec = data.get("grid")
    if grid_spec is not None:
        try:
            _grid_from_dict(grid_spec)
        except ConfigError as exc:
            bad.extend(exc.violations)
        except Exception as exc:
            bad.append(("/grid", str(exc)))
    # a solve config without a grid runs in the space-free relaxation mode

    if not bad and experiment == "harnack":
        spec = MeasureSpec.from_dict(data["measure"])
        gb = gamma_bar(spec)
        grid = _grid_from_dict(grid_spec) if grid_spec else None
        n_dim = grid.dim if grid is not None and grid.dim else 1
        kappa = critical_exponent(gb, n_dim)
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
