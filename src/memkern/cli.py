"""Command-line orchestration: run experiments, emit CSV/JSON artifacts.

Subcommands: kernels | verify | solve | harnack | holder, each driven by a
JSON config (see configs/ for examples).  A runner only computes; ``run``
then writes its CSVs, ``report.json`` and a manifest.json carrying the
config hash, seed, package version and the files written, so a run that
raises writes no artifact.  Every CSV goes through one block-streaming
writer with one float format, Python's ``repr`` (the shortest text that
reads back to the same double), applied per column before the columns are
broadcast into rows, so numeric content is deterministic for a fixed config
and seed.  orjson's compiled shortest round-trip formatter writes a float
``v`` with ``1e-4 <= |v| < 1e16`` or ``v = 0``, where its text is
``repr(v)`` byte for byte; ``repr`` itself writes the rest (NaN, infinities
and the exponent forms), so the text is ``repr`` throughout.  Exit codes: 0
success, 2 when a hard inequality certificate is violated (a NaN or inf
counts as violated), 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, ExperimentConfig, _json_default,
                     _kind_value, config_hash, holder_horizon, parse_config)
from .measure import gamma_bar, power_moment
from . import kernels as _kernels
from . import volterra as _volterra
from . import geometry as _geometry
from . import solver as _solver
from . import harnack as _harnack

__all__ = ["main", "run"]

SONINE_TOLERANCE = 1e-3
_CSV_CHUNK_ROWS = 1 << 12
# the dtype that orjson formats a column of each numeric kind in
_JSON_NUMBERS = {"f": np.float64, "i": np.int64, "u": np.uint64}


def _cells(block: np.ndarray) -> list[str]:
    """The CSV text of each entry of ``block``, in row-major order.

    A float is ``repr(v)`` and an integer ``str(v)``: one ``orjson.dumps``
    of the contiguous flat block gives both, and the floats outside
    ``[1e-4, 1e16)`` in magnitude (but 0), where orjson's text is not
    ``repr``, are written by ``repr``.  Any other entry is ``str(v)``.
    """
    dtype = _JSON_NUMBERS.get(block.dtype.kind)
    if dtype is None or block.dtype.itemsize > 8 or not block.size:
        return [str(v) for v in block.ravel().tolist()]
    import orjson

    flat = np.ascontiguousarray(block, dtype=dtype).ravel()
    text = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)
    cells = text[1:-1].decode().split(",")
    if dtype is np.float64:
        mag = np.abs(flat)
        outside = (flat != 0.0) & ~((mag >= 1e-4) & (mag < 1e16))
        for k in np.flatnonzero(outside).tolist():
            cells[k] = repr(float(flat[k]))
    return cells


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write CRLF rows of broadcast-compatible columns in row-major order.

    Rows go out in blocks of leading-axis slices, at most ``_CSV_CHUNK_ROWS``
    rows unless one slice holds more.  In a block each column is formatted
    on its own unbroadcast shape (a ``(t, 1)`` column costs one cell per
    time) by ``_cells``: a float is its ``repr``, orjson's text inside
    ``[1e-4, 1e16)`` and ``repr``'s own outside it, and anything else its
    ``str``.  The cells are broadcast into an object array of rows with the
    separators between them, and the block is written as one joined string.
    """
    cols = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes((1,), *(c.shape for c in cols))
    cols = [c.reshape((1,) * (len(shape) - c.ndim) + c.shape) for c in cols]
    step = max(1, _CSV_CHUNK_ROWS // max(1, math.prod(shape[1:])))
    ends = [","] * (len(cols) - 1) + ["\r\n"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, shape[0], step):
            rows = np.empty((min(step, shape[0] - lo),) + shape[1:]
                            + (2 * len(cols),), dtype=object)
            rows[..., 1::2] = ends
            for k, col in enumerate(cols):
                block = col[lo:lo + step] if len(col) > 1 else col
                rows[..., 2 * k] = np.array(_cells(block),
                                            dtype=object).reshape(block.shape)
            fh.write("".join(rows.ravel().tolist()))


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=_json_default)


# ---------------------------------------------------------------------------
# experiment runners: each returns (exit code, tables, report, manifest keys),
# ``tables`` mapping a CSV file name to (header, columns), the report or None


def _run_kernels(config: ExperimentConfig, seed: int):
    spec = config.measure
    step = config.horizon / config.n_steps
    theta = float(config.params["theta"])
    kinds = list(_kernels.KernelKind)
    grids = _kernels.sample_kernels(spec, kinds, step, config.n_steps, theta)
    return 0, {f"kernel_{kind.value}.csv": (["t", "value"], [g.times, g.values])
               for kind, g in zip(kinds, grids)}, None, {"theta": theta}


def _run_verify(config: ExperimentConfig, seed: int):
    spec = config.measure
    n = config.n_steps
    step = config.horizon / n
    gb = gamma_bar(spec)

    l_kernel = _volterra.sample_l(spec, step, n)
    certs = _kernels.bound_certificates(spec, l_kernel,
                                        r=float(config.params["r"]))
    k_kernel = _volterra.sample_k(spec, step, n)
    sonine = _volterra.conv(k_kernel, l_kernel)
    gap = np.abs(sonine.values - 1.0)
    sonine_residual = float(np.max(gap[9:]))  # t >= 10 * step
    sonine_residual_late = float(np.max(gap[(n - 1) // 10:]))  # t >= T/10

    # phi brackets radii above k1(1e-300)^(-1/2) only, and phi_lambda_check
    # reads it down to 0.1 r: at small orders the grid starts above 1e-3
    r_min = 10.0 * power_moment(spec, 1e-300) ** -0.5 * (1.0 + 1e-2)
    r_grid = np.logspace(max(-3.0, math.log10(r_min)), math.log10(0.45), 8)
    lam_grid = np.linspace(0.1, 1.0, 7)
    phi_lam = _geometry.phi_lambda_check(spec, r_grid, lam_grid)
    phi_low = _geometry.phi_lower_bound_check(spec, r_grid)
    p_default = 0.5 * (1.0 + _geometry.scaling_p_sup(spec))
    p = float(config.params.get("p_scaling") or p_default)
    scaling = _geometry.scaling_certificate(spec, p, r_grid)
    # exp of a log below -700 underflows; those bounds are written as 0
    lhs = [math.exp(v) if v > -700 else 0.0 for v in scaling.log_lhs]
    rhs = [math.exp(v) if v > -700 else 0.0 for v in scaling.log_rhs]
    tables = {
        "certificates.csv": (["t", "l", "upper_ratio", "holder_ratio"], [
            certs.t, certs.l_values, certs.upper_ratio, certs.holder_ratio]),
        "scaling.csv": (["r", "phi_2r", "lhs", "rhs", "ratio"], [
            scaling.r, scaling.phi_2r, lhs, rhs, scaling.ratio])}

    violations = (certs.hard_violations + phi_lam.violations
                  + phi_low.violations
                  + (0 if sonine_residual <= SONINE_TOLERANCE else 1))
    report = {
        "gamma_bar": gb,
        "bound_certificates": certs.summary(),
        "sonine_residual": sonine_residual,
        "sonine_residual_late": sonine_residual_late,
        "sonine_tolerance": SONINE_TOLERANCE,
        "phi_lambda": {"worst_rel_slack": phi_lam.worst_rel_slack,
                       "violations": phi_lam.violations},
        "phi_lower_bound": {"c_mu": phi_low.c_mu,
                            "worst_rel_slack": phi_low.worst_rel_slack,
                            "violations": phi_low.violations},
        "scaling": {"p": scaling.p, "c_emp": scaling.c_emp,
                    "r_admissible": scaling.r_admissible},
        "hard_violations": violations,
    }
    return 2 if violations else 0, tables, report, {
        "sonine_residual_late": sonine_residual_late,
        "sonine_residual_time": float(l_kernel.times[9 + np.argmax(gap[9:])]),
        "lp_walk_chunks": dict(zip(("computed", "most_used"),
                                   scaling.walk_chunks))}


def _initial_data(desc: dict, grid: _solver.SpatialGrid, seed: int):
    """``u0`` of a run; without a grid, its constant ``value``."""
    kind = "constant" if grid.dim == 0 else desc.get("kind", "constant")
    value = _kind_value(desc, "u0", kind)
    if kind == "constant":
        return float(value)
    if kind == "fourier":
        return _harnack.member_data(grid, seed, int(value))
    return _harnack.spread_across(grid, float(value)
                                  * _harnack._half_sine(grid, 0))


def _step_figures(run) -> dict:
    """The step-solve figures of a trajectory or an ensemble, with the
    bounds of A that the stepper measured, when it solved on a grid."""
    figures = {"lu_factorisations": run.lu_factorisations,
               "max_step_residual": run.max_step_residual}
    if run.coefficient_bounds is not None:
        figures["coefficient_bounds"] = dict(zip(("nu", "lam"),
                                                 run.coefficient_bounds))
    return figures


def _run_solve(config: ExperimentConfig, seed: int):
    spec = config.measure
    grid = config.grid()
    params = config.params
    u0 = _initial_data(params["u0"], grid, seed)
    f_val = float(_kind_value(params["f"], "f", "constant"))
    kernel_cumulative = None
    if params.get("use_yosida"):
        yos = _volterra.yosida_kernels(spec, params["n_yosida"],
                                       config.horizon / config.n_steps,
                                       config.n_steps)
        kernel_cumulative = np.concatenate(([0.0],
                                            np.cumsum(yos.k_n.masses())))
    coeffs = config.coefficients(grid) if grid.dim else None
    reaction = float(params["ode_lambda"]) if grid.dim == 0 else 0.0
    field = _solver.solve(spec, grid, coeffs, u0, f_val, config.horizon,
                          config.n_steps, reaction=reaction,
                          kernel_cumulative=kernel_cumulative)

    # one column per axis of the (t, *grid.shape) block, broadcast together
    cells = np.indices(grid.shape, sparse=True)
    header = ["t", "i", "j"][:1 + len(cells)] + ["value"]
    columns = ([field.times.reshape((-1,) + (1,) * len(cells))]
               + [c[None] for c in cells] + [field.values])
    return 0, {"solution.csv": (header, columns)}, None, {
        "wall_time": field.wall_time, **_step_figures(field)}


def _run_harnack(config: ExperimentConfig, seed: int):
    params = config.params
    grid = config.grid()
    report = _harnack.harnack_ensemble(
        config.measure, grid, config.coefficients(grid),
        n_members=params["n_members"], seed=seed, n_steps=config.n_steps,
        **{k: float(params[k]) for k in ("r", "x0", "delta", "tau", "p", "t0")})
    table = (["seed", "member", "ratio", "p", "n_cells", "measure_hash"],
             [seed, np.arange(len(report.ratios)), report.ratios, report.p,
              report.n_cells, config_hash(config)[:16]])
    return 0, {"harnack.csv": table}, {
        "max_ratio": report.max_ratio, "median_ratio": report.median_ratio,
        "all_finite": report.all_finite,
        "statuses": list(report.statuses)}, _step_figures(report)


def _run_holder(config: ExperimentConfig, seed: int):
    spec = config.measure
    params = config.params
    r = float(params["r"])
    theta = float(params["theta"])
    horizon = holder_horizon(spec, params)
    grid = config.grid()
    u0 = _initial_data(params["u0"], grid, seed)
    field = _solver.solve(spec, grid, config.coefficients(grid), u0, 0.0,
                          horizon, config.n_steps)
    t1 = float(params["t1"]) if params.get("t1") else 0.75 * horizon
    profile = _harnack.oscillation_profile(
        field, spec, t1=t1, x1=float(params["x1"]), theta=theta,
        levels=params["levels"], r=r)
    table = (["level", "radius", "osc"],
             [profile.levels, profile.radii, profile.osc])
    return 0, {"oscillation.csv": table}, {
        "kappa": profile.kappa, "fit_residual": profile.fit_residual,
        "status": profile.status, "t1": t1, "r": r}, _step_figures(field)


_RUNNERS = {
    "kernels": _run_kernels,
    "verify": _run_verify,
    "solve": _run_solve,
    "harnack": _run_harnack,
    "holder": _run_holder,
}


def run(config: ExperimentConfig, out_dir) -> int:
    """Execute one experiment and write its artifacts; returns the process
    exit code.  Nothing is written before the runner returns, and the
    manifest's ``files`` lists what was written."""
    seed = config.params["seed"]
    code, tables, report, extra = _RUNNERS[config.experiment](config, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, columns) in tables.items():
        _write_csv(out / name, header, columns)
    files = list(tables)
    if report is not None:
        _write_json(out / "report.json", report)
        files.append("report.json")
    _write_json(out / "manifest.json", {
        "config_hash": config_hash(config), "version": __version__,
        "seed": seed, "experiment": config.experiment,
        "config": config.to_dict(), "unread_keys": list(config.unread_keys),
        "files": files, **extra})
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="memkern",
        description="memory-kernel calculus experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--steps", type=int, default=None,
                       help="override n_steps")
        p.add_argument("--seed", type=int, default=None, help="override seed")
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config, experiment=args.command,
                              n_steps=args.steps, seed=args.seed)
        return run(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
