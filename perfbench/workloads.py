"""Seeded inputs, operations and output checks of the memkern workloads.

Each workload builds one pass of operations from ``(seed, pass index)``.
The program sees only the generated JSON configs, and for
``volterra.sonine_partner`` a measure built from the same dict.  An
operation fails on a non-zero exit code, an exception, or a failed check;
a NaN or inf in any checked quantity fails it.  Checks run after the pass,
outside every clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import warnings
import zlib
from pathlib import Path

import numpy as np

SONINE_TOL = 1e-3          # the gate ``memkern verify`` applies itself
STEP_RESIDUAL_TOL = 1e-10
# sonine_partner (first-kind product integration) against the inverted l of
# ``memkern kernels``, relative, on t >= 100 tau: at most 5e-4 at N=2048 for
# every certify measure, the weight band being the worst.
PARTNER_TOL = 2e-3
# The 0d scheme is first order: |u(1) - E_a(-1)| is about 2e-6 at N=32768
# for orders near 0.5, so 1e-5 leaves a factor five.
ML_TOL = 1e-5

CERTIFY_N = 2048
RELAX_N = 32768
EDGE_N = 512


def pass_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), index])


# ---------------------------------------------------------------------------
# measures


def _measure(atoms=(), breaks=(), values=()) -> dict:
    return {"atoms": [{"alpha": float(a), "q": float(q)} for a, q in atoms],
            "weight": {"breaks": [float(b) for b in breaks],
                       "values": [float(v) for v in values]},
            "gamma_slack": 0.01}


def _single(rng, lo, hi) -> dict:
    return _measure(atoms=[(rng.uniform(lo, hi), 1.0)])


def _band(rng) -> dict:
    """Unit-mass weight on a seeded band inside [0.15, 0.8]."""
    lo, hi = rng.uniform(0.15, 0.2), rng.uniform(0.75, 0.8)
    return _measure(breaks=(lo, hi), values=(1.0 / (hi - lo),))


def certify_measures(rng) -> list[tuple[str, dict]]:
    """One single order, one two-atom mixture, one weight band.

    The draws stay in windows where an op's cost is flat.  The scaling
    certificate's panel count grows like 1/gamma_bar and the inversion's
    node count like 1/(1 - a_low) + 1/a_high, so a single order of 0.2
    costs 3x one of 0.5, and 0.8 costs 1.2x: wider draws would swing a
    run's wall time by more than any usable bound.
    """
    q = rng.uniform(0.4, 0.6)
    mixture = _measure(atoms=[(rng.uniform(0.3, 0.35), q),
                              (rng.uniform(0.65, 0.7), 1.0 - q)])
    return [("single", _single(rng, 0.5, 0.6)), ("mixture", mixture),
            ("band", _band(rng))]


def relaxation_config(rng) -> dict:
    """0d relaxation u' = -u in the memory sense, checked against E_a(-1).

    The order stays near 0.5 because the scheme's error grows with it
    (1.8e-6 at 0.45, 4.1e-6 at 0.8, N=32768), and ml_abs_err must be steady
    across seeds.
    """
    return {"experiment": "solve", "measure": _single(rng, 0.48, 0.52),
            "horizon": 1.0, "n_steps": RELAX_N,
            "params": {"ode_lambda": 1.0,
                       "u0": {"kind": "constant", "value": 1.0}, "seed": 0}}


_DIRICHLET = [{"type": "dirichlet", "value": 0.0}] * 2


# ---------------------------------------------------------------------------
# file checks


def _chunks(path: Path):
    """A file in 1 MiB pieces, so checks never hold a whole CSV in memory
    (peak_rss_mb is the program's, not the checker's)."""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            yield chunk


def _nonfinite(path: Path) -> bool:
    """True if a CSV body holds a nan or inf token (headers hold neither)."""
    tail = b""
    for i, chunk in enumerate(_chunks(path)):
        text = tail + (chunk.split(b"\n", 1)[-1] if i == 0 else chunk)
        if b"nan" in text or b"inf" in text:
            return True
        tail = text[-2:]
    return False


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    for chunk in _chunks(path):
        digest.update(chunk)
    return digest.hexdigest()


def _load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _finite_leaves(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite_leaves(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_leaves(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _csv_problems(out: Path, names) -> list[str]:
    problems = []
    for name in names:
        if not (out / name).is_file():
            problems.append(f"{name} missing")
        elif _nonfinite(out / name):
            problems.append(f"{name} holds nan or inf")
    return problems


def check_verify(out: Path) -> list[str]:
    """Problems found in the outputs of one ``memkern verify`` run."""
    report = _load_json(out / "report.json")
    residual = report.get("sonine_residual", math.nan)
    problems = _csv_problems(out, ["scaling.csv"])
    if report.get("hard_violations") != 0:
        problems.append(f"hard_violations = {report.get('hard_violations')}")
    if not (isinstance(residual, float) and residual <= SONINE_TOL):
        problems.append(f"sonine_residual = {residual!r}")
    if not _finite_leaves(report):
        problems.append("report.json holds nan or inf")
    # holder_ratio is defined only for t < 1; it is nan by design after that
    with open(out / "certificates.csv") as fh:
        next(fh)
        for line in fh:
            t, l_val, upper, holder = (float(v) for v in line.split(","))
            if not all(map(math.isfinite, (t, l_val, upper))) or (
                    t < 1.0 and not math.isfinite(holder)):
                problems.append("certificates.csv holds nan or inf")
                break
    return problems


def check_solve(out: Path) -> tuple[list[str], float]:
    """Checks of one ``memkern solve`` run; returns (problems, u(T))."""
    manifest = _load_json(out / "manifest.json")
    problems = _csv_problems(out, ["solution.csv"])
    worst = manifest.get("max_step_residual", math.nan)
    if not (isinstance(worst, float) and worst <= STEP_RESIDUAL_TOL):
        problems.append(f"max_step_residual = {worst!r}")
    with open(out / "solution.csv", "rb") as fh:
        fh.seek(max(0, fh.seek(0, 2) - 4096))
        last = fh.read().rstrip().rsplit(b"\n", 1)[-1]
    return problems, float(last.split(b",")[-1])


# ---------------------------------------------------------------------------
# operations


def split(interval, n: int) -> list[tuple[float, float]]:
    """``n`` equal consecutive parts of a ``(start, end)`` interval."""
    start, end = interval
    step = (end - start) / n
    return [(start + i * step, start + (i + 1) * step) for i in range(n)]


def config_path(out: Path) -> Path:
    return out.parent / f"{out.name}.json"


def run_cli(command: str, config: dict, out: Path) -> int:
    """Write the config next to ``out`` and run one ``memkern`` command."""
    import memkern.cli

    out.mkdir(parents=True, exist_ok=True)
    with open(config_path(out), "w") as fh:
        json.dump(config, fh)
    return memkern.cli.main([command, "--config", str(config_path(out)),
                             "--out", str(out)])


class Op:
    """One closed-loop operation: ``execute`` is timed, ``check`` is not."""

    n_records = 1

    def __init__(self, workdir: Path, index: int, label: str, config: dict):
        self.label = label
        self.out = workdir / f"p{index}-{label}"
        self.config = config  # the first command's; the set-up probe parses it
        self.rc: dict[str, int] = {}

    def _cli(self, command: str, config: dict, out: Path) -> None:
        self.rc[command] = run_cli(command, config, out)

    def _exit_problems(self) -> list[str]:
        return [f"memkern {cmd} exited {rc}" for cmd, rc in self.rc.items()
                if rc != 0]

    def outputs(self) -> list[Path]:
        return sorted(self.out.parent.glob(self.out.name + "*/*"))

    def csv_digests(self) -> dict[str, str]:
        """SHA-256 of each CSV, keyed by the digest of the config that made it."""
        return {f"{sha256(config_path(path.parent))[:16]}/{path.name}":
                sha256(path)
                for path in self.outputs() if path.suffix == ".csv"}

    def records(self, interval, clock, problems: list[str]):
        """(intervals, problems) per counted op; ``interval`` is the op's
        ``(start, end)`` and the intervals are the parts of it the op took."""
        return [([interval], problems + self.check())]

    def check(self) -> list[str]:
        raise NotImplementedError

    def cleanup(self) -> None:
        for path in self.out.parent.glob(self.out.name + "*"):
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()


class CertifyOp(Op):
    """One certified measure: ``verify``, ``kernels`` and the Sonine oracle."""

    def __init__(self, workdir, index, label, measure):
        base = {"measure": measure, "horizon": 1.0, "n_steps": CERTIFY_N}
        super().__init__(workdir, index, label,
                         dict(base, experiment="verify",
                              params={"r": 0.5, "seed": 0}))
        self.measure = measure
        self.kernels_config = dict(base, experiment="kernels",
                                   params={"theta": 1.0, "seed": 0})
        self.partner = None

    def execute(self, clock) -> None:
        import memkern.volterra
        from memkern.measure import MeasureSpec

        self._cli("verify", self.config,
                  self.out.with_name(self.out.name + "-verify"))
        self._cli("kernels", self.kernels_config,
                  self.out.with_name(self.out.name + "-kernels"))
        spec = MeasureSpec.from_dict(self.measure)
        self.partner = memkern.volterra.sonine_partner(
            spec, 1.0 / CERTIFY_N, CERTIFY_N)

    def check(self) -> list[str]:
        problems = self._exit_problems()
        if self.rc.get("verify") == 0:
            problems += check_verify(
                self.out.with_name(self.out.name + "-verify"))
        kernels_out = self.out.with_name(self.out.name + "-kernels")
        if self.rc.get("kernels") == 0:
            problems += _csv_problems(
                kernels_out,
                ["kernel_k.csv", "kernel_k1.csv", "kernel_one_star_k.csv",
                 "kernel_l.csv", "kernel_r_theta.csv"])
        if self.partner is None or not np.all(np.isfinite(self.partner.values)):
            problems.append("sonine_partner is not finite")
        elif not problems:
            l_vals = np.loadtxt(kernels_out / "kernel_l.csv", delimiter=",",
                                skiprows=1, usecols=1)[99:]
            gap = np.max(np.abs(self.partner.values[99:] - l_vals) / l_vals)
            if not gap <= PARTNER_TOL:
                problems.append(f"sonine_partner differs from l by {gap:.3g}")
        return problems


class SolveOp(Op):
    """One trajectory of ``memkern solve``; the 0d one is checked against
    the Mittag-Leffler function."""

    def execute(self, clock) -> None:
        self._cli("solve", self.config, self.out)

    def check(self) -> list[str]:
        problems = self._exit_problems()
        if problems:
            return problems
        problems, u_end = check_solve(self.out)
        if "grid" not in self.config:
            err = ml_abs_err(self.config, u_end)
            if not err <= ML_TOL:
                problems.append(f"ml_abs_err = {err!r}")
        return problems


class EnsembleOp(Op):
    """``memkern harnack``: each member is one op, timed by the op clock
    around ``solve`` and ``weak_harnack_ratio``."""

    def __init__(self, workdir, index, label, config):
        super().__init__(workdir, index, label, config)
        self.n_records = config["params"]["n_members"]
        self.span_range = slice(0, 0)

    def execute(self, clock) -> None:
        first = len(clock.spans)
        self._cli("harnack", self.config, self.out)
        self.span_range = slice(first, len(clock.spans))

    def records(self, interval, clock, problems):
        spans = clock.spans[self.span_range]
        solves = [(s[1], s[2]) for s in spans if s[0] == "solver.solve"]
        ratios = [(s[1], s[2]) for s in spans
                  if s[0] == "harnack.weak_harnack_ratio"]
        problems = problems + self._exit_problems()
        per_member = self._member_problems() if not problems else None
        if per_member is None or len(solves) != self.n_records \
                or len(ratios) != self.n_records:
            failed = problems or ["member count differs from n_members"]
            return [([part], failed)
                    for part in split(interval, self.n_records)]
        return [([a, b], p) for a, b, p in zip(solves, ratios, per_member)]

    def _member_problems(self) -> list[list[str]] | None:
        with open(self.out / "harnack.csv") as fh:
            next(fh)
            ratios = [float(line.split(",")[2]) for line in fh]
        if len(ratios) != self.n_records:
            return None
        return [[] if math.isfinite(r) else [f"ratio {r!r}"] for r in ratios]


class HolderOp(Op):
    """``memkern holder``: dyadic oscillation decay of one solution."""

    def execute(self, clock) -> None:
        self._cli("holder", self.config, self.out)

    def check(self) -> list[str]:
        problems = self._exit_problems()
        if problems:
            return problems
        report = _load_json(self.out / "report.json")
        problems = _csv_problems(self.out, ["oscillation.csv"])
        if report.get("status") != "ok" or not _finite_leaves(report):
            problems.append(f"holder report {report!r}")
        return problems


# ---------------------------------------------------------------------------
# workloads


def certify_pass(seed: int, index: int, workdir: Path) -> list[Op]:
    rng = pass_rng(seed, "certify", index)
    return [CertifyOp(workdir, index, label, measure)
            for label, measure in certify_measures(rng)]


def _line_config(rng) -> dict:
    """1d run on a weight band, the hardest measure for a compressed history."""
    return {"experiment": "solve", "measure": _band(rng), "horizon": 1.0,
            "n_steps": 2048,
            "grid": {"extents": [[0.0, 1.0]], "n_cells": [128],
                     "boundary": [_DIRICHLET]},
            "params": {"u0": {"kind": "fourier",
                              "member": int(rng.integers(1 << 16))},
                       "seed": int(rng.integers(1 << 31))}}


def long_history_pass(seed: int, index: int, workdir: Path) -> list[Op]:
    """0d, two 1d and one 2d trajectory.

    The two 1d runs put the pass's middle op kind twice in every pass, so
    op_p50_s is a median of several samples rather than of one per pass.
    """
    rng = pass_rng(seed, "long_history", index)
    relax = relaxation_config(rng)
    lines = [_line_config(rng), _line_config(rng)]
    square = {"experiment": "solve", "measure": _single(rng, 0.45, 0.55),
              "horizon": 1.0, "n_steps": 768,
              "grid": {"extents": [[0.0, 1.0], [0.0, 1.0]],
                       "n_cells": [24, 24],
                       "boundary": [_DIRICHLET, _DIRICHLET]},
              "params": {"u0": {"kind": "fourier",
                                "member": int(rng.integers(1 << 16))},
                         "seed": int(rng.integers(1 << 31))}}
    return [SolveOp(workdir, index, "relax0d", relax),
            SolveOp(workdir, index, "line1d-a", lines[0]),
            SolveOp(workdir, index, "line1d-b", lines[1]),
            SolveOp(workdir, index, "square2d", square)]


def _harnack_seed(rng, n_members: int, n_cells: int) -> int:
    """A seed whose members all start from data that are not zero everywhere.

    ``harnack_ensemble`` gives member m the clipped Fourier profile of
    ``SeedSequence([seed, m])``.  About 1 in 1000 profiles is zero on the
    whole grid; such a member has no Harnack ratio, and memkern rightly
    reports it as degenerate rather than finite.
    """
    from memkern.harnack import random_fourier_profile

    x = (np.arange(n_cells) + 0.5) / n_cells
    while True:
        seed = int(rng.integers(1 << 31))
        if all(np.any(random_fourier_profile(np.random.default_rng(
                np.random.SeedSequence([seed, m])))(x) > 0)
               for m in range(n_members)):
            return seed


def ensemble_pass(seed: int, index: int, workdir: Path) -> list[Op]:
    rng = pass_rng(seed, "ensemble", index)
    measure = _single(rng, 0.45, 0.55)
    harnack = {"experiment": "harnack", "measure": measure, "horizon": 1.0,
               "n_steps": 192,
               "grid": {"extents": [[0.0, 1.0]], "n_cells": [64],
                        "boundary": [_DIRICHLET]},
               "params": {"r": 0.4, "x0": 0.5, "delta": 0.5, "tau": 1.0,
                          "p": 1.0, "n_members": 200,
                          "seed": _harnack_seed(rng, 200, 64)}}
    holder = {"experiment": "holder", "measure": measure, "horizon": 1.0,
              "n_steps": 256,
              "grid": {"extents": [[0.0, 1.0]], "n_cells": [256],
                       "boundary": [_DIRICHLET]},
              "coefficients": {"kind": "constant", "matrix": [[1.0]]},
              "params": {"r": 0.2, "eta": 0.25, "theta": 1.0, "x1": 0.4,
                         "levels": [0, 1, 2, 3, 4],
                         "u0": {"kind": "sine",
                                "amplitude": float(rng.uniform(0.5, 2.0))},
                         "seed": 0}}
    return [EnsembleOp(workdir, index, "harnack", harnack),
            HolderOp(workdir, index, "holder", holder)]


WORKLOADS = {
    "certify": certify_pass,
    "long_history": long_history_pass,
    "ensemble": ensemble_pass,
}


# ---------------------------------------------------------------------------
# accuracy of the seed's reference problems, and the edge-order probe


def ml_abs_err(config: dict, u_end: float) -> float:
    from memkern.solver import mittag_leffler

    alpha = config["measure"]["atoms"][0]["alpha"]
    return abs(u_end - mittag_leffler(alpha, -config["params"]["ode_lambda"]))


def _reference_figures(seed: int) -> tuple[float, float]:
    from memkern import solver, volterra
    from memkern.measure import MeasureSpec

    residual = 0.0
    step = 1.0 / CERTIFY_N
    for _label, measure in certify_measures(pass_rng(seed, "certify", 0)):
        spec = MeasureSpec.from_dict(measure)
        sonine = volterra.conv(volterra.sample_k(spec, step, CERTIFY_N),
                               volterra.sample_l(spec, step, CERTIFY_N))
        # max() would skip a nan; the tolerance check below must see it
        residual = float(np.max(np.abs(np.append(sonine.values[9:] - 1.0,
                                                 residual))))
    config = relaxation_config(pass_rng(seed, "long_history", 0))
    field = solver.solve(MeasureSpec.from_dict(config["measure"]),
                         solver.SpatialGrid(), None, 1.0, 0.0, 1.0, RELAX_N,
                         reaction=config["params"]["ode_lambda"])
    return residual, ml_abs_err(config, float(field.values[-1, 0]))


def reference_accuracy(seed: int) -> tuple[float, float, list[str]]:
    """(sonine_residual, ml_abs_err, problems) of the seed's reference problems.

    Every workload reports both figures, so they are of pass 0 of certify
    and long_history, computed untimed through the public layer functions
    with the arithmetic ``memkern verify`` and ``memkern solve`` use.  A
    figure that cannot be computed, is not finite or is over its tolerance
    is a problem; it is then reported as 1.0.
    """
    try:
        figures = _reference_figures(seed)
    except Exception as exc:  # noqa: BLE001 - a program failure is data
        return 1.0, 1.0, [f"reference accuracy raised {exc!r}"]
    problems = [f"{name} = {value!r}" for name, value, tol
                in zip(("sonine_residual", "ml_abs_err"), figures,
                       (SONINE_TOL, ML_TOL))
                if not value <= tol]
    return (*(v if math.isfinite(v) else 1.0 for v in figures), problems)


def edge_orders(workdir: Path) -> dict[str, str]:
    """``memkern verify`` at orders 0.05 and 0.95: PASS or FAIL with reason."""
    outcome = {}
    for alpha in (0.05, 0.95):
        out = workdir / f"edge-{alpha}"
        config = {"experiment": "verify",
                  "measure": _measure(atoms=[(alpha, 1.0)]),
                  "horizon": 1.0, "n_steps": EDGE_N,
                  "params": {"r": 0.5, "seed": 0}}
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("ignore")
            rc = run_cli("verify", config, out)
        problems = check_verify(out) if rc == 0 else \
            [f"exit {rc}: {stderr.getvalue().strip()}"]
        outcome[f"alpha={alpha}"] = (
            "PASS" if not problems else f"FAIL ({'; '.join(problems)})")
    return outcome
