"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole gate stays well under five minutes on a laptop.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from memkern.measure import MeasureSpec, gamma_bar
from memkern import kernels as K
from memkern import volterra as V
from memkern import geometry as G
from memkern import solver as S
from memkern import harnack as H
from memkern import cli
from memkern.geometry import Cylinder, phi_bar

from conftest import canonical_measures

E_HALF_AT_1 = 0.4275835761558070  # E_{1/2}(-1) = e * erfc(1)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_sonine_identity():
    start = time.perf_counter()
    worst = {}
    for name, spec in canonical_measures().items():
        tau = 1.0 / 2048
        lk = V.sample_l(spec, tau, 2048)
        kk = V.sample_k(spec, tau, 2048)
        conv = V.conv(kk, lk)
        worst[name] = float(np.max(np.abs(conv.values[9:] - 1.0)))
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) <= 1e-3 and elapsed <= 10.0
    _report(1, "sonine-identity", ok,
            f"max residual {max(worst.values()):.2e}, {elapsed:.1f}s")


def test_criterion_02_single_order_closed_forms():
    # l's closed form in 30 digits, so that l rel measures the kernel rather
    # than the rounding of a double-precision reference
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    worst_l, worst_phi = 0.0, 0.0
    for alpha in (0.3, 0.5, 0.8):
        spec = MeasureSpec.single_order(alpha)
        t = np.logspace(-2, 1, 20)
        l_vals = np.asarray(K.l_eval(spec, t))
        for ti, li in zip(t.tolist(), l_vals.tolist()):
            exact = mp.power(ti, mp.mpf(alpha) - 1) / mp.gamma(alpha)
            worst_l = max(worst_l, float(abs(li - exact) / exact))
        r = np.logspace(-2, 1, 25)
        phi_vals = np.asarray(G.phi(spec, r))
        exact_phi = r ** (2.0 / alpha)
        worst_phi = max(worst_phi,
                        float(np.max(np.abs(phi_vals - exact_phi) / exact_phi)))
    ok = worst_l <= 1e-6 and worst_phi <= 1e-8
    _report(2, "single-order-closed-forms", ok,
            f"l rel {worst_l:.2e}, phi rel {worst_phi:.2e}")


def test_criterion_03_hard_kernel_bound(sampled_2048):
    worst_slack = math.inf
    violations = 0
    for name, spec in canonical_measures().items():
        lk, _ = sampled_2048[name]
        t = lk.times
        bound = 1.0 / (t * np.asarray(K.k1_eval(spec, t)))
        slack = bound - lk.values
        worst_slack = min(worst_slack, float(np.min(slack / bound)))
        violations += int(np.sum(slack / bound < -1e-12))
    ok = violations == 0
    _report(3, "hard-kernel-bound", ok,
            f"violations {violations}, worst relative slack {worst_slack:.2e}")


def test_criterion_04_resolvent(half, sampled_2048):
    lk, _ = sampled_2048["d05"]
    theta = 1.0
    rk = V.sample_r_theta(half, lk.step, lk.n, theta)
    residual = rk.values + theta * V.conv(rk, lk).values - lk.values
    sup_residual = float(np.max(np.abs(residual[9:])))

    oracle = S.mittag_leffler(0.5, -1.0, beta=0.5)  # t^(a-1) E_{a,a}(-theta t^a)
    point_err = abs(K.r_theta_eval(half, 1.0, theta) - oracle)
    bounded = bool(np.all(rk.values >= 0.0)
                   and np.all(rk.values <= lk.values * (1 + 1e-12)))
    ok = sup_residual <= 1e-3 and point_err <= 1e-3 and bounded
    _report(4, "resolvent", ok,
            f"residual {sup_residual:.2e}, oracle err {point_err:.2e}, "
            f"0<=r<=l {bounded}")


def test_criterion_05_yosida(half, sampled_2048):
    _, kk = sampled_2048["d05"]
    norm_k = V.l1_norm(kk, horizon=1.0)
    dists = []
    for n in (4, 16, 64, 256):
        yos = V.yosida_kernels(half, n, kk.step, kk.n)
        dists.append(V.l1_distance(yos.k_n, kk, horizon=1.0))
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    ok = decreasing and dists[-1] <= 0.05 * norm_k
    _report(5, "yosida-approximation", ok,
            "L1 ratios " + ", ".join(f"{d / norm_k:.4f}" for d in dists))


def test_criterion_06_fundamental_identity(half):
    sups = {}
    remainder_ok = True
    for n_steps in (1024, 2048):
        yos = V.yosida_kernels(half, 64, 1.0 / n_steps, n_steps)
        t = yos.k_n.times
        rep = V.fundamental_identity_residual(
            yos.k_n, 1.0 + t, lambda v: v**2, lambda v: 2.0 * v)
        sups[n_steps] = rep.sup_residual
        remainder_ok = remainder_ok and rep.remainder_min >= -1e-10
    halves = sups[2048] <= 0.6 * sups[1024]
    ok = sups[1024] <= 1e-2 and halves and remainder_ok
    _report(6, "fundamental-identity", ok,
            f"residuals {sups[1024]:.2e} -> {sups[2048]:.2e}, "
            f"remainder nonneg {remainder_ok}")


def test_criterion_07_relaxation_mode(half):
    fld = S.solve(half, S.SpatialGrid(), None, 1.0, 0.0, 1.0, 4096,
                  reaction=1.0)
    err_half = abs(float(fld.values[-1, 0]) - 0.4275836)

    near1 = MeasureSpec.single_order(0.999)
    fld2 = S.solve(near1, S.SpatialGrid(), None, 1.0, 0.0, 1.0, 2048,
                   reaction=1.0)
    err_classical = abs(float(fld2.values[-1, 0]) - math.exp(-1))

    errs = []
    for n in (256, 512, 1024, 2048):
        f = S.solve(half, S.SpatialGrid(), None, 1.0, 0.0, 1.0, n,
                    reaction=1.0)
        errs.append(abs(float(f.values[-1, 0]) - E_HALF_AT_1))
    order = float(-np.polyfit(np.log([256, 512, 1024, 2048]),
                              np.log(errs), 1)[0])
    ok = err_half <= 1e-3 and err_classical <= 2e-2 and order >= 1.0
    _report(7, "relaxation-mode", ok,
            f"err {err_half:.2e}, classical err {err_classical:.2e}, "
            f"order {order:.3f}")


def test_criterion_08_pde_sanity(half):
    bc_n = S.BoundaryCondition.neumann_zero()
    grid_n = S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(32,),
                           boundary=((bc_n, bc_n),))
    coeffs = S.CoefficientField.constant(1.0)
    fld = S.solve(half, grid_n, coeffs, 3.7, 0.0, 0.5, 64)
    const_dev = float(np.max(np.abs(fld.values - 3.7)))

    bc_d = S.BoundaryCondition.dirichlet(0.0)
    grid_d = S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(64,),
                           boundary=((bc_d, bc_d),))
    rng = np.random.default_rng(123)
    worst_min = 0.0
    for _ in range(10):
        u0 = np.maximum(rng.normal(size=64), 0.0)
        sol = S.solve(half, grid_d, coeffs, u0, 0.0, 0.4, 96)
        worst_min = min(worst_min, float(np.min(sol.values)))
    ok = const_dev <= 1e-12 and worst_min >= -1e-12
    _report(8, "pde-sanity", ok,
            f"constant dev {const_dev:.2e}, worst min {worst_min:.2e}")


def test_criterion_09_scaling_certificate():
    details = []
    ok = True
    for name, spec in canonical_measures().items():
        gb = gamma_bar(spec)
        p = 0.5 * (1.0 + 1.0 / (1.0 - gb))
        sc = G.scaling_certificate(spec, p, np.logspace(-3, np.log10(0.45), 8))
        window = sc.r <= sc.r_admissible
        spread = np.abs(sc.log_ratio[window] - sc.log_plateau)
        finite = bool(np.all(np.isfinite(sc.log_ratio)))
        within = bool(np.max(spread) <= math.log(4.0))
        ok = ok and finite and within
        details.append(f"{name}:{math.exp(np.max(spread)):.2f}x")
    _report(9, "scaling-certificate", ok, "plateau factors " + " ".join(details))


def test_criterion_10_weak_harnack_ensemble(half):
    bc = S.BoundaryCondition.dirichlet(0.0)
    grid, fine = (S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(n,),
                                boundary=((bc, bc),)) for n in (64, 128))
    coeffs = S.CoefficientField.constant(1.0)
    ens_64 = H.harnack_ensemble(half, grid, coeffs, n_members=20, seed=7,
                                n_steps=192, r=0.4, x0=0.5, delta=0.5,
                                tau=1.0, p=1.0)
    ens_128 = H.harnack_ensemble(half, fine, coeffs, n_members=20, seed=7,
                                 n_steps=192, r=0.4, x0=0.5, delta=0.5,
                                 tau=1.0, p=1.0)
    change = abs(ens_128.max_ratio - ens_64.max_ratio) / ens_64.max_ratio

    height = 2.0 * phi_bar(half, 0.4)
    vals = np.full((193, 64), 2.75)
    const_field = S.SolutionField(grid=grid, step=height / 192, values=vals,
                                  f_samples=None, residuals=np.zeros(192),
                                  wall_time=0.0)
    const_rep = H.weak_harnack_ratio(const_field, half, t0=0.0, x0=0.5,
                                     r=0.4, delta=0.5, tau=1.0, p=1.0)
    ok = (ens_64.all_finite and ens_128.all_finite and change <= 0.2
          and const_rep.ratio == 1.0)
    _report(10, "weak-harnack-ensemble", ok,
            f"max {ens_64.max_ratio:.3f}->{ens_128.max_ratio:.3f} "
            f"({100 * change:.1f}%), constant ratio {const_rep.ratio}")


def test_criterion_11_holder_profile(half):
    coeffs = S.CoefficientField.constant(1.0)
    bc = S.BoundaryCondition.dirichlet(0.0)
    grid = S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(256,),
                         boundary=((bc, bc),))
    x = grid.axis_centers(0)
    eta, r = 0.25, 0.2
    horizon = 2 * eta * phi_bar(half, r)
    smooth = S.solve(half, grid, coeffs, np.sin(np.pi * x), 0.0, horizon, 256)
    prof = H.oscillation_profile(smooth, half, t1=1.5 * eta * phi_bar(half, r),
                                 x1=0.4, theta=1.0, levels=[0, 1, 2, 3, 4],
                                 r=r)

    bc_lin = S.BoundaryCondition.dirichlet(lambda t, xx: xx[..., 0])
    grid_lin = S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(256,),
                             boundary=((bc_lin, bc_lin),))
    lin_horizon = 0.5 * phi_bar(half, r)
    linear = S.solve(half, grid_lin, coeffs, x.copy(), 0.0, lin_horizon, 256)
    prof_lin = H.oscillation_profile(linear, half, t1=0.9 * lin_horizon,
                                     x1=0.4, theta=1.0, levels=[1, 2, 3, 4],
                                     r=r)

    flat_vals = np.full((257, 256), 1.1)
    flat_field = S.SolutionField(grid=grid, step=horizon / 256,
                                 values=flat_vals, f_samples=None,
                                 residuals=np.zeros(256), wall_time=0.0)
    prof_flat = H.oscillation_profile(flat_field, half,
                                      t1=1.5 * eta * phi_bar(half, r),
                                      x1=0.4, theta=1.0, levels=[1, 2, 3, 4],
                                      r=r)
    ok = (prof.status == "ok" and prof.kappa > 0.0
          and prof.fit_residual <= 0.2
          and abs(prof_lin.kappa - 1.0) <= 0.05
          and prof_flat.flat)
    _report(11, "holder-oscillation", ok,
            f"smooth kappa {prof.kappa:.3f} (resid {prof.fit_residual:.3f}), "
            f"linear kappa {prof_lin.kappa:.3f}, constant {prof_flat.status}")


def test_criterion_12_strong_maximum_principle(half):
    coeffs = S.CoefficientField.constant(1.0)
    bc_m = S.BoundaryCondition.dirichlet(2.0)
    grid = S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(48,),
                         boundary=((bc_m, bc_m),))
    const_sol = S.solve(half, grid, coeffs, 2.0, 0.0, 0.05, 64)
    verdict_const = H.strong_max_check(
        const_sol, Cylinder(0.02, 0.04, (0.5,), 0.2))

    bc_0 = S.BoundaryCondition.dirichlet(0.0)
    grid0 = S.SpatialGrid(extents=((0.0, 1.0),), n_cells=(64,),
                          boundary=((bc_0, bc_0),))
    x = grid0.axis_centers(0)
    heat_like = S.solve(half, grid0, coeffs, np.sin(np.pi * x), 0.0, 0.05, 64)
    verdict_heat = H.strong_max_check(
        heat_like, Cylinder(0.02, 0.045, (0.5,), 0.2))

    verdicts = [verdict_const, verdict_heat]
    ok = (verdict_const == "consistent" and verdict_heat == "not-applicable"
          and verdicts.count("violated") == 0)
    _report(12, "strong-maximum-principle", ok,
            f"constant {verdict_const}, heat-like {verdict_heat}")


def test_criterion_13_checkerboard_corner(tmp_path):
    # configs/corner2d.json as shipped (contrast c = 10, 256^2 cells), and
    # with c = 3 and with 128^2 cells.  Near the board's corner a stationary
    # solution grows like r^beta(c), beta(c) = (4/pi) arctan(c^-1/2), so the
    # fitted exponent must fall with c and, toward beta, with the cell size
    shipped = json.loads((Path(__file__).resolve().parents[1] / "configs"
                          / "corner2d.json").read_text())
    kappa, elapsed = {}, math.inf
    for c in (3.0, 10.0):
        for n in (128, 256):
            name = f"c{c:g}-n{n}"
            config = dict(shipped, grid=dict(shipped["grid"], n_cells=[n, n]),
                          coefficients=dict(shipped["coefficients"], high=c))
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            start = time.perf_counter()
            assert cli.main(["holder", "--config", str(path),
                             "--out", str(tmp_path / name)]) == 0
            if config == shipped:
                elapsed = time.perf_counter() - start
            kappa[c, n] = json.loads((tmp_path / name / "report.json")
                                     .read_text())["kappa"]

    def beta(c):
        return 4.0 / math.pi * math.atan(c ** -0.5)

    ok = (all(kappa[10.0, n] < kappa[3.0, n] < 1.0 for n in (128, 256))
          and all(kappa[c, 256] < kappa[c, 128] for c in (3.0, 10.0)))
    _report(13, "checkerboard-corner", ok, ", ".join(
        f"c={c:g} kappa {kappa[c, 128]:.3f} -> {kappa[c, 256]:.3f}, "
        f"beta {beta(c):.3f}, gap {kappa[c, 256] - beta(c):.3f}"
        for c in (3.0, 10.0)))
    assert elapsed <= 5.0, f"corner2d ran {elapsed:.1f}s, over 5s"
