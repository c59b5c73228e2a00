"""Cross-module stress tests on measures and paths the unit tests skip."""

import numpy as np
import pytest

from memkern.measure import MeasureSpec, gamma_bar
from memkern import kernels as K
from memkern import volterra as V
from memkern import geometry as G
from memkern import solver as S
from memkern import harnack as H
from memkern.geometry import phi_bar

# atoms and weight together, with the weight carrying the top of the support
MIXED = MeasureSpec(atoms=((0.35, 0.6),),
                    weight_breaks=(0.1, 0.8), weight_values=(0.5,))
# strongly lopsided atom masses across a wide order gap
LOPSIDED = MeasureSpec.from_atoms([(0.1, 0.05), (0.85, 0.95)])


@pytest.mark.parametrize("spec", [MIXED, LOPSIDED],
                         ids=["mixed", "lopsided"])
def test_sonine_and_resolvent_pipeline(spec):
    tau, n = 1.0 / 1024, 1024
    lk = V.sample_l(spec, tau, n)
    kk = V.sample_k(spec, tau, n)
    sonine = np.max(np.abs(V.conv(kk, lk).values[9:] - 1.0))
    assert sonine <= 1e-3

    rk = V.sample_r_theta(spec, tau, n, 2.0)
    residual = rk.values + 2.0 * V.conv(rk, lk).values - lk.values
    assert np.max(np.abs(residual[9:])) <= 1e-3
    assert np.all(rk.values >= 0.0)
    assert np.all(rk.values <= lk.values * (1 + 1e-12))


@pytest.mark.parametrize("spec", [MIXED, LOPSIDED],
                         ids=["mixed", "lopsided"])
def test_certificates_pipeline(spec):
    certs = K.bound_certificates(spec, V.sample_l(spec, 1.0 / 512, 512),
                                 r=0.5)
    assert certs.ok
    gb = gamma_bar(spec)
    p = 0.5 * (1.0 + 1.0 / (1.0 - gb))
    sc = G.scaling_certificate(spec, p, np.logspace(-3, -0.5, 5))
    assert np.all(np.isfinite(sc.log_ratio))
    assert G.phi_lambda_check(spec, [0.05, 0.5, 2.0], [0.3, 1.0]).ok
    assert G.phi_lower_bound_check(spec, [0.1, 0.9]).ok


def test_mixed_measure_gamma_bar_from_weight():
    # weight mass above the atom: the tail level comes from the weight edge
    assert gamma_bar(MIXED) == pytest.approx(0.8 - 0.01)


def test_weak_harnack_ratio_2d(half):
    bc = S.BoundaryCondition.dirichlet(0.0)
    grid = S.SpatialGrid(extents=((0.0, 1.0), (0.0, 1.0)),
                         n_cells=(24, 24), boundary=((bc, bc),) * 2)
    coeffs = S.CoefficientField.constant(1.0)
    xs = grid.axis_centers(0)
    u0 = np.maximum(np.outer(np.sin(np.pi * xs), np.sin(np.pi * xs)), 0.0) \
        + 0.1
    r = 0.3
    height = 2.0 * phi_bar(half, r)
    fld = S.solve(half, grid, coeffs, u0, 0.0, height, 64)
    rep = H.weak_harnack_ratio(fld, half, t0=0.0, x0=(0.5, 0.5), r=r,
                               delta=0.6, tau=1.0, p=1.0)
    assert rep.status == "ok"
    assert rep.ratio > 0.0


def test_lopsided_relaxation_bounded(half):
    fld = S.solve(LOPSIDED, S.SpatialGrid(), None, 1.0, 0.0, 1.0, 512,
                  reaction=1.0)
    u = fld.values[:, 0]
    assert np.all(u <= 1.0 + 1e-12)
    assert np.all(np.diff(u) <= 1e-12)
    assert u[-1] > 0.0


def test_yosida_pipeline_mixed():
    tau, n = 1.0 / 512, 512
    kk = V.sample_k(MIXED, tau, n)
    dists = []
    for m in (4, 64):
        y = V.yosida_kernels(MIXED, m, tau, n)
        assert np.all(np.diff(y.k_n.values) <= 1e-10)
        dists.append(V.l1_distance(y.k_n, kk, horizon=1.0))
    assert dists[1] < dists[0]
