import pytest

from memkern.config import parse_config
from memkern.measure import MeasureSpec
from memkern import cli, volterra


def canonical_measures() -> dict[str, MeasureSpec]:
    return {
        "d03": MeasureSpec.single_order(0.3),
        "d05": MeasureSpec.single_order(0.5),
        "d08": MeasureSpec.single_order(0.8),
        "two_atom": MeasureSpec.from_atoms([(0.3, 0.5), (0.7, 0.5)]),
        "uniform": MeasureSpec.uniform_weight(),
    }


@pytest.fixture(scope="session")
def measures():
    return canonical_measures()


@pytest.fixture(scope="session")
def half():
    return MeasureSpec.single_order(0.5)


@pytest.fixture(scope="session")
def sampled_2048(measures):
    """(l, k) discrete kernels at N=2048, T=1 for every canonical measure."""
    out = {}
    for name, spec in measures.items():
        tau = 1.0 / 2048
        out[name] = (volterra.sample_l(spec, tau, 2048),
                     volterra.sample_k(spec, tau, 2048))
    return out


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """Output directory of ``memkern verify`` for order 1/2 on 32 steps of 0.01,
    with r = 0.5 and scaling exponent p = 1."""
    config = parse_config({
        "experiment": "verify",
        "measure": {"atoms": [{"alpha": 0.5, "q": 1.0}],
                    "weight": {"breaks": [], "values": []}},
        "horizon": 0.32,
        "n_steps": 32,
        "params": {"r": 0.5, "p_scaling": 1.0, "seed": 0},
    })
    out = tmp_path_factory.mktemp("verify")
    assert cli.run(config, out) == 0
    return out
