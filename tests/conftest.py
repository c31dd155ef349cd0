import numpy as np
import pytest

from frdkit import (
    CoefficientField,
    EllipticOperator,
    LatticeField,
    LatticeTorus,
    PerturbationSpec,
    TrigMode,
    build_decomposition,
    make_perturbed,
)


def perturbed_operator(d: int, L: int = 3, N: int = 2, eps: float = 0.05,
                       m: int = 1) -> EllipticOperator:
    torus = LatticeTorus(d, m, L, N)
    md = m * d
    spec = PerturbationSpec(
        base=np.eye(md),
        epsilon=eps,
        modes=(TrigMode(frequency=(1,) + (0,) * (d - 1), amplitude=np.eye(md)),),
        budget=20.0,
    )
    return EllipticOperator(make_perturbed(spec, torus))


def random_operator(d: int, L: int = 3, N: int = 2, m: int = 1,
                    contrast: float = 4.0, seed: int = 0) -> EllipticOperator:
    """A random SPD coefficient at every site: no period along any axis."""
    torus = LatticeTorus(d, m, L, N)
    md = m * d
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((torus.sites, md, md)))
    w = rng.uniform(1.0, contrast, size=(torus.sites, md))
    A = np.einsum("sij,sj,skj->sik", Q, w, Q)
    return EllipticOperator(CoefficientField(torus, 0.5 * (A + A.transpose(0, 2, 1))))


def identity_operator(d: int, L: int = 3, N: int = 2, m: int = 1) -> EllipticOperator:
    torus = LatticeTorus(d, m, L, N)
    return EllipticOperator(CoefficientField.identity(torus))


def random_mean_zero(op: EllipticOperator, seed: int = 0) -> LatticeField:
    rng = np.random.default_rng(seed)
    t = op.torus
    return LatticeField(t, rng.standard_normal((t.sites, t.m))).project_mean_zero()


@pytest.fixture(scope="session")
def op_d2_const():
    return identity_operator(2)


@pytest.fixture(scope="session")
def op_d2_pert():
    return perturbed_operator(2)


@pytest.fixture(scope="session")
def op_d3_const():
    return identity_operator(3)


@pytest.fixture(scope="session")
def op_d3_pert():
    return perturbed_operator(3)


@pytest.fixture(scope="session")
def dec_d3_const(op_d3_const):
    return build_decomposition(op_d3_const, sources=[0])


@pytest.fixture(scope="session")
def dec_d3_pert(op_d3_pert):
    return build_decomposition(op_d3_pert, sources=[0])


@pytest.fixture(scope="session")
def dec_d2_pert(op_d2_pert):
    return build_decomposition(op_d2_pert, sources=[0])


@pytest.fixture(scope="session")
def dec_d2_const(op_d2_const):
    return build_decomposition(op_d2_const, sources=[0])
