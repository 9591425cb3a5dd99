"""Metamorphic relations that need no oracle.

A block-unitary u of A moves the A-valued inner product by conjugation,
<xu, yu> = u* <x,y> u, since <xu, yu> = sum_i u* x_i* y_i u.  A seminorm
nu_{X,Phi} is homogeneous, nu(lambda x) = |lambda| nu(x), since the inner
product is conjugate-linear in x and every state is linear.  A unitary
module operator U moves a frame and a sample together without changing
what the certificates see: <Ux, Uy> = <x, y>, so {U e_j} is again a
Parseval frame, its tails on Ux are those of {e_j} on x, and the C/D
span family of Ux is U applied to that of x.  All of these hold up to
rounding, so they are checked at a tolerance relative to the size of the
quantities compared.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, random_vector
from cstarframes import (
    AdmissibleSystem,
    AlgebraElement,
    AlgebraShape,
    Frame,
    ModuleOperator,
    SampleSet,
    SeminormSpec,
    check_condition_b,
    check_condition_cd,
    inner_product,
    seminorm_eval,
    standard_basis_frame,
)

SHAPES = [(1,), (2,), (1, 2), (1, 1, 2), (2, 3, 1)]

cases = st.tuples(st.sampled_from(SHAPES), st.integers(1, 3), st.integers(0, 2**32 - 1))


def _unitary(shape, rng):
    """A unitary element: per block, the Q factor of a random complex matrix."""
    blocks = []
    for n in shape.block_dims:
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        blocks.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return AlgebraElement(shape, blocks)


def _close(a, b):
    """||a - b|| <= 1e-12 max(1, ||a||, ||b||)."""
    return (a - b).norm() <= 1e-12 * max(1.0, a.norm(), b.norm())


@settings(max_examples=60, deadline=None)
@given(case=cases)
def test_inner_product_is_conjugated_by_a_unitary(case):
    dims, dim, seed = case
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    u = _unitary(shape, rng)
    assert _close(u.adjoint() * u, AlgebraElement.identity(shape))
    x, y = random_vector(shape, dim, rng), random_vector(shape, dim, rng)
    moved = inner_product(x * u, y * u)
    assert _close(moved, u.adjoint() * inner_product(x, y) * u)


def _spec(shape, dim, size, rng):
    """A random admissible system, scaled so that sum_i theta_{x_i,x_i} <= 0.9 Id."""
    vecs = [random_vector(shape, dim, rng) for _ in range(size)]
    top = max(
        float(np.linalg.norm(np.hstack([v.realize_block(k) for v in vecs]), 2))
        for k in range(shape.num_blocks)
    )
    system = AdmissibleSystem(tuple(v * (0.9 / top) for v in vecs))
    return SeminormSpec(system, tuple(random_state(shape, rng) for _ in range(size)))


scalars = st.one_of(
    st.just(0j),
    st.builds(
        lambda r, t: r * np.exp(1j * t),
        st.floats(1e-3, 1e3),
        st.floats(0.0, 2 * np.pi),
    ),
)


@settings(max_examples=60, deadline=None)
@given(case=cases, lam=scalars)
def test_seminorm_is_homogeneous(case, lam):
    dims, dim, seed = case
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    spec = _spec(shape, dim, 3, rng)
    x = random_vector(shape, dim, rng)
    nu = seminorm_eval(spec, x)
    scaled = seminorm_eval(spec, x * lam)
    assert abs(scaled - abs(lam) * nu) <= 1e-12 * abs(lam) * nu


def _module_unitary(shape, dim, rng):
    """A unitary module operator on A^dim: per block, the Q factor of a random complex matrix."""
    stacks = []
    for n, ks in shape.classes:
        z = rng.standard_normal((len(ks), dim * n, dim * n)) + 1j * rng.standard_normal(
            (len(ks), dim * n, dim * n)
        )
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        stacks.append(q * (d / np.abs(d))[:, None, :])
    return ModuleOperator._packed(shape, dim, dim, stacks)


def _margin(values, eps):
    return min(abs(v - eps) for v in values)


@settings(max_examples=60, deadline=None)
@given(case=cases, points=st.integers(1, 4), eps=st.floats(0.05, 1.5))
def test_a_unitary_module_operator_moves_frame_and_sample_together(case, points, eps):
    dims, dim, seed = case
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    u = _module_unitary(shape, dim, rng)
    basis = standard_basis_frame(shape, dim)
    moved_frame = Frame([u(e) for e in basis.vectors])
    c1, c2 = moved_frame.bounds
    assert abs(c1 - 1.0) <= 1e-12 and abs(c2 - 1.0) <= 1e-12

    sample = SampleSet(tuple(random_vector(shape, dim, rng, 0.5) for _ in range(points)))
    moved = SampleSet(tuple(u(x) for x in sample.points))
    tails = basis.tail_profiles(sample)
    moved_tails = moved_frame.tail_profiles(moved)
    assert np.abs(moved_tails - tails).max() <= 1e-10

    # a tiny eps runs C/D through every rank of the budget
    errors = check_condition_cd(sample, 1e-300).diagnostics["error_profile"]
    moved_errors = check_condition_cd(moved, 1e-300).diagnostics["error_profile"]
    assert len(moved_errors) == len(errors)
    assert max(abs(a - b) for a, b in zip(moved_errors, errors)) <= 1e-10

    sup_tails = tails.max(axis=0)
    if _margin(sup_tails, eps) > 1e-9:
        assert check_condition_b(moved, moved_frame, eps).verdict == check_condition_b(
            sample, basis, eps
        ).verdict
    if _margin(errors, eps) > 1e-9:
        cert = check_condition_cd(sample, eps)
        moved_cert = check_condition_cd(moved, eps)
        assert moved_cert.verdict == cert.verdict
        assert moved_cert.witness == cert.witness
