"""Metamorphic relations that need no oracle.

A block-unitary u of A moves the A-valued inner product by conjugation,
<xu, yu> = u* <x,y> u, since <xu, yu> = sum_i u* x_i* y_i u.  A seminorm
nu_{X,Phi} is homogeneous, nu(lambda x) = |lambda| nu(x), since the inner
product is conjugate-linear in x and every state is linear.  Both hold
up to rounding, so they are checked at a tolerance relative to the size
of the quantities compared.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, random_vector
from cstarframes import (
    AdmissibleSystem,
    AlgebraElement,
    AlgebraShape,
    SeminormSpec,
    inner_product,
    seminorm_eval,
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


@settings(max_examples=60, deadline=None)
@given(case=cases)
def test_inner_product_is_conjugated_by_a_unitary(case):
    dims, dim, seed = case
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    u = _unitary(shape, rng)
    assert (u.adjoint() * u).allclose(AlgebraElement.identity(shape))
    x, y = random_vector(shape, dim, rng), random_vector(shape, dim, rng)
    moved = inner_product(x * u, y * u)
    assert moved.allclose(u.adjoint() * inner_product(x, y) * u, tol=1e-12)


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
