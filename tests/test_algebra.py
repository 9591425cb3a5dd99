"""Block algebra arithmetic, norms, positivity, and states.

Oracles: dense block-diagonal realizations multiply/measure with plain
numpy, independently of the blockwise code paths under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_element,
    random_positive,
    random_selfadjoint,
    random_shape,
    random_state,
)
from cstarframes import AlgebraElement, AlgebraShape, State, norm_attaining_state
from cstarframes.algebra import StateError, block_sum
from cstarframes.tolerances import STATE_ATOL

C2 = AlgebraShape((1, 1))
C3 = AlgebraShape((1, 1, 1))
M2 = AlgebraShape((2,))


def dense(a: AlgebraElement) -> np.ndarray:
    """Independent dense realization: block-diagonal embedding."""
    total = a.shape.realization_dim
    out = np.zeros((total, total), dtype=complex)
    row = 0
    for blk, n in zip(a.blocks, a.shape.block_dims):
        out[row : row + n, row : row + n] = blk
        row += n
    return out


def test_identity_is_unit(rng):
    shape = random_shape(rng)
    a = random_element(shape, rng)
    ident = AlgebraElement.identity(shape)
    assert (ident * a - a).norm() == 0.0
    assert (a * ident - a).norm() == 0.0


def test_product_on_c2_is_coordinatewise():
    a = AlgebraElement.from_scalars(C2, [1.0, 2.0])
    b = AlgebraElement.from_scalars(C2, [3.0, 4.0])
    want = AlgebraElement.from_scalars(C2, [3.0, 8.0])
    assert ((a * b) - want).norm() == 0.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_product_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    shape = random_shape(rng)
    a = random_element(shape, rng)
    b = random_element(shape, rng)
    assert np.allclose(dense(a * b), dense(a) @ dense(b), atol=1e-12)


def test_norm_of_identity(rng):
    shape = random_shape(rng)
    assert AlgebraElement.identity(shape).norm() == pytest.approx(1.0, abs=1e-15)


def test_norm_commutative_sup_of_moduli():
    a = AlgebraElement.from_scalars(C3, [3.0, -4.0j, 0.0])
    assert a.norm() == pytest.approx(4.0, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_norm_matches_dense_svd_oracle(seed):
    rng = np.random.default_rng(seed)
    shape = random_shape(rng)
    a = random_element(shape, rng)
    assert a.norm() == pytest.approx(np.linalg.norm(dense(a), ord=2), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cstar_identity(seed):
    rng = np.random.default_rng(seed)
    shape = random_shape(rng)
    a = random_element(shape, rng)
    lhs = (a.adjoint() * a).norm()
    assert lhs == pytest.approx(a.norm() ** 2, rel=1e-10, abs=1e-12)


def test_squares_are_positive(rng):
    shape = random_shape(rng)
    a = random_element(shape, rng)
    assert (a.adjoint() * a).is_positive()


def test_indefinite_diag_not_positive():
    a = AlgebraElement(M2, (np.diag([1.0, -1.0]).astype(complex),))
    assert not a.is_positive()


def test_is_positive_requires_selfadjoint(rng):
    shape = random_shape(rng)
    a = random_element(shape, rng)
    a = a + AlgebraElement.identity(shape) * 10.0
    if a.is_selfadjoint():
        pytest.skip("drew a self-adjoint element")
    with pytest.raises(ValueError):
        a.is_positive()


def test_inverse_of_identity(rng):
    shape = random_shape(rng)
    ident = AlgebraElement.identity(shape)
    assert (ident.inverse() - ident).norm() <= 1e-14


def test_commutative_inverse_and_sqrt():
    a = AlgebraElement.from_scalars(C2, [4.0, 9.0])
    inv = a.inverse()
    assert (inv - AlgebraElement.from_scalars(C2, [0.25, 1.0 / 9.0])).norm() <= 1e-15
    root = a.sqrt()
    assert (root - AlgebraElement.from_scalars(C2, [2.0, 3.0])).norm() <= 1e-12


def test_random_inverse_residual(rng):
    shape = random_shape(rng)
    a = random_positive(shape, rng) + AlgebraElement.identity(shape) * 0.5
    resid = a * a.inverse() - AlgebraElement.identity(shape)
    assert resid.norm() <= 1e-10


def test_sqrt_squares_back(rng):
    shape = random_shape(rng)
    a = random_positive(shape, rng)
    root = a.sqrt()
    assert (root * root - a).norm() <= 1e-10 * max(1.0, a.norm())


def test_singular_inverse_names_block():
    a = AlgebraElement.from_scalars(C2, [1.0, 0.0])
    with pytest.raises(np.linalg.LinAlgError, match="block 1"):
        a.inverse()


def test_state_unital(rng):
    shape = random_shape(rng)
    phi = random_state(shape, rng)
    assert phi(AlgebraElement.identity(shape)) == pytest.approx(1.0, abs=1e-12)


def test_normalized_trace_on_m2():
    phi = State.normalized_trace(M2)
    a = AlgebraElement(M2, (np.diag([1.0, 3.0]).astype(complex),))
    assert phi(a) == pytest.approx(2.0, abs=1e-14)


def test_point_evaluation_on_indicator():
    for j in range(3):
        phi = State.block_state(C3, j)
        delta = AlgebraElement.block_unit(C3, j)
        assert phi(delta) == pytest.approx(1.0, abs=1e-15)


def test_state_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        State(M2, (2.0 * np.eye(2, dtype=complex) / 2.0,))


def test_state_rejects_non_psd():
    with pytest.raises(ValueError):
        State(M2, (np.diag([1.5, -0.5]).astype(complex),))


def test_norm_attaining_state_on_positives(rng):
    shape = random_shape(rng)
    a = random_positive(shape, rng)
    phi = norm_attaining_state(a)
    assert phi(a).real == pytest.approx(a.norm(), rel=1e-12, abs=1e-12)
    assert abs(phi(a).imag) <= 1e-12


def test_norm_attaining_state_general(rng):
    shape = random_shape(rng)
    a = random_element(shape, rng)
    phi = norm_attaining_state(a)
    gram = a.adjoint() * a
    assert phi(gram).real == pytest.approx(a.norm() ** 2, rel=1e-12, abs=1e-12)


def test_norm_attaining_state_deterministic(rng):
    shape = random_shape(rng)
    a = random_selfadjoint(shape, rng)
    p1 = norm_attaining_state(a)
    p2 = norm_attaining_state(a)
    for d1, d2 in zip(p1.densities, p2.densities):
        assert np.array_equal(d1, d2)


def test_tiny_one_by_one_norm_goes_through_the_svd():
    """The norm of a 1x1 block is its singular value, not abs(): the two differ here."""
    a = AlgebraElement(AlgebraShape((1,)), (np.array([[1e-300]]),))
    assert a.norm() == 9.999999999999999e-301
    assert abs(a.blocks[0][0, 0]) == 1e-300


# -- the batched state check ---------------------------------------------------

_FAULTS = ("none", "hermitian", "negative", "trace")


def _faulty_densities(shape, rng, fault, block, factor):
    """One state's densities, exactly Hermitian, with `fault` planted at factor * STATE_ATOL.

    Each density is U diag(w) U* on its block; "hermitian" adds i*c to the
    diagonal of `block` so that the largest |rho - rho*| entry is
    factor * STATE_ATOL, "negative" gives `block` the eigenvalue
    -factor * STATE_ATOL (unless it is the state's only eigenvalue), and
    "trace" scales the total trace to 1 + factor * STATE_ATOL.  Factors
    below 1 sit just inside the cut; within 1e-9 of 1, the rounding of
    the checks' own arithmetic decides the verdict.
    """
    spectra = [rng.uniform(0.1, 1.0, n) for n in shape.block_dims]
    if fault == "negative" and shape.realization_dim > 1:
        spectra[block][0] = -factor * STATE_ATOL
    positive = sum(w[w > 0].sum() for w in spectra)
    scale = (1.0 + factor * STATE_ATOL if fault == "trace" else 1.0) / positive
    out = []
    for k, (n, w) in enumerate(zip(shape.block_dims, spectra)):
        w = np.where(w > 0, w * scale, w)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        rho = (u * w) @ u.conj().T
        rho = (rho + rho.conj().T) / 2.0
        if fault == "hermitian" and k == block:
            rho = rho + 0.5j * factor * STATE_ATOL * np.eye(n)
        out.append(rho)
    return out


@settings(max_examples=120, deadline=None)
@given(
    dims=st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=4),
    plan=st.lists(
        st.tuples(st.sampled_from(_FAULTS), st.integers(0, 3), st.sampled_from([0.5, 0.99, 1 - 1e-9, 1 + 1e-9, 1.01, 2.0])),
        min_size=1,
        max_size=5,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_batched_state_check_is_the_check_of_each_state(dims, plan, seed):
    """State._batch and State(...) agree on the verdict, the first faulty state, its text and the bytes."""
    shape = AlgebraShape(tuple(dims))
    rng = np.random.default_rng(seed)
    batch = [_faulty_densities(shape, rng, fault, k % len(dims), f) for fault, k, f in plan]
    first, single = None, []
    for i, densities in enumerate(batch):
        try:
            single.append(State(shape, tuple(densities)))
        except StateError as e:
            assert e.index == 0
            first = first or (i, str(e))
    stacks = [
        np.ascontiguousarray(np.array([[batch[i][k] for k in ks] for i in range(len(batch))]).swapaxes(0, 1))
        for _, ks in shape.classes
    ]
    if first is None:
        states = State._batch(shape, stacks)
        assert len(states) == len(single)
        for a, b in zip(states, single):
            assert [s.tobytes() for s in a.stacks] == [s.tobytes() for s in b.stacks]
    else:
        with pytest.raises(StateError) as err:
            State._batch(shape, stacks)
        assert (err.value.index, str(err.value)) == first


def trace_totals(shape, stacks):
    """sum_k Re trace(rho_k) of every state of a (count, states, n, n) batch, blocks in order."""
    return block_sum(shape, [np.trace(s, axis1=-2, axis2=-1).real for s in stacks])


@pytest.mark.parametrize("n", range(1, 13))
def test_batched_states_view_their_stacks_with_the_bits_of_copies(n):
    """A batch's states hold read-only views of its stacks, not copies.

    Their trace totals, taken for the whole batch as `checked_states`
    takes them, and their values on random elements, are the bits that
    contiguous copies of the same slices give.
    """
    shape = AlgebraShape((n, 1, n, 2))
    rng = np.random.default_rng(n)
    batch = [random_state(shape, rng).densities for _ in range(5)]
    stacks = [
        np.ascontiguousarray(np.array([[d[k] for k in ks] for d in batch]).swapaxes(0, 1))
        for _, ks in shape.classes
    ]
    elements = [random_element(shape, rng) for _ in range(4)]
    totals = trace_totals(shape, stacks)
    for i, phi in enumerate(State._batch(shape, stacks)):
        copies = tuple(np.ascontiguousarray(s[:, i]) for s in stacks)
        for view, s in zip(phi.stacks, stacks):
            assert np.shares_memory(view, s) and not view.flags.writeable
        assert totals[i].tobytes() == trace_totals(shape, [c[:, None] for c in copies]).tobytes()
        for a in elements:
            traces = [np.trace(rho @ blk, axis1=-2, axis2=-1) for rho, blk in zip(copies, a.stacks)]
            assert repr(phi(a)) == repr(complex(block_sum(shape, traces)))
