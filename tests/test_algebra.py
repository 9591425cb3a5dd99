"""Block algebra arithmetic, norms, order, and states.

Oracles: dense block-diagonal realizations multiply/measure with plain
numpy, independently of the blockwise code paths under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    block_state,
    normalized_trace,
    random_element,
    random_positive,
    random_selfadjoint,
    random_shape,
    random_state,
)
from cstarframes import (
    AdmissibleSystem,
    AlgebraElement,
    AlgebraShape,
    ModuleVector,
    SeminormSpec,
    State,
    norm_attaining_state,
)
from cstarframes.algebra import StateError, block_sum, checked_states
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
    a = AlgebraElement(C2, ([[1.0]], [[2.0]]))
    b = AlgebraElement(C2, ([[3.0]], [[4.0]]))
    want = AlgebraElement(C2, ([[3.0]], [[8.0]]))
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
    a = AlgebraElement(C3, ([[3.0]], [[-4.0j]], [[0.0]]))
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


def test_shape_needs_at_least_one_block():
    with pytest.raises(ValueError, match="at least one block"):
        AlgebraShape(())


@pytest.mark.parametrize("dims", [(0,), (2, -1), (1, 0, 3)])
def test_shape_rejects_non_positive_block_dims(dims):
    with pytest.raises(ValueError, match="block dimensions must be positive"):
        AlgebraShape(dims)


def test_blocks_are_checked_against_the_shape():
    with pytest.raises(ValueError, match="expected 2 blocks, got 3"):
        AlgebraElement(C2, ([[1.0]], [[2.0]], [[3.0]]))
    with pytest.raises(ValueError, match=r"block 1 has shape \(2, 2\), expected \(1, 1\)"):
        AlgebraElement(C2, ([[1.0]], np.eye(2)))


def test_element_refuses_a_non_finite_entry():
    """Unrefused, the first had norm NaN and the second an SVD that does not converge."""
    with pytest.raises(ValueError, match=r"^block 0 has a non-finite entry$"):
        AlgebraElement(M2, [[[1.0, np.inf], [0.0, 1.0]]])
    with pytest.raises(ValueError, match=r"^block 1 has a non-finite entry$"):
        AlgebraElement(C2, ([[1.0]], [[np.nan]]))
    with pytest.raises(ValueError, match=r"^block 2 has a non-finite entry$"):
        AlgebraElement(AlgebraShape((2, 1, 1)), (np.eye(2), [[1.0]], [[complex(0.0, -np.inf)]]))


@pytest.mark.parametrize("k", [0, 1])
def test_reads_refuse_a_non_finite_result_of_arithmetic(k):
    """Arithmetic stores its results unchecked; the norm, the order and the states refuse them.

    Unrefused, with the overflow on block 0, (a * a).norm() was NaN,
    (a * a - a * a).norm() raised LinAlgError, norm_attaining_state gave a
    state whose value on a * a - a * a was nan+nanj, phi(a * a) was
    inf+nanj and (a * a).min_eigenvalue() was 1.0.
    """
    blocks = [[[1.0]], [[1.0]]]
    blocks[k] = [[1e200]]
    a = AlgebraElement(C2, blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        square = a * a
        difference = square - square
    phi = State(C2, ([[1.0]], [[0.0]]))
    reads = (
        square.norm,
        difference.norm,
        lambda: norm_attaining_state(difference),
        lambda: phi(square),
        square.min_eigenvalue,
    )
    for read in reads:
        with pytest.raises(ValueError, match=rf"^block {k} has a non-finite entry$"):
            read()


def test_arithmetic_rejects_elements_of_another_shape(rng):
    a = random_element(C2, rng)
    b = random_element(AlgebraShape((2, 1)), rng)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(ValueError, match="shape mismatch"):
            op(a, b)
    # a one-coordinate vector has the stored form of an element, but not its type
    x = ModuleVector(C2, (a,))
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ValueError, match="shape mismatch"):
            op(a, x)


def test_block_unit_rejects_an_index_outside_the_shape():
    for k in (-1, 3):
        with pytest.raises(ValueError, match=f"block index {k} out of range"):
            AlgebraElement.block_unit(C3, k)


def test_block_units_are_central_projections_summing_to_one(rng):
    shape = AlgebraShape((2, 1, 2))
    a = random_element(shape, rng)
    units = [AlgebraElement.block_unit(shape, k) for k in range(shape.num_blocks)]
    total = AlgebraElement.zero(shape)
    for u in units:
        assert (u * u - u).norm() == 0.0
        assert (u.adjoint() - u).norm() == 0.0
        assert (u * a - a * u).norm() == 0.0
        total = total + u
    assert (total - AlgebraElement.identity(shape)).norm() == 0.0


# -- the order: least eigenvalue of the Hermitian part -------------------------


def test_squares_are_positive(rng):
    shape = random_shape(rng)
    a = random_element(shape, rng)
    square = a.adjoint() * a
    assert square.min_eigenvalue() >= -1e-12 * max(1.0, square.norm())
    assert square.min_eigenvalue() == pytest.approx(
        np.linalg.eigvalsh(dense(square)).min(), abs=1e-12
    )


def test_indefinite_diag_not_positive():
    a = AlgebraElement(M2, (np.diag([1.0, -1.0]).astype(complex),))
    assert a.min_eigenvalue() == pytest.approx(-1.0, abs=1e-15)


def test_min_eigenvalue_reads_the_hermitian_part(rng):
    shape = AlgebraShape((2, 1, 2))
    a = random_element(shape, rng)
    want = np.linalg.eigvalsh((dense(a) + dense(a).conj().T) / 2.0).min()
    assert a.min_eigenvalue() == pytest.approx(want, abs=1e-12)
    skew = AlgebraElement.identity(shape) * 1j
    assert skew.min_eigenvalue() == 0.0


def test_min_eigenvalue_is_the_least_over_all_blocks():
    shape = AlgebraShape((1, 2, 1))
    a = AlgebraElement(shape, ([[3.0]], np.diag([4.0, 5.0]), [[-2.0]]))
    assert a.min_eigenvalue() == pytest.approx(-2.0, abs=1e-15)


def test_state_unital(rng):
    shape = random_shape(rng)
    phi = random_state(shape, rng)
    assert phi(AlgebraElement.identity(shape)) == pytest.approx(1.0, abs=1e-12)


def test_normalized_trace_on_m2():
    phi = normalized_trace(M2)
    a = AlgebraElement(M2, (np.diag([1.0, 3.0]).astype(complex),))
    assert phi(a) == pytest.approx(2.0, abs=1e-14)


def test_point_evaluation_on_indicator():
    for j in range(3):
        phi = block_state(C3, j)
        delta = AlgebraElement.block_unit(C3, j)
        assert phi(delta) == pytest.approx(1.0, abs=1e-15)


def test_vector_state_is_w_star_b_k_w(rng):
    shape = AlgebraShape((2, 1, 2))
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi = State.vector_state(shape, 2, 3.0 * w)
    b = random_element(shape, rng)
    want = np.vdot(w, b.blocks[2] @ w) / np.vdot(w, w).real
    assert phi(b) == pytest.approx(want, abs=1e-12)
    assert phi(AlgebraElement.identity(shape)) == pytest.approx(1.0, abs=1e-12)


def test_vector_state_rejects_a_wrong_length_or_a_zero_vector():
    with pytest.raises(ValueError, match="vector length must match"):
        State.vector_state(M2, 0, np.ones(3))
    with pytest.raises(ValueError, match="zero vector"):
        State.vector_state(M2, 0, np.zeros(2))


def test_state_rejects_an_element_of_another_shape(rng):
    phi = random_state(C2, rng)
    with pytest.raises(ValueError, match="state and element shapes differ"):
        phi(AlgebraElement.identity(M2))


def test_state_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        State(M2, (2.0 * np.eye(2, dtype=complex) / 2.0,))


def test_state_rejects_non_psd():
    with pytest.raises(ValueError):
        State(M2, (np.diag([1.5, -0.5]).astype(complex),))


def test_state_rejects_a_nan_density():
    """NaN passes no cut: a NaN entry fails the Hermitian check of its density."""
    with pytest.raises(StateError, match="density 0 is not Hermitian"):
        State(C2, (np.array([[np.nan]]), np.array([[1.0]])))


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
    """checked_states and State(...) agree on the verdict, the first faulty state, its text and the bytes."""
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
        states = checked_states(shape, stacks)
        assert len(states) == len(single)
        for a, b in zip(states, single):
            assert [s.tobytes() for s in a] == [s.tobytes() for s in b.stacks]
    else:
        with pytest.raises(StateError) as err:
            checked_states(shape, stacks)
        assert (err.value.index, str(err.value)) == first


def trace_totals(shape, stacks):
    """sum_k Re trace(rho_k) of every state of a (count, states, n, n) batch, blocks in order."""
    return block_sum(shape, [np.trace(s, axis1=-2, axis2=-1).real for s in stacks])


@pytest.mark.parametrize("n", range(1, 13))
def test_batched_states_view_their_stacks_with_the_bits_of_copies(n):
    """A spec's states (`SeminormSpec._packed`) hold read-only views of its density stacks, not copies.

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
    system = AdmissibleSystem(tuple(ModuleVector.basis(shape, 5, j) * 0.5 for j in range(5)))
    for i, phi in enumerate(SeminormSpec._packed(system, stacks).states):
        copies = tuple(np.ascontiguousarray(s[:, i]) for s in stacks)
        for view, s in zip(phi.stacks, stacks):
            assert np.shares_memory(view, s) and not view.flags.writeable
        assert totals[i].tobytes() == trace_totals(shape, [c[:, None] for c in copies]).tobytes()
        for a in elements:
            traces = [np.trace(rho @ blk, axis1=-2, axis2=-1) for rho, blk in zip(copies, a.stacks)]
            assert repr(phi(a)) == repr(complex(block_sum(shape, traces)))
