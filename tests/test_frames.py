"""Frames: analysis/synthesis operators, bounds, duals, partial sums.

Frozen oracle: the family {e1, e1, e2} on A^2 has gram realization
diag(2, 1) per block, so its optimal bounds are exactly (1, 2).
"""

from operator import attrgetter

import numpy as np
import pytest

from conftest import (
    analysis_operator,
    compose,
    random_element,
    random_frame,
    random_shape,
    random_vector,
)
from cstarframes import (
    AlgebraElement,
    AlgebraShape,
    DegenerateFrameError,
    Frame,
    ModuleOperator,
    ModuleVector,
    SampleSet,
    inner_product,
    standard_basis_frame,
)
from cstarframes.modules import gram_block

C2 = AlgebraShape((1, 1))
M2 = AlgebraShape((2,))


def gram_operator(fr):
    """S = Theta* Theta as a module operator."""
    theta = analysis_operator(fr)
    return compose(theta.adjoint(), theta)


def partial_sum_factored(fr, indices):
    """P_J' through Theta* pi_J' Theta S^(-1): the proof's route.

    pi_J' Theta keeps the rows of Theta that belong to J' and zeroes the others.
    """
    keep = np.zeros(fr.size, bool)
    keep[list(indices)] = True
    theta = analysis_operator(fr)
    selected = theta._with(
        np.where(np.repeat(keep, s.shape[-1] // fr.dim)[:, None], s, 0.0) for s in theta.stacks
    )
    gram = gram_operator(fr)
    inverses = tuple(np.linalg.inv(s) for s in gram.stacks)
    gram_inverse = ModuleOperator._packed(fr.shape, fr.dim, fr.dim, inverses)
    return compose(compose(theta.adjoint(), selected), gram_inverse)


def test_standard_basis_analysis_is_identity(rng):
    shape = random_shape(rng)
    fr = standard_basis_frame(shape, 3)
    x = random_vector(shape, 3, rng)
    assert (analysis_operator(fr)(x) - x).norm() <= 1e-14


def test_scaled_singleton_gram():
    x = ModuleVector.basis(C2, 1, 0) * 2.0
    fr = Frame((x,))
    ident = AlgebraElement.identity(C2)
    gram_on_e = gram_operator(fr)(ModuleVector.basis(C2, 1, 0))
    assert (gram_on_e.coords[0] - ident * 4.0).norm() <= 1e-14
    assert fr.bounds == (pytest.approx(4.0, abs=1e-12), pytest.approx(4.0, abs=1e-12))


def test_repeated_basis_bounds_frozen():
    e1 = ModuleVector.basis(M2, 2, 0)
    e2 = ModuleVector.basis(M2, 2, 1)
    fr = Frame((e1, e1, e2))
    c1, c2 = fr.bounds
    assert c1 == pytest.approx(1.0, abs=1e-12)
    assert c2 == pytest.approx(2.0, abs=1e-12)


def test_analysis_preserves_gram_sum(rng):
    shape = random_shape(rng)
    fr = random_frame(shape, 2, 4, rng)
    x = random_vector(shape, 2, rng)
    theta = analysis_operator(fr)
    lhs = inner_product(theta(x), theta(x))
    rhs = AlgebraElement.zero(shape)
    for v in fr.vectors:
        ip = inner_product(x, v)
        rhs = rhs + ip * ip.adjoint()
    assert (lhs - rhs).norm() <= 1e-10 * max(1.0, x.norm() ** 2)


def test_frame_inequality_element(rng):
    shape = random_shape(rng)
    fr = random_frame(shape, 2, 4, rng)
    c1, c2 = fr.bounds
    x = random_vector(shape, 2, rng)
    gram_sum = AlgebraElement.zero(shape)
    for v in fr.vectors:
        ip = inner_product(x, v)
        gram_sum = gram_sum + ip * ip.adjoint()
    xx = inner_product(x, x)
    scale = max(1.0, c2 * x.norm() ** 2)
    upper = xx * c2 - gram_sum
    lower = gram_sum - xx * c1
    assert upper.min_eigenvalue() >= -1e-8 * scale
    assert lower.min_eigenvalue() >= -1e-8 * scale


def test_parseval_dual_is_itself(rng):
    shape = random_shape(rng)
    fr = standard_basis_frame(shape, 3)
    for v, g in zip(fr.vectors, fr.canonical_dual()):
        assert (v - g).norm() <= 1e-13


def test_scaled_singleton_dual():
    fr = Frame((ModuleVector.basis(C2, 1, 0) * 2.0,))
    (g,) = fr.canonical_dual()
    assert (g - ModuleVector.basis(C2, 1, 0) * 0.5).norm() <= 1e-14


def test_random_reconstruction_residual(rng):
    for _ in range(10):
        shape = random_shape(rng)
        fr = random_frame(shape, 2, 5, rng)
        x = random_vector(shape, 2, rng)
        assert (x - fr.reconstruct(x)).norm() <= 1e-9 * max(1.0, x.norm())


def test_partial_sum_full_and_empty(rng):
    shape = random_shape(rng)
    fr = random_frame(shape, 2, 4, rng)
    full = fr.partial_sum_op(range(fr.size))
    x = random_vector(shape, 2, rng)
    assert (full(x) - x).norm() <= 1e-9 * max(1.0, x.norm())
    empty = fr.partial_sum_op(())
    assert empty.norm() == 0.0


def test_partial_sum_norm_bound(rng):
    for _ in range(5):
        shape = random_shape(rng)
        fr = random_frame(shape, 2, 5, rng)
        c1, c2 = fr.bounds
        indices = [i for i in range(fr.size) if rng.random() < 0.5]
        assert fr.partial_sum_op(indices).norm() <= c2 / c1 + 1e-8


def test_partial_sum_factored_route_agrees(rng):
    shape = random_shape(rng)
    fr = random_frame(shape, 2, 5, rng)
    indices = (0, 2, 3)
    direct = fr.partial_sum_op(indices)
    factored = partial_sum_factored(fr, indices)
    assert (direct - factored).norm() <= 1e-9 * max(1.0, direct.norm())


def test_tail_at_full_size_is_zero(rng):
    shape = random_shape(rng)
    fr = random_frame(shape, 2, 4, rng)
    x = random_vector(shape, 2, rng)
    assert fr.reconstruction_tail(x, fr.size) <= 1e-9 * max(1.0, x.norm())


def test_tail_matches_partial_sum_difference(rng):
    shape = random_shape(rng)
    fr = random_frame(shape, 2, 4, rng)
    x = random_vector(shape, 2, rng)
    for n in range(fr.size + 1):
        via_op = (x - fr.partial_sum_op(range(n))(x)).norm()
        assert fr.reconstruction_tail(x, n) == pytest.approx(via_op, abs=1e-11)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dims", [(1, 1), (2,), (1, 2, 3), (2, 2)])
def test_tail_matches_reconstruct_route(seed, dims):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    ambient = random_frame(shape, 3, 5, rng)
    span = Frame(
        (random_vector(shape, 3, rng), random_vector(shape, 3, rng)),
        spanning="range",
    )
    for fr in (ambient, span):
        x = random_vector(shape, 3, rng)
        for n in range(fr.size + 1):
            via_objects = (x - fr.reconstruct(x, range(n))).norm()
            assert fr.reconstruction_tail(x, n) == pytest.approx(via_objects, rel=1e-12)
        for n in (-1, fr.size + 1):
            with pytest.raises(ValueError, match="out of range"):
                fr.reconstruction_tail(x, n)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dims", [(1, 1), (2,), (1, 2, 3), (2, 2)])
def test_tail_profile_is_every_reconstruction_tail(seed, dims):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    ambient = random_frame(shape, 3, 5, rng)
    span = Frame(
        (random_vector(shape, 3, rng), random_vector(shape, 3, rng)),
        spanning="range",
    )
    for fr in (ambient, span):
        x = random_vector(shape, 3, rng)
        profile = fr.tail_profile(x)
        assert len(profile) == fr.size + 1
        for n, tail in enumerate(profile):
            assert tail == fr.reconstruction_tail(x, n)


def test_reconstruct_rejects_other_module_for_every_index_list(rng):
    """x is read in the frame's module whatever the index list, the empty one included."""
    fr = random_frame(C2, 2, 3, rng)
    for other in (random_vector(C2, 3, rng), random_vector(M2, 2, rng)):
        for indices in (None, (), [1, 1, 0]):
            with pytest.raises(ValueError, match="different modules"):
                fr.reconstruct(other, indices)


def test_tail_profile_rejects_other_module(rng):
    fr = random_frame(C2, 2, 3, rng)
    with pytest.raises(ValueError, match="different modules"):
        fr.tail_profile(random_vector(C2, 3, rng))


@pytest.mark.parametrize("seed", range(4))
def test_blockwise_gram_matches_operator_product(seed):
    """S_k from the coordinate blocks equals the realized Theta* @ Theta."""
    rng = np.random.default_rng(seed)
    shape = AlgebraShape((1, 2, 3))
    ambient = random_frame(shape, 3, 6, rng)
    span = Frame(
        (random_vector(shape, 3, rng), random_vector(shape, 3, rng)),
        spanning="range",
    )
    for fr in (ambient, span):
        gram = gram_operator(fr)
        grams = [gram_block(x, x, fr.dim) for x in fr._family.realizations]
        for k, (c, j) in enumerate(shape.slots):
            via_operator = gram.realize_block(k)
            assert grams[c][j].shape == via_operator.shape
            assert grams[c][j].tobytes() == via_operator.tobytes()


def _stack_bytes(stacks):
    return [(s.shape, s.dtype, s.tobytes()) for s in stacks]


@pytest.mark.parametrize(
    "dims, dim",
    [((1, 2, 1, 3, 2), d) for d in range(1, 13)]
    + [((1,) * 13, d) for d in range(1, 13)]
    + [((1,) * 171, 170)],
)
def test_standard_basis_frame_is_the_generic_frame_bit_for_bit(dims, dim):
    """The closed form stores exactly what Frame.__init__ computes for {e_j}."""
    shape = AlgebraShape(dims)
    closed = standard_basis_frame(shape, dim)
    generic = Frame([ModuleVector.basis(shape, dim, j) for j in range(dim)])
    for name in ("_family.realizations", "_dual.realizations"):
        assert _stack_bytes(attrgetter(name)(closed)) == _stack_bytes(attrgetter(name)(generic)), name
    assert not any(s.flags.writeable for s in closed._family.realizations + closed._dual.realizations)
    assert closed.bounds == generic.bounds == (1.0, 1.0)
    assert repr(closed) == repr(generic)
    for family in ((closed.vectors, generic.vectors), (closed.canonical_dual(), generic.canonical_dual())):
        for a, b in zip(*family, strict=True):
            assert _stack_bytes(a.stacks) == _stack_bytes(b.stacks)
    rng = np.random.default_rng(dim)
    points = [random_vector(shape, dim, rng), ModuleVector.zero(shape, dim)]
    points.append(points[0].restrict(0, (dim + 1) // 2))
    sample = SampleSet(points)
    assert closed.tail_profiles(sample).tobytes() == generic.tail_profiles(sample).tobytes()
    for indices in (None, range(0, dim, 2)):
        got, want = closed.reconstruct(points[0], indices), generic.reconstruct(points[0], indices)
        assert _stack_bytes(got.stacks) == _stack_bytes(want.stacks)


def test_standard_basis_frame_needs_a_coordinate():
    with pytest.raises(ValueError, match="at least one vector"):
        standard_basis_frame(C2, 0)


def test_degenerate_frame_rejected():
    with pytest.raises(DegenerateFrameError, match="eigenvalue"):
        Frame((ModuleVector.basis(C2, 2, 0),))


def test_range_frame_on_proper_submodule(rng):
    shape = random_shape(rng)
    x = random_vector(shape, 3, rng)
    fr = Frame((x,), spanning="range")
    c1, c2 = fr.bounds
    assert c1 > 0
    assert c2 >= c1
    z = x * random_element(shape, rng)
    assert (z - fr.reconstruct(z)).norm() <= 1e-9 * max(1.0, z.norm())


def test_range_frame_of_zero_vector_rejected(rng):
    shape = random_shape(rng)
    with pytest.raises(DegenerateFrameError):
        Frame((ModuleVector.zero(shape, 2),), spanning="range")


def test_bounds_are_attained(rng):
    """Optimality: some unit x pushes the gram action to each bound."""
    shape = random_shape(rng)
    fr = random_frame(shape, 2, 5, rng)
    c1, c2 = fr.bounds
    lo_seen = np.inf
    hi_seen = 0.0
    gram = gram_operator(fr)
    for _ in range(200):
        x = random_vector(shape, 2, rng)
        x = x / max(x.norm(), 1e-12)
        val = inner_product(x, gram(x)).norm()
        lo_seen = min(lo_seen, val)
        hi_seen = max(hi_seen, val)
    assert hi_seen <= c2 + 1e-8
    assert c1 <= lo_seen + c2  # sanity: c1 is a lower spectral point
    assert hi_seen >= 0.3 * c2  # random sampling should get within reach


@pytest.mark.parametrize("spanning", ["ambient", "range"])
@pytest.mark.parametrize("seed", range(4))
def test_a_frame_of_a_sample_set_is_the_frame_of_its_vectors(spanning, seed):
    """Frame(SampleSet) on a stacked or a packed set stores what Frame(vectors) stores, bit for bit."""
    rng = np.random.default_rng(seed)
    shape = random_shape(rng)
    dim = int(rng.integers(1, 4))
    size = dim + int(rng.integers(0, 3)) if spanning == "ambient" else int(rng.integers(1, dim + 1))
    vectors = [random_vector(shape, dim, rng) for _ in range(size)]
    stacks = SampleSet(vectors).realizations
    frames = [
        Frame(vectors, spanning),
        Frame(SampleSet(vectors), spanning),
        Frame(SampleSet._packed(shape, dim, [s.copy() for s in stacks]), spanning),
    ]
    points = SampleSet([random_vector(shape, dim, rng) for _ in range(3)])
    want = frames[0]
    for got in frames[1:]:
        for name in ("_family.realizations", "_dual.realizations"):
            assert _stack_bytes(attrgetter(name)(got)) == _stack_bytes(attrgetter(name)(want)), name
        assert got.bounds == want.bounds and got.size == want.size == size
        for a, b in zip(got.canonical_dual(), want.canonical_dual(), strict=True):
            assert _stack_bytes(a.stacks) == _stack_bytes(b.stacks)
        assert got.tail_profiles(points).tobytes() == want.tail_profiles(points).tobytes()
    assert frames[0].vectors == tuple(vectors)


def test_a_frame_needs_a_member_in_every_form():
    for family in ((), SampleSet(()), SampleSet._packed(C2, 2, SampleSet(()).in_module(C2, 2))):
        with pytest.raises(ValueError, match="at least one vector"):
            Frame(family)
