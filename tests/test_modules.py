"""Module vectors, inner products, operators, and submodule geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    compose,
    random_element,
    random_shape,
    random_vector,
)
from cstarframes import (
    AlgebraElement,
    AlgebraShape,
    CertifyConfig,
    ModuleOperator,
    ModuleVector,
    SampleSet,
    certify_equivalences,
    inner_product,
    orthogonal_span_family,
    submodule_distance,
    theta_op,
)
from cstarframes.modules import _support_normalized, span_least_squares

C2 = AlgebraShape((1, 1))


def test_basis_inner_products(rng):
    shape = random_shape(rng)
    dim = 3
    ident = AlgebraElement.identity(shape)
    zero = AlgebraElement.zero(shape)
    for i in range(dim):
        for j in range(dim):
            got = inner_product(
                ModuleVector.basis(shape, dim, i), ModuleVector.basis(shape, dim, j)
            )
            want = ident if i == j else zero
            assert (got - want).norm() == 0.0


def test_inner_product_of_scaled_basis(rng):
    shape = random_shape(rng)
    a = random_element(shape, rng)
    x = ModuleVector.basis(shape, 2, 0) * a
    assert (inner_product(x, x) - a.adjoint() * a).norm() <= 1e-13 * max(1, a.norm()) ** 2


def test_inner_product_conjugate_linear_first_argument(rng):
    shape = random_shape(rng)
    a = random_element(shape, rng)
    x = random_vector(shape, 2, rng)
    y = random_vector(shape, 2, rng)
    scale = max(1.0, x.norm() * y.norm() * a.norm())
    left = inner_product(x * a, y)
    assert (left - a.adjoint() * inner_product(x, y)).norm() <= 1e-12 * scale
    right = inner_product(x, y * a)
    assert (right - inner_product(x, y) * a).norm() <= 1e-12 * scale


def test_cauchy_schwarz(rng):
    for _ in range(25):
        shape = random_shape(rng)
        x = random_vector(shape, 2, rng)
        y = random_vector(shape, 2, rng)
        assert inner_product(x, y).norm() <= x.norm() * y.norm() + 1e-10


def test_basis_norm_one(rng):
    shape = random_shape(rng)
    for j in range(3):
        assert ModuleVector.basis(shape, 3, j).norm() == pytest.approx(1.0, abs=1e-14)


def test_vector_norm_matches_stacked_realization(rng):
    shape = random_shape(rng)
    x = random_vector(shape, 3, rng)
    want = max(
        np.linalg.norm(x.realize_block(k), ord=2) for k in range(shape.num_blocks)
    )
    assert x.norm() == pytest.approx(want, abs=1e-12)


def test_identity_operator(rng):
    shape = random_shape(rng)
    x = random_vector(shape, 3, rng)
    ident = ModuleOperator.identity(shape, 3)
    assert (ident(x) - x).norm() == 0.0
    assert ident.norm() == pytest.approx(1.0, abs=1e-12)


def test_theta_adjoint_swaps_arguments(rng):
    shape = random_shape(rng)
    x = random_vector(shape, 3, rng)
    y = random_vector(shape, 3, rng)
    diff = theta_op(x, y).adjoint() - theta_op(y, x)
    assert diff.norm() <= 1e-12 * max(1.0, x.norm() * y.norm())


def test_adjoint_pairing_identity(rng):
    shape = random_shape(rng)
    op = ModuleOperator(
        shape,
        tuple(
            tuple(random_element(shape, rng) for _ in range(3)) for _ in range(2)
        ),
    )
    x = random_vector(shape, 3, rng)
    y = random_vector(shape, 2, rng)
    lhs = inner_product(op.adjoint()(y), x)
    rhs = inner_product(y, op(x))
    assert (lhs - rhs).norm() <= 1e-10 * max(1.0, op.norm() * x.norm() * y.norm())


def test_operator_norm_upper_bounds_sampled_ratios(rng):
    shape = random_shape(rng)
    op = ModuleOperator(
        shape,
        tuple(tuple(random_element(shape, rng) for _ in range(3)) for _ in range(3)),
    )
    bound = op.norm()
    for _ in range(20):
        x = random_vector(shape, 3, rng)
        assert op(x).norm() <= bound * x.norm() + 1e-10


def test_theta_action_replay(rng):
    shape = random_shape(rng)
    x = random_vector(shape, 3, rng)
    y = random_vector(shape, 3, rng)
    z = random_vector(shape, 3, rng)
    got = theta_op(x, y)(z)
    want = x * inner_product(y, z)
    assert (got - want).norm() <= 1e-11 * max(1.0, x.norm() * y.norm() * z.norm())


def test_parseval_resolution_of_identity(rng):
    shape = random_shape(rng)
    dim = 3
    total = None
    for j in range(dim):
        e = ModuleVector.basis(shape, dim, j)
        t = theta_op(e, e)
        total = t if total is None else total + t
    assert (total - ModuleOperator.identity(shape, dim)).norm() <= 1e-13


def _support_normalize(v):
    """w = v (<v,v>^+)^(1/2), one Gram-Schmidt step on v alone."""
    return v._with(_support_normalized(v.stacks, v.norm()))


def test_support_normalization_gives_a_support_projection(rng):
    shape = random_shape(rng)
    v = random_vector(shape, 3, rng)
    w = _support_normalize(v)
    gram = inner_product(w, w)
    assert (gram * gram - gram).norm() <= 1e-10
    assert (w * gram - w).norm() <= 1e-10


def test_gram_schmidt_orthogonality_and_reproduction(rng):
    shape = random_shape(rng)
    vecs = [random_vector(shape, 3, rng) for _ in range(3)]
    family = orthogonal_span_family(vecs)
    for i, wi in enumerate(family):
        for j, wj in enumerate(family):
            if i != j:
                assert inner_product(wi, wj).norm() <= 1e-9
    for z in vecs:
        recon = ModuleVector.zero(shape, 3)
        for w in family:
            recon = recon + w * inner_product(w, z)
        assert (z - recon).norm() <= 1e-9 * max(1.0, z.norm())


def test_distance_zero_inside_span(rng):
    shape = random_shape(rng)
    gens = [random_vector(shape, 3, rng) for _ in range(2)]
    x = gens[0] * random_element(shape, rng) + gens[1] * random_element(shape, rng)
    dist, coeffs = submodule_distance(x, gens)
    assert dist <= 1e-10 * max(1.0, x.norm())
    recon = gens[0] * coeffs[0] + gens[1] * coeffs[1]
    assert (x - recon).norm() <= 1e-10 * max(1.0, x.norm())


def test_distance_exact_on_orthogonal_offsets(rng):
    shape = random_shape(rng)
    a = random_element(shape, rng)
    b = random_element(shape, rng)
    x = ModuleVector.basis(shape, 3, 0) * a + ModuleVector.basis(shape, 3, 1) * b
    dist, _ = submodule_distance(x, [ModuleVector.basis(shape, 3, 0)])
    assert dist == pytest.approx(b.norm(), abs=1e-12)


def _projection_residual(x, generators):
    """max_k ||(I - P_k) X_k||_2 with P_k the projection onto range(G_k), via SVD."""
    worst = 0.0
    for k in range(x.shape.num_blocks):
        gk = np.hstack([g.realize_block(k) for g in generators])
        u, sv, _ = np.linalg.svd(gk, full_matrices=False)
        u = u[:, sv > 1e-12 * sv.max()]
        xk = x.realize_block(k)
        worst = max(worst, float(np.linalg.norm(xk - u @ (u.conj().T @ xk), 2)))
    return worst


@settings(max_examples=60, deadline=None)
@given(
    dims=st.sampled_from([(2,), (1, 2), (2, 2)]),
    dim=st.integers(1, 3),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    step=st.sampled_from([1e-6, 1e-3, 0.3]),
)
def test_submodule_distance_is_exact_on_noncommutative_shapes(dims, dim, count, seed, step):
    """The residual is min over all coefficients, for matrix blocks too.

    It equals ||(I - P_k) X_k||_2 computed independently, and no
    perturbation of the returned coefficients gives a smaller residual.
    """
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    gens = [random_vector(shape, dim, rng) for _ in range(count)]
    x = random_vector(shape, dim, rng)
    dist, coeffs = submodule_distance(x, gens)
    scale = 1.0 + x.norm()
    assert dist == pytest.approx(_projection_residual(x, gens), rel=1e-9, abs=1e-12 * scale)
    for _ in range(4):
        approx = ModuleVector.zero(shape, dim)
        for g, c in zip(gens, coeffs):
            approx = approx + g * (c + random_element(shape, rng, step))
        assert (x - approx).norm() >= dist - 1e-12 * scale


def test_the_synthesis_inverse_bound_of_a_basis_is_one(rng):
    shape = random_shape(rng)
    gens = [ModuleVector.basis(shape, 3, j) for j in range(3)]
    assert span_least_squares(SampleSet(()), SampleSet(tuple(gens)))[2] == pytest.approx(1.0, abs=1e-12)


def test_operator_composition_matches_action(rng):
    shape = random_shape(rng)
    op1 = ModuleOperator(
        shape,
        tuple(tuple(random_element(shape, rng) for _ in range(2)) for _ in range(2)),
    )
    op2 = ModuleOperator(
        shape,
        tuple(tuple(random_element(shape, rng) for _ in range(2)) for _ in range(2)),
    )
    x = random_vector(shape, 2, rng)
    assert (compose(op1, op2)(x) - op1(op2(x))).norm() <= 1e-10 * max(1.0, x.norm())


def test_restrict_window(rng):
    shape = random_shape(rng)
    x = random_vector(shape, 4, rng)
    win = x.restrict(1, 3)
    assert win.coords[0].norm() == 0.0
    assert (win.coords[1] - x.coords[1]).norm() == 0.0
    assert (win.coords[2] - x.coords[2]).norm() == 0.0
    assert win.coords[3].norm() == 0.0


def _operands(rng):
    """Elements, vectors and operators over one shape."""
    shape = AlgebraShape((1, 2, 2))
    ops = [
        ModuleOperator(shape, tuple(tuple(random_element(shape, rng) for _ in range(s)) for _ in range(t)))
        for t, s in ((2, 3), (2, 3), (3, 2))
    ]
    return dict(
        a=random_element(shape, rng), b=random_element(shape, rng),
        x=random_vector(shape, 3, rng), y=random_vector(shape, 3, rng),
        x1=random_vector(shape, 1, rng), y2=random_vector(shape, 2, rng),
        op=ops[0], op2=ops[1], op_t=ops[2],
    )


def _dims(value):
    if isinstance(value, ModuleOperator):
        return (value.target_dim, value.source_dim)
    return (value.dim,) if isinstance(value, ModuleVector) else ()


@pytest.mark.parametrize(
    "expr, cls, dims",
    [
        ("x * a", ModuleVector, (3,)),
        ("x1 * a", ModuleVector, (1,)),
        ("x1 * 2.0", ModuleVector, (1,)),
        ("x1 / 2.0", ModuleVector, (1,)),
        ("-x1", ModuleVector, (1,)),
        ("x - y", ModuleVector, (3,)),
        ("a * b", AlgebraElement, ()),
        ("2.0 * a", AlgebraElement, ()),
        ("a - b", AlgebraElement, ()),
        ("a.adjoint()", AlgebraElement, ()),
        ("inner_product(x, y)", AlgebraElement, ()),
        ("inner_product(x1, x1)", AlgebraElement, ()),
        ("op(x)", ModuleVector, (2,)),
        ("op.adjoint()", ModuleOperator, (3, 2)),
        ("op * 2.0", ModuleOperator, (2, 3)),
        ("op - op2", ModuleOperator, (2, 3)),
        ("-op", ModuleOperator, (2, 3)),
    ],
)
def test_the_shared_arithmetic_keeps_each_result_type(rng, expr, cls, dims):
    value = eval(expr, {"inner_product": inner_product}, _operands(rng))
    assert type(value) is cls
    assert _dims(value) == dims


@pytest.mark.parametrize(
    "expr, message",
    [
        ("x + y2", "module vectors live in different modules"),
        ("x - y2", "module vectors live in different modules"),
        ("x1 + a", "module vectors live in different modules"),
        ("op + op_t", "operator sum dimension mismatch"),
        ("op - op_t", "operator sum dimension mismatch"),
    ],
)
def test_a_mismatched_sum_keeps_its_class_message(rng, expr, message):
    """The vector and operator cases; test_algebra.py covers the element's "shape mismatch"."""
    with pytest.raises(ValueError, match=message):
        eval(expr, {}, _operands(rng))


def test_one_stored_form_and_one_difference(rng):
    """A vector stacks its coordinates as the one-column operator does, and every `-` is a - b.

    p + q * (-1) is not p - q: for p = -0 and q = -0.5i the real part of
    p - q is -0, that of p + q * (-1) is +0.
    """
    env = _operands(rng)
    shape, coords = env["x"].shape, env["x"].coords
    column = ModuleOperator(shape, [[c] for c in coords])
    for c, (n, ks) in enumerate(shape.classes):
        want = np.stack([e.stacks[c] for e in coords], axis=1).reshape(len(ks), 3 * n, n)
        assert env["x"].stacks[c].tobytes() == column.stacks[c].tobytes() == want.tobytes()
    zero = AlgebraElement(shape, [np.full((n, n), complex(-0.0, 0.0)) for n in shape.block_dims])
    tilted = AlgebraElement(shape, [np.full((n, n), complex(0.0, -0.5)) for n in shape.block_dims])
    signed = (ModuleOperator(shape, [[zero]]), ModuleOperator(shape, [[tilted]]))
    for p, q in ((env["a"], env["b"]), (env["x"], env["y"]), (env["op"], env["op2"]), signed):
        for s, t, d in zip(p.stacks, q.stacks, (p - q).stacks):
            assert d.tobytes() == (s - t).tobytes()
    assert math.copysign(1.0, (signed[0] - signed[1]).stacks[0][0, 0, 0].real) == -1.0


@pytest.mark.parametrize("seed", range(4))
def test_span_family_of_a_sample_set_is_the_span_family_of_its_vectors(seed):
    """The same members, bit for bit, from a list, a SampleSet and a packed SampleSet; dropped inputs included."""
    rng = np.random.default_rng(seed)
    shape = random_shape(rng)
    vecs = [random_vector(shape, 3, rng) for _ in range(3)]
    vecs.insert(1, vecs[0] * 2.0)  # reproduced by the first member: dropped
    stacks = SampleSet(vecs).realizations
    families = [
        orthogonal_span_family(vecs),
        orthogonal_span_family(SampleSet(vecs)),
        orthogonal_span_family(SampleSet._packed(shape, 3, stacks)),
    ]
    want = families[0]
    assert isinstance(want, SampleSet) and len(want) == 3
    for got in families[1:]:
        assert [s.tobytes() for s in got.realizations] == [s.tobytes() for s in want.realizations]
        for a, b in zip(got, want, strict=True):
            assert [s.tobytes() for s in a.stacks] == [s.tobytes() for s in b.stacks]
    assert [s.tobytes() for s in stacks] == [s.tobytes() for s in SampleSet(vecs).realizations]
    assert not any(s.flags.writeable for s in want.realizations)
    assert len(orthogonal_span_family([])) == 0


def test_span_family_owns_exactly_its_members(rng):
    """64 points spanning 2 members of A^3 over (1, 2): the stacks hold those 2 members, not 64."""
    shape = AlgebraShape((1, 2))
    u, v = random_vector(shape, 3, rng), random_vector(shape, 3, rng)
    points = [u, v] + [u * random_element(shape, rng) + v * random_element(shape, rng) for _ in range(62)]
    family = orthogonal_span_family(points)
    assert len(family) == 2
    assert [s.shape for s in family.realizations] == [(1, 2, 3, 1), (1, 2, 6, 2)]
    assert all(s.base is None and s.flags.owndata for s in family.realizations)


def _overflow_points(s):
    """Two points of A^2 over (1, 2) with block entries {1, 2, 3} * s."""
    shape = AlgebraShape((1, 2))

    def element(a, diag):
        return AlgebraElement(shape, [[[a * s]], np.diag(diag) * s])

    return [
        ModuleVector(shape, [element(1.0, [1.0, 1.0]), AlgebraElement.zero(shape)]),
        ModuleVector(shape, [element(2.0, [1.0, 3.0]), element(1.0, [0.0, 0.0])]),
    ]


@pytest.mark.parametrize("s", [1e160, 1e200])
def test_gram_schmidt_scales_a_residual_whose_gram_overflows(s):
    """||x||^2 passes the float range: each step runs on x 2^-e, and the family is the same.

    Without the scaling the grams overflow to inf and NaN (a RuntimeWarning,
    an error here), and the family built from them reproduces nothing.
    """
    points = _overflow_points(s)
    family = orthogonal_span_family(points)
    assert len(family) == 2
    report = certify_equivalences(SampleSet(points), CertifyConfig(eps_grid=(s * 1e-6,)))
    entry = report.entries[0]
    assert entry.cert_a.verdict and entry.cert_cd.verdict and not entry.violations
    assert entry.cert_cd.witness["rank"] == 2
    assert entry.cert_cd.diagnostics["error_profile"][-1] <= 1e-12 * s
    for w in family:
        gram = inner_product(w, w)
        assert (gram * gram - gram).norm() <= 1e-12
        assert (w * gram - w).norm() <= 1e-12
    for x in points:
        recon = ModuleVector.zero(x.shape, 2)
        for w in family:
            recon = recon + w * inner_product(w, x)
        assert (x - recon).norm() <= 1e-12 * x.norm()

    # the step on a vector above the limit is the step on its exact power-of-two scaling
    for x in points:
        e = math.frexp(x.norm())[1]
        assert e > 500
        got, want = _support_normalize(x), _support_normalize(x * math.ldexp(1.0, -e))
        assert [a.tobytes() for a in got.stacks] == [b.tobytes() for b in want.stacks]
