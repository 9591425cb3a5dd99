"""The realized theta-series against the module-operator route it replaced.

The reference below expands an operator the way `series_decompose` did
before it worked on block realizations: every term is a `theta_op`
operator, the partial sums are chained `ModuleOperator` sums, and each
error is `(op - partial).norm()`.  errors, floor and achieved_rank must
equal the library's with exact ==, and the lazily built pairs must be
the reference's (x_j, T* g_j).
"""

import json

import numpy as np
import pytest

from conftest import random_frame, random_vector
from cstarframes import (
    AlgebraShape,
    Frame,
    ModuleVector,
    serialize,
    series_decompose,
    theta_op,
)
from cstarframes.modules import orthogonal_span_family

SHAPES = [(1,), (2,), (1, 2), (1, 1, 2), (2, 3)]
FRAMES = ["none", "ambient", "range", "off_range"]


def ref_series(op, frame=None, eps=1e-9):
    shape = op.shape
    if frame is None:
        columns = [
            op(ModuleVector.basis(shape, op.source_dim, j)) for j in range(op.source_dim)
        ]
        frame_pairs = [(w, w) for w in orthogonal_span_family(columns)]
    else:
        frame_pairs = list(zip(frame.vectors, frame.canonical_dual()))
    adjoint = op.adjoint()
    pairs = [(x_j, adjoint(g_j)) for x_j, g_j in frame_pairs]
    errors = [op.norm()]
    partial = None
    for x_j, y_j in pairs:
        term = theta_op(x_j, y_j)
        partial = term if partial is None else partial + term
        errors.append((op - partial).norm())
    achieved = next((n for n, err in enumerate(errors) if err < eps), None)
    return errors, errors[-1], achieved, pairs


def random_operator(shape, target_dim, source_dim, terms, rng):
    op = None
    for _ in range(terms):
        t = theta_op(random_vector(shape, target_dim, rng), random_vector(shape, source_dim, rng))
        op = t if op is None else op + t
    return op


def make_frame(kind, op, rng):
    shape, dim = op.shape, op.target_dim
    if kind == "none":
        return None
    if kind == "ambient":
        return random_frame(shape, dim, dim + 2, rng)
    if kind == "range":
        columns = [op(ModuleVector.basis(shape, op.source_dim, j)) for j in range(op.source_dim)]
        return Frame(tuple(orthogonal_span_family(columns)), spanning="range")
    # a frame for a submodule the operator's range is not inside: floor > 0
    return Frame((random_vector(shape, dim, rng),), spanning="range")


def same_vector(a, b):
    return a.dim == b.dim and all(
        a.realize_block(k).tobytes() == b.realize_block(k).tobytes()
        for k in range(a.shape.num_blocks)
    )


@pytest.mark.parametrize("frame_kind", FRAMES)
@pytest.mark.parametrize("dims", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_series_equals_the_operator_route(dims, frame_kind, seed):
    rng = np.random.default_rng([seed, len(dims), sum(dims), FRAMES.index(frame_kind)])
    shape = AlgebraShape(dims)
    target_dim = int(rng.integers(2, 4))
    op = random_operator(shape, target_dim, target_dim, int(rng.integers(1, 3)), rng)
    frame = make_frame(frame_kind, op, rng)
    errors, floor, achieved, pairs = ref_series(op, frame)
    dec = series_decompose(op, frame=frame)
    assert list(dec.errors) == errors
    assert dec.floor == floor
    assert dec.achieved_rank == achieved
    assert len(dec.pairs) == len(pairs)
    for (x, y), (ref_x, ref_y) in zip(dec.pairs, pairs):
        assert same_vector(x, ref_x) and same_vector(y, ref_y)
    if frame_kind == "off_range":
        assert dec.floor > 0 and dec.achieved_rank is None
    else:
        assert dec.achieved_rank is not None


@pytest.mark.parametrize("dims", SHAPES)
@pytest.mark.parametrize("frame_kind", ["none", "ambient", "off_range"])
def test_series_of_a_non_square_operator(dims, frame_kind):
    rng = np.random.default_rng([7, len(dims), sum(dims)])
    shape = AlgebraShape(dims)
    op = random_operator(shape, 3, 2, 2, rng)
    frame = make_frame(frame_kind, op, rng)
    errors, floor, achieved, _ = ref_series(op, frame, eps=1e-6)
    dec = series_decompose(op, frame=frame, eps=1e-6)
    assert (list(dec.errors), dec.floor, dec.achieved_rank) == (errors, floor, achieved)
    assert all(x.dim == 3 and y.dim == 2 for x, y in dec.pairs)


def test_series_of_the_zero_operator_has_no_terms():
    shape = AlgebraShape((1, 2))
    op = theta_op(ModuleVector.zero(shape, 2), ModuleVector.zero(shape, 2))
    dec = series_decompose(op)
    assert dec.errors == (0.0,) and dec.floor == 0.0 and dec.achieved_rank == 0
    assert dec.pairs == ()
    assert dec.to_json_dict()["rank_count"] == 0


@pytest.mark.parametrize(
    "frame_dims, frame_dim", [((1, 2), 3), ((2, 1), 2), ((1,), 2)]
)
def test_series_rejects_a_frame_of_another_module(frame_dims, frame_dim):
    rng = np.random.default_rng(11)
    op = random_operator(AlgebraShape((1, 2)), 2, 2, 1, rng)
    frame = random_frame(AlgebraShape(frame_dims), frame_dim, frame_dim, rng)
    with pytest.raises(ValueError) as err:
        series_decompose(op, frame=frame)
    assert str(err.value) == "operator/vector dimension mismatch"


def test_series_pairs_are_built_only_when_read():
    rng = np.random.default_rng(3)
    shape = AlgebraShape((1, 2))
    op = random_operator(shape, 2, 2, 2, rng)
    dec = series_decompose(op, frame=random_frame(shape, 2, 3, rng))
    doc = json.loads(serialize(dec))
    assert doc["rank_count"] == 3
    assert "pairs" not in vars(dec)
    assert len(dec.pairs) == 3 and "pairs" in vars(dec)
