"""The equivalence runner's shared passes give the bits of the separate ones.

`certify_equivalences` takes the tails of the generators and of the
sample from one `Frame.tail_profiles` call on a set packed on stacks
joined along the point axis, condition A forms every generator's part of
the approximant in one batched product, and the C/D approximant is a
view of the stacked span family.  Each is compared here, byte for byte, with the route it
replaced: two tail passes, a loop over the generators, and the members
of `orthogonal_span_family` themselves.  Zero blocks and zero points are
mixed in, and the chunk bound is also taken at one entry, so the zero
skips and the tiles are exercised.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarframes import AlgebraElement, AlgebraShape, Frame, ModuleVector, SampleSet, algebra
from cstarframes.algebra import blockwise_max, spectral_norms
from cstarframes.certify import _coefficient_data, check_condition_cd
from cstarframes.modules import (
    coordinate_blocks,
    orthogonal_span_family,
    span_least_squares,
)

SHAPES = [(1,), (1, 1, 1), (1, 2), (2, 1, 2), (1, 2, 1, 3)]


def _vector(shape, dim, rng, zeros):
    """Random vector; each coordinate block is an exact zero with probability `zeros`."""
    coords = []
    for _ in range(dim):
        blocks = []
        for n in shape.block_dims:
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            blocks.append(np.zeros((n, n)) if rng.random() < zeros else 0.5 * b)
        coords.append(AlgebraElement(shape, blocks))
    return ModuleVector(shape, coords)


def _family(shape, dim, rng, count):
    """count vectors: block-sparse ones, a zero vector and a dense one when there is room."""
    out = [_vector(shape, dim, rng, 0.5) for _ in range(max(0, count - 2))]
    if count >= 2:
        out.append(ModuleVector.zero(shape, dim))
    if count >= 1:
        out.append(_vector(shape, dim, rng, 0.0))
    return out


@contextlib.contextmanager
def tiny_chunks(on):
    with pytest.MonkeyPatch.context() as mp:
        if on:
            mp.setattr(algebra, "CHUNK_ENTRIES", 1)
        yield


cases = st.tuples(
    st.sampled_from(SHAPES), st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(case=cases, gen_count=st.integers(1, 4), point_count=st.integers(0, 6))
def test_joined_tails_equal_two_separate_passes(case, gen_count, point_count):
    dims, dim, seed, tiny = case
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    frame = Frame([_vector(shape, dim, rng, 0.0) for _ in range(dim + 1)])
    gens = SampleSet(_family(shape, dim, rng, gen_count))
    points = SampleSet(_family(shape, dim, rng, point_count))
    parts = zip(gens.realizations, points.in_module(shape, dim))
    with tiny_chunks(tiny):
        joined = frame.tail_profiles(
            SampleSet._packed(shape, dim, [np.concatenate(p, axis=1) for p in parts])
        )
        apart = (frame.tail_profiles(gens), frame.tail_profiles(points))
    assert joined.shape == (gen_count + point_count, frame.size + 1)
    assert joined[:gen_count].tobytes() == apart[0].tobytes()
    assert joined[gen_count:].tobytes() == apart[1].tobytes()


def _looped_approx_norms(sample, generators):
    """max over the blocks of ||sum_i g_i a_i||, the products added one generator at a time."""
    g0 = generators[0]
    gens = SampleSet(generators)
    coeffs, _, _ = span_least_squares(sample, gens)
    per_class = []
    for ak, gk in zip(coeffs, gens.realizations):
        count, points, _, n = ak.shape
        per_coeff = ak.reshape(count, points, len(generators), n, n)
        gen_coords = coordinate_blocks(gk, g0.dim)
        approx = np.zeros((count, points) + gen_coords.shape[2:], complex)
        for i in range(len(generators)):
            approx = approx + gen_coords[:, None, i] @ per_coeff[:, :, i, None]
        per_class.append(spectral_norms(approx.reshape(count, points, g0.dim * n, n)))
    return blockwise_max(g0.shape, per_class)


@settings(max_examples=60, deadline=None)
@given(case=cases, gen_count=st.integers(1, 4), point_count=st.integers(1, 6))
def test_batched_condition_a_approximant_equals_the_generator_loop(case, gen_count, point_count):
    dims, dim, seed, tiny = case
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    sample = SampleSet(tuple(_family(shape, dim, rng, point_count)))
    gens = [_vector(shape, dim, rng, 0.3) for _ in range(gen_count)]
    want = _looped_approx_norms(sample, gens)
    with tiny_chunks(tiny):
        got = _coefficient_data(sample, SampleSet(gens)).approx_norms
    assert np.array(got).tobytes() == np.array(want).tobytes()


def _same_vector(a, b):
    assert len(a.stacks) == len(b.stacks)
    for x, y in zip(a.stacks, b.stacks):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=60, deadline=None)
@given(case=cases, point_count=st.integers(1, 6), eps=st.sampled_from([1e-6, 0.05, 0.3, 1.0]))
def test_cd_approximant_is_a_prefix_of_the_span_family(case, point_count, eps):
    dims, dim, seed, tiny = case
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    sample = SampleSet(tuple(_family(shape, dim, rng, point_count)))
    family = orthogonal_span_family(sample.points)
    with tiny_chunks(tiny):
        cert = check_condition_cd(sample, eps)
    if not cert.verdict:
        assert cert.approximant is None
        return
    rank = cert.witness["rank"]
    assert len(cert.approximant) == rank <= len(family)
    for (z, g), w in zip(cert.approximant, family):
        _same_vector(z, w)
        _same_vector(g, w)
