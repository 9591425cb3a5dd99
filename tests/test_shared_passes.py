"""The equivalence runner's shared passes give the bits of the separate ones.

`certify_equivalences` takes the tails of the generators and of the
sample from one `Frame.tail_profiles` call on a set packed on stacks
joined along the point axis, condition A forms every generator's part of
the approximant in one batched product, and the C/D approximant is a
view of the stacked span family.  Each is compared here, byte for byte, with the route it
replaced: two tail passes, a loop over the generators, and the members
of `orthogonal_span_family` themselves.  Zero blocks and zero points are
mixed in, and the chunk bound is also taken at one entry, so the zero
skips and the tiles are exercised.  The span family itself, which decides
its drops and cuts from one eigh per step, is compared with the
SVD-decided loop it replaced.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarframes import AlgebraElement, AlgebraShape, Frame, ModuleVector, SampleSet, algebra
from cstarframes.algebra import blockwise_max, hermitian_part, spectral_norms
from cstarframes.certify import _coefficient_data, check_condition_cd
from cstarframes.modules import (
    coordinate_blocks,
    orthogonal_span_family,
    span_least_squares,
)
from cstarframes.tolerances import PINV_RTOL, SPAN_DROP_RTOL

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
    return blockwise_max(per_class)


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


def svd_decided_span_family(family):
    """Module Gram-Schmidt with the drop and the support cut decided by SVD.

    The residual r drops when its largest singular value, the largest over
    its blocks, is at most SPAN_DROP_RTOL * max(1, ||x||), and the cut is
    PINV_RTOL times the largest singular value of <r,r>.  The gram, its
    eigh, the normalization and the updates are the arithmetic of
    `orthogonal_span_family`.
    """
    residuals = [s.copy() for s in family.realizations]
    members = [np.empty_like(s) for s in residuals]
    size = 0
    for i, norm in enumerate(family.point_norms):
        r = [s[:, i] for s in residuals]
        if max(float(spectral_norms(rk).max()) for rk in r) <= SPAN_DROP_RTOL * max(1.0, norm):
            continue
        grams = [rk.conj().swapaxes(-1, -2) @ rk for rk in r]
        cut = max(0.0, *(float(spectral_norms(a).max()) for a in grams)) * PINV_RTOL
        for s, m, rk, a in zip(residuals, members, r, grams):
            lam, u = np.linalg.eigh(hermitian_part(a))
            inv_sqrt = np.where(lam > cut, 1.0 / np.sqrt(np.clip(lam, cut, None)), 0.0)
            wk = rk @ ((u * inv_sqrt[..., None, :]) @ u.conj().swapaxes(-1, -2))
            m[:, size] = wk
            rest = s[:, i + 1 :]
            rest -= wk[:, None] @ (wk.conj().swapaxes(-1, -2)[:, None] @ rest)
        size += 1
    return [m[:, :size] for m in members]


def _span_inputs(shape, dim, rng, count):
    """count independent vectors, each scaled by 1, 1e100 or 1e-100, some blocks exact ±0.0,
    and after them vectors in the A-span of earlier ones (x_i a + x_j b), which must drop."""
    independent = []
    for _ in range(count):
        magnitude = rng.choice([1.0, 1e100, 1e-100])
        coords = []
        for _ in range(dim):
            blocks = []
            for n in shape.block_dims:
                b = magnitude * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                if rng.random() < 0.3:
                    b = np.full((n, n), complex(-0.0, -0.0) if rng.random() < 0.5 else 0.0)
                blocks.append(b)
            coords.append(AlgebraElement(shape, blocks))
        independent.append(ModuleVector(shape, coords))

    def well_conditioned():
        blocks = [0.5 * rng.standard_normal((n, n)) + 3.0 * np.eye(n) for n in shape.block_dims]
        return AlgebraElement(shape, blocks)

    dependent = []
    for _ in range(count):
        i, j = rng.integers(len(independent), size=2)
        dependent.append(independent[i] * well_conditioned() + independent[j] * well_conditioned())
    return independent, dependent


@settings(max_examples=60, deadline=None)
@given(case=cases, count=st.integers(1, 5))
def test_span_family_equals_the_svd_decided_loop_byte_for_byte(case, count):
    dims, dim, seed, _ = case
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    independent, dependent = _span_inputs(shape, dim, rng, count)
    for inputs in (independent, independent + dependent):
        family = SampleSet(inputs)
        got = orthogonal_span_family(family).realizations
        want = svd_decided_span_family(family)
        assert [s.shape for s in got] == [s.shape for s in want]
        assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
    # every dependent input is dropped: the family is the one of the independent inputs
    assert [s.tobytes() for s in got] == [
        s.tobytes() for s in orthogonal_span_family(independent).realizations
    ]
