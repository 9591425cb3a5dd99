"""Exact-zero blocks cost nothing and change no bit.

An all-zero matrix gets its spectral norm, +0.0, without an SVD
(`spectral_norms`); the frame's prefix tails and the counterexample's
truncation tails visit only the (block, point) pairs whose realization
is non-zero.  The dense routes these replaced, and the gram's route, are
copied below as oracles, and every result must equal theirs byte for
byte, on block-sparse and dense data, under the default chunk bound and
under a bound of one entry, with the size below which a zero skip is not
tried at its default and at zero.  A last test counts the work of one
counterexample run, a deterministic stand-in for a wall-clock gate.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarframes import AlgebraElement, AlgebraShape, DegenerateFrameError, Frame, ModuleVector, algebra, modules
from cstarframes.algebra import chunks, spectral_norms, tiles
from cstarframes.cli import main
from cstarframes.counterexample import _truncation_tails
from cstarframes.modules import coordinate_blocks, from_entry_blocks, gram_block, realization_stacks

SHAPES = [(1,), (1, 1, 1, 1), (1,) * 6, (1, 2), (1, 2, 1, 3, 2)]


# -- the dense routes, as they were before zero blocks were skipped -----------


def oracle_prefix_tails(frame, stacks, stop):
    points = stacks[0].shape[1]
    tails = np.zeros((points, stop + 1))
    for xs, vs, gs in zip(stacks, frame._vector_stacks, frame._dual_stacks):
        count, _, rows, n = xs.shape
        v = vs[:, None, :stop]
        g_adj = gs[:, None, :stop].conj().swapaxes(-1, -2)
        for blocks, part in tiles(count, points, (stop + 1) * rows * n):
            x = xs[blocks, part, None]
            terms = v[blocks] @ (g_adj[blocks] @ x)
            start = np.zeros(terms.shape[:2] + (1,) + terms.shape[3:], complex)
            partial = np.add.accumulate(np.concatenate((start, terms), axis=2), axis=2)
            norms = np.linalg.norm(x - partial, 2, axis=(-2, -1))
            tails[part] = np.fmax(tails[part], np.fmax.reduce(norms, axis=0))
    return tails


def oracle_truncation_tails(stack):
    blocks, points, dim, _ = stack.shape
    kept = np.arange(dim) >= np.arange(dim + 1)[:, None]
    tails = np.zeros((points, dim + 1))
    for part_blocks, part in tiles(blocks, points, (dim + 1) * dim):
        residuals = np.where(kept[:, :, None], stack[part_blocks, part, None], 0.0)
        norms = np.linalg.norm(residuals, 2, axis=(-2, -1))
        tails[part] = np.fmax(tails[part], np.fmax.reduce(norms, axis=0))
    return tails


def oracle_gram_block(coords):
    count, size, dim, n, _ = coords.shape
    adjoints = np.ascontiguousarray(coords.conj().swapaxes(-1, -2))
    acc = np.zeros((count, dim, dim, n, n), complex)
    for part in chunks(count, size * dim * dim * n * n):
        products = coords[part, :, :, None] @ adjoints[part, :, None, :]
        for l in range(size):
            acc[part] = acc[part] + products[:, l]
    return from_entry_blocks(acc)


# -- data -----------------------------------------------------------------------


def _vector(shape, dim, rng, keep, scale=1.0):
    """Random vector whose coordinate i is zero on block k unless keep(k, i)."""
    coords = []
    for i in range(dim):
        blocks = []
        for k, n in enumerate(shape.block_dims):
            b = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            blocks.append(b if keep(k, i) else np.zeros((n, n)))
        coords.append(AlgebraElement(shape, blocks))
    return ModuleVector(shape, coords)


def _case(dims, dim, sparse, seed):
    """A frame and a sample; when sparse, most coordinate blocks are exact zeros.

    The sparse frame is the basis scaled by random elements plus extras
    supported on a few coordinate blocks; the sample holds points
    supported on a few blocks, one point that is zero everywhere, and one
    dense point.
    """
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    everywhere = lambda k, i: True
    if sparse:
        mask = lambda p: (lambda k, i: rng.random() < p)
        family = [_vector(shape, dim, rng, lambda k, i, j=j: i == j) for j in range(dim)]
        family += [_vector(shape, dim, rng, mask(0.3)) for _ in range(2)]
        points = [_vector(shape, dim, rng, mask(0.25), 0.3) for _ in range(5)]
        points.append(_vector(shape, dim, rng, lambda k, i: False))
        points.append(_vector(shape, dim, rng, everywhere, 0.3))
    else:
        family = [_vector(shape, dim, rng, everywhere) for _ in range(dim + 2)]
        points = [_vector(shape, dim, rng, everywhere, 0.3) for _ in range(4)]
    return Frame(family), realization_stacks(points, shape, dim)


@contextlib.contextmanager
def bounds(tiny_chunks, every_skip):
    """CHUNK_ENTRIES = 1 if tiny_chunks; the zero skips taken at any size if every_skip."""
    with pytest.MonkeyPatch.context() as mp:
        if tiny_chunks:
            mp.setattr(algebra, "CHUNK_ENTRIES", 1)
        if every_skip:
            mp.setattr(algebra, "ZERO_TEST_MIN_MATRICES", 0)
        yield


cases = st.tuples(
    st.sampled_from(SHAPES), st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1),
    st.booleans(), st.booleans(),
)


# -- spectral_norms ---------------------------------------------------------------


@st.composite
def stacks(draw):
    """Matrix stacks mixing random, all-zero, -0.0 and subnormal matrices."""
    batch = draw(st.sampled_from([(0,), (1,), (5,), (2, 3), (16,), (4, 5), (40,)]))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal(batch + (rows, cols)) + 1j * rng.standard_normal(batch + (rows, cols))
    kind = rng.integers(0, 4, size=batch)
    a[kind == 0] = 0.0
    a[kind == 1] = -0.0
    a[kind == 2] *= 5e-324 * rng.integers(0, 2, size=(rows, cols))
    if draw(st.booleans()):
        a = a.real.copy()
    return a


@settings(max_examples=150, deadline=None)
@given(a=stacks())
def test_spectral_norms_match_the_svd_norm_byte_for_byte(a):
    got = spectral_norms(a)
    want = np.linalg.norm(a, 2, axis=(-2, -1))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _counting_norm(monkeypatch):
    seen = []
    norm = np.linalg.norm

    def counted(x, *args, **kwargs):
        seen.append(x.shape[:-2])
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return seen


def test_zero_matrices_skip_the_svd_and_the_rest_go_through_it(monkeypatch):
    seen = _counting_norm(monkeypatch)
    count = algebra.ZERO_TEST_MIN_MATRICES
    zeros = np.zeros((count, 2, 2), complex)
    zeros[1] = -0.0
    assert spectral_norms(zeros).tobytes() == np.zeros(count).tobytes()
    assert seen == []
    mixed = zeros.copy()
    mixed[2] = [[1.0, 2j], [0.0, 3.0]]
    want = np.linalg.norm(mixed, 2, axis=(-2, -1))
    seen.clear()
    assert spectral_norms(mixed).tobytes() == want.tobytes()
    assert seen == [(1,)]
    # a smaller stack goes to the SVD whole, zero matrices included
    seen.clear()
    assert spectral_norms(mixed[1:]).tobytes() == want[1:].tobytes()
    assert seen == [(count - 1,)]


def test_tiny_matrix_still_goes_through_the_svd(monkeypatch):
    seen = _counting_norm(monkeypatch)
    a = np.zeros((algebra.ZERO_TEST_MIN_MATRICES, 1, 1))
    a[3] = 1e-300
    assert spectral_norms(a)[3] == 9.999999999999999e-301
    assert seen == [(1,)]


def test_nan_matrix_still_raises():
    a = np.zeros((algebra.ZERO_TEST_MIN_MATRICES, 2, 2))
    a[1, 0, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.norm(a, 2, axis=(-2, -1))
    with pytest.raises(np.linalg.LinAlgError):
        spectral_norms(a)


# -- tails and gram against the dense routes -------------------------------------------


@settings(max_examples=60, deadline=None)
@given(case=cases)
def test_prefix_tails_match_the_dense_route(case):
    dims, dim, sparse, seed, tiny_chunks, every_skip = case
    frame, points = _case(dims, dim, sparse, seed)
    with bounds(tiny_chunks, every_skip):
        for stop in sorted({0, 1, frame.size}):
            got = frame._prefix_tails(points, stop)
            assert got.tobytes() == oracle_prefix_tails(frame, points, stop).tobytes()


@settings(max_examples=60, deadline=None)
@given(case=cases)
def test_truncation_tails_match_the_dense_route(case):
    dims, dim, sparse, seed, tiny_chunks, every_skip = case
    _, points = _case((1,) * len(dims), dim, sparse, seed)
    with bounds(tiny_chunks, every_skip):
        assert _truncation_tails(points[0]).tobytes() == oracle_truncation_tails(points[0]).tobytes()


@settings(max_examples=60, deadline=None)
@given(case=cases)
def test_gram_matches_the_dense_route(case):
    dims, dim, sparse, seed, tiny_chunks, every_skip = case
    frame, points = _case(dims, dim, sparse, seed)
    with bounds(tiny_chunks, every_skip):
        for stacks_ in (frame._vector_stacks, points):
            for s in stacks_:
                coords = coordinate_blocks(s, dim)
                assert gram_block(coords).tobytes() == oracle_gram_block(coords).tobytes()


def test_every_route_skips_on_the_witnesses():
    """The counterexample's witnesses are one non-zero pair each, and match the dense routes."""
    from cstarframes import build_setting

    setting = build_setting(9, 7)
    stack = setting._witness_stacks[0]
    frame = setting.frame
    assert frame._prefix_tails((stack,), 7).tobytes() == oracle_prefix_tails(frame, (stack,), 7).tobytes()
    assert _truncation_tails(stack).tobytes() == oracle_truncation_tails(stack).tobytes()
    coords = coordinate_blocks(frame._vector_stacks[0], 7)
    assert gram_block(coords).tobytes() == oracle_gram_block(coords).tobytes()


def test_non_finite_data_takes_the_dense_route():
    """inf * 0 is NaN, so a zero block next to an inf is not skipped."""
    shape = AlgebraShape((1, 1))

    def vec(*coords):
        return ModuleVector(shape, [AlgebraElement(shape, [np.array([[a]]), np.array([[b]])])
                                    for a, b in coords])

    with np.errstate(invalid="ignore", over="ignore"), bounds(False, True):
        inf_member = realization_stacks([vec((np.inf, 1.0), (0.0, 1.0))], shape, 2)[0]
        coords = coordinate_blocks(inf_member, 2)
        assert gram_block(coords).tobytes() == oracle_gram_block(coords).tobytes()
        assert np.isnan(gram_block(coords)).any()

    # finite input whose gram overflows on block 0: refused, without a warning
    with pytest.raises(DegenerateFrameError, match="gram of block 0 is not finite"):
        Frame([vec((1, 0), (0, 1)), vec((1e200, 1), (1e200, 1)), vec((0, 0), (1, 1))])


# -- work count ---------------------------------------------------------------------------


class _CountedProducts(np.ndarray):
    """An array view that counts the matrices every matmul on it forms."""

    formed = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _CountedProducts) else x for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul:
            _CountedProducts.formed += math.prod(out.shape[:-2])
        return out


def test_counterexample_work_scales_with_the_non_zero_pairs(monkeypatch):
    """trunc 12: about dim*(dim+1) norms per tail route, not (trunc+1)*dim*(dim+1)."""
    trunc = dim = 12
    seen = _counting_norm(monkeypatch)
    gram = modules.gram_block

    def counted_gram(coords):
        return gram(coords.view(_CountedProducts))

    monkeypatch.setattr(_CountedProducts, "formed", 0)
    monkeypatch.setattr("cstarframes.frames.gram_block", counted_gram)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["counterexample", "--trunc", str(trunc), "--eps", "0.25"]) == 1

    norms = sum(math.prod(s) for s in seen)
    # two tail routes over dim non-zero pairs, dim + 1 prefixes each, and
    # the trunc + 1 blocks of the operator norm in build_setting
    assert norms <= 2 * dim * (dim + 1) + trunc + 1
    assert norms < (trunc + 1) * dim * (dim + 1) // 4
    # the basis frame is built in closed form: no gram product at all
    assert _CountedProducts.formed == 0
