"""Exact-zero blocks cost nothing and change no bit.

An all-zero matrix gets its spectral norm, +0.0, without an SVD
(`spectral_norms`).  Every per-point norm profile is one
`fold_pair_maxima`, which visits only the (block, point) pairs that are
not all zero: the frame's prefix tails, the counterexample's one pass
over its frame and truncation tails, condition A's norms over the
coefficient stacks, the d=>a replay over the sample, and the series
errors over the operator's blocks.  The dense routes these replaced,
and the gram's route, are copied below as oracles, and every result must
equal theirs byte for byte, on block-sparse and dense data, under the
default chunk bound and under a bound of one entry, with the size below
which a zero skip is not tried at its default and at zero.  The last
tests count the folds of each pass and the work of one counterexample
run, a deterministic stand-in for a wall-clock gate.
"""

import ast
import contextlib
import io
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import cstarframes
from conftest import tail_routes
from cstarframes import (
    AlgebraElement,
    AlgebraShape,
    DegenerateFrameError,
    Frame,
    ModuleOperator,
    ModuleVector,
    SampleSet,
    algebra,
    build_setting,
    certify,
    frames,
    modules,
    series_decompose,
)
from cstarframes.algebra import (
    blockwise_max,
    chunks,
    from_entry_blocks,
    ordered_sum,
    ordered_sums,
    spectral_norms,
    tiles,
)
from cstarframes.certify import _coefficient_data, _replay_data
from cstarframes.cli import main
from cstarframes.frames import prefix_tails, standard_basis_frame
from cstarframes.modules import (
    coordinate_blocks,
    gram_block,
    orthogonal_span_family,
    span_least_squares,
)

SHAPES = [(1,), (1, 1, 1, 1), (1,) * 6, (1, 2), (1, 2, 1, 3, 2)]


# -- the dense routes, as they were before zero blocks were skipped -----------


def oracle_prefix_tails(frame, sample, stop):
    stacks = sample.realizations
    points = stacks[0].shape[1]
    tails = np.zeros((points, stop + 1))
    for xs, vs, gs in zip(stacks, frame._family.realizations, frame._dual.realizations):
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


def _dense_norms(a):
    return np.linalg.norm(a, 2, axis=(-2, -1))


def oracle_coefficient_norms(sample, gens):
    """Condition A's coefficient, stacked and approximant norms, block by block in tiles."""
    coeffs, _, _ = span_least_squares(sample, gens)
    dim, s = gens.dim, len(gens)
    coeff_norms, stacked_norms, approx_norms = [], [], []
    for ak, gk in zip(coeffs, gens.realizations):
        count, points, _, n = ak.shape
        per_coeff = ak.reshape(count, points, s, n, n)
        coeff_norms.append(_dense_norms(per_coeff))
        stacked_norms.append(_dense_norms(ak))
        an = np.zeros((count, points))
        for part_blocks, part in tiles(count, points, (s + 1) * dim * n * n):
            terms = gk[part_blocks, None] @ per_coeff[part_blocks, part]
            an[part_blocks, part] = _dense_norms(ordered_sum(terms, 2))
        approx_norms.append(an)
    return blockwise_max(coeff_norms), blockwise_max(stacked_norms), blockwise_max(approx_norms)


def oracle_replay_norms(sample, z, g):
    """The d=>a replay's coefficient norms in chunks of blocks, and its residuals as dense tails."""
    count = len(z)
    coeff_norms = []
    for xk, gk in zip(sample.realizations, g.realizations):
        blocks, points, _, n = xk.shape
        g_adj = gk[:, None].conj().swapaxes(-1, -2)
        cn = np.zeros((blocks, points, count))
        for part in chunks(blocks, points * count * n * n):
            cn[part] = _dense_norms(g_adj[part] @ xk[part, :, None])
        coeff_norms.append(cn)
    pairs = SimpleNamespace(_family=z, _dual=g)
    return blockwise_max(coeff_norms), oracle_prefix_tails(pairs, sample, count).tolist()


def oracle_series_errors(op, x_stacks, g_stacks):
    """max over the blocks of ||T_k - S_n||, every block in chunks, none skipped."""
    per_class = []
    for tk, xk, gk in zip(op.stacks, x_stacks, g_stacks):
        yk = np.ascontiguousarray(tk.conj().swapaxes(-1, -2))[:, None] @ gk
        count, size, _, n = xk.shape
        rows, cols = tk.shape[1:]
        out = []
        for part in chunks(count, (size + 1) * rows * cols):
            t = tk[part, None]
            blocks = len(t)
            y_adj = np.ascontiguousarray(
                yk[part].reshape(blocks, size, cols // n, n, n).conj().swapaxes(-1, -2)
            )
            terms = xk[part, :, None] @ y_adj
            terms = terms.transpose(0, 1, 3, 2, 4).reshape(blocks, size, rows, cols)
            out.append(_dense_norms(t - ordered_sums(terms, 1)))
        per_class.append(np.concatenate(out))
    return blockwise_max(per_class)


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


def _case(dims, dim, sparse, seed, magnitude=0.0):
    """A frame and a sample; when sparse, most coordinate blocks are exact zeros.

    The sparse frame is the basis scaled by random elements plus extras
    supported on a few coordinate blocks; the sample holds points
    supported on a few blocks, one point that is zero everywhere, and one
    dense point.  The frame's entries are scaled by 10**magnitude.
    """
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    everywhere = lambda k, i: True
    scale = 10.0 ** magnitude
    if sparse:
        mask = lambda p: (lambda k, i: rng.random() < p)
        family = [_vector(shape, dim, rng, lambda k, i, j=j: i == j, scale) for j in range(dim)]
        family += [_vector(shape, dim, rng, mask(0.3), scale) for _ in range(2)]
        points = [_vector(shape, dim, rng, mask(0.25), 0.3) for _ in range(5)]
        points.append(_vector(shape, dim, rng, lambda k, i: False))
        points.append(_vector(shape, dim, rng, everywhere, 0.3))
    else:
        family = [_vector(shape, dim, rng, everywhere, scale) for _ in range(dim + 2)]
        points = [_vector(shape, dim, rng, everywhere, 0.3) for _ in range(4)]
    return Frame(family), SampleSet(points)


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


def _counting_svd(monkeypatch):
    seen = []
    svd = np.linalg.svd

    def counted(x, *args, **kwargs):
        seen.append(x.shape[:-2])
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return seen


def test_zero_matrices_skip_the_svd_and_the_rest_go_through_it(monkeypatch):
    seen = _counting_svd(monkeypatch)
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
    seen = _counting_svd(monkeypatch)
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


magnitudes = st.one_of(st.just(0.0), st.floats(-150.0, 150.0))


@settings(max_examples=60, deadline=None)
@given(case=cases, magnitude=magnitudes)
def test_prefix_tails_match_the_dense_route(case, magnitude):
    """Also at frame scales 1e-150 to 1e150, where every accepted frame has a finite dual."""
    dims, dim, sparse, seed, tiny_chunks, every_skip = case
    try:
        frame, points = _case(dims, dim, sparse, seed, magnitude)
    except DegenerateFrameError:
        reject()  # scaled so small that every gram eigenvalue is below the cut
    assert all(np.isfinite(g).all() for g in frame._dual.realizations)
    with bounds(tiny_chunks, every_skip):
        for stop in sorted({0, 1, frame.size}):
            got = prefix_tails(points, frame._family.head(stop), frame._dual.head(stop))
            assert got.tobytes() == oracle_prefix_tails(frame, points, stop).tobytes()


def _plant_minus_zeros(points, rng, scale=1.0):
    """The points times scale, with about a third of their real and imaginary parts set to -0.0."""
    stacks = []
    for stack in points.realizations:
        stack = stack * scale
        for part in (stack.real, stack.imag):
            part[rng.random(part.shape) < 0.3] = -0.0
        stacks.append(stack)
    return SampleSet._packed(points.shape, points.dim, stacks)


@settings(max_examples=60, deadline=None)
@given(case=cases, basis=st.booleans())
def test_one_pass_gives_both_tail_routes_of_the_dense_oracles(case, basis):
    """The counterexample's fused pass, on a random or the basis frame over 1x1 blocks."""
    dims, dim, sparse, seed, tiny_chunks, every_skip = case
    frame, points = _case((1,) * len(dims), dim, sparse, seed)
    if basis:
        frame = standard_basis_frame(frame.shape, dim)
    points = _plant_minus_zeros(points, np.random.default_rng(seed))
    with bounds(tiny_chunks, every_skip):
        via_frame, direct = tail_routes(frame, points)
    assert via_frame.tobytes() == oracle_prefix_tails(frame, points, frame.size).tobytes()
    assert direct.tobytes() == oracle_truncation_tails(points.realizations[0]).tobytes()


@pytest.mark.parametrize("trunc", [4, 12, 40, 170])
def test_one_pass_on_the_witnesses(trunc):
    """Witness k's tails are 1.0 before prefix k and +0.0 from it, on both routes.

    Up to trunc 40 both routes also equal the dense oracles; at 170 the
    dense frame oracle would take minutes, and the closed form stands.
    """
    setting = build_setting(trunc)
    witnesses = setting._witness_set
    via_frame, direct = tail_routes(setting.frame, witnesses)
    k = np.arange(1, trunc + 1)[:, None]
    exact = np.where(np.arange(trunc + 1) < k, 1.0, 0.0)
    assert via_frame.tobytes() == direct.tobytes() == exact.tobytes()
    if trunc <= 40:
        assert via_frame.tobytes() == oracle_prefix_tails(setting.frame, witnesses, trunc).tobytes()
        assert direct.tobytes() == oracle_truncation_tails(witnesses.realizations[0]).tobytes()


def _operator(shape, target_dim, source_dim, rng, scale):
    """Random realized blocks times scale; about a third of the blocks are zero, with -0.0 parts."""
    stacks = []
    for n, ks in shape.classes:
        t = rng.standard_normal((len(ks), target_dim * n, source_dim * n, 2)) @ [1.0, 1j] * scale
        for part in (t.real, t.imag):
            part[rng.random(part.shape) < 0.3] = -0.0
        t[rng.random(len(ks)) < 0.3] = complex(-0.0, 0.0)
        stacks.append(t)
    return ModuleOperator._packed(shape, target_dim, source_dim, stacks)


def _bits(values):
    return np.array(values, float).tobytes()


@settings(max_examples=60, deadline=None)
@given(case=cases, magnitude=magnitudes, source_dim=st.integers(1, 3))
def test_every_folded_pass_matches_its_dense_loop(case, magnitude, source_dim):
    """Condition A, the d=>a replay and the series errors against their loops, no pair skipped.

    Sample and operator are scaled by 10**magnitude, carry -0.0 parts,
    and (when sparse) zero (block, point) pairs; the operator has zero
    blocks.  The replay runs on the sample's span family and on the
    frame's pairs, the series on the frame and on the operator's columns.
    """
    dims, dim, sparse, seed, tiny_chunks, every_skip = case
    frame, points = _case(dims, dim, sparse, seed)
    rng = np.random.default_rng(seed)
    sample = _plant_minus_zeros(points, rng, 10.0**magnitude)
    op = _operator(frame.shape, dim, source_dim, rng, 10.0**magnitude)
    span = orthogonal_span_family(sample)
    with bounds(tiny_chunks, every_skip):
        data = _coefficient_data(sample, frame._family)
        pairs = [(z, g) for z, g in ((span, span), (frame._family, frame._dual)) if len(z)]
        replays = [(z, g, _replay_data(sample, (z, g))) for z, g in pairs]
        by_frame, by_columns = series_decompose(op, frame), series_decompose(op)

    got = data.coefficient_norms, data.stacked_norms, data.approx_norms
    assert list(map(_bits, got)) == list(map(_bits, oracle_coefficient_norms(sample, frame._family)))
    for z, g, replay in replays:
        coefficient_norms, residual_norms = oracle_replay_norms(sample, z, g)
        assert _bits(replay.coefficient_norms) == _bits(coefficient_norms)
        assert _bits(replay.residual_norms) == _bits(residual_norms)
    frame_stacks = frame._family.realizations, frame._dual.realizations
    assert _bits(by_frame.errors) == _bits(oracle_series_errors(op, *frame_stacks))
    columns = by_columns._family.realizations
    assert _bits(by_columns.errors) == _bits(oracle_series_errors(op, columns, columns))


def test_each_pass_folds_once_per_size_class(monkeypatch):
    """One `fold_pair_maxima` per size class in each pass; the replay makes no tail pass."""
    frame, sample = _case((1, 2, 1, 3, 2), 2, True, 5)
    op = _operator(frame.shape, 2, 2, np.random.default_rng(5), 1.0)
    classes = len(frame.shape.classes)
    folds = []
    fold = certify.fold_pair_maxima

    def counted(out, stack, item_entries, norms_of):
        folds.append(stack.shape)
        fold(out, stack, item_entries, norms_of)

    def forbidden(*args):
        raise AssertionError("prefix_tails called")

    monkeypatch.setattr(certify, "fold_pair_maxima", counted)
    monkeypatch.setattr(frames, "prefix_tails", forbidden)
    span = orthogonal_span_family(sample)
    for run in (
        lambda: _coefficient_data(sample, frame._family),
        lambda: _replay_data(sample, (span, span)),
        lambda: series_decompose(op, frame),
        lambda: series_decompose(op),
    ):
        folds.clear()
        run()
        assert len(folds) == classes


def test_the_replay_forms_each_coefficient_once(monkeypatch):
    """Each `norms_of` call of the replay makes one `frame_coefficients` product.

    Its coefficient norms and its residuals come from that one product;
    the bits are `test_every_folded_pass_matches_its_dense_loop`'s.
    """
    frame, sample = _case((1, 2, 1, 3, 2), 2, True, 5)
    span = orthogonal_span_family(sample)
    products, folds = [], []
    coefficients, fold = certify.frame_coefficients, certify.fold_pair_maxima

    def counted_coefficients(g, x):
        products.append(x.shape)
        return coefficients(g, x)

    def counted_fold(out, stack, item_entries, norms_of):
        def counted_norms(blocks, x):
            folds.append(x.shape)
            return norms_of(blocks, x)

        fold(out, stack, item_entries, counted_norms)

    monkeypatch.setattr(certify, "frame_coefficients", counted_coefficients)
    monkeypatch.setattr(certify, "fold_pair_maxima", counted_fold)
    for tiny_chunks in (False, True):
        for z, g in ((span, span), (frame._family, frame._dual)):
            products.clear()
            folds.clear()
            with bounds(tiny_chunks, False):
                _replay_data(sample, (z, g))
            assert folds and products == folds


def test_the_fold_takes_views_of_a_dense_stack_and_gathers_around_a_zero_pair():
    """With no zero pair, every `norms_of` call gets a slice of blocks and a view of the stack.

    Gathering the pairs of a dense stack too would make one route, but
    it was measured slower on a dense sample: with 200 points over
    (1, 2) at dim 24 and a 28-member frame, `certify_equivalences` took
    228-231 ms on views against 259-261 ms gathered, and the frame's
    tails 65-69 against 71-72 ms (best of 5, one core).  So a dense
    stack keeps its views, and a stack with a zero pair gathers its
    non-zero pairs.
    """
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((3, 5, 4, 2)) + 1j * rng.standard_normal((3, 5, 4, 2))
    seen = []

    def norms_of(blocks, x):
        seen.append((blocks, x))
        return spectral_norms(x)[..., None]

    for tiny_chunks in (False, True):
        seen.clear()
        with bounds(tiny_chunks, False):
            algebra.fold_pair_maxima(np.zeros((5, 1)), stack, 8, norms_of)
        assert seen
        assert all(isinstance(blocks, slice) and np.shares_memory(x, stack) for blocks, x in seen)
    stack[1, 2] = 0.0
    seen.clear()
    algebra.fold_pair_maxima(np.zeros((5, 1)), stack, 8, norms_of)
    assert seen
    for blocks, x in seen:
        assert isinstance(blocks, np.ndarray) and not np.shares_memory(x, stack)
        assert x.shape[1] == 1


@settings(max_examples=100, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(1, 3), st.integers(1, 2)),
    seed=st.integers(0, 2**32 - 1),
    tiny_chunks=st.booleans(),
)
def test_known_pairs_fold_to_the_bits_of_the_found_ones(shape, seed, tiny_chunks):
    """Handed the non-zero pairs and their rows, the fold gives what it gives when it finds them."""
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kind = rng.integers(0, 3, size=shape[:2])
    stack[kind == 0] = 0.0
    stack[kind == 1] = -0.0
    weights = rng.random((shape[0], 1, 1)) + 0.5

    def norms_of(blocks, x):
        return np.stack((spectral_norms(x), spectral_norms(x * weights[blocks, None])), axis=-1)

    found, known = np.zeros((shape[1], 2)), np.zeros((shape[1], 2))
    blocks, points = np.nonzero(stack.any(axis=(-2, -1)))
    with bounds(tiny_chunks, False):
        algebra.fold_pair_maxima(found, stack, 4, norms_of)
        algebra.fold_pair_maxima(known, stack[blocks, points, None], 4, norms_of, (blocks, points))
    assert known.tobytes() == found.tobytes()


@settings(max_examples=60, deadline=None)
@given(case=cases)
def test_gram_matches_the_dense_route(case):
    dims, dim, sparse, seed, tiny_chunks, every_skip = case
    frame, points = _case(dims, dim, sparse, seed)
    with bounds(tiny_chunks, every_skip):
        for stacks_ in (frame._family.realizations, points.realizations):
            for s in stacks_:
                coords = coordinate_blocks(s, dim)
                assert gram_block(s, s, dim).tobytes() == oracle_gram_block(coords).tobytes()


def test_every_route_skips_on_the_witnesses():
    """The counterexample's witnesses are one non-zero pair each, and match the dense routes."""
    setting = build_setting(9, 7)
    witnesses = setting._witness_set
    stack = witnesses.realizations[0]
    frame = setting.frame
    got = prefix_tails(witnesses, frame._family.head(7), frame._dual.head(7))
    assert got.tobytes() == oracle_prefix_tails(frame, witnesses, 7).tobytes()
    via_frame, direct = tail_routes(frame, witnesses)
    assert via_frame.tobytes() == got.tobytes()
    assert direct.tobytes() == oracle_truncation_tails(stack).tobytes()
    stack = frame._family.realizations[0]
    assert gram_block(stack, stack, 7).tobytes() == oracle_gram_block(coordinate_blocks(stack, 7)).tobytes()


def test_non_finite_data_takes_the_dense_route():
    """inf * 0 is NaN, so a zero block next to an inf is not skipped."""
    shape = AlgebraShape((1, 1))

    def vec(*coords):
        return ModuleVector(shape, [AlgebraElement(shape, [np.array([[a]]), np.array([[b]])])
                                    for a, b in coords])

    with np.errstate(invalid="ignore", over="ignore"), bounds(False, True):
        inf_member = SampleSet([vec((np.inf, 1.0), (0.0, 1.0))]).realizations[0]
        coords = coordinate_blocks(inf_member, 2)
        assert gram_block(inf_member, inf_member, 2).tobytes() == oracle_gram_block(coords).tobytes()
        assert np.isnan(gram_block(inf_member, inf_member, 2)).any()

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
    seen = _counting_svd(monkeypatch)
    gram = modules.gram_block

    def counted_gram(xs, ys, dim):
        return gram(xs.view(_CountedProducts), ys, dim)

    monkeypatch.setattr(_CountedProducts, "formed", 0)
    monkeypatch.setattr("cstarframes.frames.gram_block", counted_gram)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["counterexample", "--trunc", str(trunc), "--eps", "0.25"]) == 1

    norms = sum(math.prod(s) for s in seen)
    # two tail routes over dim non-zero pairs, dim + 1 prefixes each;
    # build_setting checks F on its diagonals, with no norm at all
    assert norms <= 2 * dim * (dim + 1)
    assert norms < (trunc + 1) * dim * (dim + 1) // 4
    # the basis frame is built in closed form: no gram product at all
    assert _CountedProducts.formed == 0


# -- confinement ---------------------------------------------------------------------------


PACKAGE = Path(cstarframes.__file__).parent


def _uses(source: str) -> list[tuple[str, str]]:
    """(name, scope) of every `tiles`, `chunks` and `np.fmax` in the source.

    scope is the enclosing top-level function or class, "<import>" for
    an import of the name, and "<module>" elsewhere.
    """
    found = []

    def visit(node, scope):
        if isinstance(node, ast.alias) and node.name in ("tiles", "chunks"):
            found.append((node.name, "<import>"))
        elif isinstance(node, ast.Name) and node.id in ("tiles", "chunks"):
            found.append((node.id, scope))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "fmax"
            and isinstance(node.value, ast.Name)
            and node.value.id == "np"
        ):
            found.append(("np.fmax", scope))
        for child in ast.iter_child_nodes(node):
            top = isinstance(node, ast.Module) and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            visit(child, child.name if top else scope)

    visit(ast.parse(source), "<module>")
    return found


def test_the_scan_sees_every_use():
    source = (
        "from .algebra import chunks, tiles as t\n"
        "def f(a):\n    return [np.fmax.at(a, p, 1) for p in chunks(3, 1)]\n"
        "class C:\n    def g(self):\n        return tiles(1, 1, 1)\n"
        "x = np.maximum(1, 2)\n"
    )
    assert _uses(source) == [
        ("chunks", "<import>"), ("tiles", "<import>"), ("np.fmax", "f"), ("chunks", "f"), ("tiles", "C"),
    ]


def test_chunking_and_the_fold_stay_in_algebra():
    """`tiles` and `np.fmax` only in algebra.py; `chunks` there and in `modules.gram_block`, a sum."""
    outside = {
        (path.name, name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "algebra.py"
        for name, scope in _uses(path.read_text())
    }
    assert outside == {("modules.py", "chunks", "<import>"), ("modules.py", "chunks", "gram_block")}
