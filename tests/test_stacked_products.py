"""The stacked-left rule, and every product the library takes by it.

When K left blocks A_1..A_K (n x n) meet one n x n right factor B, the
library forms the product of the stacked (K*n, n) left operand with B in
one matmul (README, Storage).  numpy maps the row-major A @ B to the
column-major BLAS call B^T A^T, whose M dimension stays n while only N
grows, so each output entry comes from the same micro-kernel arithmetic
as the lone product A_k @ B.  The first test pins that rule byte for
byte, at entry magnitudes 1e-150 to 1e150 with exact zeros, -0.0 and
NaN mixed in: a BLAS that breaks it fails here before any site does.

Each later test keeps a site's per-coordinate formula, as the library
had it before the stacked products, as an oracle, and requires the
library's result to equal it byte for byte.  The gram's oracle is
`oracle_gram_block` in test_zero_blocks.py.
"""

import contextlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, random_vector
from cstarframes import (
    AdmissibleSystem,
    AlgebraElement,
    AlgebraShape,
    Frame,
    ModuleOperator,
    ModuleVector,
    SampleSet,
    SeminormSpec,
    algebra,
    certify,
    modules,
    theta_op,
)
from cstarframes.algebra import block_sum, blockwise_max, from_entry_blocks, hermitian_part, spectral_norms, tiles
from cstarframes.modules import coordinate_blocks, stack_norms
from cstarframes.seminorms import state_values
from cstarframes.serialization import parse, serialize
from cstarframes.tolerances import PINV_RTOL, SPAN_DROP_RTOL


def _entries(rng, shape, magnitude, nan=False):
    """Complex entries +-10**u + i*(+-10**v), u and v uniform in [-magnitude, magnitude].

    About one entry in ten is 0.0, one in ten -0.0 - 0.0j and, when asked
    for, one in ten NaN.
    """

    def part():
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-magnitude, magnitude, shape)

    z = part() + 1j * part()
    kind = rng.integers(0, 10, shape)
    z[kind == 0] = 0.0
    z[kind == 1] = complex(-0.0, -0.0)
    if nan:
        z[kind == 2] = complex(math.nan, 0.0)
    return z


@contextlib.contextmanager
def tiny_chunks(on):
    with pytest.MonkeyPatch.context() as mp:
        if on:
            mp.setattr(algebra, "CHUNK_ENTRIES", 1)
        yield


# -- the rule -----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    k=st.integers(1, 12),
    t=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    nan=st.booleans(),
)
def test_a_stacked_left_operand_gives_the_bits_of_each_block_product(n, k, t, seed, nan):
    rng = np.random.default_rng(seed)
    left = _entries(rng, (t, k, n, n), 150.0, nan)
    right = _entries(rng, (t, n, n), 150.0, nan)
    with np.errstate(all="ignore"):
        per_block = left @ right[:, None]
        stacked = (left.reshape(t, k * n, n) @ right).reshape(t, k, n, n)
    assert stacked.tobytes() == per_block.tobytes()


# -- the sites, each against its per-coordinate formula -----------------------


SHAPES = [(1,), (2,), (1, 2), (1, 1, 2), (3,), (1, 3), (2, 2), (1, 4), (8,), (1, 9)]


def per_state_values(spec, sample):
    """V[p, k, i] with one product rho_k @ <x_p, x_i> per state, the densities stacked from the states."""
    system = spec._system
    traces = []
    for c, (s, y) in enumerate(zip(sample.realizations, system.realizations)):
        rho = np.stack([phi.stacks[c] for phi in spec.states], axis=1)
        ips = s.conj().swapaxes(-1, -2)[:, :, None] @ y[:, None]
        products = rho[:, None, :, None] @ ips[:, :, None]
        n = products.shape[-1]
        if n == 1:
            traces.append(0.0 + products[..., 0, 0])
        elif n == 2:
            traces.append(products[..., 1, 1] + (0.0 + products[..., 0, 0]))
        else:
            traces.append(np.trace(products, axis1=-2, axis2=-1))
    return block_sum(sample.shape, traces)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from(SHAPES),
    dim=st.integers(1, 3),
    size=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    parsed=st.booleans(),
)
def test_state_values_equal_the_per_state_products(dims, dim, size, seed, parsed):
    """Points carry exact 0.0 and -0.0 entries and NaN blocks; the spec is built or parsed."""
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    vectors = [random_vector(shape, dim, rng) for _ in range(size)]
    system = AdmissibleSystem(tuple(v / (1.2 * math.sqrt(size) * v.norm()) for v in vectors))
    spec = SeminormSpec(system, tuple(random_state(shape, rng) for _ in range(size)))
    if parsed:
        spec = parse("seminorm_spec", serialize(spec))
    stacks = [_entries(rng, (len(ks), 6, dim * n, n), 3.0) for n, ks in shape.classes]
    stacks[0][0, 5] = math.nan
    sample = SampleSet._packed(shape, dim, stacks)
    with np.errstate(invalid="ignore"):
        assert state_values(spec, sample).tobytes() == per_state_values(spec, sample).tobytes()


def _packed_vector(rng, shape, dim, magnitude, nan=False):
    return ModuleVector._packed(
        shape, dim, [_entries(rng, (len(ks), dim * n, n), magnitude, nan) for n, ks in shape.classes]
    )


@settings(max_examples=60, deadline=None)
@given(
    dims=st.sampled_from(SHAPES),
    dims_xy=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
    nan=st.booleans(),
)
def test_right_action_and_theta_equal_the_coordinate_products(dims, dims_xy, seed, nan):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    x = _packed_vector(rng, shape, dims_xy[0], 150.0, nan)
    y = _packed_vector(rng, shape, dims_xy[1], 150.0, nan)
    a = AlgebraElement._packed(shape, [_entries(rng, (len(ks), n, n), 150.0, nan) for n, ks in shape.classes])
    with np.errstate(all="ignore"):
        got = x * a
        want = [(coordinate_blocks(s, x.dim) @ b[:, None]).reshape(s.shape) for s, b in zip(x.stacks, a.stacks)]
        assert [s.tobytes() for s in got.stacks] == [s.tobytes() for s in want]

        got = theta_op(x, y)
        want = []
        for xs, ys in zip(x.stacks, y.stacks):
            y_adj = np.ascontiguousarray(coordinate_blocks(ys, y.dim).conj().swapaxes(-1, -2))
            want.append(from_entry_blocks(coordinate_blocks(xs, x.dim)[:, :, None] @ y_adj[:, None]))
        assert [s.tobytes() for s in got.stacks] == [s.tobytes() for s in want]


def per_coordinate_support_normalized(stacks):
    grams = [vk.conj().swapaxes(-1, -2) @ vk for vk in stacks]
    cut = max(blockwise_max([spectral_norms(a) for a in grams]), 0.0) * PINV_RTOL
    out = []
    for vk, a in zip(stacks, grams):
        w, u = np.linalg.eigh(hermitian_part(a))
        inv_sqrt = np.where(w > cut, 1.0 / np.sqrt(np.clip(w, cut, None)), 0.0)
        scale = (u * inv_sqrt[..., None, :]) @ u.conj().swapaxes(-1, -2)
        n = vk.shape[-1]
        out.append((vk.reshape(len(vk), -1, n, n) @ scale[:, None]).reshape(vk.shape))
    return out


def per_coordinate_span_family(family):
    dim = family.dim
    residuals = [s.copy() for s in family.realizations]
    members = [np.empty_like(s) for s in residuals]
    size = 0
    for i, scale in enumerate(family.point_norms):
        r = [s[:, i] for s in residuals]
        if stack_norms([rk[:, None] for rk in r])[0] <= SPAN_DROP_RTOL * max(1.0, scale):
            continue
        w = per_coordinate_support_normalized(r)
        for s, m, wk in zip(residuals, members, w):
            m[:, size] = wk
            rest = s[:, i + 1 :]
            coeffs = wk.conj().swapaxes(-1, -2)[:, None] @ rest
            rest -= (coordinate_blocks(wk, dim)[:, None] @ coeffs[:, :, None]).reshape(rest.shape)
        size += 1
    return [m[:, :size] for m in members]


def per_coordinate_error_profile(sample, pairs, eps):
    dim = sample.dim
    stacks = sample.realizations
    residuals = list(stacks)
    errors = [max(sample.point_norms)]
    z, g = pairs
    for j in range(len(z)):
        if errors[-1] < eps:
            break
        for c, (xk, zk, gk) in enumerate(zip(stacks, z.realizations, g.realizations)):
            coeffs = gk[:, j, None].conj().swapaxes(-1, -2) @ xk
            step = coordinate_blocks(zk[:, j], dim)[:, None] @ coeffs[:, :, None]
            residuals[c] = residuals[c] - step.reshape(xk.shape)
        errors.append(max(stack_norms(residuals)))
    return errors


def _family(rng, shape, dim, count, magnitude):
    return SampleSet._packed(
        shape, dim, [_entries(rng, (len(ks), count, dim * n, n), magnitude) for n, ks in shape.classes]
    )


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from(SHAPES[:8]),
    dim=st.integers(1, 3),
    count=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    magnitude=st.sampled_from([0.5, 30.0]),
)
def test_span_family_and_error_profile_equal_the_coordinate_products(dims, dim, count, seed, magnitude):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    family = _family(rng, shape, dim, count, magnitude)
    stacks = [s[:, 0] for s in family.realizations]
    with np.errstate(divide="ignore"):  # a zero point: every eigenvalue is cut
        got = modules._support_normalized(stacks, family.point_norms[0])
        want = per_coordinate_support_normalized(stacks)
    assert [s.tobytes() for s in got] == [s.tobytes() for s in want]

    span = modules.orthogonal_span_family(family)
    want = per_coordinate_span_family(family)
    assert [s.tobytes() for s in span.realizations] == [s.tobytes() for s in want]

    sample = _family(rng, shape, dim, 5, magnitude)
    frame = Frame([random_vector(shape, dim, rng) for _ in range(dim + 1)])
    for pairs in ((span, span), (frame._family, frame._dual)):
        assert certify._error_profile(sample, pairs, 0.0) == per_coordinate_error_profile(sample, pairs, 0.0)


def per_coordinate_series_errors(tk, xk, yk):
    count, size, _, n = xk.shape
    rows, cols = tk.shape[1:]
    out = []
    for part in algebra.chunks(count, (size + 1) * rows * cols):
        t = tk[part, None]
        blocks = len(t)
        x = xk[part].reshape(blocks, size, rows // n, 1, n, n)
        y_adj = np.ascontiguousarray(
            yk[part].reshape(blocks, size, 1, cols // n, n, n).conj().swapaxes(-1, -2)
        )
        terms = (x @ y_adj).transpose(0, 1, 2, 4, 3, 5).reshape(blocks, size, rows, cols)
        # the library's sums start at +0.0 (test_summation_order.py); a sum
        # started at the first term can end at -0.0 where it ends at +0.0,
        # and t - S then has the other zero sign, which LAPACK's SVD reads
        start = np.zeros(terms.shape[:1] + (1,) + terms.shape[2:], complex)
        partial = np.add.accumulate(np.concatenate((start, terms), axis=1), axis=1)
        out.append(spectral_norms(t - partial))
    return np.concatenate(out)


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(1, 4),
    n=st.integers(1, 4),
    md=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    size=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    tiny=st.booleans(),
)
def test_series_errors_equal_the_coordinate_products(count, n, md, size, seed, tiny):
    """`series_decompose`'s fold against the oracle's largest error over the blocks.

    The pairs (x_j, g_j) are drawn freely and stand in for a frame's
    family and dual; y_j = T_k* g_j is formed as `series_decompose` forms
    it, the invariant under which a zero block T_k is skipped, and about
    one block in three of T is zero, with 0.0 and -0.0 entries.
    """
    rng = np.random.default_rng(seed)
    m, d = md
    tk = _entries(rng, (count, m * n, d * n), 60.0)
    zero = rng.random(count) < 0.3
    tk[zero] = np.where(rng.random(tk[zero].shape) < 0.5, 0.0, complex(-0.0, -0.0))
    xk = _entries(rng, (count, size, m * n, n), 60.0)
    gk = _entries(rng, (count, size, m * n, n), 60.0)
    yk = np.ascontiguousarray(tk.conj().swapaxes(-1, -2))[:, None] @ gk
    shape = AlgebraShape((n,) * count)
    op = ModuleOperator._packed(shape, m, d, (tk,))
    family, dual = SampleSet._packed(shape, m, (xk,)), SampleSet._packed(shape, m, (gk,))
    pairs = SimpleNamespace(shape=shape, dim=m, _family=family, _dual=dual)
    with tiny_chunks(tiny):
        got = certify.series_decompose(op, pairs).errors
        want = blockwise_max([per_coordinate_series_errors(tk, xk, yk)])
    assert np.array(got).tobytes() == np.array(want).tobytes()


def per_coordinate_approx_norms(sample, gens):
    coeffs, _, _ = modules.span_least_squares(sample, gens)
    dim, s = gens.dim, len(gens)
    approx_norms = []
    for ak, gk in zip(coeffs, gens.realizations):
        count, points, _, n = ak.shape
        per_coeff = ak.reshape(count, points, s, n, n)
        gen_coords = coordinate_blocks(gk, dim)[:, None]
        an = np.zeros((count, points))
        for part_blocks, part in tiles(count, points, (s + 1) * dim * n * n):
            terms = gen_coords[part_blocks] @ per_coeff[part_blocks, part, :, None]
            start = np.zeros(terms.shape[:2] + (1,) + terms.shape[3:], complex)
            approx = np.add.accumulate(np.concatenate((start, terms), axis=2), axis=2)[:, :, -1]
            an[part_blocks, part] = spectral_norms(approx.reshape(approx.shape[:2] + (dim * n, n)))
        approx_norms.append(an)
    return blockwise_max(approx_norms)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from(SHAPES[:8]),
    dim=st.integers(1, 3),
    gen_count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    tiny=st.booleans(),
)
def test_condition_a_approximants_equal_the_coordinate_products(dims, dim, gen_count, seed, tiny):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(dims)
    sample = _family(rng, shape, dim, 5, 30.0)
    gens = _family(rng, shape, dim, gen_count, 30.0)
    with tiny_chunks(tiny):
        got = certify._coefficient_data(sample, gens).approx_norms
        want = per_coordinate_approx_norms(sample, gens)
    assert got == want
