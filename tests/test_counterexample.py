"""Truncated factorial-growth counterexample: F, v, growth, tails."""

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import image_sample, setting_operator, tail_routes
from cstarframes import (
    AlgebraElement,
    ModuleVector,
    TruncatedCSetting,
    build_setting,
    coeff_growth,
    tail_obstruction,
    theta_op,
)
from cstarframes import counterexample
from cstarframes.algebra import chunks
from cstarframes.certify import tails_certificate


def delta(setting, k):
    """Indicator of sequence position k, 1 <= k <= trunc: the unit of block k - 1."""
    return AlgebraElement.block_unit(setting.shape, k - 1)


def basis_vector(setting, k):
    """Free-basis vector e_k of the setting's module, 1 <= k <= dim."""
    return ModuleVector.basis(setting.shape, setting.dim, k - 1)


def test_smallest_truncation():
    setting = build_setting(1, 1)
    f = setting_operator(setting)
    assert (f(setting.generator) - setting.generator).norm() <= 1e-12
    # at (1,1), F acts as theta_{e1 delta1, e1} on the module part
    theta = theta_op(setting.witnesses()[0], basis_vector(setting, 1))
    x = basis_vector(setting, 1) * delta(setting, 1) * 2.0
    assert (f(x) - theta(x)).norm() <= 1e-12


def test_f_fixes_witnesses():
    for trunc, dim in ((3, 2), (5, 5), (9, 7)):
        setting = build_setting(trunc, dim)
        f = setting_operator(setting)
        for w in setting.witnesses():
            assert (f(w) - w).norm() <= 1e-13


def test_f_norm_is_one():
    setting = build_setting(8, 8)
    assert setting_operator(setting).norm() == pytest.approx(1.0, abs=1e-12)


def test_dimension_bound_enforced():
    with pytest.raises(ValueError, match="dim"):
        build_setting(4, 5)
    with pytest.raises(ValueError):
        build_setting(0)


def test_dim_defaults_to_trunc():
    setting = build_setting(5)
    assert setting.dim == 5


def test_limit_coordinate_kills_witnesses():
    setting = build_setting(4, 4)
    ident = AlgebraElement.identity(setting.shape)
    assert ident.blocks[-1][0, 0] == 1.0
    for w in setting.witnesses():
        assert not w.realize_block(setting.trunc).any()


def test_coeff_growth_first_step():
    setting = build_setting(4, 4)
    rows = dict(coeff_growth(setting, eps=0.25))
    assert rows[1] == pytest.approx(0.75, abs=1e-12)


def test_coeff_growth_factorial_lower_bound():
    setting = build_setting(8, 8)
    eps = 0.1
    for k, required in coeff_growth(setting, eps):
        assert required >= 0.9 * math.factorial(k) - 1e-9 * math.factorial(k)


def test_coeff_growth_frozen_k5():
    setting = build_setting(8, 8)
    rows = dict(coeff_growth(setting, eps=0.1))
    assert rows[5] >= 108.0 - 1e-9
    assert rows[5] == pytest.approx(0.9 * 120.0, rel=1e-12)


def test_coeff_growth_degrades_near_one():
    setting = build_setting(5, 5)
    rows = dict(coeff_growth(setting, eps=0.999))
    assert rows[5] <= 0.0011 * math.factorial(5)


def test_coeff_growth_rejects_bad_eps():
    setting = build_setting(3, 3)
    with pytest.raises(ValueError):
        coeff_growth(setting, eps=0.0)


def test_tail_obstruction_exactly_one():
    for trunc, dim in ((4, 4), (8, 8)):
        setting = build_setting(trunc, dim)
        for n in range(dim):
            assert tail_obstruction(setting, n) == pytest.approx(1.0, abs=1e-12)


def test_tail_obstruction_needs_witness():
    setting = build_setting(4, 4)
    with pytest.raises(ValueError, match="witness"):
        tail_obstruction(setting, 4)


def test_tail_obstruction_rejects_prefix_beyond_dim():
    setting = build_setting(4, 4)
    for n in (5, -1):
        with pytest.raises(ValueError, match=f"prefix {n} has no witness at module dimension 4"):
            tail_obstruction(setting, n)


def _perturbed(name, where=...):
    """The residual builder `name` of the cross-check, with 1e-9 added at prefixes `where`."""
    exact = getattr(counterexample, name)

    def off(*args):
        residuals = exact(*args)
        residuals[:, :, where] += 1e-9
        return residuals

    return off


@pytest.mark.parametrize("route", ["frame_residuals", "_truncation_residuals"])
def test_tail_obstruction_cross_checks_each_route(monkeypatch, route):
    """Either route of the one pass, perturbed alone, fails the check on the witnesses."""
    monkeypatch.setattr(counterexample, route, _perturbed(route))
    with pytest.raises(AssertionError, match="disagrees"):
        tail_obstruction(build_setting(4, 4), 1)


@pytest.mark.parametrize("route", ["frame_residuals", "_truncation_residuals"])
def test_the_cross_check_covers_every_prefix_of_explicit_points(monkeypatch, route):
    setting = build_setting(4, 4)
    points = image_sample(setting, count=3, seed=1)
    monkeypatch.setattr(counterexample, route, _perturbed(route, -1))
    with pytest.raises(AssertionError, match="disagrees"):
        counterexample._checked_tails(*tail_routes(setting.frame, points))


def test_the_cross_check_shares_the_frame_tails_arithmetic():
    """The pass's frame route is `Frame.tail_profiles`, bit for bit, on witnesses and ball images."""
    setting = build_setting(8, 6)
    for points in (setting._witness_set, image_sample(setting, count=5, seed=2)):
        via_frame, _ = tail_routes(setting.frame, points)
        assert via_frame.tobytes() == setting.frame.tail_profiles(points).tobytes()


def test_witness_profiles_are_read_only():
    setting = build_setting(4, 4)
    before = setting.witness_profiles().tobytes()
    with pytest.raises(ValueError, match="read-only"):
        setting.witness_profiles()[0, 0] = 7.0
    assert setting.witness_profiles().tobytes() == before
    assert tails_certificate(setting.witness_profiles(), 0.5).diagnostics["tail_profile"] == [1.0] * 4 + [0.0]


def test_each_diagonal_is_built_once_and_read_only():
    setting = build_setting(5, 4)
    for name in ("_operator_diagonals", "_generator_diagonals"):
        diagonals = getattr(setting, name)
        assert getattr(setting, name) is diagonals
        assert not diagonals.flags.writeable
    assert setting._generator_diagonals[3, 3] == 1.0 / 24


def test_setting_frame_is_built_once():
    setting = build_setting(4, 3)
    assert setting.frame is setting.frame
    assert setting.frame.size == setting.dim
    assert setting.frame.bounds == (1.0, 1.0)


def test_truncation_ceiling_rejected_before_building():
    build_setting(170, 1)
    with pytest.raises(ValueError, match="exceeds 170"):
        build_setting(171, 1)


def test_truncation_level_below_one_rejected():
    for trunc in (0, -3):
        with pytest.raises(ValueError, match="truncation level must be at least 1"):
            build_setting(trunc)


@pytest.mark.parametrize(
    "trunc, dim, message",
    [
        (0, 5, "truncation level must be at least 1"),
        (-1, -1, "truncation level must be at least 1"),
        (171, 1, "truncation level 171 exceeds 170: the generator coefficient 1/171! is outside float64 range"),
        (171, 172, "truncation level 171 exceeds 170: the generator coefficient 1/171! is outside float64 range"),
    ],
)
def test_truncation_is_checked_before_the_dimension(trunc, dim, message):
    # the --trunc range is reported whole, even when --dim is out of range too
    with pytest.raises(ValueError) as err:
        build_setting(trunc, dim)
    assert str(err.value) == message


@pytest.mark.parametrize("trunc, dim", [(4, 0), (4, 5), (1, 2)])
def test_module_dimension_outside_one_to_trunc_rejected(trunc, dim):
    with pytest.raises(ValueError, match=f"module dimension {dim} must satisfy 1 <= dim <= trunc={trunc}"):
        build_setting(trunc, dim)


def test_tail_over_bulk_strictly_smaller():
    setting = build_setting(6, 6)
    bulk = image_sample(setting, count=12, seed=3, include_witnesses=False)
    n = setting.dim - 1
    bulk_value = counterexample._checked_tails(*tail_routes(setting.frame, bulk))[0][n]
    assert bulk_value < 0.999
    assert tail_obstruction(setting, n) == pytest.approx(1.0, abs=1e-12)


@dataclass(frozen=True)
class SingleGeneratorApprox:
    """Outcome of approximating y by v * a with the proof's prefix rule.

    coefficient realizes the best prefix; floor is the residual left at
    the full prefix, zero exactly when y has the range form (coordinate k
    supported on position k).
    """

    coefficient: AlgebraElement
    prefix: int
    residual: float
    floor: float
    achieved: bool
    residual_profile: tuple[float, ...]


def single_generator_approx(setting, y, eps):
    """Approximate an image point y from the single generator v.

    The prefix-K coefficient is a_K = sum_{k<=K} delta_k * y_k(k) * k!,
    which reproduces the diagonal part of the first K coordinates; K is
    the first prefix whose residual drops below eps.  If even the full
    prefix misses (y is not of F's range form), the floor residual is
    reported with achieved False.
    """
    diagonal = [complex(y.realize_block(k - 1)[k - 1, 0]) for k in range(1, setting.dim + 1)]

    def coefficient(prefix):
        a = AlgebraElement.zero(setting.shape)
        for k in range(1, prefix + 1):
            a = a + delta(setting, k) * (diagonal[k - 1] * math.factorial(k))
        return a

    profile = [(y - setting.generator * coefficient(prefix)).norm() for prefix in range(setting.dim + 1)]
    prefix = next((p for p, residual in enumerate(profile) if residual < eps), None)
    achieved = prefix is not None
    if not achieved:
        prefix = setting.dim
    return SingleGeneratorApprox(coefficient(prefix), prefix, profile[prefix], profile[-1], achieved, tuple(profile))


def test_single_generator_reproduces_generator():
    setting = build_setting(8, 8)
    res = single_generator_approx(setting, setting.generator, eps=1e-9)
    assert res.achieved
    assert res.prefix == 8
    assert res.residual <= 1e-12
    # the proof's coefficient at full prefix: sum of all position indicators
    want = AlgebraElement.zero(setting.shape)
    for k in range(1, 9):
        want = want + delta(setting, k)
    assert (res.coefficient - want).norm() <= 1e-9


def test_single_generator_witness_coefficient():
    setting = build_setting(6, 6)
    res = single_generator_approx(setting, setting.witnesses()[3], eps=1e-9)
    assert res.achieved
    assert res.residual <= 1e-12
    want = delta(setting, 4) * float(math.factorial(4))
    assert (res.coefficient - want).norm() <= 1e-9


def test_single_generator_on_random_images():
    setting = build_setting(7, 7)
    sample = image_sample(setting, count=10, seed=11)
    for y in sample.points:
        res = single_generator_approx(setting, y, eps=1e-6)
        assert res.achieved
        assert res.residual < 1e-6
        assert res.floor <= 1e-9
        profile = res.residual_profile
        for earlier, later in zip(profile, profile[1:]):
            assert later <= earlier + 1e-12


def test_single_generator_floor_off_range():
    setting = build_setting(4, 4)
    off = basis_vector(setting, 1) * delta(setting, 2)
    res = single_generator_approx(setting, off, eps=1e-6)
    assert not res.achieved
    assert res.floor == pytest.approx(1.0, abs=1e-12)


def test_image_sample_in_range_form():
    setting = build_setting(5, 5)
    sample = image_sample(setting, count=8, seed=0)
    for y in sample.points:
        assert y.norm() <= 1.0 + 1e-9
        for k in range(1, setting.dim + 1):
            coord = y.coords[k - 1]
            for b, blk in enumerate(coord.blocks):
                if b != k - 1:
                    assert abs(blk[0, 0]) <= 1e-13


# -- the diagonal model against the dense one -------------------------------


def _dense_min_coeff_norms(setting, stack, eps):
    """The dense boundary solve over (blocks, P, dim) realization stacks, kept as the oracle."""
    x = stack[..., 0]
    g = setting.generator.stacks[0][:, None, :, 0]
    nx2 = (x.conj() * x).sum(axis=-1).real
    ng2 = (g.conj() * g).sum(axis=-1).real
    cross_sum = (g.conj() * x).sum(axis=-1)
    cross = np.hypot(cross_sum.real, cross_sum.imag)
    active = nx2 > eps * eps
    disc = cross * cross - ng2 * (nx2 - eps * eps)
    unreachable = active & ((ng2 == 0.0) | (disc < 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (cross - np.sqrt(disc)) / ng2
    worst = np.where(active, t, 0.0).max(axis=0, initial=0.0)
    return np.where(unreachable.any(axis=0), math.inf, worst).tolist()


@st.composite
def _truncations(draw, top):
    trunc = draw(st.integers(1, top))
    return trunc, draw(st.integers(1, trunc))


@settings(max_examples=60, deadline=None)
@given(size=_truncations(97), eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(size=(97, 97), eps=0.25)
@example(size=(97, 60), eps=0.999)
def test_diagonal_solve_is_the_dense_solve_bit_for_bit(size, eps):
    """Below k = 98, ||v_k||^2 is a normal float and the diagonal solve is the dense one."""
    setting = build_setting(*size)
    diagonal = [required for _, required in coeff_growth(setting, eps)]
    dense = _dense_min_coeff_norms(setting, setting._witness_set.realizations[0], eps)
    assert np.array(diagonal).tobytes() == np.array(dense).tobytes()


def _matrix_min_coeff_norms(columns, eps):
    """The boundary solve on v's (dim, dim) block diagonals, one row per block, kept as the oracle."""
    k = np.arange(len(columns))
    top = np.abs(columns).max(axis=1)
    squares = (columns * columns).sum(axis=1)
    scale = np.where((squares < np.finfo(float).tiny) & (top > 0.0), top, 1.0)
    v = columns / scale[:, None]
    ng2 = (v * v).sum(axis=1)
    cross = np.abs(v[k, k])
    active = 1.0 > eps * eps
    disc = cross * cross - ng2 * (1.0 - eps * eps)
    unreachable = active & ((ng2 == 0.0) | (disc < 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (cross - np.sqrt(disc)) / ng2 / scale
    required = np.where(active, t, 0.0)
    return np.where(unreachable, math.inf, required).tolist()


@pytest.mark.parametrize("trunc, dim", [(98, 98), (104, 100), (120, 120), (170, 170), (170, 99)])
@pytest.mark.parametrize("eps", [1e-3, 0.1, 0.25, 0.9, 1.0, 1.5])
def test_coefficient_solve_is_the_matrix_solve_bit_for_bit(trunc, dim, eps):
    """On block k-1, v has the one entry v_k, so each row sum of the matrix solve is that entry's square."""
    setting = build_setting(trunc, dim)
    coefficient = [required for _, required in coeff_growth(setting, eps)]
    matrix = _matrix_min_coeff_norms(setting._generator_diagonals[:dim], eps)
    assert np.array(coefficient).tobytes() == np.array(matrix).tobytes()
    assert (eps >= 1.0) == (coefficient == [0.0] * dim)


def _vector_min_coeff_norms(coefficients, eps):
    """The numpy formula that `_min_coeff_norms` replaced, one lane per coefficient, kept as the oracle.

    Squares of coefficients past 1e154 overflow, and their rows are NaN.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        top = np.abs(coefficients)
        scale = np.where((coefficients * coefficients < np.finfo(float).tiny) & (top > 0.0), top, 1.0)
        v = coefficients / scale
        ng2 = v * v
        cross = np.abs(v)
        active = 1.0 > eps * eps
        disc = cross * cross - ng2 * (1.0 - eps * eps)
        unreachable = active & ((ng2 == 0.0) | (disc < 0.0))
        t = (cross - np.sqrt(disc)) / ng2 / scale
    required = np.where(active, t, 0.0)
    return np.where(unreachable, math.inf, required).tolist()


_FACTORIAL_INVERSES = st.integers(1, 170).map(lambda k: 1.0 / math.factorial(k))
_COEFFICIENTS = st.lists(st.one_of(_FACTORIAL_INVERSES, st.floats(1e-160, 1e160)), min_size=1, max_size=24)
# eps below about 1.5e-154 has a square that is subnormal or 0
_EPS = st.one_of(st.floats(0.0, 2.0, exclude_min=True), st.floats(5e-324, 1.5e-154))


@settings(max_examples=300, deadline=None)
@given(coefficients=_COEFFICIENTS, eps=_EPS)
@example(coefficients=[1.0 / math.factorial(k) for k in range(1, 171)], eps=0.25)
@example(coefficients=[1.0 / math.factorial(k) for k in range(1, 171)], eps=1e-160)
@example(coefficients=[1e-160, 1e160, 1.0], eps=5e-324)
@example(coefficients=[1e-160, 1e160, 1.0], eps=1.0)
@example(coefficients=[1e-160, 1e160, 1.0], eps=2.0)
@example(coefficients=[0.0, -0.0, -1e-160, -0.5], eps=0.25)  # v vanishes: unreachable
def test_the_scalar_solve_is_the_vector_formula_bit_for_bit(coefficients, eps):
    """Each row of the scalar pass is one lane of the numpy formula: the same IEEE operations in order."""
    coefficients = np.array(coefficients)
    scalar = counterexample._min_coeff_norms(coefficients, eps)
    assert np.array(scalar).tobytes() == np.array(_vector_min_coeff_norms(coefficients, eps)).tobytes()


@pytest.mark.parametrize("trunc, dim", [(1, 1), (9, 7), (97, 97), (170, 6)])
def test_lazy_operator_and_generator_are_the_dense_stacks(trunc, dim):
    setting = build_setting(trunc, dim)
    k = np.arange(dim)
    pinch = np.zeros((trunc + 1, dim, dim), complex)
    pinch[k, k, k] = 1.0
    coefficients = np.zeros((trunc + 1, dim, 1), complex)
    coefficients[k, k, 0] = [1.0 / math.factorial(j) for j in range(1, dim + 1)]
    (operator,) = setting_operator(setting).stacks
    (generator,) = setting.generator.stacks
    assert (operator.shape, operator.dtype) == (pinch.shape, pinch.dtype)
    assert operator.tobytes() == pinch.tobytes()
    assert (generator.shape, generator.dtype) == (coefficients.shape, coefficients.dtype)
    assert generator.tobytes() == coefficients.tobytes()
    assert setting.generator is setting.generator


# Every row against exact (1 - eps) * k!.  Rows k <= 97 are the plain
# formula, a few ulps off at most (1.7e-15 at eps 0.8731); the rows solved
# on normalised data, k >= 98, are within 2 ulps.
ROW_RTOL = Fraction(1, 10**14)
SCALED_ROW_RTOL = Fraction(1, 10**15)


@pytest.mark.parametrize("trunc", [98, 120, 170])
@pytest.mark.parametrize("eps", [0.25, 0.5, 0.8731])
def test_every_row_matches_exact_factorial_growth(trunc, eps):
    rows = coeff_growth(build_setting(trunc), eps)
    assert [k for k, _ in rows] == list(range(1, trunc + 1))
    for k, required in rows:
        assert math.isfinite(required)
        exact = (1 - Fraction(eps)) * math.factorial(k)
        error = abs(Fraction(required) - exact) / exact
        assert error <= (SCALED_ROW_RTOL if k >= 98 else ROW_RTOL), (k, required)


def test_rows_past_97_were_the_underflowing_ones():
    """The dense solve loses rows k >= 98 to the underflowing square; the diagonal solve keeps them."""
    setting = build_setting(104)
    dense = _dense_min_coeff_norms(setting, setting._witness_set.realizations[0], 0.25)
    assert dense[101:] == [math.inf] * 3
    diagonal = [required for _, required in coeff_growth(setting, 0.25)]
    assert diagonal[:97] == dense[:97]
    assert float(Fraction(3, 4) * math.factorial(101)) == diagonal[100] != dense[100]


def _corrupted(name, where, value):
    real = getattr(TruncatedCSetting, name)

    def diagonals(self):
        out = real.func(self).copy()
        out[where] = value
        return out

    return property(diagonals)


def test_an_operator_entry_past_one_is_not_a_contraction(monkeypatch):
    # coordinate 1 of block 0 is off v's support, so F still fixes v
    monkeypatch.setattr(
        TruncatedCSetting, "_operator_diagonals", _corrupted("_operator_diagonals", (0, 1), 1.0 + 2.0**-52)
    )
    with pytest.raises(AssertionError, match="^F is not a contraction$"):
        build_setting(4, 4)


def test_a_generator_that_f_moves_is_refused(monkeypatch):
    # coordinate 0 of block 1: F keeps only coordinate 1 there
    monkeypatch.setattr(
        TruncatedCSetting, "_generator_diagonals", _corrupted("_generator_diagonals", (1, 0), 2.0**-1074)
    )
    with pytest.raises(AssertionError, match="^F does not fix the generator v$"):
        build_setting(4, 4)


def test_the_cli_path_builds_no_dense_model_and_no_svd(monkeypatch):
    svd = np.linalg.svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    setting = build_setting(12, 12)
    assert calls == []
    coeff_growth(setting, 0.25)
    for n in range(setting.dim):
        tail_obstruction(setting, n)
    setting.witness_profiles()
    assert "generator" not in setting.__dict__
    assert "_witness_set" not in setting.__dict__


# -- the witnesses' tails from their known pairs ------------------------------


@pytest.mark.parametrize(
    "trunc, dim", [(1, 1), (4, 4), (12, 6), (12, 12), (98, 98), (102, 100), (170, 170)]
)
def test_the_witness_tails_from_their_pairs_are_the_dense_routes(trunc, dim):
    """The fold of the witnesses' (k, k) pairs gives the bits of both routes over the dense stack."""
    setting = build_setting(trunc, dim)
    sups, profiles = setting._witness_tails
    assert "_witness_set" not in setting.__dict__
    via_frame, direct = tail_routes(setting.frame, setting._witness_set)
    assert profiles.tobytes() == via_frame.tobytes()
    assert profiles.tobytes() == setting.frame.tail_profiles(setting._witness_set).tobytes()
    assert np.array(sups).tobytes() == direct.max(axis=0, initial=0.0).tobytes()
    assert sups == [1.0] * dim + [0.0]
    if trunc >= 102:
        assert len(chunks(dim, (2 * dim + 2) * dim)) > 1


# The child reads its peak from VmHWM, the high-water mark of its own
# address space: on Linux, getrusage's ru_maxrss keeps the peak of the
# process image it replaced, here a fork of the test runner.
_PEAK_RSS = """
import contextlib, io
from cstarframes.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["counterexample", "--trunc", "170", "--eps", "0.25"])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, peak)
"""


def test_the_largest_truncation_runs_in_under_80_mb():
    """`counterexample --trunc 170` in a fresh interpreter: no dense witness stack (79 MB) is built.

    The dense stack's run peaks near 118 MB.
    """
    src = str(Path(counterexample.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS], env=env, capture_output=True, text=True, check=True
    )
    code, peak_kib = map(int, done.stdout.split())
    assert code == 1
    assert peak_kib < 80 * 1024, f"peak RSS {peak_kib / 1024:.1f} MB"
