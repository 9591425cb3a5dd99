"""Truncated realization of the factorial-growth counterexample.

The algebra is the convergent sequences truncated at level N: N position
coordinates plus an explicit limit coordinate, so the model stays honest
to sequences-with-limit rather than sequences-vanishing-at-infinity.
Over A^M the diagonal operator F pinches coordinate k by the position
indicator delta_k.  Its unit-ball image is approximable from the single
generator v = sum (1/k!) e_k delta_k, but only with coefficients of norm
about k!, and every fixed-prefix reconstruction tail stays pinned at 1.
Positions are 1-based throughout: position k lives in algebra block k-1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraShape, fold_pair_maxima, spectral_norms
from .frames import Frame, frame_coefficients, frame_residuals, standard_basis_frame
from .modules import ModuleVector, SampleSet
from .tolerances import SELF_CHECK_ATOL, below, check_eps

# Largest truncation the float64 model holds: the generator carries 1/k!,
# and 171! overflows a double.
MAX_TRUNC = 170

# The smallest positive normal double: a square below it lost bits.
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True, eq=False)
class TruncatedCSetting:
    """Truncation data: sequence level, module dimension, and v's coefficients.

    trunc is the last explicit sequence position (the algebra has
    trunc + 1 one-dimensional blocks, the final one being the limit
    coordinate, where every position indicator vanishes).  dim <= trunc
    so that every indicator the module needs exists.  coefficients[k-1]
    is 1/k!, the generator's entry at coordinate k of block k-1.

    F and v are diagonal: on block b, F keeps coordinate b and v carries
    1/(b+1)! there.  The model is stored as those diagonals, each built
    once; `generator` builds v as a module vector on first use.
    """

    trunc: int
    dim: int
    shape: AlgebraShape
    coefficients: np.ndarray = field(repr=False)

    @functools.cached_property
    def _operator_diagonals(self) -> np.ndarray:
        """F's realization on every block, as its diagonal: (trunc + 1, dim), read-only."""
        k = np.arange(self.dim)
        diagonals = np.zeros((self.trunc + 1, self.dim))
        diagonals[k, k] = 1.0
        diagonals.setflags(write=False)
        return diagonals

    @functools.cached_property
    def _generator_diagonals(self) -> np.ndarray:
        """v's realization on every block, as one column each: (trunc + 1, dim), read-only."""
        k = np.arange(self.dim)
        columns = np.zeros((self.trunc + 1, self.dim))
        columns[k, k] = self.coefficients
        columns.setflags(write=False)
        return columns

    @functools.cached_property
    def generator(self) -> ModuleVector:
        """The single generator v = sum (1/k!) e_k delta_k as a module vector."""
        columns = np.zeros((self.trunc + 1, self.dim, 1), complex)
        columns[..., 0] = self._generator_diagonals
        return ModuleVector._packed(self.shape, self.dim, (columns,))

    def witnesses(self) -> tuple[ModuleVector, ...]:
        """All extreme image points e_k * delta_k, k = 1..dim, in order.

        Built on the first call and shared by every later one; the
        vectors are immutable, so callers may keep or reuse the tuple.
        """
        return self._witness_set.points

    @functools.cached_property
    def _witness_set(self) -> SampleSet:
        # e_k * delta_k is the unit at coordinate k of block k: one dense
        # stack (trunc + 1, dim, dim, 1) for the single size class, built
        # only for `witnesses`; the tails read the witnesses' pairs.
        k = np.arange(self.dim)
        stack = np.zeros((self.trunc + 1, self.dim, self.dim, 1), complex)
        stack[k, k, k] = 1.0
        return SampleSet._packed(self.shape, self.dim, (stack,))

    @functools.cached_property
    def frame(self) -> Frame:
        """The standard basis frame {e_k} of the module, built once."""
        return standard_basis_frame(self.shape, self.dim)

    @functools.cached_property
    def _witness_tails(self) -> tuple[list[float], np.ndarray]:
        # (sup of the truncation tails per prefix, frame tail profiles) of
        # the witnesses, cross-checked.  Witness k's one non-zero (block,
        # point) pair is (k, k), with the unit column at coordinate k
        # (0-based): the pairs the fold would find in `_witness_set`.
        k = np.arange(self.dim)
        columns = np.zeros((self.dim, 1, self.dim, 1), complex)
        columns[k, 0, k] = 1.0
        return _checked_tails(*_fold_tail_routes(self.frame, columns, self.dim, (k, k)))

    def witness_profiles(self) -> np.ndarray:
        """The frame's tail profile of every witness, one row each.

        Shared with `tail_obstruction`: the profiles are computed and
        cross-checked against coordinate truncation once per setting, and
        the array is read-only.
        """
        return self._witness_tails[1]


def build_setting(trunc: int, dim: int | None = None) -> TruncatedCSetting:
    """Construct the truncated counterexample; dim defaults to trunc.

    A truncation level outside 1..MAX_TRUNC, or a dim outside 1..trunc,
    is a ValueError.  Verifies the two structural identities exactly on
    the diagonals before returning: F fixes the generator v entry for
    entry, and every diagonal entry of F has modulus at most 1, so
    ||F|| <= 1.
    """
    if trunc < 1:
        raise ValueError("truncation level must be at least 1")
    if trunc > MAX_TRUNC:
        raise ValueError(
            f"truncation level {trunc} exceeds {MAX_TRUNC}: the generator "
            f"coefficient 1/{trunc}! is outside float64 range"
        )
    if dim is None:
        dim = trunc
    if not 1 <= dim <= trunc:
        raise ValueError(
            f"module dimension {dim} must satisfy 1 <= dim <= trunc={trunc}"
        )
    shape = AlgebraShape((1,) * (trunc + 1))
    coefficients = np.array([1.0 / math.factorial(j) for j in range(1, dim + 1)])
    coefficients.setflags(write=False)
    setting = TruncatedCSetting(trunc, dim, shape, coefficients)

    f, v = setting._operator_diagonals, setting._generator_diagonals
    if not np.array_equal(f * v, v):
        raise AssertionError("F does not fix the generator v")
    if not (np.abs(f) <= 1.0).all():
        raise AssertionError("F is not a contraction")
    return setting


def _min_coeff_norms(coefficients: np.ndarray, eps: float) -> list[float]:
    """Exact infimum of ||a|| over {a : ||w_k - v*a|| <= eps}, for every witness w_k.

    coefficients[k-1] = v_k is v's only non-zero entry on block k-1, at
    coordinate k.  The algebra is commutative, so the solve decouples per
    block, and w_k = e_k * delta_k is zero off block k-1, where it is the
    unit at coordinate k.  The minimal |a(k-1)| placing the residual on
    the eps boundary solves a real quadratic in |a(k-1)| with
    ||w_k||^2 = 1, ||v||^2 = v_k^2 and |<v, w_k>| = |v_k| on that block.
    w_k within eps needs 0; a block where v vanishes is unreachable.

    Where v_k^2 leaves the normal float range (v_k = 1/k!, whose square is
    subnormal from k = 98 on and 0 from k = 102), the quadratic is solved
    on v / ||v|| for ||v|| * |a|, whose squares are exact, and the root is
    divided by ||v|| = |v_k|.  w_k is not scaled: the square of
    w_k / ||v|| would overflow.  Every other block divides by 1 and takes
    the plain formula bit for bit.  One pass over the coefficients as
    Python floats: each row is the same IEEE operations, in the same
    order, as one lane of the numpy formula it replaced.
    """
    if not below(eps * eps, 1.0):
        return [0.0] * len(coefficients)
    keep = 1.0 - eps * eps
    required = []
    for c in coefficients.tolist():
        top = abs(c)
        scale = top if c * c < _TINY and top > 0.0 else 1.0
        v = c / scale
        ng2 = v * v
        cross = abs(v)
        disc = cross * cross - ng2 * keep
        if ng2 == 0.0 or disc < 0.0:
            required.append(math.inf)
        else:
            required.append((cross - math.sqrt(disc)) / ng2 / scale)
    return required


def coeff_growth(setting: TruncatedCSetting, eps: float) -> list[tuple[int, float]]:
    """(k, required coefficient norm) for each witness e_k * delta_k.

    required = inf{||a|| : ||witness - v*a|| <= eps}, computed by the
    exact per-block boundary solve; it equals (1 - eps) * k! on these
    witnesses, which is the unbounded growth that kills any uniform
    coefficient bound across truncations.
    """
    check_eps(eps)
    required = _min_coeff_norms(setting.coefficients, eps)
    return list(enumerate(required, start=1))


def _truncation_residuals(x: np.ndarray) -> np.ndarray:
    """x - x.restrict(0, n) for n = 0..dim on (b, p, dim, 1) realizations over 1x1 blocks.

    That is x with its first n rows zeroed, laid out as `frame_residuals`.
    """
    dim = x.shape[2]
    kept = (np.arange(dim) >= np.arange(dim + 1)[:, None])[:, :, None]
    return np.where(kept, x[:, :, None], 0.0)


def _fold_tail_routes(frame: Frame, xs: np.ndarray, count: int, pairs=None) -> tuple[np.ndarray, np.ndarray]:
    """Both tail routes of `count` points, from one `fold_pair_maxima` over their (block, point) pairs.

    xs and pairs are the fold's: the points' realizations (blocks, P,
    dim, 1), or with pairs the realizations of those pairs only.  Per
    chunk both routes' residuals, the frame's as in `Frame.tail_profiles`,
    are joined on the prefix axis for one `spectral_norms` call.  Zero
    pairs are left out, exact for both routes: the frame is finite.
    """
    size, dim = frame.size, frame.dim
    zs, gs = frame._family.realizations[0], frame._dual.realizations[0]

    def norms(blocks, x):
        via_frame = frame_residuals(x, zs[blocks], frame_coefficients(gs[blocks], x))
        return spectral_norms(np.concatenate((via_frame, _truncation_residuals(x)), axis=2))

    tails = np.zeros((count, size + dim + 2))
    fold_pair_maxima(tails, xs, (size + dim + 2) * dim, norms, pairs)
    return tails[:, : size + 1], tails[:, size + 1 :]


def _checked_tails(via_frame: np.ndarray, direct: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Sup of the truncation tails per prefix and the frame's tail profiles (read-only), checked to agree.

    The two routes are compared at every point and prefix.  Every tail is
    a spectral norm, >= +0.0 and never NaN, so the sup from +0.0 is the
    largest tail, and 0.0 without points.
    """
    bad = np.argwhere(~below(np.abs(direct - via_frame), 0.0, SELF_CHECK_ATOL))
    if len(bad):
        d, f = direct[tuple(bad[0])], via_frame[tuple(bad[0])]
        raise AssertionError(
            f"direct tail {float(d)!r} disagrees with frame tail {float(f)!r}"
        )
    via_frame.setflags(write=False)
    return direct.max(axis=0, initial=0.0).tolist(), via_frame


def tail_obstruction(setting: TruncatedCSetting, n: int) -> float:
    """Sup of the n-term reconstruction tail over the witness set.

    This is exactly 1, achieved at e_{n+1} * delta_{n+1}: the standard
    basis reproduces it only by its own term, which every shorter prefix
    misses.  Requires n < dim so the achieving witness exists.

    Each witness's tails come from coordinate truncation and are checked
    against the standard frame's tail profile at every prefix; the
    witnesses' tails, and their sup at every prefix, are computed once
    per setting.
    """
    if not 0 <= n < setting.dim:
        raise ValueError(
            f"prefix {n} has no witness at module dimension {setting.dim}"
        )
    return setting._witness_tails[0][n]
