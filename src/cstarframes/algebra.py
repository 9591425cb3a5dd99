"""Block-diagonal matrix algebras: arithmetic, norms, order, and states.

The algebra is always a finite direct sum of full complex matrix blocks
M_{n_1} + ... + M_{n_K}.  Every element is stored through this faithful
realization, so norms, spectra and positivity are plain dense linear
algebra.  Blocks of equal size form a *size class* and are stored
together, one (count, n, n) array per class, so every operation is one
batched numpy call per class; a commutative algebra (every block 1x1) is
a single class.  Whatever depends on block order (a sum over the blocks,
a max taken the way Python's max() takes it, the first block that fails
a test) is taken in block order after the per-class results are
gathered, so results do not depend on how the blocks are grouped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tolerances import STATE_ATOL, STATE_PHASE_ATOL, STATE_TIE_ATOL, below

# Batched intermediates are cut along one axis into chunks of at most this
# many entries (one item per chunk at least), so the memory of a pass does
# not grow with the number of blocks or points it covers.
CHUNK_ENTRIES = 1 << 18


def chunks(count: int, item_entries: int) -> list[slice]:
    """Slices cutting `count` items of `item_entries` entries each under CHUNK_ENTRIES."""
    step = max(1, CHUNK_ENTRIES // max(1, item_entries))
    return [slice(i, i + step) for i in range(0, count, step)]


def tiles(count: int, points: int, item_entries: int) -> list[tuple[slice, slice]]:
    """(blocks, points) slices cutting count x points items under CHUNK_ENTRIES.

    Blocks are grouped first, then points within each group of blocks, so
    a tile stays under the bound even when one point's data over all
    blocks would not.
    """
    out = []
    for blocks in chunks(count, item_entries):
        width = len(range(count)[blocks])
        out.extend((blocks, part) for part in chunks(points, width * item_entries))
    return out


def nonzero_matrices(a: np.ndarray) -> np.ndarray | None:
    """Which matrices of a stack (..., m, n) have a non-zero entry; None if all of them do.

    -0.0 counts as zero and NaN as non-zero.  A stack without a single
    zero entry, the common dense case, is settled by one a.all().
    """
    if a.all():
        return None
    nonzero = a.any(axis=(-2, -1))
    return None if nonzero.all() else nonzero


# A stack of fewer matrices goes to the SVD whole: there the zero test, the
# gather and the scatter cost more than the few small SVDs they could save.
# Testing every stack cost 3.5-10 us more per call on stacks of 2-15 (2, 2) or
# (4, 1) matrices, half zero (best of 7 x 3000 calls, one core, numpy 2.4.6).
ZERO_TEST_MIN_MATRICES = 16


def _largest_singular_values(a: np.ndarray) -> np.ndarray:
    # What np.linalg.norm(a, 2, axis=(-2, -1)) computes, without its argument handling.
    return np.linalg.svd(a, compute_uv=False).max(-1, initial=0.0)


def spectral_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, 2, axis=(-2, -1)) of a stack of matrices, zero matrices free.

    The norm is the largest singular value from one direct np.linalg.svd
    call, which is the arithmetic of np.linalg.norm (its `_multi_svd_norm`
    takes the same max, from 0, over the same SVD) without the per-call
    cost of its argument handling.  An all-zero matrix, -0.0 entries
    included, gets +0.0 without an SVD: that is what the SVD returns for
    it.  Every other matrix goes through the SVD, so a NaN matrix still
    raises LinAlgError, and when no matrix is zero (or the stack is
    small) this is exactly that one call.
    """
    small = math.prod(a.shape[:-2]) < ZERO_TEST_MIN_MATRICES
    nonzero = None if small else nonzero_matrices(a)
    if nonzero is None:
        return _largest_singular_values(a)
    out = np.zeros(nonzero.shape)
    if nonzero.any():
        out[nonzero] = _largest_singular_values(a[nonzero])
    return out


def fold_pair_maxima(out, stack, item_entries: int, norms_of, pairs=None) -> None:
    """Fold into out[p] the entrywise max over blocks of point p's norms, for every point p.

    The (block, point) pairs come from one of two sources:
    - found here: stack has shape (count, P, rows, n), any per-class
      stack whose zero (block, point) pairs have zero norms, such as the
      realizations of P points, their coefficient stacks, or an
      operator's blocks as a family of one point;
    - known to the caller: pairs = (blocks, points), two index arrays of
      equal length, and stack holds those pairs' realizations, one pair
      per row, (len(blocks), 1, rows, n).  Every pair left out must have
      zero norms, as a zero pair has here.
    norms_of(blocks, x) gets a (b, p, rows, n) selection x of the pairs
    and `blocks`, which picks the same b blocks out of any per-block
    array: a[blocks, None] lines up with x along the point axis.  It
    returns the pairs' norms, (b, p, K), and out is (P, K), every entry
    >= +0.0.

    A (block, point) pair whose entries are all zero is left out.
    That is exact when norms_of gives +0.0 for such a pair, which fmax
    against out leaves unchanged: true when norms_of only multiplies the
    pair's data by finite factors (inf * 0 would be a NaN).  If every
    pair of a stack is non-zero, the pairs are taken in `tiles`, as
    views, nothing gathered; otherwise the non-zero pairs are gathered
    one pair per row (p = 1).  Gathered or known, the pairs are folded
    in chunks under CHUNK_ENTRIES, with np.fmax.at.
    """
    known = pairs is not None
    if not known:
        count, points = stack.shape[:2]
        nonzero = nonzero_matrices(stack)
        if nonzero is None:
            for blocks, part in tiles(count, points, item_entries):
                norms = norms_of(blocks, stack[blocks, part])
                out[part] = np.fmax(out[part], np.fmax.reduce(norms, axis=0))
            return
        pairs = np.nonzero(nonzero)
    pair_blocks, pair_points = pairs
    for piece in chunks(len(pair_blocks), item_entries):
        blocks, part = pair_blocks[piece], pair_points[piece]
        norms = norms_of(blocks, stack[piece] if known else stack[blocks, part, None])
        np.fmax.at(out, part, norms[:, 0])


@dataclass(frozen=True)
class AlgebraShape:
    """Block sizes (n_1, ..., n_K) of a direct sum of full matrix blocks."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        if len(dims) == 0:
            raise ValueError("shape needs at least one block")
        if any(n < 1 for n in dims):
            raise ValueError(f"block dimensions must be positive, got {dims}")
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def realization_dim(self) -> int:
        return sum(self.block_dims)

    @functools.cached_property
    def classes(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The size classes: each distinct block size n (in order of first
        appearance) with the indices of its blocks, in block order."""
        members: dict[int, list[int]] = {}
        for k, n in enumerate(self.block_dims):
            members.setdefault(n, []).append(k)
        return tuple((n, tuple(ks)) for n, ks in members.items())

    @functools.cached_property
    def slots(self) -> tuple[tuple[int, int], ...]:
        """For each block k, its class c and its position j within the class."""
        out = {k: (c, j) for c, (_, ks) in enumerate(self.classes) for j, k in enumerate(ks)}
        return tuple(out[k] for k in range(self.num_blocks))

    @functools.cached_property
    def _block_order(self) -> np.ndarray | None:
        # Positions, among the classes laid end to end, of blocks 0..K-1;
        # None when the classes already lie in block order.
        flat = [k for _, ks in self.classes for k in ks]
        return None if flat == sorted(flat) else np.argsort(flat)

    def gather(self, per_class) -> np.ndarray:
        """Per-class arrays with a leading axis over their blocks, joined in block order."""
        joined = per_class[0] if len(per_class) == 1 else np.concatenate(per_class)
        order = self._block_order
        return joined if order is None else joined[order]


def blockwise_max(per_class):
    """Max over the blocks, entry by entry, as a float or nested lists of floats.

    per_class holds one array per size class with a leading axis over the
    class's blocks and a common trailing shape.  A module norm is the
    largest block norm: this is np.maximum over the per-class maxima.
    Every input is a spectral norm, +0.0 or positive and never NaN, so
    the value is the one Python's max() takes over the blocks in block
    order.  A scalar per block gives a float.
    """
    return functools.reduce(np.maximum, [a.max(axis=0) for a in per_class]).tolist()


def ordered_sum(terms: np.ndarray, axis: int) -> np.ndarray:
    """Sum of `terms` along `axis`: a total from +0.0, one term at a time in index order.

    The library's one summation order: every fixed-order sum goes through
    this or `ordered_sums`, so its bits do not depend on memory layout,
    as those of numpy's pairwise reductions (and np.trace from n = 4) do.
    In round-to-nearest x + (-x) = +0 and +0 + (-0) = +0, so the total,
    which holds one term's worth of memory, never holds -0.0: adding a
    +-0 term leaves every bit of it unchanged, and for s the same sum
    started at the first term, 0.0 + s equals it bit for bit.

    NaN, in both kernels, is where the loop has it, with the sign and
    payload the hardware add returns: IEEE 754-2019 leaves open which
    input NaN an addition propagates (§6.2.3).
    """
    parts = np.moveaxis(terms, axis, 0)
    total = np.zeros(parts.shape[1:], parts.dtype)
    for part in parts:
        total += part
    return total


def ordered_sums(terms: np.ndarray, axis: int) -> np.ndarray:
    """Every prefix of `ordered_sum` along `axis`: np.add.accumulate in place behind a +0.0 prefix."""
    axis %= terms.ndim
    shape = list(terms.shape)
    shape[axis] += 1
    out = np.empty(shape, terms.dtype)
    head = (slice(None),) * axis
    out[head + (0,)] = 0.0
    out[head + (slice(1, None),)] = terms
    return np.add.accumulate(out, axis=axis, out=out)


def stack_norms(stacks):
    """Module norm of every stacked point, or of one value: its largest block spectral norm."""
    return blockwise_max([spectral_norms(s) for s in stacks])


def block_sum(shape: AlgebraShape, per_class) -> np.ndarray:
    """Sum over the blocks, in block order (`ordered_sum`), of per-class arrays."""
    return ordered_sum(shape.gather(per_class), 0)


def hermitian_part(stack: np.ndarray) -> np.ndarray:
    """(a + a*) / 2 of every matrix in a stack."""
    return (stack + stack.conj().swapaxes(-1, -2)) / 2.0


def frozen(stacks) -> tuple[np.ndarray, ...]:
    """The arrays as a tuple, made read-only: views of stored arrays are handed out."""
    stacks = tuple(stacks)
    for s in stacks:
        s.setflags(write=False)
    return stacks


def stored(obj, stacks, **attrs):
    """obj with `stacks`, made read-only, and `attrs` stored on it; every constructor ends here.

    A public constructor fills `self` after its validation.  Library
    results are already in shape and fill a fresh `object.__new__(cls)`
    without it; only values coming from outside are validated.
    """
    object.__setattr__(obj, "stacks", frozen(stacks))
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)
    return obj


def _pack_blocks(shape: AlgebraShape, blocks) -> tuple[np.ndarray, ...]:
    """Validate a list of per-block matrices and pack it by size class."""
    if len(blocks) != shape.num_blocks:
        raise ValueError(
            f"expected {shape.num_blocks} blocks, got {len(blocks)}"
        )
    arrays = []
    for k, (n, b) in enumerate(zip(shape.block_dims, blocks)):
        arr = np.asarray(b, dtype=complex)
        if arr.shape != (n, n):
            raise ValueError(
                f"block {k} has shape {arr.shape}, expected {(n, n)}"
            )
        arrays.append(arr)
    return frozen(np.stack([arrays[k] for k in ks]) for _, ks in shape.classes)


def entry_blocks(stack: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A matrix stack (count, rows*n, cols*n) seen as its (count, rows, cols, n, n) entries."""
    n = stack.shape[-1] // cols
    return stack.reshape(len(stack), rows, n, cols, n).transpose(0, 1, 3, 2, 4)


def from_entry_blocks(entries: np.ndarray) -> np.ndarray:
    """Inverse of `entry_blocks`: (count, rows, cols, n, n) to (count, rows*n, cols*n)."""
    count, rows, cols, n, _ = entries.shape
    return entries.transpose(0, 1, 3, 2, 4).reshape(count, rows * n, cols * n)


@dataclass(frozen=True, eq=False, repr=False, init=False)
class _Matrix:
    """A rows x cols matrix over the algebra, stored as its block realizations.

    Every value is an adjointable map between free modules: an element a
    is the 1x1 matrix, a vector x of A^m the m x 1 matrix (the map
    a |-> x a from A to A^m), an operator A^s -> A^m the m x s matrix.
    All of them are stored the same way: stacks[c] holds the realizations
    of the blocks of size class c, shape (count_c, rows*n_c, cols*n_c).
    The arithmetic here keeps the type of its operand: sums and
    differences within one module, negation, scaling, the right action of
    an element on a one-column matrix, and the norm.  Two operands are
    compatible when they have one type, one algebra shape and the same
    rows and cols; each class names a mismatch in its own words
    (`_MISMATCH`, formatted with the two operands).
    """

    shape: AlgebraShape
    _rows: int
    _cols: int
    stacks: tuple[np.ndarray, ...]

    def _set_entries(self, shape: AlgebraShape, rows) -> None:
        """Store a matrix of algebra elements given as rows of equal length."""
        stored(self, (
            from_entry_blocks(
                np.stack([np.stack([e.stacks[c] for e in row], axis=1) for row in rows], axis=1)
            )
            for c in range(len(shape.classes))
        ), shape=shape, _rows=len(rows), _cols=len(rows[0]))

    def _with(self, stacks):
        return stored(
            object.__new__(type(self)), stacks, shape=self.shape, _rows=self._rows, _cols=self._cols
        )

    def _require_compatible(self, other) -> None:
        if other.shape != self.shape or type(other) is not type(self) or (
            (other._rows, other._cols) != (self._rows, self._cols)
        ):
            raise ValueError(self._MISMATCH.format(self, other))

    def __add__(self, other):
        self._require_compatible(other)
        return self._with(a + b for a, b in zip(self.stacks, other.stacks))

    def __sub__(self, other):
        self._require_compatible(other)
        return self._with(a - b for a, b in zip(self.stacks, other.stacks))

    def __neg__(self):
        return self._with(-a for a in self.stacks)

    def _scaled(self, scalar):
        return self._with(a * complex(scalar) for a in self.stacks)

    def __mul__(self, other):
        """Right action x*a of an algebra element on one column, scaling for scalars."""
        if isinstance(other, AlgebraElement):
            if other.shape != self.shape:
                raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
            # R_k(x) @ a_k: by the stacked-left rule each entry gets the bits of x_i * a
            return self._with(s @ a for s, a in zip(self.stacks, other.stacks))
        return self._scaled(other)

    def _adjoint(self):
        """Entrywise adjoint of the transpose; satisfies <T*y,x> = <y,Tx>."""
        return stored(
            object.__new__(type(self)),
            (np.ascontiguousarray(a.conj().swapaxes(-1, -2)) for a in self.stacks),
            shape=self.shape, _rows=self._cols, _cols=self._rows,
        )

    def _block(self, k: int) -> np.ndarray:
        """The realization of block k, shape (rows*n_k, cols*n_k): a read-only view."""
        c, j = self.shape.slots[k]
        return self.stacks[c][j]

    def norm(self) -> float:
        """C*-norm: the largest spectral norm of a block realization.

        Exact, because the block realization is a faithful representation:
        an element's norm is its largest singular value across blocks, a
        vector's ||<x,x>||^(1/2) is the largest one of R_k(x), and the
        supremum of ||Tx|| over the unit ball is attained on each block
        at its leading right singular vector.
        """
        return stack_norms(self.stacks)


@dataclass(frozen=True, eq=False, repr=False)
class AlgebraElement(_Matrix):
    """One member of the algebra: a matrix per block, the 1x1 case of `_Matrix`.

    stacks[c] holds the blocks of size class c, shape (count_c, n_c, n_c);
    `blocks` gives them back in block order as read-only views.  Values
    are immutable after construction and all arithmetic returns fresh
    elements, so instances are safe to share across threads.
    """

    _MISMATCH = "shape mismatch: {0.shape} vs {1.shape}"

    def __init__(self, shape: AlgebraShape, blocks):
        self.__post_init__(shape, blocks)

    def __post_init__(self, shape: AlgebraShape, blocks):
        # Every validated construction passes here; library results use `_packed`.
        stored(self, _pack_blocks(shape, blocks), shape=shape, _rows=1, _cols=1)

    @classmethod
    def _packed(cls, shape: AlgebraShape, stacks) -> "AlgebraElement":
        return stored(object.__new__(cls), stacks, shape=shape, _rows=1, _cols=1)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The matrix of each block, in block order."""
        return tuple(self.stacks[c][j] for c, j in self.shape.slots)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls._packed(
            shape, (np.tile(np.eye(n, dtype=complex), (len(ks), 1, 1)) for n, ks in shape.classes)
        )

    @classmethod
    def zero(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls._packed(shape, (np.zeros((len(ks), n, n), complex) for n, ks in shape.classes))

    @classmethod
    def block_unit(cls, shape: AlgebraShape, k: int) -> "AlgebraElement":
        """Central projection supported on block k: identity there, zero elsewhere."""
        if not 0 <= k < shape.num_blocks:
            raise ValueError(f"block index {k} out of range")
        stacks = [np.zeros((len(ks), n, n), complex) for n, ks in shape.classes]
        c, j = shape.slots[k]
        stacks[c][j] = np.eye(shape.block_dims[k])
        return cls._packed(shape, stacks)

    # -- arithmetic (the rest is `_Matrix`'s) ----------------------------

    def __rmul__(self, scalar) -> "AlgebraElement":
        return self._with(complex(scalar) * a for a in self.stacks)

    adjoint = _Matrix._adjoint

    # -- order ------------------------------------------------------------

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue across the Hermitian symmetrizations of all blocks."""
        mins = [np.linalg.eigvalsh(hermitian_part(a)).min(axis=-1) for a in self.stacks]
        return min(self.shape.gather(mins).tolist())

    def __repr__(self) -> str:
        dims = "+".join(str(n) for n in self.shape.block_dims)
        return f"AlgebraElement(blocks {dims}, norm={self.norm():.4g})"


class StateError(ValueError):
    """A density batch entry that is not a state; `index` is its position in the batch."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


def checked_states(shape: AlgebraShape, stacks) -> list[tuple[np.ndarray, ...]]:
    """Validate a batch of states; per state, views of its density stacks (count, n, n).

    stacks[c] holds the densities of every state on the blocks of size
    class c, shape (count, states, n, n).  One Hermitian-defect check and
    one eigvalsh per class serve every state; both work matrix by
    matrix, so each value is the one a batch of one gets.  A state is
    checked block by block in block order, Hermitian (largest
    |rho - rho*| entry at most STATE_ATOL) and then positive semidefinite
    (least eigenvalue of the Hermitian part at least -STATE_ATOL), and
    then its trace total, one np.trace per class for all states summed by
    `block_sum`, must be within STATE_ATOL of 1.  The first faulty state
    raises a StateError that carries its index and names the first check
    it fails.  A state's stacks are the slices stacks[c][:, i], not
    copies: np.trace sums each diagonal in the same order on the batch as
    on a contiguous copy, and each density stays a contiguous n x n
    matrix, so values are the copies' bit for bit.  A batch of no states
    passes and gives an empty list.  `State(...)` is this check on a
    batch of one, and a seminorm spec's density stacks
    (`SeminormSpec._packed`) are checked as one batch.
    """
    herm = shape.gather([np.abs(s - s.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) for s in stacks])
    low = shape.gather([np.linalg.eigvalsh(hermitian_part(s)).min(axis=-1) for s in stacks])
    totals = block_sum(shape, [np.trace(s, axis1=-2, axis2=-1).real for s in stacks])
    hermitian = below(herm, 0.0, STATE_ATOL)
    sound = hermitian & below(-low, 0.0, STATE_ATOL)
    faulty = np.flatnonzero(~sound.all(axis=0) | ~below(np.abs(totals - 1.0), 0.0, STATE_ATOL))
    if faulty.size:
        i = int(faulty[0])
        blocks = np.flatnonzero(~sound[:, i])
        if not blocks.size:
            raise StateError(i, f"densities must have total trace 1, got {float(totals[i])}")
        k = int(blocks[0])
        fault = "Hermitian" if not hermitian[k, i] else "positive semidefinite"
        raise StateError(i, f"density {k} is not {fault}")
    return [tuple(s[:, i] for s in stacks) for i in range(len(totals))]


@dataclass(frozen=True, eq=False, repr=False)
class State:
    """Positive linear functional of norm one, stored as block densities.

    Evaluation is a |-> sum_k trace(rho_k a_k) with each rho_k positive
    semidefinite and the traces summing to one.  The densities are packed
    by size class like the blocks of an element.  Construction validates
    them as a batch of one (`checked_states`); a fault raises StateError,
    a ValueError.
    """

    shape: AlgebraShape
    stacks: tuple[np.ndarray, ...]

    def __init__(self, shape: AlgebraShape, densities):
        (stacks,) = checked_states(shape, [s[:, None] for s in _pack_blocks(shape, densities)])
        stored(self, stacks, shape=shape)

    @property
    def densities(self) -> tuple[np.ndarray, ...]:
        """The density of each block, in block order."""
        return tuple(self.stacks[c][j] for c, j in self.shape.slots)

    def __call__(self, a: AlgebraElement) -> complex:
        if a.shape != self.shape:
            raise ValueError("state and element shapes differ")
        traces = [
            np.trace(rho @ blk, axis1=-2, axis2=-1)
            for rho, blk in zip(self.stacks, a.stacks)
        ]
        return complex(block_sum(self.shape, traces))

    @classmethod
    def vector_state(cls, shape: AlgebraShape, k: int, w: np.ndarray) -> "State":
        """Rank-one state b |-> w* b_k w for a unit vector w on block k."""
        w = np.asarray(w, dtype=complex).reshape(-1)
        if w.shape[0] != shape.block_dims[k]:
            raise ValueError("vector length must match the block dimension")
        nrm = np.linalg.norm(w)
        if nrm == 0:
            raise ValueError("zero vector cannot define a state")
        w = w / nrm
        densities = [np.zeros((n, n), complex) for n in shape.block_dims]
        densities[k] = np.outer(w, w.conj())
        return cls(shape, tuple(densities))


def norm_attaining_state(a: AlgebraElement) -> State:
    """Deterministic state built to maximize |phi(a)| within this family.

    The density is the rank-one projector onto the leading eigenvector of
    the block realization of a*a, picked on the block where that eigenvalue
    is largest (ties resolved by lowest block index; the eigenvector phase
    is fixed so its first nonzero component is real positive).  On positive
    elements the construction attains |phi(a)| = norm(a) exactly.
    """
    spectra = [np.linalg.eigh(s.conj().swapaxes(-1, -2) @ s) for s in a.stacks]
    best_block, best_val = 0, -1.0
    for k, top in enumerate(a.shape.gather([w[:, -1] for w, _ in spectra]).tolist()):
        if not below(top, best_val, STATE_TIE_ATOL):
            best_block, best_val = k, top
    c, j = a.shape.slots[best_block]
    vec = spectra[c][1][j][:, -1].copy()
    nz = np.flatnonzero(~below(np.abs(vec), 0.0, STATE_PHASE_ATOL))
    if nz.size:
        phase = vec[nz[0]] / abs(vec[nz[0]])
        vec = vec / phase
    return State.vector_state(a.shape, best_block, vec)
