"""Vectors, operators, and submodules of the free module A^n.

The module A^n carries the algebra-valued inner product
<x,y> = sum_i x_i* y_i and the norm ||x|| = ||<x,x>||^(1/2).  Everything
reduces to dense linear algebra through the block realization: stacking
the k-th blocks of the coordinates of x gives an (n*n_k, n_k) matrix
R_k(x) with <x,y> restricted to block k equal to R_k(x)* R_k(y).  Vector
and operator norms are therefore exact per-block singular values, and
least-squares problems decouple per block.

The realization is also the stored form.  A vector keeps, per size class
of the algebra (see `AlgebraShape.classes`), the stack of R_k(x) over
the class's blocks, and an operator the stack of its realized blocks;
coordinates and entries are views of those stacks.  Both are matrices
over the algebra, m x 1 and m x s, and share that form and the
arithmetic that keeps their type with the algebra's elements
(`algebra._Matrix`).  A family of vectors is a `SampleSet`, stored as
one (count, len, dim*n, n) array per class.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    _Matrix,
    blockwise_max,
    chunks,
    entry_blocks,
    frozen,
    hermitian_part,
    ordered_sum,
    spectral_norms,
    stack_norms,
    stored,
)
from .tolerances import PINV_RTOL, SPAN_DROP_RTOL, below


def coordinate_blocks(stack: np.ndarray, dim: int) -> np.ndarray:
    """A (count, ..., dim*n, n) stack seen as its (count, ..., dim, n, n) coordinate blocks."""
    n = stack.shape[-1]
    return stack.reshape(stack.shape[:-2] + (dim, n, n))


@dataclass(frozen=True, eq=False, repr=False)
class ModuleVector(_Matrix):
    """Element of A^n, stored as its block realizations: the n x 1 case of `_Matrix`.

    stacks[c] has shape (count_c, dim*n_c, n_c): R_k(x) for every block k
    of size class c.  `coords` gives the n coordinates back as algebra
    elements whose blocks are views of the stacks.
    """

    _MISMATCH = "module vectors live in different modules"

    def __init__(self, shape: AlgebraShape, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("module vectors need at least one coordinate")
        for c in coords:
            if c.shape != shape:
                raise ValueError("all coordinates must share the algebra shape")
        self._set_entries(shape, [(c,) for c in coords])

    @classmethod
    def _packed(cls, shape: AlgebraShape, dim: int, stacks) -> "ModuleVector":
        return stored(object.__new__(cls), stacks, shape=shape, _rows=dim, _cols=1)

    @property
    def dim(self) -> int:
        return self._rows

    @property
    def coords(self) -> tuple[AlgebraElement, ...]:
        split = [coordinate_blocks(s, self.dim) for s in self.stacks]
        return tuple(
            AlgebraElement._packed(self.shape, tuple(s[:, i] for s in split))
            for i in range(self.dim)
        )

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, shape: AlgebraShape, dim: int) -> "ModuleVector":
        return cls._packed(
            shape, dim, tuple(np.zeros((len(ks), dim * n, n), complex) for n, ks in shape.classes)
        )

    @classmethod
    def basis(cls, shape: AlgebraShape, dim: int, j: int) -> "ModuleVector":
        """Standard basis vector e_j: the algebra unit at coordinate j."""
        if not 0 <= j < dim:
            raise ValueError(f"basis index {j} out of range for dimension {dim}")
        stacks = []
        for n, ks in shape.classes:
            s = np.zeros((len(ks), dim, n, n), complex)
            s[:, j] = np.eye(n)
            stacks.append(s.reshape(len(ks), dim * n, n))
        return cls._packed(shape, dim, stacks)

    # -- linear and metric structure (the rest is `_Matrix`'s) -----------

    def __truediv__(self, scalar) -> "ModuleVector":
        return self * (1.0 / complex(scalar))

    realize_block = _Matrix._block
    norm = _Matrix.norm  # an entry of its own: perfbench/tracer.py wraps ModuleVector.norm

    def restrict(self, start: int, stop: int) -> "ModuleVector":
        """Zero out every coordinate outside [start, stop)."""
        out = []
        for s, (n, _) in zip(self.stacks, self.shape.classes):
            i = np.arange(self.dim * n) // n
            out.append(np.where(((start <= i) & (i < stop))[:, None], s, 0.0))
        return self._with(out)

    def __repr__(self) -> str:
        return f"ModuleVector(dim={self.dim}, norm={self.norm():.4g})"


def inner_product(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """A-valued inner product sum_i x_i* y_i, conjugate-linear in x."""
    x._require_compatible(y)
    return AlgebraElement._packed(
        x.shape, tuple(a.conj().swapaxes(-1, -2) @ b for a, b in zip(x.stacks, y.stacks))
    )


@dataclass(frozen=True, eq=False, repr=False)
class ModuleOperator(_Matrix):
    """A-linear map A^n -> A^m given by an m-by-n matrix over the algebra.

    The action is T(x)_i = sum_j entries[i][j] x_j, so right
    multiplication commutes through: T(x*a) = T(x)*a.  stacks[c] has shape
    (count_c, m*n_c, n*n_c): the realization of T on every block of size
    class c; `entries` gives the matrix back as algebra elements.
    """

    _MISMATCH = "operator sum dimension mismatch"

    def __init__(self, shape: AlgebraShape, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("operators need at least one row and one column")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged operator entries")
            for e in row:
                if e.shape != shape:
                    raise ValueError("all entries must share the algebra shape")
        self._set_entries(shape, rows)

    @classmethod
    def _packed(cls, shape, target_dim: int, source_dim: int, stacks) -> "ModuleOperator":
        return stored(object.__new__(cls), stacks, shape=shape, _rows=target_dim, _cols=source_dim)

    @property
    def target_dim(self) -> int:
        return self._rows

    @property
    def source_dim(self) -> int:
        return self._cols

    @property
    def entries(self) -> tuple[tuple[AlgebraElement, ...], ...]:
        split = [entry_blocks(s, self.target_dim, self.source_dim) for s in self.stacks]
        return tuple(
            tuple(
                AlgebraElement._packed(self.shape, tuple(s[:, i, j] for s in split))
                for j in range(self.source_dim)
            )
            for i in range(self.target_dim)
        )

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, shape: AlgebraShape, dim: int) -> "ModuleOperator":
        return cls._packed(
            shape, dim, dim,
            tuple(np.tile(np.eye(dim * n, dtype=complex), (len(ks), 1, 1)) for n, ks in shape.classes),
        )

    # -- action and algebra (the rest is `_Matrix`'s) --------------------

    def __call__(self, x: ModuleVector) -> ModuleVector:
        if x.shape != self.shape or x.dim != self.source_dim:
            raise ValueError("operator/vector dimension mismatch")
        return ModuleVector._packed(
            self.shape, self.target_dim, tuple(t @ v for t, v in zip(self.stacks, x.stacks))
        )

    __mul__ = _Matrix._scaled  # an operator is only scaled; x*a acts on vectors
    adjoint = _Matrix._adjoint
    realize_block = _Matrix._block

    def __repr__(self) -> str:
        return (
            f"ModuleOperator({self.target_dim}x{self.source_dim}, "
            f"norm={self.norm():.4g})"
        )


def theta_op(x: ModuleVector, y: ModuleVector) -> ModuleOperator:
    """Elementary compact operator z -> x<y,z>, theta_{x,y}.

    The functional z -> <y,z> is given by its representing vector y: the
    finite free modules here are self-dual, so every bounded A-linear
    functional has that form.  The matrix form is entries[i][j] = x_i (y_j)*.
    """
    if y.shape != x.shape:
        raise ValueError("theta operands live over different algebras")
    out = []
    for xs, ys in zip(x.stacks, y.stacks):
        y_adj = np.ascontiguousarray(coordinate_blocks(ys, y.dim).conj().swapaxes(-1, -2))
        columns = xs[:, None] @ y_adj  # column j of the entries: R_k(x) (y_j)*
        out.append(columns.transpose(0, 2, 1, 3).reshape(len(xs), xs.shape[1], -1))
    return ModuleOperator._packed(x.shape, x.dim, y.dim, out)


# -- stacked families ------------------------------------------------------


class SampleSet:
    """Finite labelled family of vectors in a common module: the library's one family type.

    The family is held as `realizations`, one (count, len, dim*n, n) stack
    per size class.  A set built from points stacks them on first use; a
    set built from a stack (`_packed`: a parsed document, a frame's dual,
    a span family, a `head`) keeps it, and its points are views of it,
    built on first use.  Every function that takes a family takes a
    SampleSet or module vectors (`of`), and every pass over two families
    reads one of them through `in_module`, the one check that both live
    in the same module.  `len`, iteration and indexing go over the
    points.  Instances are read-only, and so are the stacks they hand out.
    """

    def __init__(self, points, label: str = ""):
        points = tuple(points)
        if points:
            first = points[0]
            for p in points:
                first._require_compatible(p)
        self.points = points
        self.label = label
        self._shape, self._dim = (first.shape, first.dim) if points else (None, None)
        self._size = len(points)

    @classmethod
    def of(cls, vectors) -> "SampleSet":
        """`vectors` itself when it is a SampleSet, else the set of those module vectors."""
        return vectors if isinstance(vectors, SampleSet) else cls(vectors)

    @classmethod
    def _packed(cls, shape: AlgebraShape, dim: int, stacks, label: str = "") -> "SampleSet":
        """The set whose points are realized by per-class stacks (count, len, dim*n, n)."""
        sample = object.__new__(cls)
        sample.realizations = frozen(stacks)
        sample.label = label
        sample._shape, sample._dim = shape, dim
        sample._size = sample.realizations[0].shape[1]
        return sample

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, index):
        return self.points[index]

    def __repr__(self) -> str:
        return f"SampleSet(size={self._size}, dim={self._dim}, label={self.label!r})"

    @property
    def shape(self):
        return self._shape

    @property
    def dim(self):
        return self._dim

    @functools.cached_property
    def points(self) -> tuple[ModuleVector, ...]:
        # set by __init__; a packed set builds its points, views of the stacks, on first use
        return tuple(
            ModuleVector._packed(self._shape, self._dim, tuple(s[:, j] for s in self.realizations))
            for j in range(self._size)
        )

    @functools.cached_property
    def realizations(self) -> tuple[np.ndarray, ...]:
        """Per size class, the points' stacked realizations, shape (count, len, dim*n, n)."""
        if not self._size:
            return ()
        return frozen(
            np.stack([p.stacks[c] for p in self.points], axis=1)
            for c in range(len(self._shape.classes))
        )

    def in_module(self, shape: AlgebraShape, dim: int) -> tuple[np.ndarray, ...]:
        """`realizations`, as points of A^dim over `shape`.

        A non-empty set of another module is refused; an empty set gives
        zero-length stacks of the module asked for.
        """
        if (self._shape, self._dim) == (shape, dim):
            return self.realizations
        if self._size:
            raise ValueError("module vectors live in different modules")
        return frozen(np.zeros((len(ks), 0, dim * n, n), complex) for n, ks in shape.classes)

    def head(self, n: int | None) -> "SampleSet":
        """The first n members (all of them, if fewer or n is None) as a set of views of the stacks."""
        if self._shape is None:
            return self
        return SampleSet._packed(
            self._shape, self._dim, (s[:, :n] for s in self.realizations), self.label
        )

    @functools.cached_property
    def point_norms(self) -> list[float]:
        """The module norm of every point, in order, from the stacked realizations."""
        if not self._size:
            return []
        return stack_norms(self.realizations)


def generator_family(generators) -> SampleSet:
    """The generators as a SampleSet (`SampleSet.of`); an empty family is refused."""
    family = SampleSet.of(generators)
    if not len(family):
        raise ValueError("at least one generator required")
    return family


def gram_block(xs: np.ndarray, ys: np.ndarray, dim: int) -> np.ndarray:
    """Realized sum_l theta_{x_l, y_l} of two families of A^dim lined up member by member.

    xs and ys have shape (count, size, dim*n, n): for each block of a
    size class, the realizations X_l and Y_l of the members x_l and y_l.
    Entry (i, j) of the sum is sum_l x_{l,i} y_{l,j}*; column j of a term
    is the one product X_l y_{l,j}* (the stacked-left rule, README
    Storage).  The products come out of one batched matmul per chunk of
    blocks and are added in family order (`ordered_sum`).  With ys = xs
    this is the gram S = Theta* Theta, entry by entry the arithmetic of
    the operator product Theta* @ Theta; with a frame's members and dual
    it is a partial sum P_J'.  Returns (count, dim*n, dim*n).
    """
    count, size, rows, n = xs.shape
    acc = np.zeros((count, dim, rows, n), complex)
    adjoints = np.ascontiguousarray(coordinate_blocks(ys, dim).conj().swapaxes(-1, -2))
    for part in chunks(count, size * dim * rows * n):
        acc[part] = ordered_sum(xs[part, :, None] @ adjoints[part], 1)
    return acc.transpose(0, 2, 1, 3).reshape(count, rows, rows)


# -- span geometry ------------------------------------------------------


# A vector of norm above this is scaled by an exact power of two before its
# gram <v,v> is formed: the gram's entries reach ||v||^2, which passes the
# float range (about 1.8e308) once ||v|| passes about 1.3e154.
GRAM_SCALE_LIMIT = 2.0**500


def _support_normalized(stacks, norm: float, drop: bool = False) -> list[np.ndarray] | None:
    """Realization of v (a^+)^(1/2), a = <v,v>, from that of v (one stack per class).

    One eigh of the Hermitian part of a, per size class, decides
    everything.  Its largest eigenvalue over the blocks is lambda =
    ||v||^2 (the C*-identity ||<v,v>|| = ||v||^2).  With drop set, v is
    dropped, and None returned, when sqrt(lambda) is at most the span
    drop cut, SPAN_DROP_RTOL * max(1, norm); eigenvalues at or below
    PINV_RTOL * lambda are cut, and the others are inverted under a
    square root.

    norm is ||v||, or a bound on it.  Above GRAM_SCALE_LIMIT, v and the
    drop cut's scale are first scaled by 2^-e, e the binary exponent of
    norm, so that a stays finite.  Multiplying by a power of two is
    exact (for entries above 2^(e-1022); smaller ones lie far below the
    cut), and v (a^+)^(1/2) is the same for v and v t, t > 0, in exact
    arithmetic.  Below the limit nothing is scaled.
    """
    drop_scale = max(1.0, norm)
    if norm > GRAM_SCALE_LIMIT:
        e = math.frexp(norm)[1]
        stacks = [vk * math.ldexp(1.0, -e) for vk in stacks]
        drop_scale = math.ldexp(drop_scale, -e)
    spectra = [np.linalg.eigh(hermitian_part(vk.conj().swapaxes(-1, -2) @ vk)) for vk in stacks]
    top = max(0.0, *(float(w[..., -1].max()) for w, _ in spectra))
    if drop and below(math.sqrt(top), 0.0, SPAN_DROP_RTOL, drop_scale):
        return None
    out = []
    for vk, (w, u) in zip(stacks, spectra):
        kept = ~below(w, 0.0, PINV_RTOL, top)
        inv_sqrt = np.where(kept, 1.0 / np.sqrt(np.where(kept, w, 1.0)), 0.0)
        scale = (u * inv_sqrt[..., None, :]) @ u.conj().swapaxes(-1, -2)
        out.append(vk @ scale)
    return out


def orthogonal_span_family(vectors) -> SampleSet:
    """Gram-Schmidt over the module: an orthogonal family spanning the input.

    Each output w satisfies <w,w> = projection and w<w,w> = w, distinct
    outputs are exactly orthogonal, and sum_j theta_{w_j,w_j} reproduces
    every input vector.

    Each input x takes one step on its residual r, the part of x the
    family built so far does not reproduce: one eigh of the Hermitian
    part of <r,r> per size class (`_support_normalized`).  Its largest
    eigenvalue over the blocks, lambda = ||r||^2, makes every decision:
    r is dropped when sqrt(lambda) <= SPAN_DROP_RTOL * max(1, ||x||),
    eigenvalues at or below PINV_RTOL * lambda are cut, and the others
    give the new member w = r (<r,r>^+)^(1/2).  When ||x|| (from
    `SampleSet.point_norms`) exceeds GRAM_SCALE_LIMIT, the step is taken
    on r 2^-e, e the binary exponent of ||x||, which bounds ||r||: the
    gram stays finite, and w is the same in exact arithmetic.  Inputs of
    norm at most the limit are not scaled.

    Takes a SampleSet or module vectors (`SampleSet.of`) and runs on the
    stacked realizations: when w joins the family, every later input
    takes its step r - w<w,r> in one batched update per size class, so
    each input meets the family members in the order they joined, with
    the arithmetic of one vector at a time (w<w,r> is one product R(w)
    @ <w,r>: the stacked-left rule, README Storage).  Each member is
    written into one work stack per size class as it joins, and the
    family is packed on copies of the kept members, so it holds no more.
    """
    family = SampleSet.of(vectors)
    if not len(family):
        return SampleSet(())
    residuals = [s.copy() for s in family.realizations]
    members = [np.empty_like(s) for s in residuals]
    size = 0
    for i, norm in enumerate(family.point_norms):
        w = _support_normalized([s[:, i] for s in residuals], norm, drop=True)
        if w is None:
            continue
        for s, m, wk in zip(residuals, members, w):
            m[:, size] = wk
            rest = s[:, i + 1 :]
            coeffs = wk.conj().swapaxes(-1, -2)[:, None] @ rest
            rest -= wk[:, None] @ coeffs
        size += 1
    return SampleSet._packed(family.shape, family.dim, (m[:, :size].copy() for m in members))


# -- distance to finitely generated submodules ---------------------------


def span_least_squares(
    points: SampleSet, generators: SampleSet
) -> tuple[list[np.ndarray], list[float], float]:
    """Minimal-norm least squares against Span_A(generators), all points at once.

    Both families are SampleSets of one module (`SampleSet.in_module`):
    per size class, the P points are realized in a stack
    (count, P, dim*n, n) and the s generators in one (count, s, dim*n, n).
    One pseudo-inverse per block serves every point: G_k, the synthesis
    map (a_1..a_s) -> sum_i g_i a_i, has the generator columns side by
    side, the coefficient stack is pinv(G_k) @ X_k broadcast over the
    points, and a point's residual is max_k ||X_k - G_k A_k||_2, the
    exact distance (see `submodule_distance`).  Returns the coefficient
    stacks, shape (count, P, s*n, n), the residuals, and the constant
    B = max_k ||pinv(G_k)||_2, the norm of the synthesis map's inverse
    off its kernel: the minimal-norm solution of sum_i g_i a_i = y has
    ||(a_1..a_s)|| <= B ||y||.  Generators so small (or points so large)
    that the pseudo-inverse or a coefficient overflows are refused with a
    ValueError.
    """
    shape = generators.shape
    stacks = points.in_module(shape, generators.dim)
    coeffs, norms, pinv_norms = [], [], []
    for xk, gk in zip(stacks, generators.realizations):
        synthesis = gk.swapaxes(1, 2).reshape(len(gk), gk.shape[2], -1)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, before any SVD sees it
            pinv = np.linalg.pinv(synthesis, rcond=PINV_RTOL)
            ak = pinv[:, None] @ xk
        if not (np.isfinite(pinv).all() and np.isfinite(ak).all()):
            raise ValueError(
                "least squares against the generators passes the float range: "
                "the pseudo-inverse of their synthesis map or the coefficients overflow"
            )
        norms.append(spectral_norms(xk - synthesis[:, None] @ ak))
        coeffs.append(ak)
        pinv_norms.append(spectral_norms(pinv))
    residuals = [max(0.0, *vals) for vals in shape.gather(norms).T.tolist()]
    return coeffs, residuals, blockwise_max(pinv_norms)


def submodule_distance(x: ModuleVector, generators) -> tuple[float, list[AlgebraElement]]:
    """Distance from x to Span_A(generators) with the realizing coefficients.

    Solved per algebra block by least squares through the pseudo-inverse
    (`span_least_squares`); the returned coefficients are the
    minimal-norm solution, one algebra element per generator.

    The distance is exact for every shape, not only commutative ones.
    On block k let X = R_k(x), G the synthesis realization and P = G G^+
    the orthogonal projection onto its range.  Any coefficients realize
    G A on block k, and for every unit vector v

        ||(X - G A) v||^2 = ||(I - P) X v||^2 + ||P X v - G A v||^2
                          >= ||(I - P) X v||^2,

    because I - P is an orthogonal projection that kills G A.  So
    ||X - G A||_2 >= ||(I - P) X||_2, with equality at A = G^+ X, where
    X - G A = (I - P) X.  The blocks decouple (the module norm is the
    largest block norm and each block's coefficients are free), so the
    minimum over coefficient tuples is the largest block minimum, which
    is the returned residual.  A residual >= eps therefore certifies
    that no coefficients reach eps.  "Range" means the numerical range:
    singular values of G below PINV_RTOL times the largest are cut.
    """
    gens = generator_family(generators)
    coeffs, residuals, _ = span_least_squares(SampleSet((x,)), gens)
    s = len(gens)
    split = [coordinate_blocks(ck[:, 0], s) for ck in coeffs]
    elements = [
        AlgebraElement._packed(x.shape, tuple(c[:, i] for c in split))
        for i in range(s)
    ]
    return residuals[0], elements

