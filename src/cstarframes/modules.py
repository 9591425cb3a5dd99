"""Vectors, operators, functionals, and submodules of the free module A^n.

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
coordinates and entries are views of those stacks.  A family of vectors
is handled as one (count, len, dim*n, n) array per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    bare,
    blockwise_max,
    chunks,
    frozen,
    hermitian_part,
    spectral_norms,
)

# Relative cutoff for pseudo-inverses and rank decisions on realizations.
PINV_RTOL = 1e-12


def coordinate_blocks(stack: np.ndarray, dim: int) -> np.ndarray:
    """A (count, ..., dim*n, n) stack seen as its (count, ..., dim, n, n) coordinate blocks."""
    n = stack.shape[-1]
    return stack.reshape(stack.shape[:-2] + (dim, n, n))


@dataclass(frozen=True, eq=False, repr=False)
class ModuleVector:
    """Element of A^n, stored as its block realizations.

    stacks[c] has shape (count_c, dim*n_c, n_c): R_k(x) for every block k
    of size class c.  `coords` gives the n coordinates back as algebra
    elements whose blocks are views of the stacks.
    """

    shape: AlgebraShape
    dim: int
    stacks: tuple[np.ndarray, ...]

    def __init__(self, shape: AlgebraShape, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("module vectors need at least one coordinate")
        for c in coords:
            if c.shape != shape:
                raise ValueError("all coordinates must share the algebra shape")
        stacks = frozen(
            np.stack([c.stacks[i] for c in coords], axis=1).reshape(len(ks), -1, n)
            for i, (n, ks) in enumerate(shape.classes)
        )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "dim", len(coords))
        object.__setattr__(self, "stacks", stacks)

    @classmethod
    def _packed(cls, shape: AlgebraShape, dim: int, stacks) -> "ModuleVector":
        return bare(cls, stacks, shape=shape, dim=dim)

    def _with(self, stacks) -> "ModuleVector":
        return ModuleVector._packed(self.shape, self.dim, stacks)

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

    # -- linear structure -----------------------------------------------

    def _require_compatible(self, other: "ModuleVector"):
        if self.shape != other.shape or self.dim != other.dim:
            raise ValueError("module vectors live in different modules")

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._require_compatible(other)
        return self._with(a + b for a, b in zip(self.stacks, other.stacks))

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        self._require_compatible(other)
        return self._with(a - b for a, b in zip(self.stacks, other.stacks))

    def __neg__(self) -> "ModuleVector":
        return self._with(-a for a in self.stacks)

    def __mul__(self, other) -> "ModuleVector":
        """Right module action x*a for algebra elements, scaling for scalars."""
        if isinstance(other, AlgebraElement):
            if other.shape != self.shape:
                raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
            # coordinate by coordinate: one (n, n) product per coordinate block
            return self._with(
                (coordinate_blocks(s, self.dim) @ a[:, None]).reshape(s.shape)
                for s, a in zip(self.stacks, other.stacks)
            )
        return self._with(s * complex(other) for s in self.stacks)

    def __truediv__(self, scalar) -> "ModuleVector":
        return self * (1.0 / complex(scalar))

    # -- metric structure -----------------------------------------------

    def realize_block(self, k: int) -> np.ndarray:
        """Stacked k-th blocks of all coordinates, shape (dim*n_k, n_k)."""
        c, j = self.shape.slots[k]
        return self.stacks[c][j]

    def norm(self) -> float:
        return blockwise_max(self.shape, [spectral_norms(s) for s in self.stacks])

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


def entry_blocks(stack: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """An operator stack (count, rows*n, cols*n) seen as its (count, rows, cols, n, n) entries."""
    n = stack.shape[-1] // cols
    return stack.reshape(len(stack), rows, n, cols, n).transpose(0, 1, 3, 2, 4)


def from_entry_blocks(entries: np.ndarray) -> np.ndarray:
    """Inverse of `entry_blocks`: (count, rows, cols, n, n) to (count, rows*n, cols*n)."""
    count, rows, cols, n, _ = entries.shape
    return entries.transpose(0, 1, 3, 2, 4).reshape(count, rows * n, cols * n)


@dataclass(frozen=True, eq=False, repr=False)
class ModuleOperator:
    """A-linear map A^n -> A^m given by an m-by-n matrix over the algebra.

    The action is T(x)_i = sum_j entries[i][j] x_j, so right
    multiplication commutes through: T(x*a) = T(x)*a.  stacks[c] has shape
    (count_c, m*n_c, n*n_c): the realization of T on every block of size
    class c; `entries` gives the matrix back as algebra elements.
    """

    shape: AlgebraShape
    target_dim: int
    source_dim: int
    stacks: tuple[np.ndarray, ...]

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
        stacks = frozen(
            from_entry_blocks(
                np.stack([np.stack([e.stacks[c] for e in row], axis=1) for row in rows], axis=1)
            )
            for c in range(len(shape.classes))
        )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "target_dim", len(rows))
        object.__setattr__(self, "source_dim", width)
        object.__setattr__(self, "stacks", stacks)

    @classmethod
    def _packed(cls, shape, target_dim: int, source_dim: int, stacks) -> "ModuleOperator":
        return bare(cls, stacks, shape=shape, target_dim=target_dim, source_dim=source_dim)

    def _with(self, stacks) -> "ModuleOperator":
        return ModuleOperator._packed(self.shape, self.target_dim, self.source_dim, stacks)

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

    @classmethod
    def zero(cls, shape: AlgebraShape, target_dim: int, source_dim: int) -> "ModuleOperator":
        return cls._packed(
            shape, target_dim, source_dim,
            tuple(
                np.zeros((len(ks), target_dim * n, source_dim * n), complex)
                for n, ks in shape.classes
            ),
        )

    # -- action and algebra ----------------------------------------------

    def __call__(self, x: ModuleVector) -> ModuleVector:
        if x.shape != self.shape or x.dim != self.source_dim:
            raise ValueError("operator/vector dimension mismatch")
        return ModuleVector._packed(
            self.shape, self.target_dim, tuple(t @ v for t, v in zip(self.stacks, x.stacks))
        )

    def __matmul__(self, other: "ModuleOperator") -> "ModuleOperator":
        """Entry (i, j) is sum_l self[i][l] other[l][j]: per-entry products added in l order."""
        if other.shape != self.shape or other.target_dim != self.source_dim:
            raise ValueError("operator composition dimension mismatch")
        out = []
        for a, b in zip(self.stacks, other.stacks):
            left = entry_blocks(a, self.target_dim, self.source_dim)
            right = entry_blocks(b, other.target_dim, other.source_dim)
            count, n = len(a), left.shape[-1]
            acc = np.zeros((count, self.target_dim, other.source_dim, n, n), complex)
            for l in range(self.source_dim):
                acc = acc + left[:, :, l, None] @ right[:, None, l]
            out.append(from_entry_blocks(acc))
        return ModuleOperator._packed(self.shape, self.target_dim, other.source_dim, out)

    def __add__(self, other: "ModuleOperator") -> "ModuleOperator":
        if (
            other.shape != self.shape
            or other.target_dim != self.target_dim
            or other.source_dim != self.source_dim
        ):
            raise ValueError("operator sum dimension mismatch")
        return self._with(a + b for a, b in zip(self.stacks, other.stacks))

    def __sub__(self, other: "ModuleOperator") -> "ModuleOperator":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "ModuleOperator":
        return self._with(s * complex(scalar) for s in self.stacks)

    def adjoint(self) -> "ModuleOperator":
        """Entrywise adjoint of the transpose; satisfies <T*y,x> = <y,Tx>."""
        return ModuleOperator._packed(
            self.shape, self.source_dim, self.target_dim,
            tuple(np.ascontiguousarray(s.conj().swapaxes(-1, -2)) for s in self.stacks),
        )

    def realize_block(self, k: int) -> np.ndarray:
        c, j = self.shape.slots[k]
        return self.stacks[c][j]

    def norm(self) -> float:
        """C*-norm of the matrix over A: max over blocks of the spectral norm.

        Exact, because the block realization is a faithful representation
        and the supremum of ||Tx|| over the unit ball is attained on each
        block at its leading right singular vector.
        """
        return blockwise_max(self.shape, [spectral_norms(s) for s in self.stacks])

    def __repr__(self) -> str:
        return (
            f"ModuleOperator({self.target_dim}x{self.source_dim}, "
            f"norm={self.norm():.4g})"
        )


@dataclass(frozen=True, eq=False)
class Functional:
    """Bounded A-linear functional f(z) = <y,z> stored by its vector y.

    Finite free modules over these algebras are self-dual, so every
    bounded functional has this form and nothing is lost.  In this
    finite-dimensional setting the compact operators K and the
    Banach-compact operators BK coincide: every operator is a finite sum
    of the elementary operators theta_{x,f}.  The truncated counterexample
    (`counterexample.py`) exists to show what the limit loses.
    """

    vector: ModuleVector

    def __call__(self, z: ModuleVector) -> AlgebraElement:
        return inner_product(self.vector, z)

    def norm(self) -> float:
        return self.vector.norm()


def theta_op(x: ModuleVector, f) -> ModuleOperator:
    """Elementary compact operator z -> x*f(z).

    `f` may be a Functional or its representing vector y; either way the
    matrix form is entries[i][j] = x_i (y_j)*.
    """
    y = f.vector if isinstance(f, Functional) else f
    if y.shape != x.shape:
        raise ValueError("theta operands live over different algebras")
    out = []
    for xs, ys in zip(x.stacks, y.stacks):
        y_adj = np.ascontiguousarray(coordinate_blocks(ys, y.dim).conj().swapaxes(-1, -2))
        out.append(from_entry_blocks(coordinate_blocks(xs, x.dim)[:, :, None] @ y_adj[:, None]))
    return ModuleOperator._packed(x.shape, x.dim, y.dim, out)


# -- stacked families ------------------------------------------------------


def realization_stacks(vectors, shape: AlgebraShape, dim: int) -> tuple[np.ndarray, ...]:
    """Per size class, the stacks of `vectors` side by side: (count, len, dim*n, n).

    An empty family gives zero-length stacks of the module's block shapes.
    """
    vectors = list(vectors)
    for v in vectors:
        if v.shape != shape or v.dim != dim:
            raise ValueError("module vectors live in different modules")
    if not vectors:
        return tuple(np.zeros((len(ks), 0, dim * n, n), complex) for n, ks in shape.classes)
    return tuple(np.stack([v.stacks[c] for v in vectors], axis=1) for c in range(len(shape.classes)))


def family_vectors(shape: AlgebraShape, dim: int, stacks) -> tuple[ModuleVector, ...]:
    """The members of a stacked family, each a view of the stacks."""
    size = stacks[0].shape[1]
    return tuple(ModuleVector._packed(shape, dim, tuple(s[:, j] for s in stacks)) for j in range(size))


def gram_block(coords: np.ndarray) -> np.ndarray:
    """Realized gram blocks S = Theta* Theta of a family, from its coordinate blocks.

    coords has shape (count, size, dim, n, n): for each block of a size
    class, the blocks x_{l,i} of the coordinates of the family members
    x_l.  Entry (i, j) of S is sum_l x_{l,i} x_{l,j}*: the products come
    out of one batched matmul per chunk of blocks and are added in family
    order l = 0, 1, ..., which is the arithmetic of the operator product
    Theta* @ Theta entry by entry.  Returns (count, dim*n, dim*n).
    """
    count, size, dim, n, _ = coords.shape
    acc = np.zeros((count, dim, dim, n, n), complex)
    adjoints = np.ascontiguousarray(coords.conj().swapaxes(-1, -2))
    for part in chunks(count, size * dim * dim * n * n):
        products = coords[part, :, :, None] @ adjoints[part, :, None, :]
        for l in range(size):
            acc[part] = acc[part] + products[:, l]
    return from_entry_blocks(acc)


def require_stacks(stacks, shape: AlgebraShape, dim: int) -> None:
    """Reject stacks that do not realize points of A^dim over `shape`."""
    if len(stacks) != len(shape.classes) or any(
        s.ndim != 4 or s.shape[0] != len(ks) or s.shape[2:] != (dim * n, n)
        for s, (n, ks) in zip(stacks, shape.classes)
    ):
        raise ValueError("module vectors live in different modules")


def stack_norms(shape: AlgebraShape, stacks) -> list[float]:
    """Module norm of every stacked point: its largest block spectral norm."""
    return blockwise_max(shape, [spectral_norms(s) for s in stacks])


# -- span geometry ------------------------------------------------------


def _support_normalized(shape: AlgebraShape, stacks) -> list[np.ndarray]:
    """Realization of v (a^+)^(1/2), a = <v,v>, from that of v (one stack per class)."""
    grams = [vk.conj().swapaxes(-1, -2) @ vk for vk in stacks]
    cut = max(blockwise_max(shape, [spectral_norms(a) for a in grams]), 0.0) * PINV_RTOL
    out = []
    for vk, a in zip(stacks, grams):
        w, u = np.linalg.eigh(hermitian_part(a))
        inv_sqrt = np.where(w > cut, 1.0 / np.sqrt(np.clip(w, cut, None)), 0.0)
        scale = (u * inv_sqrt[..., None, :]) @ u.conj().swapaxes(-1, -2)
        n = vk.shape[-1]
        out.append((vk.reshape(len(vk), -1, n, n) @ scale[:, None]).reshape(vk.shape))
    return out


def spectral_normalize(v: ModuleVector) -> ModuleVector:
    """Scale v on the right so that <w,w> becomes a projection.

    w = v (a^+)^(1/2) with a = <v,v>; then <w,w> is the support
    projection of a and w<w,w> = w, which makes theta_{w,w} an orthogonal
    projection onto the A-span of v.
    """
    return v._with(_support_normalized(v.shape, v.stacks))


def orthogonal_span_family(vectors, tol: float = 1e-9) -> list[ModuleVector]:
    """Gram-Schmidt over the module: an orthogonal family spanning the input.

    Each output w satisfies <w,w> = projection and w<w,w> = w, distinct
    outputs are exactly orthogonal, and sum_j theta_{w_j,w_j} reproduces
    every input vector.  Inputs that are already reproduced by the family
    built so far are dropped.

    Runs on the stacked realizations: when w joins the family, every later
    input takes its step r - w<w,r> in one batched update per size class,
    so each input meets the family members in the order they joined, with
    the arithmetic of one vector at a time.
    """
    vectors = list(vectors)
    if not vectors:
        return []
    shape, dim = vectors[0].shape, vectors[0].dim
    residuals = realization_stacks(vectors, shape, dim)
    scales = stack_norms(shape, residuals)
    fam = []
    for i, scale in enumerate(scales):
        r = [s[:, i] for s in residuals]
        if stack_norms(shape, [rk[:, None] for rk in r])[0] <= tol * max(1.0, scale):
            continue
        w = _support_normalized(shape, r)
        fam.append(ModuleVector._packed(shape, dim, w))
        for s, wk in zip(residuals, w):
            rest = s[:, i + 1 :]
            coeffs = wk.conj().swapaxes(-1, -2)[:, None] @ rest
            rest -= (coordinate_blocks(wk, dim)[:, None] @ coeffs[:, :, None]).reshape(rest.shape)
    return fam


# -- distance to finitely generated submodules ---------------------------


def _synthesis_blocks(generators) -> list[np.ndarray]:
    """Per class, the realizations of (a_1..a_s) -> sum_i g_i a_i: generator columns side by side."""
    g0 = generators[0]
    return [
        np.stack([g.stacks[c] for g in generators], axis=2).reshape(len(s), s.shape[1], -1)
        for c, s in enumerate(g0.stacks)
    ]


def span_least_squares(stacks, generators) -> tuple[list[np.ndarray], list[float], float]:
    """Minimal-norm least squares against Span_A(generators), all points at once.

    stacks[c] holds the realizations of P points on the blocks of size
    class c, shape (count, P, dim*n, n).  One pseudo-inverse per block
    serves every point: the coefficient stack is pinv(G_k) @ X_k broadcast
    over the points, and a point's residual is max_k ||X_k - G_k A_k||_2,
    the exact distance (see `submodule_distance`).  Returns the coefficient
    stacks, shape (count, P, s*n, n), the residuals, and the constant
    B = max_k ||pinv(G_k)||_2 of `synthesis_pinv_norm`.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("at least one generator required")
    first = generators[0]
    for g in generators:
        first._require_compatible(g)
    shape = first.shape
    require_stacks(stacks, shape, first.dim)
    coeffs, norms, pinv_norms = [], [], []
    for xk, gk in zip(stacks, _synthesis_blocks(generators)):
        pinv = np.linalg.pinv(gk, rcond=PINV_RTOL)
        ak = pinv[:, None] @ xk
        norms.append(spectral_norms(xk - gk[:, None] @ ak))
        coeffs.append(ak)
        pinv_norms.append(spectral_norms(pinv))
    residuals = [max(0.0, *vals) for vals in shape.gather(norms).T.tolist()]
    return coeffs, residuals, blockwise_max(shape, pinv_norms)


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
    generators = list(generators)
    coeffs, residuals, _ = span_least_squares(
        realization_stacks([x], x.shape, x.dim), generators
    )
    split = [coordinate_blocks(ck[:, 0], len(generators)) for ck in coeffs]
    elements = [
        AlgebraElement._packed(x.shape, tuple(s[:, i] for s in split))
        for i in range(len(generators))
    ]
    return residuals[0], elements


def synthesis_pinv_norm(generators) -> float:
    """Norm of the inverse of the synthesis map off its kernel.

    This is the constant B of the bounded-coefficient argument for
    finite-dimensional algebras: the minimal-norm solution of
    sum_i g_i a_i = y satisfies ||(a_1..a_s)|| <= B ||y||.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("at least one generator required")
    g = generators[0]
    return span_least_squares(realization_stacks((), g.shape, g.dim), generators)[2]
