"""Vectors, operators, functionals, and submodules of the free module A^n.

The module A^n carries the algebra-valued inner product
<x,y> = sum_i x_i* y_i and the norm ||x|| = ||<x,x>||^(1/2).  Everything
reduces to dense linear algebra through the block realization: stacking
the k-th blocks of the coordinates of x gives an (n*n_k, n_k) matrix
R_k(x) with <x,y> restricted to block k equal to R_k(x)* R_k(y).  Vector
and operator norms are therefore exact per-block singular values, and
least-squares problems decouple per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraElement, AlgebraShape

# Relative cutoff for pseudo-inverses and rank decisions on realizations.
PINV_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class ModuleVector:
    """Element of A^n: a tuple of n algebra elements."""

    shape: AlgebraShape
    coords: tuple[AlgebraElement, ...]

    def __post_init__(self):
        coords = tuple(self.coords)
        if not coords:
            raise ValueError("module vectors need at least one coordinate")
        for c in coords:
            if c.shape != self.shape:
                raise ValueError("all coordinates must share the algebra shape")
        object.__setattr__(self, "coords", coords)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, shape: AlgebraShape, dim: int) -> "ModuleVector":
        return cls(shape, tuple(AlgebraElement.zero(shape) for _ in range(dim)))

    @classmethod
    def basis(cls, shape: AlgebraShape, dim: int, j: int) -> "ModuleVector":
        """Standard basis vector e_j: the algebra unit at coordinate j."""
        if not 0 <= j < dim:
            raise ValueError(f"basis index {j} out of range for dimension {dim}")
        coords = [AlgebraElement.zero(shape) for _ in range(dim)]
        coords[j] = AlgebraElement.identity(shape)
        return cls(shape, tuple(coords))

    # -- linear structure -----------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _require_compatible(self, other: "ModuleVector"):
        if self.shape != other.shape or self.dim != other.dim:
            raise ValueError("module vectors live in different modules")

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._require_compatible(other)
        return ModuleVector(
            self.shape, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        self._require_compatible(other)
        return ModuleVector(
            self.shape, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "ModuleVector":
        return ModuleVector(self.shape, tuple(-a for a in self.coords))

    def __mul__(self, other) -> "ModuleVector":
        """Right module action x*a for algebra elements, scaling for scalars."""
        if isinstance(other, AlgebraElement):
            return ModuleVector(self.shape, tuple(c * other for c in self.coords))
        return ModuleVector(self.shape, tuple(c * complex(other) for c in self.coords))

    def __truediv__(self, scalar) -> "ModuleVector":
        return self * (1.0 / complex(scalar))

    # -- metric structure -----------------------------------------------

    def realize_block(self, k: int) -> np.ndarray:
        """Stacked k-th blocks of all coordinates, shape (dim*n_k, n_k)."""
        return np.vstack([c.blocks[k] for c in self.coords])

    def norm(self) -> float:
        return max(
            float(np.linalg.norm(self.realize_block(k), 2))
            for k in range(self.shape.num_blocks)
        )

    def restrict(self, start: int, stop: int) -> "ModuleVector":
        """Zero out every coordinate outside [start, stop)."""
        zero = AlgebraElement.zero(self.shape)
        coords = [
            c if start <= i < stop else zero for i, c in enumerate(self.coords)
        ]
        return ModuleVector(self.shape, tuple(coords))

    def __repr__(self) -> str:
        return f"ModuleVector(dim={self.dim}, norm={self.norm():.4g})"


def vector_from_realizations(
    shape: AlgebraShape, dim: int, mats: list[np.ndarray]
) -> ModuleVector:
    """Inverse of per-block realization: split stacked rows back into coords."""
    coords = []
    for i in range(dim):
        blocks = []
        for k, n_k in enumerate(shape.block_dims):
            blocks.append(mats[k][i * n_k : (i + 1) * n_k, :])
        coords.append(AlgebraElement(shape, tuple(blocks)))
    return ModuleVector(shape, tuple(coords))


def inner_product(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """A-valued inner product sum_i x_i* y_i, conjugate-linear in x."""
    x._require_compatible(y)
    blocks = tuple(
        x.realize_block(k).conj().T @ y.realize_block(k)
        for k in range(x.shape.num_blocks)
    )
    return AlgebraElement(x.shape, blocks)


@dataclass(frozen=True, eq=False)
class ModuleOperator:
    """A-linear map A^n -> A^m given by an m-by-n matrix over the algebra.

    The action is T(x)_i = sum_j entries[i][j] x_j, so right
    multiplication commutes through: T(x*a) = T(x)*a.
    """

    shape: AlgebraShape
    entries: tuple[tuple[AlgebraElement, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        if not rows or not rows[0]:
            raise ValueError("operators need at least one row and one column")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged operator entries")
            for e in row:
                if e.shape != self.shape:
                    raise ValueError("all entries must share the algebra shape")
        object.__setattr__(self, "entries", rows)

    @property
    def target_dim(self) -> int:
        return len(self.entries)

    @property
    def source_dim(self) -> int:
        return len(self.entries[0])

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, shape: AlgebraShape, dim: int) -> "ModuleOperator":
        one = AlgebraElement.identity(shape)
        zero = AlgebraElement.zero(shape)
        return cls(
            shape,
            tuple(
                tuple(one if i == j else zero for j in range(dim))
                for i in range(dim)
            ),
        )

    @classmethod
    def zero(cls, shape: AlgebraShape, target_dim: int, source_dim: int) -> "ModuleOperator":
        z = AlgebraElement.zero(shape)
        return cls(shape, tuple(tuple(z for _ in range(source_dim)) for _ in range(target_dim)))

    @classmethod
    def coordinate_selector(cls, shape: AlgebraShape, dim: int, indices) -> "ModuleOperator":
        """Diagonal 0/1 operator keeping the listed coordinates."""
        keep = set(indices)
        one = AlgebraElement.identity(shape)
        zero = AlgebraElement.zero(shape)
        return cls(
            shape,
            tuple(
                tuple((one if (i == j and i in keep) else zero) for j in range(dim))
                for i in range(dim)
            ),
        )

    # -- action and algebra ----------------------------------------------

    def __call__(self, x: ModuleVector) -> ModuleVector:
        if x.shape != self.shape or x.dim != self.source_dim:
            raise ValueError("operator/vector dimension mismatch")
        mats = []
        for k in range(self.shape.num_blocks):
            mats.append(self.realize_block(k) @ x.realize_block(k))
        return vector_from_realizations(self.shape, self.target_dim, mats)

    def __matmul__(self, other: "ModuleOperator") -> "ModuleOperator":
        if other.shape != self.shape or other.target_dim != self.source_dim:
            raise ValueError("operator composition dimension mismatch")
        rows = []
        for i in range(self.target_dim):
            row = []
            for j in range(other.source_dim):
                acc = AlgebraElement.zero(self.shape)
                for l in range(self.source_dim):
                    acc = acc + self.entries[i][l] * other.entries[l][j]
                row.append(acc)
            rows.append(tuple(row))
        return ModuleOperator(self.shape, tuple(rows))

    def __add__(self, other: "ModuleOperator") -> "ModuleOperator":
        if (
            other.shape != self.shape
            or other.target_dim != self.target_dim
            or other.source_dim != self.source_dim
        ):
            raise ValueError("operator sum dimension mismatch")
        return ModuleOperator(
            self.shape,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "ModuleOperator") -> "ModuleOperator":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "ModuleOperator":
        return ModuleOperator(
            self.shape,
            tuple(tuple(e * complex(scalar) for e in row) for row in self.entries),
        )

    def adjoint(self) -> "ModuleOperator":
        """Entrywise adjoint of the transpose; satisfies <T*y,x> = <y,Tx>."""
        return ModuleOperator(
            self.shape,
            tuple(
                tuple(self.entries[i][j].adjoint() for i in range(self.target_dim))
                for j in range(self.source_dim)
            ),
        )

    def realize_block(self, k: int) -> np.ndarray:
        return np.block(
            [[e.blocks[k] for e in row] for row in self.entries]
        )

    def norm(self) -> float:
        """C*-norm of the matrix over A: max over blocks of the spectral norm.

        Exact, because the block realization is a faithful representation
        and the supremum of ||Tx|| over the unit ball is attained on each
        block at its leading right singular vector.
        """
        return max(
            float(np.linalg.norm(self.realize_block(k), 2))
            for k in range(self.shape.num_blocks)
        )

    def __repr__(self) -> str:
        return (
            f"ModuleOperator({self.target_dim}x{self.source_dim}, "
            f"norm={self.norm():.4g})"
        )


@dataclass(frozen=True, eq=False)
class Functional:
    """Bounded A-linear functional f(z) = <y,z> stored by its vector y.

    Finite free modules over these algebras are self-dual, so every
    bounded functional has this form and nothing is lost.
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
    return ModuleOperator(
        x.shape,
        tuple(
            tuple(xi * yj.adjoint() for yj in y.coords) for xi in x.coords
        ),
    )


@dataclass(frozen=True, eq=False)
class SubmodulePresentation:
    """Complemented submodule given by its projection P = P* = P^2."""

    projection: ModuleOperator
    tol: float = field(default=1e-8, compare=False)

    def __post_init__(self):
        p = self.projection
        if p.source_dim != p.target_dim:
            raise ValueError("projections must be square")
        scale = max(p.norm(), 1.0)
        if (p - p.adjoint()).norm() > self.tol * scale:
            raise ValueError("projection is not self-adjoint")
        if ((p @ p) - p).norm() > self.tol * scale:
            raise ValueError("projection is not idempotent")

    @property
    def ambient_dim(self) -> int:
        return self.projection.source_dim

    def apply(self, x: ModuleVector) -> ModuleVector:
        return self.projection(x)

    @classmethod
    def coordinate_prefix(cls, shape: AlgebraShape, dim: int, prefix: int) -> "SubmodulePresentation":
        """Q_D: orthogonal projection onto the first `prefix` coordinates."""
        if not 0 <= prefix <= dim:
            raise ValueError(f"prefix {prefix} out of range for dimension {dim}")
        return cls(ModuleOperator.coordinate_selector(shape, dim, range(prefix)))

    @classmethod
    def from_orthogonal_family(cls, vectors) -> "SubmodulePresentation":
        """Projection sum theta_{w,w} over an orthogonalized span family."""
        fam = orthogonal_span_family(vectors)
        if not fam:
            raise ValueError("cannot present the zero submodule this way")
        p = theta_op(fam[0], fam[0])
        for w in fam[1:]:
            p = p + theta_op(w, w)
        return cls(p)


# -- stacked realizations ------------------------------------------------


def realization_stacks(vectors, shape: AlgebraShape, dim: int) -> tuple[np.ndarray, ...]:
    """Per block k, the realizations of `vectors` stacked: (len, dim*n_k, n_k).

    An empty family gives zero-length stacks of the module's block shapes.
    """
    vectors = list(vectors)
    for v in vectors:
        if v.shape != shape or v.dim != dim:
            raise ValueError("module vectors live in different modules")
    return tuple(
        np.array([v.realize_block(k) for v in vectors], complex).reshape(
            len(vectors), dim * n, n
        )
        for k, n in enumerate(shape.block_dims)
    )


def gram_block(coords: np.ndarray) -> np.ndarray:
    """Realized gram block S_k = Theta* Theta of a family, from its coordinate blocks.

    coords has shape (size, dim, n_k, n_k): the k-th blocks x_{l,i} of the
    coordinates of the family members x_l.  Entry (i, j) of S is
    sum_l x_{l,i} x_{l,j}*: every product is formed in one batched
    matmul, then the products are added in family order l = 0, 1, ...,
    which is the arithmetic of the operator product Theta* @ Theta entry
    by entry.
    """
    size, dim, n, _ = coords.shape
    adjoints = np.ascontiguousarray(coords.conj().swapaxes(-1, -2))
    products = coords[:, :, None] @ adjoints[:, None, :]
    acc = np.zeros((dim, dim, n, n), complex)
    for p in products:
        acc = acc + p
    return acc.transpose(0, 2, 1, 3).reshape(dim * n, dim * n)


def require_stacks(stacks, shape: AlgebraShape, dim: int) -> None:
    """Reject per-block stacks that do not realize points of A^dim over `shape`."""
    if len(stacks) != shape.num_blocks or any(
        s.ndim != 3 or s.shape[1:] != (dim * n, n)
        for s, n in zip(stacks, shape.block_dims)
    ):
        raise ValueError("module vectors live in different modules")


def blockwise_max(per_block) -> list:
    """max() over blocks in block order, entry by entry, as nested float lists.

    Takes one array of per-block values for each block, all of one shape.
    A module vector's norm is its largest block norm; this combines
    batched per-block norms with max() the way `ModuleVector.norm` does.
    """
    stacked = np.stack(per_block, axis=-1)
    flat = [max(vals) for vals in stacked.reshape(-1, stacked.shape[-1]).tolist()]
    return np.reshape(flat, stacked.shape[:-1]).tolist()


def stack_norms(stacks) -> list[float]:
    """Module norm of every stacked point: its largest block spectral norm."""
    return blockwise_max([np.linalg.norm(s, 2, axis=(1, 2)) for s in stacks])


# -- span geometry ------------------------------------------------------


def _support_normalized(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Per-block realization of v (a^+)^(1/2), a = <v,v>, from that of v."""
    grams = [vk.conj().T @ vk for vk in blocks]
    cut = max(max(float(np.linalg.norm(a, 2)) for a in grams), 0.0) * PINV_RTOL
    out = []
    for vk, a in zip(blocks, grams):
        h = (a + a.conj().T) / 2.0
        w, u = np.linalg.eigh(h)
        inv_sqrt = np.where(w > cut, 1.0 / np.sqrt(np.clip(w, cut, None)), 0.0)
        n = vk.shape[1]
        scale = (u * inv_sqrt) @ u.conj().T
        out.append((vk.reshape(-1, n, n) @ scale).reshape(vk.shape))
    return out


def spectral_normalize(v: ModuleVector) -> ModuleVector:
    """Scale v on the right so that <w,w> becomes a projection.

    w = v (a^+)^(1/2) with a = <v,v>; then <w,w> is the support
    projection of a and w<w,w> = w, which makes theta_{w,w} an orthogonal
    projection onto the A-span of v.
    """
    blocks = [v.realize_block(k) for k in range(v.shape.num_blocks)]
    return vector_from_realizations(v.shape, v.dim, _support_normalized(blocks))


def orthogonal_span_family(vectors, tol: float = 1e-9) -> list[ModuleVector]:
    """Gram-Schmidt over the module: an orthogonal family spanning the input.

    Each output w satisfies <w,w> = projection and w<w,w> = w, distinct
    outputs are exactly orthogonal, and sum_j theta_{w_j,w_j} reproduces
    every input vector.  Inputs that are already reproduced by the family
    built so far are dropped.

    Runs on the stacked block realizations: when w joins the family,
    every later input takes its step r - w<w,r> in one batched update per
    block, so each input meets the family members in the order they
    joined, with the arithmetic of one vector at a time.
    """
    vectors = list(vectors)
    if not vectors:
        return []
    shape, dim = vectors[0].shape, vectors[0].dim
    residuals = realization_stacks(vectors, shape, dim)
    scales = stack_norms(residuals)
    fam = []
    for i, scale in enumerate(scales):
        r = [s[i] for s in residuals]
        if max(float(np.linalg.norm(rk, 2)) for rk in r) <= tol * max(1.0, scale):
            continue
        w = _support_normalized(r)
        fam.append(w)
        for s, wk in zip(residuals, w):
            rest = s[i + 1 :]
            n = wk.shape[1]
            coeffs = wk.conj().T @ rest
            rest -= (wk.reshape(-1, n, n) @ coeffs[:, None]).reshape(rest.shape)
    return [vector_from_realizations(shape, dim, w) for w in fam]


# -- distance to finitely generated submodules ---------------------------


def _synthesis_blocks(generators) -> list[np.ndarray]:
    """Per-block realization of (a_1..a_s) -> sum_i g_i a_i, columns stacked."""
    g0 = generators[0]
    return [
        np.hstack([g.realize_block(k) for g in generators])
        for k in range(g0.shape.num_blocks)
    ]


def span_least_squares(stacks, generators) -> tuple[list[np.ndarray], list[float], float]:
    """Minimal-norm least squares against Span_A(generators), all points at once.

    stacks[k] holds the block-k realizations of P points, shape
    (P, dim*n_k, n_k).  One pseudo-inverse per block serves every point:
    the coefficient stack is pinv(G_k) @ X_k broadcast over the points,
    and a point's residual is max_k ||X_k - G_k A_k||_2, the exact
    distance (see `submodule_distance`).  Returns the per-block
    coefficient stacks, shape (P, s*n_k, n_k), the residuals, and the
    constant B = max_k ||pinv(G_k)||_2 of `synthesis_pinv_norm`.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("at least one generator required")
    first = generators[0]
    for g in generators:
        first._require_compatible(g)
    require_stacks(stacks, first.shape, first.dim)
    coeffs, norms, pinv_norms = [], [], []
    for xk, gk in zip(stacks, _synthesis_blocks(generators)):
        pinv = np.linalg.pinv(gk, rcond=PINV_RTOL)
        ak = pinv @ xk
        norms.append(np.linalg.norm(xk - gk @ ak, 2, axis=(1, 2)).tolist())
        coeffs.append(ak)
        pinv_norms.append(float(np.linalg.norm(pinv, 2)))
    residuals = [max(0.0, *vals) for vals in zip(*norms)]
    return coeffs, residuals, max(pinv_norms)


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
    dims = x.shape.block_dims
    elements = [
        AlgebraElement(
            x.shape, tuple(ck[0, i * n : (i + 1) * n] for ck, n in zip(coeffs, dims))
        )
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
