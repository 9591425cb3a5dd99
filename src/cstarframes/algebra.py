"""Block-diagonal matrix algebras: arithmetic, norms, order, and states.

The algebra is always a finite direct sum of full complex matrix blocks
M_{n_1} + ... + M_{n_K}.  Every element is stored through this faithful
realization, so norms, spectra and positivity are plain dense linear
algebra, one block at a time.  Commutative algebras are the special case
where every block is 1x1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Relative eigenvalue threshold used by positivity and invertibility checks.
DEFAULT_TOL = 1e-10


def check_eps(eps: float) -> None:
    """Reject an approximation radius that is not a finite positive number.

    Every eps comparison in the library is a strict `< eps`; NaN makes
    all of them false (a greedy net never closes, a tail never settles)
    and inf makes them all true, so both are refused up front.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be a finite positive number")


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

    @property
    def is_commutative(self) -> bool:
        return all(n == 1 for n in self.block_dims)


def _as_blocks(shape: AlgebraShape, blocks) -> tuple[np.ndarray, ...]:
    """Validate and freeze a list of per-block matrices."""
    if len(blocks) != shape.num_blocks:
        raise ValueError(
            f"expected {shape.num_blocks} blocks, got {len(blocks)}"
        )
    frozen = []
    for k, (n, b) in enumerate(zip(shape.block_dims, blocks)):
        arr = np.array(b, dtype=complex)
        if arr.shape != (n, n):
            raise ValueError(
                f"block {k} has shape {arr.shape}, expected {(n, n)}"
            )
        arr.setflags(write=False)
        frozen.append(arr)
    return tuple(frozen)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One member of the algebra: a matrix per block.

    Values are immutable after construction; all arithmetic returns fresh
    elements, so instances are safe to share across threads.
    """

    shape: AlgebraShape
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", _as_blocks(self.shape, self.blocks))

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls(shape, tuple(np.eye(n, dtype=complex) for n in shape.block_dims))

    @classmethod
    def zero(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls(shape, tuple(np.zeros((n, n), complex) for n in shape.block_dims))

    @classmethod
    def from_scalars(cls, shape: AlgebraShape, values) -> "AlgebraElement":
        """Element of a commutative shape from one complex value per block."""
        if not shape.is_commutative:
            raise ValueError("from_scalars requires all blocks 1x1")
        if len(values) != shape.num_blocks:
            raise ValueError("one value per block required")
        return cls(shape, tuple(np.array([[v]], complex) for v in values))

    @classmethod
    def block_unit(cls, shape: AlgebraShape, k: int) -> "AlgebraElement":
        """Central projection supported on block k: identity there, zero elsewhere."""
        if not 0 <= k < shape.num_blocks:
            raise ValueError(f"block index {k} out of range")
        blocks = [np.zeros((n, n), complex) for n in shape.block_dims]
        blocks[k] = np.eye(shape.block_dims[k], dtype=complex)
        return cls(shape, tuple(blocks))

    # -- arithmetic -----------------------------------------------------

    def _require_same_shape(self, other: "AlgebraElement"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_shape(other)
        return AlgebraElement(
            self.shape, tuple(a + b for a, b in zip(self.blocks, other.blocks))
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_shape(other)
        return AlgebraElement(
            self.shape, tuple(a - b for a, b in zip(self.blocks, other.blocks))
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, tuple(-a for a in self.blocks))

    def __mul__(self, other) -> "AlgebraElement":
        """Algebra product for element operands, scaling for scalar operands."""
        if isinstance(other, AlgebraElement):
            self._require_same_shape(other)
            return AlgebraElement(
                self.shape, tuple(a @ b for a, b in zip(self.blocks, other.blocks))
            )
        return AlgebraElement(self.shape, tuple(a * complex(other) for a in self.blocks))

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.shape, tuple(complex(scalar) * a for a in self.blocks))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, tuple(a.conj().T for a in self.blocks))

    # -- norm and order -------------------------------------------------

    def norm(self) -> float:
        """C*-norm: the largest singular value across blocks."""
        return max(
            float(np.linalg.norm(a, 2)) if a.size else 0.0 for a in self.blocks
        )

    def is_selfadjoint(self, tol: float = DEFAULT_TOL) -> bool:
        scale = max(self.norm(), 1.0)
        return all(
            np.max(np.abs(a - a.conj().T)) <= tol * scale for a in self.blocks
        )

    def is_positive(self, tol: float = DEFAULT_TOL) -> bool:
        """Positivity test: every block eigenvalue >= -tol * norm.

        The input must be self-adjoint within the same relative tolerance;
        eigenvalues are taken on the Hermitian symmetrization.
        """
        if not self.is_selfadjoint(tol):
            raise ValueError("positivity is only defined for self-adjoint elements")
        slack = tol * max(self.norm(), 1.0)
        for a in self.blocks:
            h = (a + a.conj().T) / 2.0
            if np.linalg.eigvalsh(h).min() < -slack:
                return False
        return True

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue across the Hermitian symmetrizations of all blocks."""
        return min(
            float(np.linalg.eigvalsh((a + a.conj().T) / 2.0).min())
            for a in self.blocks
        )

    def inverse(self, tol: float = DEFAULT_TOL) -> "AlgebraElement":
        """Blockwise inverse; rejects elements with a nearly singular block."""
        scale = max(self.norm(), 1.0)
        out = []
        for k, a in enumerate(self.blocks):
            smin = np.linalg.svd(a, compute_uv=False).min()
            if smin <= tol * scale:
                raise np.linalg.LinAlgError(
                    f"block {k} is singular (smallest singular value {smin:.3e})"
                )
            out.append(np.linalg.inv(a))
        return AlgebraElement(self.shape, tuple(out))

    def sqrt(self, tol: float = DEFAULT_TOL) -> "AlgebraElement":
        """Positive square root via blockwise spectral calculus."""
        if not self.is_positive(tol):
            raise ValueError("sqrt requires a positive element")
        out = []
        for a in self.blocks:
            h = (a + a.conj().T) / 2.0
            w, v = np.linalg.eigh(h)
            out.append((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
        return AlgebraElement(self.shape, tuple(out))

    # -- misc -----------------------------------------------------------

    def allclose(self, other: "AlgebraElement", tol: float = 1e-12) -> bool:
        self._require_same_shape(other)
        return (self - other).norm() <= tol * max(1.0, self.norm(), other.norm())

    def __repr__(self) -> str:
        dims = "+".join(str(n) for n in self.shape.block_dims)
        return f"AlgebraElement(blocks {dims}, norm={self.norm():.4g})"


@dataclass(frozen=True, eq=False)
class State:
    """Positive linear functional of norm one, stored as block densities.

    Evaluation is a |-> sum_k trace(rho_k a_k) with each rho_k positive
    semidefinite and the traces summing to one.
    """

    shape: AlgebraShape
    densities: tuple[np.ndarray, ...] = field(repr=False)

    _VALIDATION_TOL = 1e-8

    def __post_init__(self):
        densities = _as_blocks(self.shape, self.densities)
        total = 0.0
        for k, rho in enumerate(densities):
            herm_defect = np.max(np.abs(rho - rho.conj().T)) if rho.size else 0.0
            if herm_defect > self._VALIDATION_TOL:
                raise ValueError(f"density {k} is not Hermitian")
            if np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min() < -self._VALIDATION_TOL:
                raise ValueError(f"density {k} is not positive semidefinite")
            total += float(np.trace(rho).real)
        if abs(total - 1.0) > self._VALIDATION_TOL:
            raise ValueError(f"densities must have total trace 1, got {total}")
        object.__setattr__(self, "densities", densities)

    def __call__(self, a: AlgebraElement) -> complex:
        if a.shape != self.shape:
            raise ValueError("state and element shapes differ")
        return complex(
            sum(np.trace(rho @ blk) for rho, blk in zip(self.densities, a.blocks))
        )

    @classmethod
    def normalized_trace(cls, shape: AlgebraShape) -> "State":
        d = shape.realization_dim
        return cls(shape, tuple(np.eye(n, dtype=complex) / d for n in shape.block_dims))

    @classmethod
    def block_state(cls, shape: AlgebraShape, k: int) -> "State":
        """Normalized trace concentrated on block k.

        On a commutative shape this is evaluation at coordinate k.
        """
        if not 0 <= k < shape.num_blocks:
            raise ValueError(f"block index {k} out of range")
        densities = [np.zeros((n, n), complex) for n in shape.block_dims]
        densities[k] = np.eye(shape.block_dims[k], dtype=complex) / shape.block_dims[k]
        return cls(shape, tuple(densities))

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
    best_block, best_val, best_vec = 0, -1.0, None
    for k, blk in enumerate(a.blocks):
        h = blk.conj().T @ blk
        w, v = np.linalg.eigh(h)
        if w[-1] > best_val + 1e-15:
            best_block, best_val, best_vec = k, float(w[-1]), v[:, -1]
    vec = best_vec.copy()
    nz = np.flatnonzero(np.abs(vec) > 1e-14)
    if nz.size:
        phase = vec[nz[0]] / abs(vec[nz[0]])
        vec = vec / phase
    return State.vector_state(a.shape, best_block, vec)
