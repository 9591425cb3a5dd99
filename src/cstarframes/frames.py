"""Standard frames on A^n: frame operator, optimal bounds, canonical dual.

A family {x_j} is a frame when c1 <x,x> <= sum_j <x,x_j><x_j,x> <= c2 <x,x>
for some c1 > 0.  With S = Theta* Theta realized blockwise, the operator
inequalities are spectral containments, so the optimal constants are the
extreme eigenvalues of the realization and the canonical dual is
g_j = S^(-1) x_j, computed by one Hermitian solve per block.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import AlgebraElement, AlgebraShape
from .modules import (
    ModuleOperator,
    ModuleVector,
    gram_block,
    inner_product,
    realization_stacks,
    require_stacks,
    theta_op,
    vector_from_realizations,
)


class DegenerateFrameError(ValueError):
    """Family whose smallest gram eigenvalue vanishes: not a frame."""


def _operator_from_block_matrices(
    shape: AlgebraShape, target_dim: int, source_dim: int, mats: list[np.ndarray]
) -> ModuleOperator:
    rows = []
    for i in range(target_dim):
        row = []
        for j in range(source_dim):
            blocks = tuple(
                mats[k][i * n_k : (i + 1) * n_k, j * n_k : (j + 1) * n_k]
                for k, n_k in enumerate(shape.block_dims)
            )
            row.append(AlgebraElement(shape, blocks))
        rows.append(tuple(row))
    return ModuleOperator(shape, tuple(rows))


class Frame:
    """Finite frame with bounds and canonical dual, plus lazy module operators.

    spanning="ambient" (default) demands a frame for the whole module and
    rejects degenerate families.  spanning="range" accepts families that
    only span a submodule: bounds come from the nonzero gram spectrum and
    the dual uses the pseudo-inverse, so reconstruction reproduces the
    projection onto the family's span.  Construction computes the bounds
    and the per-block realizations of the family and its dual straight
    from the coordinate blocks; the module-level objects (analysis
    operator, gram operator, dual vectors) are built on first use.
    Instances are read-only.
    """

    def __init__(self, vectors, spanning: str = "ambient", tol: float = 1e-10):
        vectors = tuple(vectors)
        if not vectors:
            raise ValueError("a frame needs at least one vector")
        if spanning not in ("ambient", "range"):
            raise ValueError(f"unknown spanning mode {spanning!r}")
        first = vectors[0]
        for v in vectors:
            first._require_compatible(v)
        self._vectors = vectors
        self._spanning = spanning
        self._shape = first.shape
        self._dim = first.dim

        coord_blocks = [
            np.array([[c.blocks[k] for c in v.coords] for v in vectors])
            for k in range(self._shape.num_blocks)
        ]
        self._gram_blocks = tuple(gram_block(xs) for xs in coord_blocks)

        eigensystems = []
        lo, hi = np.inf, 0.0
        for sk in self._gram_blocks:
            w, u = np.linalg.eigh((sk + sk.conj().T) / 2.0)
            eigensystems.append((w, u))
            lo = min(lo, float(w.min()))
            hi = max(hi, float(w.max()))
        cut = tol * max(hi, 1.0)
        if spanning == "ambient":
            if lo <= cut:
                raise DegenerateFrameError(
                    f"smallest gram eigenvalue {lo:.3e} is below tolerance; "
                    "the family does not span the module"
                )
            c1 = lo
        else:
            positive = [
                float(w[w > cut].min()) for w, _ in eigensystems if (w > cut).any()
            ]
            if not positive:
                raise DegenerateFrameError("the family consists of zero vectors")
            c1 = min(positive)
        self._bounds = (c1, hi)

        inv_blocks = []
        for w, u in eigensystems:
            inv_w = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
            inv_blocks.append((u * inv_w) @ u.conj().T)
        self._gram_inv_blocks = inv_blocks
        # Per block k, the stacked realizations X_jk of the family, shape
        # (size, dim*n_k, n_k), and G_jk = S_k^(-1) X_jk of its dual.
        self._vector_blocks = tuple(
            xs.reshape(self.size, -1, xs.shape[-1]) for xs in coord_blocks
        )
        self._dual_blocks = tuple(
            inv @ xs for inv, xs in zip(inv_blocks, self._vector_blocks)
        )

    @functools.cached_property
    def _theta(self) -> ModuleOperator:
        # Theta(x) = (<x_j, x>)_j, so the matrix row j holds the adjoints
        # of the coordinates of x_j.
        return ModuleOperator(
            self._shape,
            tuple(tuple(c.adjoint() for c in v.coords) for v in self._vectors),
        )

    @functools.cached_property
    def _theta_star(self) -> ModuleOperator:
        return self._theta.adjoint()

    @functools.cached_property
    def _gram(self) -> ModuleOperator:
        return self._theta_star @ self._theta

    @functools.cached_property
    def _dual(self) -> tuple[ModuleVector, ...]:
        return tuple(
            vector_from_realizations(
                self._shape, self._dim, [g[j] for g in self._dual_blocks]
            )
            for j in range(self.size)
        )

    # -- basic accessors --------------------------------------------------

    @property
    def vectors(self) -> tuple[ModuleVector, ...]:
        return self._vectors

    @property
    def spanning(self) -> str:
        return self._spanning

    @property
    def shape(self) -> AlgebraShape:
        return self._shape

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def size(self) -> int:
        return len(self._vectors)

    @property
    def bounds(self) -> tuple[float, float]:
        """Optimal frame constants (c1, c2)."""
        return self._bounds

    @property
    def analysis_op(self) -> ModuleOperator:
        """Theta: x -> (<x_j,x>)_j."""
        return self._theta

    @property
    def gram_op(self) -> ModuleOperator:
        """S = Theta* Theta."""
        return self._gram

    def canonical_dual(self) -> tuple[ModuleVector, ...]:
        """g_j = S^(-1) x_j (pseudo-inverse in range mode)."""
        return self._dual

    def gram_inverse(self) -> ModuleOperator:
        return _operator_from_block_matrices(
            self._shape, self._dim, self._dim, self._gram_inv_blocks
        )

    # -- reconstruction ----------------------------------------------------

    def _check_indices(self, indices) -> list[int]:
        idx = list(indices)
        for j in idx:
            if not 0 <= j < self.size:
                raise IndexError(f"frame index {j} out of range")
        return idx

    def reconstruct(self, x: ModuleVector, indices=None) -> ModuleVector:
        """sum_{j in indices} x_j <g_j, x>; all indices by default."""
        idx = range(self.size) if indices is None else self._check_indices(indices)
        out = ModuleVector.zero(self._shape, self._dim)
        for j in idx:
            out = out + self._vectors[j] * inner_product(self._dual[j], x)
        return out

    def _prefix_tails(self, stacks, stop: int) -> np.ndarray:
        """||x - sum_{j<n} x_j <g_j,x>|| for n = 0..stop, every point in one pass.

        stacks[k] holds the block-k realizations x_k of the points, shape
        (P, dim*n_k, n_k).  Works on the stored block realizations X_jk of
        x_j and G_jk of g_j: on block k the terms X_jk (G_jk* x_k) of all
        points are formed in one batched matmul and summed cumulatively in
        frame order from zero, so prefix n holds exactly the sum
        `reconstruct(x, range(n))` forms.  Each tail is the largest
        spectral norm of x_k minus its partial sum.  Returns (P, stop+1).
        """
        require_stacks(stacks, self._shape, self._dim)
        tails = np.zeros((len(stacks[0]), stop + 1))
        for xk, vk, gk in zip(stacks, self._vector_blocks, self._dual_blocks):
            xk = xk[:, None]
            terms = vk[:stop] @ (gk[:stop].conj().swapaxes(-1, -2) @ xk)
            start = np.zeros((len(xk), 1) + xk.shape[2:], complex)
            partial = np.add.accumulate(np.concatenate((start, terms), axis=1), axis=1)
            tails = np.fmax(tails, np.linalg.norm(xk - partial, 2, axis=(2, 3)))
        return tails

    def tail_profiles(self, stacks) -> np.ndarray:
        """Every prefix tail of every stacked point: row p is point p's profile.

        stacks are per-block realization stacks such as
        `SampleSet.realizations`; row p equals `tail_profile` of point p.
        """
        return self._prefix_tails(stacks, self.size)

    def tail_profile(self, x: ModuleVector) -> list[float]:
        """Every prefix tail ||x - sum_{j<n} x_j <g_j,x>||, n = 0..size."""
        return self.tail_profiles(realization_stacks([x], self._shape, self._dim))[0].tolist()

    def reconstruction_tail(self, x: ModuleVector, n: int) -> float:
        """||x - sum_{j<n} x_j <g_j,x>|| for the stored vector order.

        The same arithmetic as `tail_profile`, stopped at prefix n; use
        `tail_profile` when several prefixes of one point are needed.
        """
        if not 0 <= n <= self.size:
            raise ValueError(f"prefix length {n} out of range")
        stacks = realization_stacks([x], self._shape, self._dim)
        return float(self._prefix_tails(stacks, n)[0, n])

    def partial_sum_op(self, indices) -> ModuleOperator:
        """P_J' = sum_{j in J'} theta_{x_j, g_j}; norm bounded by c2/c1."""
        idx = self._check_indices(indices)
        out = ModuleOperator.zero(self._shape, self._dim, self._dim)
        for j in idx:
            out = out + theta_op(self._vectors[j], self._dual[j])
        return out

    def partial_sum_factored(self, indices) -> ModuleOperator:
        """Same operator through Theta* pi_J' Theta S^(-1): the proof's route."""
        idx = self._check_indices(indices)
        selector = ModuleOperator.coordinate_selector(self._shape, self.size, idx)
        return self._theta_star @ selector @ self._theta @ self.gram_inverse()

    def __repr__(self) -> str:
        c1, c2 = self._bounds
        return (
            f"Frame(size={self.size}, dim={self.dim}, "
            f"bounds=({c1:.4g}, {c2:.4g}), spanning={self._spanning!r})"
        )


def standard_basis_frame(shape: AlgebraShape, dim: int) -> Frame:
    """The Parseval frame {e_j}: bounds (1,1), self-dual."""
    return Frame([ModuleVector.basis(shape, dim, j) for j in range(dim)])
