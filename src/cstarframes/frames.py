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

from .algebra import AlgebraShape, fold_pair_maxima, hermitian_part, spectral_norms
from .modules import (
    ModuleOperator,
    ModuleVector,
    family_vectors,
    gram_block,
    inner_product,
    realization_stacks,
    require_stacks,
    theta_op,
)


class DegenerateFrameError(ValueError):
    """Family whose smallest gram eigenvalue vanishes, or whose gram overflows."""


class Frame:
    """Finite frame with bounds and canonical dual, plus lazy module operators.

    spanning="ambient" (default) demands a frame for the whole module and
    rejects degenerate families.  spanning="range" accepts families that
    only span a submodule: bounds come from the nonzero gram spectrum and
    the dual uses the pseudo-inverse, so reconstruction reproduces the
    projection onto the family's span.  Either mode refuses a family whose
    gram is not finite (its entries overflow in the products), naming the
    first such block.  Construction stacks the family once, per size
    class of the algebra, and computes the bounds and the realizations
    of the dual from that stack; the module-level objects
    (analysis operator, gram operator, dual vectors) are built on first
    use.  Instances are read-only.
    """

    def __init__(self, vectors, spanning: str = "ambient", tol: float = 1e-10):
        vectors = tuple(vectors)
        if not vectors:
            raise ValueError("a frame needs at least one vector")
        if spanning not in ("ambient", "range"):
            raise ValueError(f"unknown spanning mode {spanning!r}")
        first = vectors[0]
        self._vectors = vectors
        self._spanning = spanning
        self._shape = shape = first.shape
        self._dim = first.dim

        # Per class, the realizations X_j of the family, (count, size, dim*n, n).
        self._vector_stacks = realization_stacks(vectors, shape, self._dim)
        with np.errstate(over="ignore", invalid="ignore"):
            self._grams = tuple(
                gram_block(x.reshape(x.shape[:2] + (self._dim, x.shape[-1], x.shape[-1])))
                for x in self._vector_stacks
            )
            hermitian = [hermitian_part(s) for s in self._grams]
        finite = shape.gather([np.isfinite(h).all(axis=(-2, -1)) for h in hermitian])
        if not finite.all():
            raise DegenerateFrameError(
                f"the gram of block {int(np.argmin(finite))} is not finite: "
                "the family's entries overflow"
            )
        eigensystems = [np.linalg.eigh(h) for h in hermitian]
        lo = min(np.inf, *shape.gather([w.min(axis=-1) for w, _ in eigensystems]).tolist())
        hi = max(0.0, *shape.gather([w.max(axis=-1) for w, _ in eigensystems]).tolist())
        cut = tol * max(hi, 1.0)
        if spanning == "ambient":
            if lo <= cut:
                raise DegenerateFrameError(
                    f"smallest gram eigenvalue {lo:.3e} is below tolerance; "
                    "the family does not span the module"
                )
            c1 = lo
        else:
            least = shape.gather([np.where(w > cut, w, np.inf).min(axis=-1) for w, _ in eigensystems])
            found = shape.gather([(w > cut).any(axis=-1) for w, _ in eigensystems])
            positive = [v for v, ok in zip(least.tolist(), found.tolist()) if ok]
            if not positive:
                raise DegenerateFrameError("the family consists of zero vectors")
            c1 = min(positive)
        self._bounds = (c1, hi)

        self._gram_inv = []
        for w, u in eigensystems:
            inv_w = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
            self._gram_inv.append((u * inv_w[..., None, :]) @ u.conj().swapaxes(-1, -2))
        # Per class, the realizations G_j = S^(-1) X_j of the dual.
        self._dual_stacks = tuple(
            inv[:, None] @ x for inv, x in zip(self._gram_inv, self._vector_stacks)
        )

    @classmethod
    def _standard_basis(cls, shape: AlgebraShape, dim: int) -> "Frame":
        """{e_j} from known values: no gram, no eigh and no dual product are formed.

        Per size class, member j holds the unit at coordinate j; the gram
        and its inverse are the identity and the dual is the family
        itself.  The generic route gives exactly these bits: every gram
        entry is a sum of exact products of 0 and 1, and `eigh` of an
        identity returns eigenvalues 1.0 and eigenvectors u with |u| = I,
        so the gram inverse is I and the dual product I X is X, signed
        zeros included.  The stacks are read-only broadcast views.
        """
        frame = object.__new__(cls)
        stacks, identities = [], []
        for n, ks in shape.classes:
            members = np.zeros((dim, dim, n, n), complex)
            members[np.arange(dim), np.arange(dim)] = np.eye(n)
            stack = members.reshape(dim, dim * n, n)
            stacks.append(np.broadcast_to(stack, (len(ks),) + stack.shape))
            eye = np.eye(dim * n, dtype=complex)
            identities.append(np.broadcast_to(eye, (len(ks),) + eye.shape))
        frame._spanning = "ambient"
        frame._shape = shape
        frame._dim = dim
        frame._vector_stacks = frame._dual_stacks = tuple(stacks)
        frame._grams = tuple(identities)
        frame._gram_inv = identities
        frame._bounds = (1.0, 1.0)
        return frame

    @functools.cached_property
    def _vectors(self) -> tuple[ModuleVector, ...]:
        # set by __init__; the closed form builds its vectors on first use
        return family_vectors(self._shape, self._dim, self._vector_stacks)

    @functools.cached_property
    def _theta(self) -> ModuleOperator:
        # Theta(x) = (<x_j, x>)_j: row j of block k is R_k(x_j)*.
        return ModuleOperator._packed(
            self._shape, self.size, self._dim,
            tuple(
                np.ascontiguousarray(x.conj().swapaxes(-1, -2)).reshape(len(x), -1, x.shape[2])
                for x in self._vector_stacks
            ),
        )

    @functools.cached_property
    def _theta_star(self) -> ModuleOperator:
        return self._theta.adjoint()

    @functools.cached_property
    def _gram(self) -> ModuleOperator:
        return self._theta_star @ self._theta

    @functools.cached_property
    def _dual(self) -> tuple[ModuleVector, ...]:
        return family_vectors(self._shape, self._dim, self._dual_stacks)

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
        return self._vector_stacks[0].shape[1]

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
        return ModuleOperator._packed(self._shape, self._dim, self._dim, self._gram_inv)

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

        stacks[c] holds the realizations x_k of the points on the blocks of
        size class c, shape (count, P, dim*n, n).  Works on the stored
        realizations X_jk of x_j and G_jk of g_j: on every block the terms
        X_jk (G_jk* x_k) of all points are formed in one batched matmul and
        summed cumulatively in frame order from zero, so prefix n holds
        exactly the sum `reconstruct(x, range(n))` forms.  Each tail is the
        largest spectral norm of x_k minus its partial sum.  Blocks and
        points are taken in tiles that bound the size of the term tensor.

        A (block, point) pair with x_k = 0 is skipped (`fold_pair_maxima`):
        each of its terms is X_jk (G_jk* 0), an exact zero for finite X and
        G, and so is every partial sum, so each of its tails is +0.0.  An
        inf or NaN in X or G would turn that term into a NaN, on which the
        spectral norm raises.  Construction refuses a family whose gram is
        not finite, so X is finite, and so is G unless a tiny `tol` admits
        a gram eigenvalue whose inverse overflows; the skip is taken only
        when the class's X and G are finite, and every pair is computed
        otherwise.
        Returns (P, stop+1).
        """
        require_stacks(stacks, self._shape, self._dim)
        tails = np.zeros((stacks[0].shape[1], stop + 1))
        for xs, vs, gs in zip(stacks, self._vector_stacks, self._dual_stacks):
            _, _, rows, n = xs.shape

            def norms(blocks, x):
                x = x[:, :, None]
                g_adj = gs[blocks, None, :stop].conj().swapaxes(-1, -2)
                terms = vs[blocks, None, :stop] @ (g_adj @ x)
                start = np.zeros(terms.shape[:2] + (1,) + terms.shape[3:], complex)
                partial = np.add.accumulate(np.concatenate((start, terms), axis=2), axis=2)
                return spectral_norms(x - partial)

            fold_pair_maxima(tails, xs, (stop + 1) * rows * n, norms, factors=(vs, gs))
        return tails

    def tail_profiles(self, stacks) -> np.ndarray:
        """Every prefix tail of every stacked point: row p is point p's profile.

        stacks are per-class realization stacks such as
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
        """Same operator through Theta* pi_J' Theta S^(-1): the proof's route.

        pi_J' Theta keeps the rows of Theta that belong to J' and zeroes
        the others.
        """
        keep = np.zeros(self.size, bool)
        keep[self._check_indices(indices)] = True
        theta = self._theta
        selected = theta._with(
            np.where(np.repeat(keep, s.shape[-1] // self._dim)[:, None], s, 0.0)
            for s in theta.stacks
        )
        return self._theta_star @ selected @ self.gram_inverse()

    def __repr__(self) -> str:
        c1, c2 = self._bounds
        return (
            f"Frame(size={self.size}, dim={self.dim}, "
            f"bounds=({c1:.4g}, {c2:.4g}), spanning={self._spanning!r})"
        )


def standard_basis_frame(shape: AlgebraShape, dim: int) -> Frame:
    """The Parseval frame {e_j}: bounds (1,1), self-dual, built in closed form."""
    if dim < 1:
        raise ValueError("a frame needs at least one vector")
    return Frame._standard_basis(shape, dim)
