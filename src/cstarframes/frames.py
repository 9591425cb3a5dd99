"""Standard frames on A^n: frame operator, optimal bounds, canonical dual.

A family {x_j} is a frame when c1 <x,x> <= sum_j <x,x_j><x_j,x> <= c2 <x,x>
for some c1 > 0.  With S = Theta* Theta realized blockwise, the operator
inequalities are spectral containments, so the optimal constants are the
extreme eigenvalues of the realization and the canonical dual is
g_j = S^(-1) x_j, computed by one Hermitian solve per block.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraShape, fold_pair_maxima, hermitian_part, ordered_sums, spectral_norms
from .modules import ModuleOperator, ModuleVector, SampleSet, gram_block
from .tolerances import FRAME_RTOL, below


class DegenerateFrameError(ValueError):
    """Family whose smallest gram eigenvalue vanishes, or whose gram overflows."""


def frame_coefficients(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<g_j, x> = G_j* x of every pair and point, (blocks, P, len, n, n), in one batched matmul.

    x holds the realizations of points, (blocks, P, rows, n), and g those
    of the g_j on the same blocks, (blocks, len, rows, n).  `partial_sums`
    and `frame_residuals` take these, so a pass forms each product once.
    """
    return g[:, None].conj().swapaxes(-1, -2) @ x[:, :, None]


def partial_sums(z: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """sum_{j<m} z_j <g_j, x> for m = 0..len, on realized blocks: the frame formula's kernel.

    z holds the realizations of the z_j, (blocks, len, rows, n), and
    coefficients the points' `frame_coefficients` on the same blocks.  The
    terms Z_j (G_j* x) come out of one batched matmul, and prefix m is the
    sum of the first m in pair order (`ordered_sums`).  Returns (blocks,
    P, len + 1, rows, n).
    """
    return ordered_sums(z[:, None] @ coefficients, 2)


def frame_residuals(x: np.ndarray, z: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """x minus each of its `partial_sums`, of the same z and coefficients: the residuals of the prefix tails."""
    return x[:, :, None] - partial_sums(z, coefficients)


def prefix_tails(points: SampleSet, z: SampleSet, g: SampleSet) -> np.ndarray:
    """||x - sum_{j<n} z_j <g_j,x>|| for n = 0..len(z), every point in one pass.

    The points are read in the module of the theta pairs (z_j, g_j)
    (`SampleSet.in_module`); for a frame they are its vectors and its
    dual, or their `SampleSet.head`s.  Per size class the realizations
    x_k of the points, and Z_jk and G_jk of the pairs, are stacks (count,
    len, dim*n, n).  The partial sums come from `partial_sums`, the
    kernel of `Frame.reconstruct`, so prefix n holds exactly
    `Frame.reconstruct(x, range(n))`.  Each tail is the largest spectral
    norm of x_k minus its partial sum (`frame_residuals`).  The fold takes
    (block, point) tiles of views when no pair is zero, else chunks of
    the gathered non-zero pairs, to bound the term tensor.

    A (block, point) pair with x_k = 0 is skipped (`fold_pair_maxima`):
    each of its terms is Z_jk (G_jk* 0), an exact zero for finite Z and
    G, and so is every partial sum, so each of its tails is +0.0.  A
    frame's X and G are finite: construction refuses a family whose gram
    is not finite, and inverts only gram eigenvalues above
    FRAME_RTOL * max(c2, 1) >= FRAME_RTOL.
    Returns (P, len(z) + 1).
    """
    stacks = points.in_module(z.shape, z.dim)
    tails = np.zeros((stacks[0].shape[1], len(z) + 1))
    for xs, zs, gs in zip(stacks, z.realizations, g.realizations):
        _, _, rows, n = xs.shape

        def norms(blocks, x):
            return spectral_norms(frame_residuals(x, zs[blocks], frame_coefficients(gs[blocks], x)))

        fold_pair_maxima(tails, xs, (len(z) + 1) * rows * n, norms)
    return tails


class Frame:
    """Finite frame with its optimal bounds and canonical dual.

    A gram eigenvalue counts as zero when it is at most
    FRAME_RTOL * max(c2, 1).  spanning="ambient" (default) demands a
    frame for the whole module and rejects degenerate families.
    spanning="range" accepts families that only span a submodule: bounds
    come from the nonzero gram spectrum and the dual uses the
    pseudo-inverse, so reconstruction reproduces the projection onto the
    family's span.  Either mode refuses a family whose gram is not finite
    (its entries overflow in the products), naming the first such block.
    The family is a SampleSet or module vectors (`SampleSet.of`); a set
    built from a stack, as a parsed document is, is not stacked again.
    Construction computes the bounds and the dual, a SampleSet packed on
    its realizations, from the family's stacks; the frame's module is the
    family's.  No module operators are kept: reconstruction, partial sums
    and tails run on those stacks (`partial_sums`, `gram_block`,
    `prefix_tails`), and the dual's points are views built on first use.
    Instances are read-only.
    """

    def __init__(self, vectors, spanning: str = "ambient"):
        family = SampleSet.of(vectors)
        if not len(family):
            raise ValueError("a frame needs at least one vector")
        if spanning not in ("ambient", "range"):
            raise ValueError(f"unknown spanning mode {spanning!r}")
        shape, dim = family.shape, family.dim
        self._family = family
        self._spanning = spanning
        with np.errstate(over="ignore", invalid="ignore"):
            hermitian = [hermitian_part(gram_block(x, x, dim)) for x in family.realizations]
        finite = shape.gather([np.isfinite(h).all(axis=(-2, -1)) for h in hermitian])
        if not finite.all():
            raise DegenerateFrameError(
                f"the gram of block {int(np.argmin(finite))} is not finite: "
                "the family's entries overflow"
            )
        eigensystems = [np.linalg.eigh(h) for h in hermitian]
        lo = min(np.inf, *shape.gather([w.min(axis=-1) for w, _ in eigensystems]).tolist())
        hi = max(0.0, *shape.gather([w.max(axis=-1) for w, _ in eigensystems]).tolist())
        kept = [~below(w, 0.0, FRAME_RTOL, max(hi, 1.0)) for w, _ in eigensystems]
        if spanning == "ambient":
            if not all(keep.all() for keep in kept):
                raise DegenerateFrameError(
                    f"smallest gram eigenvalue {lo:.3e} is below tolerance; "
                    "the family does not span the module"
                )
            c1 = lo
        else:
            least = shape.gather([np.where(keep, w, np.inf).min(axis=-1) for keep, (w, _) in zip(kept, eigensystems)])
            found = shape.gather([keep.any(axis=-1) for keep in kept])
            positive = [v for v, ok in zip(least.tolist(), found.tolist()) if ok]
            if not positive:
                raise DegenerateFrameError("the family consists of zero vectors")
            c1 = min(positive)
        self._bounds = (c1, hi)

        gram_inv = []
        for keep, (w, u) in zip(kept, eigensystems):
            inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
            gram_inv.append((u * inv_w[..., None, :]) @ u.conj().swapaxes(-1, -2))
        # The dual family, realized per class by G_j = S^(-1) X_j.
        self._dual = SampleSet._packed(
            shape, dim, (inv[:, None] @ x for inv, x in zip(gram_inv, family.realizations))
        )

    # -- basic accessors --------------------------------------------------

    @property
    def vectors(self) -> tuple[ModuleVector, ...]:
        return self._family.points

    @property
    def spanning(self) -> str:
        return self._spanning

    @property
    def shape(self) -> AlgebraShape:
        return self._family.shape

    @property
    def dim(self) -> int:
        return self._family.dim

    @property
    def size(self) -> int:
        return len(self._family)

    @property
    def bounds(self) -> tuple[float, float]:
        """Optimal frame constants (c1, c2)."""
        return self._bounds

    def canonical_dual(self) -> tuple[ModuleVector, ...]:
        """g_j = S^(-1) x_j (pseudo-inverse in range mode), views of the stored realizations."""
        return self._dual.points

    # -- reconstruction ----------------------------------------------------

    def _check_indices(self, indices) -> list[int]:
        idx = list(indices)
        for j in idx:
            if not 0 <= j < self.size:
                raise IndexError(f"frame index {j} out of range")
        return idx

    def reconstruct(self, x: ModuleVector, indices=None) -> ModuleVector:
        """sum_{j in indices} x_j <g_j, x>; all indices by default.

        The last partial sum of `partial_sums` over the listed pairs, so
        the terms are added in list order.  x is read in the
        frame's module (`SampleSet.in_module`), whatever the indices.
        """
        idx = list(range(self.size)) if indices is None else self._check_indices(indices)
        stacks = SampleSet((x,)).in_module(self.shape, self.dim)
        return ModuleVector._packed(
            self.shape, self.dim,
            tuple(
                partial_sums(zs[:, idx], frame_coefficients(gs[:, idx], xs))[:, 0, -1]
                for xs, zs, gs in zip(stacks, self._family.realizations, self._dual.realizations)
            ),
        )

    def tail_profiles(self, points: SampleSet) -> np.ndarray:
        """Every prefix tail of every point of a SampleSet: row p is point p's profile.

        `prefix_tails` along this frame and its dual; row p equals
        `tail_profile` of point p.
        """
        return prefix_tails(points, self._family, self._dual)

    def tail_profile(self, x: ModuleVector) -> list[float]:
        """Every prefix tail ||x - sum_{j<n} x_j <g_j,x>||, n = 0..size."""
        return self.tail_profiles(SampleSet((x,)))[0].tolist()

    def reconstruction_tail(self, x: ModuleVector, n: int) -> float:
        """||x - sum_{j<n} x_j <g_j,x>|| for the stored vector order.

        The same arithmetic as `tail_profile`, on the first n pairs
        (`SampleSet.head`); `tail_profile` gives every prefix of one point.
        """
        if not 0 <= n <= self.size:
            raise ValueError(f"prefix length {n} out of range")
        return float(prefix_tails(SampleSet((x,)), self._family.head(n), self._dual.head(n))[0, n])

    def partial_sum_op(self, indices) -> ModuleOperator:
        """P_J' = sum_{j in J'} theta_{x_j, g_j} (`gram_block`); norm bounded by c2/c1."""
        idx = self._check_indices(indices)
        return ModuleOperator._packed(
            self.shape, self.dim, self.dim,
            tuple(
                gram_block(xs[:, idx], gs[:, idx], self.dim)
                for xs, gs in zip(self._family.realizations, self._dual.realizations)
            ),
        )

    def __repr__(self) -> str:
        c1, c2 = self._bounds
        return (
            f"Frame(size={self.size}, dim={self.dim}, "
            f"bounds=({c1:.4g}, {c2:.4g}), spanning={self._spanning!r})"
        )


def standard_basis_frame(shape: AlgebraShape, dim: int) -> Frame:
    """The Parseval frame {e_j}: bounds (1,1), self-dual, built in closed form.

    No gram, no eigh and no dual product is formed.  Per size class,
    member j holds the unit at coordinate j; the gram and its inverse are
    the identity and the dual is the family itself.  `Frame.__init__`
    gives exactly these bits: every gram entry is a sum of exact products
    of 0 and 1, and `eigh` of an identity returns eigenvalues 1.0 and
    eigenvectors u with |u| = I, so the gram inverse is I and the dual
    product I X is X, signed zeros included.  The stacks are read-only
    broadcast views.
    """
    if dim < 1:
        raise ValueError("a frame needs at least one vector")
    frame = object.__new__(Frame)
    stacks = []
    for n, ks in shape.classes:
        members = np.zeros((dim, dim, n, n), complex)
        members[np.arange(dim), np.arange(dim)] = np.eye(n)
        stack = members.reshape(dim, dim * n, n)
        stacks.append(np.broadcast_to(stack, (len(ks),) + stack.shape))
    frame._spanning = "ambient"
    frame._family = frame._dual = SampleSet._packed(shape, dim, stacks)
    frame._bounds = (1.0, 1.0)
    return frame
