"""Shared generators for the test suite.

Everything is seeded through numpy Generators passed explicitly, so any
test can be replayed from its seed alone.  Frames produced here are
generic (full realized rank) unless a test asks for a degenerate one.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from cstarframes import (
    AlgebraElement,
    AlgebraShape,
    Frame,
    ModuleOperator,
    ModuleVector,
    SampleSet,
    State,
)
from cstarframes.counterexample import _fold_tail_routes
from cstarframes.algebra import entry_blocks, from_entry_blocks


def random_shape(rng, max_blocks=3):
    """Shape mixing 1x1 and 2x2 blocks, at least one block."""
    count = int(rng.integers(1, max_blocks + 1))
    dims = tuple(int(rng.choice([1, 2])) for _ in range(count))
    return AlgebraShape(dims)


def random_element(shape, rng, scale=1.0):
    blocks = tuple(
        scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for n in shape.block_dims
    )
    return AlgebraElement(shape, blocks)


def random_selfadjoint(shape, rng, scale=1.0):
    a = random_element(shape, rng, scale)
    return (a + a.adjoint()) * 0.5


def random_positive(shape, rng, scale=1.0):
    a = random_element(shape, rng, scale)
    return a.adjoint() * a


def random_vector(shape, dim, rng, scale=1.0):
    return ModuleVector(
        shape, tuple(random_element(shape, rng, scale) for _ in range(dim))
    )


def random_unit_vector(shape, dim, rng):
    x = random_vector(shape, dim, rng)
    return x / max(x.norm(), 1e-12)


def random_frame(shape, dim, size, rng):
    """Generic ambient frame; retries the negligible degenerate draws."""
    assert size >= dim, "ambient frames need at least dim vectors"
    for _ in range(20):
        try:
            return Frame(tuple(random_vector(shape, dim, rng) for _ in range(size)))
        except ValueError:
            continue
    raise RuntimeError("could not draw a non-degenerate frame")


def random_state(shape, rng):
    densities = []
    for n in shape.block_dims:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        densities.append(a @ a.conj().T + 1e-3 * np.eye(n))
    total = sum(np.trace(d).real for d in densities)
    return State(shape, tuple(d / total for d in densities))


def block_state(shape, k):
    """Normalized trace on block k and zero elsewhere: on 1x1 blocks, evaluation at coordinate k."""
    densities = [np.zeros((n, n), complex) for n in shape.block_dims]
    n = shape.block_dims[k]
    densities[k] = np.eye(n, dtype=complex) / n
    return State(shape, tuple(densities))


def normalized_trace(shape):
    """Trace of the block realization divided by its dimension."""
    d = shape.realization_dim
    return State(shape, tuple(np.eye(n, dtype=complex) / d for n in shape.block_dims))


def prefix_supported_vector(shape, dim, prefix, rng, scale=1.0):
    """Random vector supported on the first `prefix` coordinates."""
    coords = [
        random_element(shape, rng, scale) if i < prefix else AlgebraElement.zero(shape)
        for i in range(dim)
    ]
    return ModuleVector(shape, tuple(coords))


def planted_precompact_sample(shape, dim, prefix, count, rng, scale=0.4):
    """Sample whose coordinates die after `prefix`: tails vanish early."""
    points = tuple(
        prefix_supported_vector(shape, dim, prefix, rng, scale) for _ in range(count)
    )
    return SampleSet(points, label="planted-precompact")


def analysis_operator(frame):
    """Theta(x) = (<x_j, x>)_j of a frame as a module operator: row j of block k is R_k(x_j)*."""
    return ModuleOperator._packed(
        frame.shape, frame.size, frame.dim,
        tuple(
            np.ascontiguousarray(x.conj().swapaxes(-1, -2)).reshape(len(x), -1, x.shape[2])
            for x in frame._family.realizations
        ),
    )


def compose(a, b):
    """The operator product a @ b: entry (i, j) is sum_l a[i][l] b[l][j], added in l order."""
    if b.shape != a.shape or b.target_dim != a.source_dim:
        raise ValueError("operator composition dimension mismatch")
    out = []
    for sa, sb in zip(a.stacks, b.stacks):
        left = entry_blocks(sa, a.target_dim, a.source_dim)
        right = entry_blocks(sb, b.target_dim, b.source_dim)
        count, n = len(sa), left.shape[-1]
        acc = np.zeros((count, a.target_dim, b.source_dim, n, n), complex)
        for l in range(a.source_dim):
            acc = acc + left[:, :, l, None] @ right[:, None, l]
        out.append(from_entry_blocks(acc))
    return ModuleOperator._packed(a.shape, a.target_dim, b.source_dim, out)


def tail_routes(frame, points):
    """The frame tail profiles (P, size+1) and truncation tails (P, dim+1) of a set, from the fold that finds its pairs."""
    xs = points.in_module(frame.shape, frame.dim)[0]
    return _fold_tail_routes(frame, xs, xs.shape[1])


@dataclass(frozen=True)
class BallSampler:
    """Deterministic unit-ball sampler: extreme witnesses plus seeded bulk.

    The witnesses are the basis vectors e_k and every e_k scaled by a
    central block unit; the obstruction of interest lives on them, not on
    the random bulk.  Random draws use blockwise complex Gaussians
    rescaled into the ball.  A one-sided oracle: the sup of any error
    over a draw is at most its sup over the ball.
    """

    shape: AlgebraShape
    dim: int
    count: int = 32
    seed: int = 0

    def witnesses(self):
        """The deterministic extreme points: e_k and e_k times block units."""
        out = []
        for k in range(self.dim):
            e_k = ModuleVector.basis(self.shape, self.dim, k)
            out.append(e_k)
            for b in range(self.shape.num_blocks):
                out.append(e_k * AlgebraElement.block_unit(self.shape, b))
        return out

    def bulk(self):
        """The seeded random portion alone, rescaled into the ball."""
        rng = np.random.default_rng(self.seed)
        out = []
        for _ in range(self.count):
            coords = []
            for _ in range(self.dim):
                blocks = tuple(
                    (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                    / math.sqrt(2.0)
                    for n in self.shape.block_dims
                )
                coords.append(AlgebraElement(self.shape, blocks))
            x = ModuleVector(self.shape, tuple(coords))
            nx = x.norm()
            if nx > 1.0:
                x = x / nx
            out.append(x)
        return out

    def draw(self):
        return self.witnesses() + self.bulk()


def setting_operator(setting):
    """The counterexample's F as a module operator: block b realizes as diag(1 at coordinate b)."""
    k = np.arange(setting.dim)
    pinch = np.zeros((setting.trunc + 1, setting.dim, setting.dim), complex)
    pinch[:, k, k] = setting._operator_diagonals
    return ModuleOperator._packed(setting.shape, setting.dim, setting.dim, (pinch,))


def image_sample(setting, count=16, seed=0, include_witnesses=True):
    """F applied to a seeded ball sample, the set whose compactness fails.

    The extreme points e_k * delta_k are included by default; they carry
    the whole obstruction.  With include_witnesses False only the random
    bulk is pushed through F, which is how one sees that random sampling
    alone misses the obstruction.
    """
    sampler = BallSampler(setting.shape, setting.dim, count=count, seed=seed)
    f = setting_operator(setting)
    if include_witnesses:
        points = list(setting.witnesses())
        points.extend(f(p) for p in sampler.draw())
    else:
        points = [f(p) for p in sampler.bulk()]
    return SampleSet(tuple(points), label=f"F-ball-image-{setting.trunc}-{setting.dim}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
