"""Results do not depend on the order of the algebra's blocks.

Blocks of equal size are stored together, one array per size class, and
every result is gathered back into block order.  Permuting the blocks of
the shape together with the data of every vector must therefore permute
each per-block realization the same way and leave every max-based
quantity (frame bounds, module norms, tail profiles, the condition B and
C/D certificates) exactly unchanged.  Interleaved shapes such as
(1, 2, 1, 3, 2) put the blocks of one class at scattered positions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarframes import (
    AlgebraElement,
    AlgebraShape,
    Frame,
    ModuleVector,
    SampleSet,
    State,
    check_condition_b,
    check_condition_cd,
    inner_product,
)


def _vector(dims, blocks):
    """The vector whose coordinate i has blocks[k][i] on block k."""
    shape = AlgebraShape(dims)
    dim = len(blocks[0])
    return ModuleVector(
        shape, [AlgebraElement(shape, [b[i] for b in blocks]) for i in range(dim)]
    )


@st.composite
def permuted_cases(draw):
    dims = draw(st.sampled_from([(1, 2, 1, 3, 2), (2, 1, 2), (1, 3, 1, 1), (3, 2, 3, 2, 1)]))
    perm = draw(st.permutations(range(len(dims))))
    dim = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return dims, perm, dim, seed


@settings(max_examples=40, deadline=None)
@given(case=permuted_cases())
def test_permuting_blocks_permutes_realizations_and_keeps_max_quantities(case):
    dims, perm, dim, seed = case
    rng = np.random.default_rng(seed)

    def draw(scale):
        return [scale * (rng.standard_normal((dim, n, n)) + 1j * rng.standard_normal((dim, n, n)))
                for n in dims]

    family = [draw(1.0) for _ in range(dim + 2)]
    points = [draw(0.3) for _ in range(4)]
    pdims = tuple(dims[p] for p in perm)

    def both(blocks):
        return _vector(dims, blocks), _vector(pdims, [blocks[p] for p in perm])

    frames = [Frame([both(v)[side] for v in family]) for side in (0, 1)]
    samples = [SampleSet(tuple(both(x)[side] for x in points)) for side in (0, 1)]

    assert frames[0].bounds == frames[1].bounds
    for x, y in zip(*(s.points for s in samples)):
        assert x.norm() == y.norm()
        for j, p in enumerate(perm):
            assert np.array_equal(y.realize_block(j), x.realize_block(p))
        ip, ip_perm = inner_product(x, x), inner_product(y, y)
        for j, p in enumerate(perm):
            assert np.array_equal(ip_perm.blocks[j], ip.blocks[p])
    for g, h in zip(*(f.canonical_dual() for f in frames)):
        for j, p in enumerate(perm):
            assert np.array_equal(h.realize_block(j), g.realize_block(p))
    assert np.array_equal(
        frames[0].tail_profiles(samples[0]),
        frames[1].tail_profiles(samples[1]),
    )
    for eps in (0.5, 0.05):
        b = [check_condition_b(s, f, eps).to_json_dict() for s, f in zip(samples, frames)]
        cd = [check_condition_cd(s, eps).to_json_dict() for s in samples]
        assert b[0] == b[1]
        assert cd[0] == cd[1]


def test_size_classes_of_an_interleaved_shape():
    shape = AlgebraShape((1, 2, 1, 3, 2))
    assert shape.classes == ((1, (0, 2)), (2, (1, 4)), (3, (3,)))
    assert shape.slots == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1))
    per_class = [np.array([10, 12]), np.array([21, 24]), np.array([33])]
    assert shape.gather(per_class).tolist() == [10, 21, 12, 33, 24]


def test_first_failing_block_is_named_in_block_order():
    shape = AlgebraShape((1, 2, 1, 3, 2))
    densities = [np.eye(n, dtype=complex) / 9.0 for n in shape.block_dims]
    densities[3] = np.diag([0.5, 0.1, -0.1]).astype(complex)
    with pytest.raises(ValueError, match="density 3 is not positive semidefinite"):
        State(shape, densities)


def test_results_do_not_depend_on_chunking(monkeypatch):
    """Tiles of one block and one point give the bits of one whole batch."""
    from cstarframes import CertifyConfig, algebra, build_setting, certify_equivalences, serialize
    from cstarframes import series_decompose, tails_certificate, theta_op
    from cstarframes.modules import gram_block

    rng = np.random.default_rng(7)
    shape = AlgebraShape((1, 2, 1, 3))

    def vector(scale):
        return _vector(shape.block_dims, [
            scale * (rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n)))
            for n in shape.block_dims
        ])

    family = [vector(1.0) for _ in range(5)]
    sample = SampleSet(tuple(vector(0.2) for _ in range(6)))
    op = theta_op(vector(1.0), vector(1.0))

    def run():
        setting = build_setting(7, 5)
        frame = Frame(family)
        return (
            setting.witness_profiles().tobytes(),
            serialize(tails_certificate(setting.witness_profiles(), 0.5)),
            frame.tail_profiles(sample).tobytes(),
            b"".join(gram_block(x, x, frame.dim).tobytes() for x in frame._family.realizations),
            serialize(certify_equivalences(sample, CertifyConfig(eps_grid=(1.0, 0.1), frame=frame))),
            serialize(series_decompose(op, frame=frame)),
        )

    whole = run()
    monkeypatch.setattr(algebra, "CHUNK_ENTRIES", 1)
    assert run() == whole
