"""One module check: every family pass reads its families in one module.

S = {e_0} of A^2 over shape (1, 2, 1) and F, the basis frame of A^2 over
shape (1, 1, 2), live over different algebras with the same size
classes: two 1x1 blocks and one 2x2 block.  Their per-class stacks have
the same shapes, so only the families' modules tell them apart, and
every pass that takes both must refuse them with the text of
`SampleSet.in_module`.  The second half checks `SampleSet.in_module` and
`SampleSet.head` on every way a set is built, and pins the bytes of
conditions B and all on an empty sample with a frame.
"""

from pathlib import Path

import numpy as np
import pytest

from conftest import block_state, random_vector
from cstarframes import (
    AlgebraShape,
    CertifyConfig,
    ModuleVector,
    SampleSet,
    certify_equivalences,
    check_condition_a,
    check_condition_b,
    check_condition_cd,
    parse,
    serialize,
    standard_basis_frame,
)
from cstarframes.cli import main
from cstarframes.modules import span_least_squares
from cstarframes.seminorms import AdmissibleSystem, SeminormSpec, net_transfer, state_values

FIXTURES = Path(__file__).parent / "fixtures"
MESSAGE = "module vectors live in different modules"
A = AlgebraShape((1, 2, 1))
B = AlgebraShape((1, 1, 2))
S = SampleSet((ModuleVector.basis(A, 2, 0),))
F = standard_basis_frame(B, 2)
G = (ModuleVector.basis(B, 2, 0),)


def _spec(shape):
    system = AdmissibleSystem((ModuleVector.basis(shape, 2, 0),))
    return SeminormSpec(system, (block_state(shape, 1),))


FOREIGN_CALLS = {
    "condition_a": lambda: check_condition_a(S, G, 0.5),
    "condition_b": lambda: check_condition_b(S, F, 0.5),
    "condition_cd_frame": lambda: check_condition_cd(S, 0.5, frame=F),
    "condition_cd_frame_budget_0": lambda: check_condition_cd(S, 0.5, rank_budget=0, frame=F),
    "equivalences_frame": lambda: certify_equivalences(S, CertifyConfig(frame=F)),
    "equivalences_generators": lambda: certify_equivalences(S, CertifyConfig(generators=G)),
    "equivalences_empty_sample_generators": lambda: certify_equivalences(
        SampleSet(()), CertifyConfig(frame=standard_basis_frame(A, 2), generators=G)
    ),
    "tail_profiles": lambda: F.tail_profiles(S),
    "span_least_squares": lambda: span_least_squares(S, SampleSet(G)),
    "state_values": lambda: state_values(_spec(B), S),
    "net_transfer": lambda: net_transfer(S, SampleSet(G), _spec(A), 0.5),
}


def test_the_two_modules_have_the_same_stack_shapes():
    assert [s.shape for s in S.realizations] == [s.shape for s in SampleSet(G).realizations]


@pytest.mark.parametrize("name", sorted(FOREIGN_CALLS))
def test_a_family_over_another_algebra_is_refused(name):
    with pytest.raises(ValueError, match=f"^{MESSAGE}$"):
        FOREIGN_CALLS[name]()


@pytest.mark.parametrize(
    "condition, option", [("a", "--gens"), ("b", "--frame"), ("cd", "--frame"), ("all", "--frame"), ("all", "--gens")]
)
def test_precompact_with_a_family_over_another_algebra_is_data_error(capsys, tmp_path, condition, option):
    sample, other = tmp_path / "sample.json", tmp_path / "other.json"
    sample.write_bytes(serialize(S))
    other.write_bytes(serialize(F if option == "--frame" else SampleSet(G)))
    argv = ["precompact", "--condition", condition, "--sample", str(sample), option, str(other)]
    code = main(argv + ([] if condition == "all" else ["--eps", "0.5"]))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"cstarframes: error: {MESSAGE}\n"


# -- in_module and head on every way a set is built ------------------------------


FRAME = parse("frame", (FIXTURES / "frame_random.json").read_bytes())
EMPTY_DOC = b'{"version":1,"kind":"sample_set","shape":[1],"points":[]}'


def _routes():
    """The same three points of the frame's module, each way a set is built, plus empty sets."""
    rng = np.random.default_rng(3)
    shape, dim = FRAME.shape, FRAME.dim
    points = tuple(random_vector(shape, dim, rng) for _ in range(3))
    stacks = [s.copy() for s in SampleSet(points).realizations]
    return {
        "points": SampleSet(points),
        "packed": SampleSet._packed(shape, dim, stacks),
        "parsed": parse("sample_set", serialize(SampleSet(points))),
        "head": SampleSet(points + points).head(3),
        "empty": SampleSet(()),
        "empty_parsed": parse("sample_set", EMPTY_DOC),
    }


@pytest.mark.parametrize("route", sorted(_routes()))
def test_in_module_and_head_hand_out_read_only_views(route):
    family = _routes()[route]
    shape, dim = FRAME.shape, FRAME.dim
    stacks = family.in_module(shape, dim)
    assert not any(s.flags.writeable for s in stacks)
    for n in (0, 1, 3, 5):
        head = family.head(n)
        assert len(head) == min(n, len(family))
        heads = head.in_module(shape, dim)
        assert not any(s.flags.writeable for s in heads)
        assert [h.shape[1] for h in heads] == [len(head)] * len(shape.classes)
        if len(head):
            assert all(np.shares_memory(h, s) for h, s in zip(heads, stacks))
            assert [h.tobytes() for h in heads] == [s[:, :n].tobytes() for s in stacks]
            for a, b in zip(head, family):
                assert [x.tobytes() for x in a.stacks] == [y.tobytes() for y in b.stacks]
    if len(family):
        with pytest.raises(ValueError, match=f"^{MESSAGE}$"):
            family.in_module(shape, dim + 1)


@pytest.mark.parametrize("route", sorted(_routes()))
def test_an_empty_set_gives_zero_length_stacks_of_the_module_asked_for(route):
    empty = _routes()[route].head(0)
    assert len(empty) == 0
    for shape, dim in ((A, 2), (B, 3), (FRAME.shape, FRAME.dim)):
        stacks = empty.in_module(shape, dim)
        assert [s.shape for s in stacks] == [(len(ks), 0, dim * n, n) for n, ks in shape.classes]
        assert all(s.dtype == complex and not s.flags.writeable for s in stacks)


@pytest.mark.parametrize("route", sorted(_routes()))
def test_conditions_on_an_empty_sample_with_a_frame_keep_their_bytes(route):
    empty = _routes()[route].head(0)
    golden = FIXTURES / "golden"
    b = serialize(check_condition_b(empty, FRAME, 0.5))
    assert b == (golden / "b_empty_frame_random.json").read_bytes()
    report = certify_equivalences(empty, CertifyConfig(eps_grid=(0.5,), frame=FRAME))
    assert serialize(report) == (golden / "all_empty_frame_random.json").read_bytes()


@pytest.mark.parametrize("condition", ["b", "all"])
def test_precompact_on_an_empty_sample_with_a_frame_keeps_its_bytes(capsys, tmp_path, condition):
    sample, out = tmp_path / "empty.json", tmp_path / "out.json"
    sample.write_bytes(EMPTY_DOC)
    code = main(["precompact", "--condition", condition, "--sample", str(sample),
                 "--frame", str(FIXTURES / "frame_random.json"), "--eps", "0.5", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (FIXTURES / "golden" / f"{condition}_empty_frame_random.json").read_bytes()
