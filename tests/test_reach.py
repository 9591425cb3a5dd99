"""The public API against the CLI's reach: every public name serves a route or a paper criterion.

tools/reach.py runs its command list (the benchmark jobs and the fixture
commands) through `cstarframes.cli.main` and lists the public names that
no command calls and tests/test_acceptance.py never names.  That list is
pinned here, so a public name that loses its last route, or a new one
that never had one, fails this test until it is wired in or leaves the
package.

A class's members include those it inherits from a base in the package
(`reach._members`).  Members that are one function are reached together:
`ModuleVector.realize_block` and `ModuleOperator.realize_block` are both
`_Matrix._block`, so a route that calls either one drops both from the
list.  A class itself is reached through the functions of its own body.
"""

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# What `python3 tools/reach.py --public` lists, in its order.  Each stays
# for the reason ROADMAP.md item 12 gives: an oracle reads the storage
# view, perfbench/tracer.py wraps the name, or criterion 08's
# `adversarial_witness` or `net_transfer` uses or raises it.
UNREACHED_PUBLIC = [
    "AlgebraElement.blocks",
    "AlgebraElement.block_unit",
    "AlgebraShape.realization_dim",
    "ApproximationHypothesisError",
    "Frame.canonical_dual",
    "Frame.reconstruction_tail",
    "ModuleOperator.realize_block",
    "ModuleVector.coords",
    "ModuleVector.realize_block",
    "ModuleVector.restrict",
    "State",
    "State.densities",
    "State.vector_state",
    "TailDecaySignal",
    "norm_attaining_state",
    "submodule_distance",
]


def test_the_public_names_no_route_reaches_are_the_listed_ones(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", [str(TOOLS), *sys.path])
    import reach

    called = reach.run(reach.commands(tmp_path))
    assert reach.unused_public(called) == UNREACHED_PUBLIC


def test_an_inherited_member_counts_as_a_member_of_the_exported_class(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(TOOLS), *sys.path])
    import reach
    from cstarframes import AlgebraElement, ModuleOperator, ModuleVector
    from cstarframes.algebra import _Matrix

    assert reach._members(AlgebraElement)["norm"] is _Matrix.norm
    assert reach._members(ModuleVector)["__add__"] is _Matrix.__add__
    assert reach._members(ModuleOperator)["__mul__"] is _Matrix._scaled  # the class's own binding wins
    assert "entries" not in reach._members(ModuleVector)
