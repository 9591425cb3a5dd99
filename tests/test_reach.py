"""The public API against the CLI's reach: every public name serves a route or a paper criterion.

tools/reach.py runs its command list (the benchmark jobs and the fixture
commands) through `cstarframes.cli.main` and lists the public names that
no command calls and tests/test_acceptance.py never names.  That list is
pinned here, so a public name that loses its last route, or a new one
that never had one, fails this test until it is wired in or leaves the
package.
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
