"""Every tolerance decision goes through cstarframes.tolerances, and no caller can set a cut.

A literal in scientific notation anywhere else in the package is a cut
that escaped the policy, and a public parameter or field named `tol` is
a per-call knob on one.  Every constant there is a cut some module
makes, and README's Tolerances table has one row for each.  The one
decision rule, `tolerances.below`, is the only place that compares a
value with eps or a cut: anywhere else, an ordering comparison against
eps, a radius, a tolerances constant or a local computed from one is a
bare decision (`_bare_decisions`), and every tol handed to `below` is
one of the constants.
"""

import ast
import dataclasses
import inspect
import io
import re
import tokenize
import sys
from pathlib import Path

import numpy as np
import pytest

import cstarframes
from cstarframes.tolerances import below

PACKAGE = Path(cstarframes.__file__).parent
README = PACKAGE.parent.parent / "README.md"
TOOLS = PACKAGE.parent.parent / "tools"


def _scientific_literals(source: bytes) -> list[tuple[int, str]]:
    """(line, text) of every number token written in scientific notation."""
    return [
        (tok.start[0], tok.string)
        for tok in tokenize.tokenize(io.BytesIO(source).readline)
        if tok.type == tokenize.NUMBER
        and not tok.string.lower().startswith("0x")
        and "e" in tok.string.lower()
    ]


def test_the_literal_scan_sees_scientific_notation():
    source = b"a = 1e-9 + 2.5E3 + 0xE + 10  # 1e-3\nb = '1e-4'\n"
    assert _scientific_literals(source) == [(1, "1e-9"), (1, "2.5E3")]


def test_no_scientific_literal_outside_the_tolerances_module():
    found = [
        (path.name, line, text)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py"
        for line, text in _scientific_literals(path.read_bytes())
    ]
    assert found == []


def _callables(obj):
    """obj itself if callable, and for a class every function defined on it or its bases."""
    if inspect.isclass(obj):
        for klass in inspect.getmro(obj):
            if klass.__module__.startswith("cstarframes"):
                for member in vars(klass).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield member
    elif callable(obj):
        yield obj


def test_no_public_name_takes_a_tol():
    knobs = []
    for name in cstarframes.__all__:
        obj = getattr(cstarframes, name)
        if dataclasses.is_dataclass(obj):
            knobs += [f"{name}.{f.name}" for f in dataclasses.fields(obj) if f.name == "tol"]
        for fn in _callables(obj):
            if "tol" in inspect.signature(fn).parameters:
                knobs.append(f"{name}: {fn.__qualname__}")
    assert knobs == []


def _constants() -> set[str]:
    """The names tolerances.py assigns."""
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    return {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets}


def test_every_constant_is_read_by_another_module():
    read = {
        node.id
        for path in PACKAGE.glob("*.py")
        if path.name != "tolerances.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert _constants() - read == set()


def test_the_readme_table_names_exactly_the_constants():
    section = README.read_text().split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| ")]
    named = {name for row in rows[1:] for name in re.findall(r"`([A-Z][A-Z0-9_]*)`", row[2])}
    assert rows[0][2].strip() == "constant"
    assert named == _constants()


def test_the_rule_is_strict_for_eps_inclusive_for_cuts_and_never_passes_nan():
    values = np.array([0.5, 1.0, 1.5, np.nan])
    assert below(values, 1.0).tolist() == [True, False, False, False]
    assert below(values, 1.0, 0.25, 2.0).tolist() == [True, True, True, False]
    assert below(1.0, 1.0, 0.0).tolist() is True
    assert not below(np.nan, np.inf) and not below(np.nan, 0.0, 1.0, np.inf)


# An ordering comparison names its operands' order; == and != decide exact equality.
_ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node, into_calls: bool = True):
    """Every identifier `node` reads (names and attribute names); with into_calls False, none inside a call."""
    if isinstance(node, ast.Call) and not into_calls:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _names(child, into_calls)


def _scopes(tree):
    """The nodes of the module outside its functions, then those of each outermost function, nested ones included."""
    module, functions = [], []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                functions.append(list(ast.walk(child)))
            else:
                module.append(child)
                visit(child)

    visit(tree)
    return [module, *functions]


def _bare_decisions(source: str) -> list[tuple[int, str]]:
    """(line, text) of every ordering comparison in `source` against a tolerance or a radius.

    A comparison counts when an operand reads eps (any identifier with
    `eps` among its underscore-separated parts, such as `eps`,
    `eps_scaled` or an attribute `.eps`), `radius`, a constant of
    tolerances.py, or a local of the same function assigned from an
    expression that reads one of those outside a call.  A value that
    goes through a call, such as an index that `below` decided, is the
    call's result and not a local computed from one.
    """
    constants = _constants()

    def named(name: str) -> bool:
        return name in constants or name == "radius" or "eps" in name.split("_")

    found = []
    for nodes in _scopes(ast.parse(source)):
        computed = set()
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)) and node.value is not None:
                if any(named(n) for n in _names(node.value, into_calls=False)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    computed |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Compare) and any(isinstance(op, _ORDERING) for op in node.ops):
                if any(named(n) or n in computed for n in _names(node)):
                    found.append((node.lineno, ast.unparse(node)))
    return sorted(set(found))


def test_the_decision_scan_sees_bare_comparisons_and_passes_routed_ones():
    source = """
def f(x, eps, tails, hi, lo, radius):
    cut = FRAME_RTOL * max(hi, 1.0)
    n = first(below(tails, eps))
    return (x < eps, tails[n] >= eps, lo <= cut, x.y > radius, x < 2.0 * eps, n < len(tails),
            below(x, eps), x < hi, x == eps, x < STATE_ATOL, x > self.eps, x <= eps_scaled)
"""
    assert {text for _, text in _bare_decisions(source)} == {
        "x < eps", "tails[n] >= eps", "lo <= cut", "x.y > radius", "x < 2.0 * eps",
        "x < STATE_ATOL", "x > self.eps", "x <= eps_scaled",
    }


def test_no_bare_decision_outside_the_tolerances_module():
    found = [
        (path.name, line, text)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py"
        for line, text in _bare_decisions(path.read_text())
    ]
    assert found == []


def test_every_tol_handed_to_the_rule_is_a_named_constant():
    loose = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "below":
                tols = node.args[2:3] + [k.value for k in node.keywords if k.arg == "tol"]
                loose += [(path.name, node.lineno) for t in tols if not (isinstance(t, ast.Name) and t.id in _constants())]
    assert loose == []


@pytest.fixture(scope="module")
def mutants():
    sys.path.insert(0, str(TOOLS))
    try:
        import mutants
    finally:
        sys.path.remove(str(TOOLS))
    return mutants


def test_the_scan_flags_the_comparator_mutant(mutants):
    """A C/D pass at `<=` with slack, tools/mutants.py's cd_eps_le, is a bare decision the scan forbids."""
    filename, source = mutants.mutated("cd_eps_le")
    original = (PACKAGE / filename).read_text()
    assert _bare_decisions(original) == []
    assert [text for _, text in _bare_decisions(source)] == ["e <= eps * (1 + 1e-12)"]
