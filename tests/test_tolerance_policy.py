"""Every tolerance cut lives in cstarframes.tolerances, and no caller can set one.

A literal in scientific notation anywhere else in the package is a cut
that escaped the policy, and a public parameter or field named `tol` is
a per-call knob on one.  Every constant there is a cut some module
makes, and README's Tolerances table has one row for each.
"""

import ast
import dataclasses
import inspect
import io
import re
import tokenize
from pathlib import Path

import cstarframes

PACKAGE = Path(cstarframes.__file__).parent
README = PACKAGE.parent.parent / "README.md"


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
