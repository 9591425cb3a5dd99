"""Reach of the CLI: which function lines of src/cstarframes a fixed command list runs.

Run from the root of a checkout:

    python3 tools/reach.py              # the counts
    python3 tools/reach.py --unreached  # and every unreached function, largest first
    python3 tools/reach.py --list       # only the command list, one argv per line
    python3 tools/reach.py --public     # and every public name no command calls
    python3 tools/reach.py --size       # only the size of src/cstarframes

The command list (`commands`) is the 300 jobs of the four benchmark
workloads at seeds 1-3, from perfbench/gen.py imported as it is, and
the fixture commands of `fixture_commands`: every subcommand on the
files of tests/fixtures, `series` along the first vector of
parseval.json as a range frame, `series` of a 3x2 operator with signed
zeros and a zero column (`_signed_zero_operator`), on empty sample documents of three shapes,
on scaled copies of the planted sample and of frame_random.json, on a
copy of the sample labelled with a lone surrogate escape, conditions
B, C/D and `all` along each fixture frame on a sample of its module
(`_frame_sample`),
C/D there once more with the frame's size as an explicit rank budget,
then the malformed inputs of
`_malformed`, each of which the CLI refuses with exit code 1 and the
JSON path at fault.  Their inputs and outputs go to a temporary
directory.  Every command runs through
`cstarframes.cli.main` in this one process, its output discarded, under
`sys.setprofile`, which records each function of the package that is
called.  A line of a function body counts once, for the innermost
function (or lambda) that holds it, and is reached when that function
was called at least once.

`--public` then lists the public API that neither serves a CLI route
nor is the subject of a paper criterion: every name of
`cstarframes.__all__` that no command calls and tests/test_acceptance.py
never names (as a `Name` or an `Attribute` anywhere in its ast), and
under the same two conditions every public method or property of an
exported class, inherited ones included (its MRO over the package's
classes).  Members that are one function, such as an alias in a class
body of a method of a shared base, are reached together.  A class
counts as called when any function defined in its body was, its own
aliases included, or when a command built an instance of it: a
dataclass's generated `__init__` is compiled from a string, not read
from the package, but the profile sees its call with the instance as
`self` and records the instance's class.  A class whose body defines
no function, an exception or a plain record, is not listed either way.
`--size` prints the size of the package: its file lines, its functions
(`def` and `lambda`) and their parameters (every positional,
keyword-only, `*args` and `**kwargs` slot).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import inspect
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cstarframes"
FIXTURES = ROOT / "tests" / "fixtures"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

FRAMES = ("frame_random.json", "frame_range.json", "parseval.json")
SAMPLES = ("sample_planted.json", "sample_witnesses_5_5.json", "sample_witnesses_6.json")
# The fixture frames of each frame module, by the frame that spans the sample written into it.
FRAME_MODULES = {"frame_random.json": ("frame_random.json", "parseval.json"),
                 "frame_range.json": ("frame_range.json",)}
EMPTY_SHAPES = ((1, 1), (1, 2), (1, 1, 1))
BUDGETS = (None, 0, 1, 3)
EMPTY_BUDGETS = (None, 0, 2)
EPS = ("1.0", "0.5", "0.25", "0.125", "0.01")
# The planted sample times each factor: norms past the gram and nu scaling
# limits, and below the normal range.
SCALES = (1e155, 1e-170, 1e154, 2.0**520, 2.0**-560, 1.0)
# frame_random.json times each factor: its dual's entries fall in
# [1e-5, 1e-4), where repr's spelling takes an exponent, and near 1e-9.
FRAME_SCALES = (2.0**12, 2.0**30)


def _budget(budget) -> list[str]:
    return [] if budget is None else ["--rank-budget", str(budget)]


def _scaled(source: Path, factor: float, target: Path) -> str:
    """A copy of a sample or frame document with every vector entry times `factor`, written to `target`."""
    doc = json.loads(source.read_bytes())
    for point in doc["points" if doc["kind"] == "sample_set" else "vectors"]:
        for element in point:
            for block in element:
                for row in block:
                    for entry in row:
                        entry[0] *= factor
                        entry[1] *= factor
    target.write_text(json.dumps(doc))
    return str(target)


def _frame_sample(frame: Path, target: Path) -> str:
    """Six points sum_j v_j a_j of a frame's module, written into `target`.

    The v_j are the frame's vectors and the a_j algebra elements whose
    parts are uniform in [-1, 1) (`numpy.random.default_rng(0)`), times
    2^-(p+3) for point p: every point lies in the frame's range, and the
    norms decay.  The products are `numpy.einsum` loops, not BLAS, so the
    points are the same under every OpenBLAS kernel.
    """
    doc = json.loads(frame.read_bytes())
    rng = np.random.default_rng(0)
    count = 6
    points = [[[] for _ in doc["vectors"][0]] for _ in range(count)]
    scales = 2.0 ** -np.arange(3, count + 3)
    for k, n in enumerate(doc["shape"]):
        parts = np.array([[coord[k] for coord in vector] for vector in doc["vectors"]])
        v = parts[..., 0] + 1j * parts[..., 1]
        a = rng.uniform(-1.0, 1.0, (count, len(v), n, n)) + 1j * rng.uniform(-1.0, 1.0, (count, len(v), n, n))
        blocks = np.einsum("jirt,pjtc->pirc", v, a * scales[:, None, None, None])
        for point, point_blocks in zip(points, blocks):
            for coord, block in zip(point, point_blocks):
                coord.append(np.stack((block.real, block.imag), axis=-1).tolist())
    target.write_text(json.dumps({"version": 1, "kind": "sample_set", "shape": doc["shape"], "points": points}))
    return str(target)


def _signed_zero_operator(target: Path) -> str:
    """A 3x2 operator over (1, 2), written into `target`: column 1 is zero, and -0.0 is among the parts of both columns.

    Column 0's parts are uniform in [-1, 1) (`numpy.random.default_rng(0)`);
    each part of either column is then -0.0 with probability 0.4.
    """
    rng = np.random.default_rng(0)
    entries = [[[] for _ in range(2)] for _ in range(3)]
    for row in entries:
        for j, element in enumerate(row):
            for n in (1, 2):
                parts = rng.uniform(-1.0, 1.0, (n, n, 2)) if j == 0 else np.zeros((n, n, 2))
                parts[rng.random((n, n, 2)) < 0.4] = -0.0
                element.append(parts.tolist())
    target.write_text(json.dumps({"version": 1, "kind": "operator", "shape": [1, 2], "entries": entries}))
    return str(target)


def _malformed(work: Path) -> dict[str, str]:
    """Per kind the CLI reads, the path of a fixture copy with one fault, written into `work`.

    Also a spec whose fourth state lacks density blocks, under
    "spec_states"; a vector with "version": true, under "version"; a
    file that is not JSON, under "not_json"; a spec with no states and
    one with a state too few, under "spec_no_states" and "spec_short"; a
    spec whose state 0 is well-formed but not Hermitian and whose state 2
    is malformed, under "spec_two_faults"; a frame with vectors of two
    module dimensions, under "frame_dims"; and an operator with an empty
    row, under "operator_row"; a vector whose version is 10**20, under
    "version_wide", and one whose shape is [10**20], under "shape_wide",
    which orjson would read as 1e+20; an operator whose row 0 is a
    number, under "operator_number"; and a frame with an unknown field
    nested 2,000 levels deep, under "deep_field", which orjson reads and
    json.loads refuses.
    """
    names = {"frame": "frame_random.json", "sample_set": "sample_planted.json",
             "seminorm_spec": "seminorm_spec.json", "vector": "vector.json", "operator": "operator.json",
             "spec_states": "seminorm_spec.json", "version": "vector.json",
             "spec_no_states": "seminorm_spec.json", "spec_short": "seminorm_spec.json",
             "spec_two_faults": "seminorm_spec.json", "frame_dims": "frame_random.json",
             "operator_row": "operator.json", "version_wide": "vector.json",
             "shape_wide": "vector.json", "deep_field": "frame_random.json",
             "operator_number": "operator.json"}
    docs = {kind: json.loads((FIXTURES / name).read_bytes()) for kind, name in names.items()}
    docs["frame"]["vectors"][2][1][1][0][1] = True  # a cell that is `true`
    docs["sample_set"]["points"][3][0][0][0] = []  # a short row
    docs["seminorm_spec"]["states"][1][2][0][0] = [1.0, 0.5]  # a non-Hermitian density
    docs["vector"]["coords"][1][1][0][1] = [1.0, 0.0, 0.0]  # a 3-entry scalar
    docs["operator"]["entries"][1].pop()  # a ragged row
    del docs["spec_states"]["states"][3][1:]  # a state with 1 of 3 density blocks
    docs["version"]["version"] = True  # equal to 1, but not the integer 1
    docs["spec_no_states"]["states"] = []  # no state for a system of four vectors
    del docs["spec_short"]["states"][3]  # three states for four vectors
    docs["spec_two_faults"]["states"][0][2][0][0] = [0.0, 0.5]  # a non-Hermitian density in state 0
    docs["spec_two_faults"]["states"][2][1][0][0][1] = True  # and a cell that is `true` in state 2
    vectors = docs["frame_dims"]["vectors"]
    vectors[1] = vectors[1] + vectors[1][:1]  # three coordinates among vectors of two
    docs["operator_row"]["entries"][1] = []  # an empty row
    docs["version_wide"]["version"] = 10**20  # orjson reads 1e+20
    docs["shape_wide"]["shape"] = [10**20]
    docs["operator_number"]["entries"][0] = 1.0  # a number where a row belongs
    docs["deep_field"]["deep"] = "DEEP"  # an unknown field, written as 2,000 nested arrays
    paths = {}
    for kind, doc in docs.items():
        path = work / f"malformed_{kind}.json"
        path.write_text(json.dumps(doc).replace('"DEEP"', "[" * 2000 + "]" * 2000))
        paths[kind] = str(path)
    path = work / "malformed_not_json.json"
    path.write_text("{nope")
    paths["not_json"] = str(path)
    return paths


def fixture_commands(work: Path) -> list[list[str]]:
    """Every subcommand on the fixtures, the empty, scaled and frame-module samples, then the malformed inputs.

    Writes the empty, scaled, frame-module and malformed documents into `work`;
    outputs named with --out go there too.
    """
    fx = {name: str(FIXTURES / name) for name in FRAMES + SAMPLES}
    spec, operator = str(FIXTURES / "seminorm_spec.json"), str(FIXTURES / "operator.json")
    gens = str(FIXTURES / "generator_6.json")
    vectors = [str(FIXTURES / "vector.json"), str(FIXTURES / "vector_c3.json")]
    out = str(work / "out.json")
    empties = []
    for shape in EMPTY_SHAPES:
        path = work / f"empty_{'_'.join(map(str, shape))}.json"
        path.write_text(json.dumps({"version": 1, "kind": "sample_set", "shape": list(shape), "points": []}))
        empties.append(str(path))
    scaled = [
        _scaled(FIXTURES / "sample_planted.json", factor, work / f"planted_{i}.json")
        for i, factor in enumerate(SCALES)
    ]
    scaled_frames = [
        _scaled(FIXTURES / "frame_random.json", factor, work / f"frame_random_{i}.json")
        for i, factor in enumerate(FRAME_SCALES)
    ]

    cmds = []
    for frame in FRAMES:
        f = fx[frame]
        cmds += [["frame-bounds", f], ["dual", f], ["dual", f, "--out", out]]
        cmds += [["reconstruct", f, v] for v in vectors]
        cmds += [["series", operator, "--frame", f], ["series", operator, "--frame", f, "--eps", "0.5"]]
    cmds += [["series", operator], ["series", operator, "--eps", "0.5"], ["series", operator, "--out", out]]
    # parseval.json's first vector alone, as a range frame: `series` misses every eps along it, and
    # its null achieved_rank goes through the writer's stdlib route
    first = work / "parseval_first.json"
    doc = json.loads((FIXTURES / "parseval.json").read_bytes())
    first.write_text(json.dumps({**doc, "spanning": "range", "vectors": doc["vectors"][:1]}))
    cmds += [["series", operator, "--frame", str(first)], ["series", operator, "--frame", str(first), "--out", out]]
    # the span family starts from the stored columns, whose -0.0 parts a product T e_j would write as +0.0
    signed = _signed_zero_operator(work / "operator_signed_zeros.json")
    cmds += [["series", signed], ["series", signed, "--out", out]]
    for f in scaled_frames:
        cmds += [["dual", f], ["dual", f, "--out", out]]

    for sample in SAMPLES:
        s = fx[sample]
        for budget in BUDGETS:
            for eps in EPS:
                cmds.append(["precompact", "--condition", "cd", "--sample", s, "--eps", eps, *_budget(budget)])
            cmds.append(["precompact", "--condition", "all", "--sample", s, *_budget(budget)])
            cmds.append(["precompact", "--condition", "all", "--sample", s, "--eps", "0.25", *_budget(budget)])
        for condition in ("cd", "all", "b"):
            cmds.append(["precompact", "--condition", condition, "--sample", s, "--eps", "0.5",
                         "--frame", fx["frame_random.json"]])
        cmds.append(["precompact", "--condition", "b", "--sample", s, "--eps", "0.5"])
        cmds.append(["precompact", "--condition", "a", "--sample", s, "--eps", "0.5", "--gens", gens])
        cmds.append(["precompact", "--condition", "a", "--sample", s, "--eps", "0.5", "--gens", s])
        cmds.append(["precompact", "--condition", "free", "--sample", s, "--eps", "0.5", "--gens", gens])
        cmds.append(["precompact", "--condition", "all", "--sample", s, "--gens", s, "--out", out])

    for source, frames in FRAME_MODULES.items():
        s = _frame_sample(FIXTURES / source, work / f"module_{source}")
        for frame in frames:
            with_frame = ["--sample", s, "--frame", fx[frame]]
            cmds += [["precompact", "--condition", c, *with_frame, "--eps", "0.5"] for c in ("b", "cd", "all")]
            cmds.append(["precompact", "--condition", "all", *with_frame])
            size = len(json.loads(Path(fx[frame]).read_bytes())["vectors"])
            cmds.append(["precompact", "--condition", "cd", *with_frame, "--eps", "0.5", *_budget(size)])

    for empty in empties:
        for frame in (None, *FRAMES):
            with_frame = [] if frame is None else ["--frame", fx[frame]]
            for budget in EMPTY_BUDGETS:
                for condition in ("cd", "all", "b"):
                    cmds.append(["precompact", "--condition", condition, "--sample", empty,
                                 "--eps", "0.5", *with_frame, *_budget(budget)])
                cmds.append(["precompact", "--condition", "all", "--sample", empty, *with_frame, *_budget(budget)])

    # the planted sample labelled with a lone surrogate escape, which orjson refuses and json.loads reads
    surrogate = work / "planted_surrogate.json"
    surrogate.write_text(json.dumps({**json.loads((FIXTURES / "sample_planted.json").read_bytes()), "label": "\ud800"}))
    cmds.append(["precompact", "--condition", "all", "--sample", str(surrogate)])

    cmds += [["precompact", "--condition", "all", "--sample", s, "--out", out] for s in scaled[:2]]

    for sample in [fx[s] for s in SAMPLES] + empties + scaled + [str(surrogate)]:
        cmds.append(["seminorm", spec, sample])
        cmds += [["net", sample, spec, "--eps", eps] for eps in ("2.0", "0.5", "0.05")]

    for trunc in (4, 8, 12, 40, 120):
        for eps in ("0.25", "0.8731"):
            cmds.append(["counterexample", "--trunc", str(trunc), "--eps", eps])
    cmds += [["counterexample", "--trunc", "12", "--dim", "6", "--eps", "0.25", "--out", out],
             ["counterexample", "--trunc", "4", "--dim", "9", "--eps", "0.25"]]

    cmds += [[], ["--help"], ["precompact"], ["precompact", "--condition", "x", "--sample", fx[SAMPLES[0]]],
             ["precompact", "--condition", "a", "--sample", fx[SAMPLES[0]], "--eps", "0.5"],
             ["precompact", "--condition", "cd", "--sample", fx[SAMPLES[0]]],
             ["precompact", "--condition", "cd", "--sample", fx[SAMPLES[0]], "--eps", "0.5", "--rank-budget", "-1"],
             ["precompact", "--condition", "cd", "--sample", fx[SAMPLES[0]], "--eps", "nan"],
             ["net", fx[SAMPLES[0]], spec], ["series"], ["frame-bounds", str(work / "missing.json")],
             ["counterexample", "--trunc", "171", "--eps", "0.25"], ["bogus"]]

    bad = _malformed(work)
    cmds += [["frame-bounds", bad["frame"]],
             ["precompact", "--condition", "cd", "--sample", bad["sample_set"], "--eps", "0.5"],
             ["net", fx[SAMPLES[0]], bad["seminorm_spec"], "--eps", "0.5"],
             ["reconstruct", fx["frame_random.json"], bad["vector"]],
             ["series", bad["operator"]],
             ["precompact", "--condition", "cd", "--sample", fx["frame_random.json"], "--eps", "0.5"],
             ["frame-bounds", bad["not_json"]],
             ["seminorm", bad["spec_states"], fx[SAMPLES[0]]],
             ["reconstruct", fx["frame_random.json"], bad["version"]],
             ["seminorm", bad["spec_no_states"], fx[SAMPLES[0]]],
             ["net", fx[SAMPLES[0]], bad["spec_short"], "--eps", "0.5"],
             ["seminorm", bad["spec_two_faults"], fx[SAMPLES[0]]],
             ["dual", bad["frame_dims"]],
             ["series", bad["operator_row"]],
             ["reconstruct", fx["frame_random.json"], bad["version_wide"]],
             ["reconstruct", fx["frame_random.json"], bad["shape_wide"]],
             ["frame-bounds", bad["deep_field"]],
             ["series", bad["operator_number"]]]
    return cmds


def workload_commands(work: Path, seeds=(1, 2, 3)) -> list[list[str]]:
    """The argv of every job of the four benchmark workloads at the seeds, inputs written under `work`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [
        job.argv
        for workload in gen.WORKLOADS
        for seed in seeds
        for job in gen.generate(workload, seed, work / f"{workload}-{seed}")[0]
    ]


def commands(work: Path) -> list[list[str]]:
    """The committed command list: the workload jobs, then the fixture commands."""
    return workload_commands(work) + fixture_commands(work)


def function_lines(package: Path = PACKAGE) -> dict[tuple[str, int], tuple[str, set[int]]]:
    """Per function of the package, keyed by (file, first line of its code object): its name and lines.

    A line belongs to the innermost function or lambda that holds it.
    The first line of a decorated function's code object is its first
    decorator's.
    """
    out = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner: dict[int, tuple[str, int]] = {}

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    name = f"{prefix}{getattr(child, 'name', '<lambda>')}"
                    decorators = getattr(child, "decorator_list", [])
                    first = min([child.lineno] + [d.lineno for d in decorators])
                    key = (str(path), first)
                    for line in range(first, child.end_lineno + 1):
                        owner[line] = key
                    out.setdefault(key, (f"{path.name}:{first} {name}", set()))
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
        for line, key in owner.items():
            out[key][1].add(line)
    return out


def size(package: Path = PACKAGE) -> tuple[int, int, int]:
    """(file lines, functions, parameters) of the package's modules."""
    lines = functions = params = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines += len(source.splitlines())
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                functions += 1
                params += len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
                params += (a.vararg is not None) + (a.kwarg is not None)
    return lines, functions, params


def _function(member):
    """The package function behind a class attribute (method, property or cached property), else None."""
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    elif isinstance(member, property):
        member = member.fget
    elif isinstance(member, functools.cached_property):
        member = member.func
    # A dataclass's generated methods are compiled from a string, not read from the package.
    if inspect.isfunction(member) and member.__code__.co_filename.startswith(str(PACKAGE)):
        return member
    return None


def _members(cls) -> dict:
    """The package function behind each attribute of cls, inherited ones included (`_function`).

    The walk goes down cls's MRO over the classes defined in the package;
    the first class that defines a name gives its member.
    """
    members = {}
    for klass in cls.__mro__:
        if klass.__module__.partition(".")[0] == PACKAGE.name:
            for attr, member in vars(klass).items():
                members.setdefault(attr, _function(member))
    return members


def unused_public(called: set[tuple[str, int] | type]) -> list[str]:
    """The public names and public class members that no command called and the criteria never name."""
    import cstarframes

    tree = ast.parse(ACCEPTANCE.read_text())
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}

    def reached(fn) -> bool:
        return (fn.__code__.co_filename, fn.__code__.co_firstlineno) in called

    out = []
    for name in cstarframes.__all__:
        obj = getattr(cstarframes, name)
        if not inspect.isclass(obj):
            if name not in named and not reached(obj):
                out.append(name)
            continue
        own = [fn for fn in map(_function, vars(obj).values()) if fn is not None]
        if own and name not in named and obj not in called and not any(reached(fn) for fn in own):
            out.append(name)
        members = {attr: fn for attr, fn in _members(obj).items() if fn is not None}
        out += [
            f"{name}.{attr}"
            for attr, fn in members.items()
            if not attr.startswith("_") and attr not in named and not reached(fn)
        ]
    return out


def run(cmds: list[list[str]]) -> set[tuple[str, int] | type]:
    """Run each argv through `cstarframes.cli.main` in this process.

    Returns the package code objects called, as (file, first line), and
    the package classes an `__init__` from outside the package (a
    dataclass's generated one) was called on.
    """
    called = set()
    prefix = str(PACKAGE)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                called.add((code.co_filename, code.co_firstlineno))
            elif code.co_name == "__init__" and code.co_argcount:
                cls = type(frame.f_locals[code.co_varnames[0]])
                if cls.__module__.partition(".")[0] == PACKAGE.name:
                    called.add(cls)

    sys.path.insert(0, str(SRC))
    sys.setprofile(profile)  # what runs at import counts too
    try:
        from cstarframes import cli
    finally:
        sys.setprofile(None)
    sink = io.StringIO()
    for argv in cmds:
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli.main(argv)
        finally:
            sys.setprofile(None)
        sink.seek(0)
        sink.truncate()
    return called


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--list", action="store_true", help="print the command list and stop")
    ap.add_argument("--unreached", action="store_true", help="list every unreached function")
    ap.add_argument("--public", action="store_true", help="list every public name no command calls")
    ap.add_argument("--size", action="store_true", help="print the size of the package and stop")
    args = ap.parse_args(argv)
    if args.size:
        lines, functions, params = size()
        print(f"src/cstarframes: {lines} lines, {functions} functions, {params} parameters")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cmds = commands(work)
        if args.list:
            for c in cmds:
                print(json.dumps([a.replace(tmp, "@") for a in c]))
            return 0
        called = run(cmds)
    functions = function_lines()
    total = sum(len(lines) for _, lines in functions.values())
    unreached = sorted(
        ((len(lines), name) for key, (name, lines) in functions.items() if key not in called),
        reverse=True,
    )
    missed = sum(n for n, _ in unreached)
    print(f"{len(cmds)} commands; function lines: {total - missed} reached, {missed} unreached of {total}")
    print(f"functions: {len(functions) - len(unreached)} reached, {len(unreached)} unreached of {len(functions)}")
    if args.unreached:
        for n, name in unreached:
            print(f"{n:5d}  {name}")
    if args.public:
        unused = unused_public(called)
        print(f"public names neither called nor named by {ACCEPTANCE.relative_to(ROOT)}: {len(unused)}")
        for name in unused:
            print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
