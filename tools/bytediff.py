"""Byte diff of the CLI between two checkouts: exit code, stdout, stderr and --out bytes per command.

Run with the roots of two checkouts:

    python3 tools/bytediff.py PARENT CHANGE
    python3 tools/bytediff.py PARENT CHANGE --coretype Haswell Sandybridge

Each tree runs the command list of its own tools/reach.py
(`reach.commands`: the 300 jobs of the benchmark workloads at seeds 1-3
and the fixture commands) in a fresh interpreter of its own, with that
tree's src first on sys.path, BLAS on one thread and no bytecode
written.  The commands run one after another through
`cstarframes.cli.main`, as in tools/reach.py, with stdout and stderr
captured; each --out file is read and removed after its command, and an
exception that escapes `main` is recorded in place of the exit code.
The tree's root and the work directory holding the generated inputs
are replaced by fixed markers in every argv, stream and --out file, so
two trees compare equal when they differ only in where they lie.
Warnings follow the interpreter's defaults, once per location over the
whole list, the same in both trees.

With --coretype, the change side runs again under each
OPENBLAS_CORETYPE named, and each of those runs is compared with the
parent's run on the default kernel.  Each run generates its own
inputs, so an argument that perfbench/gen.py derives with numpy can
differ under another kernel; such a command is dropped and its new
argv is new.

Records are paired by their normalized argv (the n-th run of an argv
with the n-th run of it on the other side), not by their place in the
list, so a command that only one list runs is listed as new or dropped
and shifts no other pairing.  Every differing command both lists run is
printed with the fields that differ, then a count per subcommand, then
the new and the dropped commands.  Exits 1 if, in any comparison, a
command both lists run differs or a command of the parent is dropped,
else 0; new commands alone do not fail.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
FIELDS = ("code", "stdout", "stderr", "out")
CHILD = "import sys; sys.path.insert(0, {tools!r}); import bytediff; bytediff.record({tree!r}, {result!r}, {only!r})"


def violations(*texts: str | None) -> int:
    """How many coherence violations the first equivalence report among `texts` lists; 0 if none is one."""
    for text in texts:
        try:
            doc = json.loads(text)
        except (TypeError, ValueError):
            continue
        if isinstance(doc, dict) and doc.get("kind") == "equivalence_report":
            return sum(len(entry["violations"]) for entry in doc["entries"])
    return 0


def record(tree: str, result: str, only: str | None = None) -> None:
    """Run the tree's command list in this interpreter and write one record per command to `result`.

    A record holds the normalized argv, the exit code (or the exception
    that escaped), the length and SHA-256 of the normalized stdout,
    stderr and --out bytes, and the number of coherence violations in
    the equivalence report on stdout or in the --out file
    (`violations`).  With `only`, just the commands of that subcommand
    run.
    """
    root = Path(tree).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tools")]
    import reach
    from cstarframes import cli

    if not Path(cli.__file__).resolve().is_relative_to(root):
        raise RuntimeError(f"cstarframes imported from {cli.__file__}, outside {root}")
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        markers = ((tmp, "<work>"), (str(root), "<tree>"))

        def normalized(text: str) -> str:
            for path, marker in markers:
                text = text.replace(path, marker)
            return text

        def summary(text: str) -> list:
            text = normalized(text)
            return [len(text), hashlib.sha256(text.encode("latin-1")).hexdigest()]

        for argv in reach.commands(Path(tmp)):
            if only is not None and argv[:1] != [only]:
                continue
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except Exception as exc:
                    code = f"raised {type(exc).__name__}"
                    stderr.write("".join(traceback.format_exception_only(exc)))
            out = None
            if "--out" in argv:
                path = Path(argv[argv.index("--out") + 1])
                if path.exists():
                    out = path.read_bytes().decode("latin-1")
                    path.unlink()
            runs.append({
                "argv": [normalized(a) for a in argv],
                "code": code,
                "stdout": summary(stdout.getvalue()),
                "stderr": summary(stderr.getvalue()),
                "out": None if out is None else summary(out),
                "violations": violations(stdout.getvalue(), out),
            })
    Path(result).write_text(json.dumps(runs))


def run_tree(
    tree: Path, work: Path, label: str, coretype: str | None = None, only: str | None = None
) -> list[dict]:
    """The records of `tree`'s command list (of subcommand `only`), from a fresh interpreter (`record`)."""
    result = work / f"{label}.json"
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "OPENBLAS_CORETYPE")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    code = CHILD.format(tools=str(TOOLS), tree=str(tree.resolve()), result=str(result), only=only)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=work, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bytediff: the run of {label} failed with exit code {proc.returncode}")
    runs = json.loads(result.read_text())
    print(f"{label}: {len(runs)} commands in {time.perf_counter() - start:.1f} s")
    return runs


def _keyed(runs: list[dict]) -> dict:
    """The records by (argv, n): the n-th run of that normalized argv in the list."""
    seen = collections.Counter()
    keyed = {}
    for run in runs:
        argv = tuple(run["argv"])
        keyed[argv, seen[argv]] = run
        seen[argv] += 1
    return keyed


def compare(base: list[dict], other: list[dict]) -> tuple[list[tuple[list[str], list[str]]], list, list]:
    """The records of two runs paired by argv (`_keyed`).

    Returns (argv, differing fields) of each command both run whose
    records differ, then the argv of each command only `other` runs
    (new) and of each only `base` runs (dropped), in list order.
    """
    a, b = _keyed(base), _keyed(other)
    diffs = [
        (run["argv"], fields)
        for key, run in b.items()
        if key in a and (fields := [f for f in FIELDS if a[key][f] != run[f]])
    ]
    return diffs, [run["argv"] for key, run in b.items() if key not in a], [
        run["argv"] for key, run in a.items() if key not in b
    ]


def _shown(argv: list[str]) -> str:
    return " ".join(argv) or "(no arguments)"


def report(label: str, diffs, added, dropped, shared: int) -> None:
    for argv, fields in diffs:
        print(f"  {','.join(fields):<20} {_shown(argv)}")
    counts = collections.Counter(argv[0] if argv else "(none)" for argv, _ in diffs)
    per = ", ".join(f"{name} {n}" for name, n in sorted(counts.items()))
    print(f"{label}: {len(diffs)} of the {shared} commands both run differ" + (f" ({per})" if per else ""))
    for mark, argvs in (("new", added), ("dropped", dropped)):
        for argv in argvs:
            print(f"  {mark:<20} {_shown(argv)}")
        if argvs:
            print(f"{label}: {len(argvs)} {mark} commands")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--coretype", nargs="+", default=[], metavar="NAME",
                    help="also run the change under each OPENBLAS_CORETYPE NAME")
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "tools" / "reach.py").is_file():
            ap.error(f"{tree} has no tools/reach.py")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        base = run_tree(args.parent, work, "parent")
        sides = [("change", run_tree(args.change, work, "change"))]
        sides += [(f"change under OPENBLAS_CORETYPE={name}", run_tree(args.change, work, f"change-{name}", name))
                  for name in args.coretype]
    differ = False
    for label, runs in sides:
        diffs, added, dropped = compare(base, runs)
        report(f"parent vs {label}", diffs, added, dropped, len(runs) - len(added))
        differ |= bool(diffs or dropped)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
