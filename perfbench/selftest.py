"""Self-test of the benchmark's generator and checker.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It shows that the generator repeats byte for byte for one seed (and
changes with the seed), that the checker accepts the real CLI output of
one job of every kind, and that it flags each corrupted variant of that
output: a flipped verdict, a perturbed tail, a dropped net point and so
on.  Exit code 0 means every case behaved; 1 lists the ones that did not.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import check
import gen
from run import WORK, Runner, _import_cli


def _bump_number(text: str, index: int, delta: float = 1e-6) -> str:
    """Move the index-th float literal in text by delta, relative to its size."""
    m = list(re.finditer(r"-?\d+\.\d+(?:e-?\d+)?", text))[index]
    value = float(m.group())
    return text[: m.start()] + repr(value + delta * max(1.0, abs(value))) + text[m.end():]


def _scale_row(text: str, row: int, factor: float) -> str:
    """Scale the value in CSV line `row` (key,value) by factor."""
    lines = text.splitlines()
    key, value = lines[row].split(",")
    lines[row] = f"{key},{float(value) * factor!r}"
    return "\n".join(lines) + "\n"


def _edit_json(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def _flip_b(doc) -> None:
    entry = doc["entries"][0]["b"]
    entry["verdict"] = "fail" if entry["verdict"] == "pass" else "pass"


def _scale_first_tail(factor: float):
    def edit(doc):
        tails = doc["entries"][0]["b"]["diagnostics"]["tail_profile"]
        tails[0] *= factor

    return edit


# kind -> named corruptions of (code, stdout, files)
CORRUPTIONS = {
    "counterexample": {
        "tail below 1": lambda c, o, f: (c, o.replace("\n0,1.0", "\n0,0.9999999999999999"), f),
        "required norm off by 1e-9": lambda c, o, f: (c, _scale_row(o, 2, 1 + 1e-9), f),
        "exit 0": lambda c, o, f: (0, o, f),
    },
    "planted": {
        "verdict b flipped": lambda c, o, f: (c, _edit_json(o, _flip_b), f),
        "violation reported": lambda c, o, f: (
            c, _edit_json(o, lambda d: d["entries"][1]["violations"].append("x")), f),
        "tail perturbed": lambda c, o, f: (c, _edit_json(o, _scale_first_tail(1 + 1e-6)), f),
    },
    "witness": {
        "verdict b flipped": lambda c, o, f: (c, _edit_json(o, _flip_b), f),
        "tail perturbed": lambda c, o, f: (c, _edit_json(o, _scale_first_tail(0.999)), f),
        "exit 0": lambda c, o, f: (0, o, f),
    },
    "seminorm": {"value perturbed": lambda c, o, f: (c, _scale_row(o, 1, 1 + 1e-6), f)},
    "net": {"net point dropped": lambda c, o, f: (c, "\n".join(o.splitlines()[:-1]) + "\n", f)},
    "frame_bounds": {"bound perturbed": lambda c, o, f: (c, _bump_number(o, 0), f)},
    "dual": {"dual entry perturbed": lambda c, o, f: (
        c, o, [_bump_number(f[0].decode(), 7, 1e-3).encode()])},
    "reconstruct": {"tail perturbed": lambda c, o, f: (c, _scale_row(o, 1, 1 + 1e-6), f)},
    "series": {"last error too big": lambda c, o, f: (
        c, o, [_edit_json(f[0].decode(), lambda d: d["errors"].__setitem__(-1, 1e-6)).encode()])},
}


def main() -> int:
    cli = _import_cli()
    problems = []
    for workload in gen.WORKLOADS:
        a, b, other = (WORK / f"selftest-{workload}-{t}" for t in ("a", "b", "c"))
        try:
            jobs_a, digest_a = gen.generate(workload, 11, a)
            jobs_b, digest_b = gen.generate(workload, 11, b)
            _, digest_c = gen.generate(workload, 12, other)
            same = all((a / p.name).read_bytes() == p.read_bytes() for p in b.iterdir())
            if digest_a != digest_b or not same or len(list(a.iterdir())) != len(list(b.iterdir())):
                problems.append(f"{workload}: generator does not repeat for one seed")
            else:
                print(f"ok  {workload}: generator repeats for seed 11 (inputs sha256 {digest_a[:16]})")
            if digest_a == digest_c:
                problems.append(f"{workload}: generator ignores the seed")
            runner = Runner(cli, jobs_a)
            seen = set()
            for job in jobs_a:
                if job.kind in seen:
                    continue
                seen.add(job.kind)
                _, code, out, _, files = runner.run_once(job)
                if (reason := check.check(job, code, out, files)) is not None:
                    problems.append(f"{workload}/{job.kind}: real output rejected: {reason}")
                    continue
                for name, corrupt in CORRUPTIONS[job.kind].items():
                    if check.check(job, *corrupt(code, out, files)) is None:
                        problems.append(f"{workload}/{job.kind}: checker accepts '{name}'")
                    else:
                        print(f"ok  {workload}/{job.kind}: flags '{name}'")
        finally:
            for d in (a, b, other):
                shutil.rmtree(d, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
