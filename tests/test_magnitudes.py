"""Every subcommand at magnitudes 2^k across the accepted range: only documented output.

The fixtures are scaled by exact powers of two, from subnormal entries
(k = -1070) to entries near 2^1000, where module norms are still finite
and the parser accepts the documents.  The commands run in one fresh
interpreter, each with fd 1 and fd 2 pointed at files of its own, so
that C-level writes (LAPACK's error handler prints to the process's
stdout) are seen.  For every command:

- the exit code is 0, 1 or 2, and no exception escapes `main`;
- stderr is empty, or one `cstarframes: error:` line with stdout empty;
- stdout is the documented JSON or CSV and nothing else: it parses, and
  holds no inf or NaN;
- JSON stdout is canonical: the bytes `json.dumps` writes of what it
  parses to, with sorted keys and no whitespace, and a newline.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
TOOLS = Path(__file__).parent.parent / "tools"
SRC = Path(__file__).resolve().parent.parent / "src"

EXPONENTS = (-1070, -1060, -1050, -1030, -1000, -900, -700, -560, -520, -300, -100, -1, 0,
             1, 100, 300, 500, 510, 511, 520, 700, 900, 1000)

# The numbers of each document kind that carry its magnitude.
PAYLOAD = {"frame": "vectors", "sample_set": "points", "vector": "coords", "operator": "entries"}

# Runs the commands of argv[1]; writes [exit code or escaped exception, stdout, stderr] of each to argv[2].
_CHILD = r"""
import ctypes, json, os, sys, tempfile, warnings
from pathlib import Path
from cstarframes.cli import main

warnings.simplefilter("always")
libc = ctypes.CDLL(None)
libc.fflush.argtypes, libc.fflush.restype = [ctypes.c_void_p], ctypes.c_int
results = []
for argv in json.loads(Path(sys.argv[1]).read_text()):
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        saved = os.dup(1), os.dup(2)
        os.dup2(out.fileno(), 1)
        os.dup2(err.fileno(), 2)
        try:
            code = main(argv)
        except Exception as exc:
            code = repr(exc)
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            libc.fflush(None)
            os.dup2(saved[0], 1)
            os.dup2(saved[1], 2)
            os.close(saved[0])
            os.close(saved[1])
        out.seek(0)
        err.seek(0)
        results.append([code, out.read().decode(), err.read().decode()])
Path(sys.argv[2]).write_text(json.dumps(results))
"""


def _scale(node, factor):
    if isinstance(node, list):
        return [_scale(item, factor) for item in node]
    return node * factor


def _scaled(source: Path, factor: float, target: Path) -> str:
    doc = json.loads(source.read_bytes())
    key = PAYLOAD[doc["kind"]]
    doc[key] = _scale(doc[key], factor)
    target.write_text(json.dumps(doc))
    return str(target)


def _commands(work: Path) -> list[list[str]]:
    sys.path.insert(0, str(TOOLS))
    try:
        import reach
    finally:
        sys.path.remove(str(TOOLS))
    module = Path(reach._frame_sample(FIXTURES / "frame_random.json", work / "module.json"))
    spec, unit_frame = str(FIXTURES / "seminorm_spec.json"), str(FIXTURES / "frame_random.json")
    planted = str(FIXTURES / "sample_planted.json")
    cmds = []
    for k in EXPONENTS:
        factor = 2.0**k
        frame = _scaled(FIXTURES / "frame_random.json", factor, work / f"scaled_frame_{k}.json")
        vector = _scaled(FIXTURES / "vector.json", factor, work / f"vector_{k}.json")
        operator = _scaled(FIXTURES / "operator.json", factor, work / f"operator_{k}.json")
        sample = _scaled(FIXTURES / "sample_planted.json", factor, work / f"sample_{k}.json")
        in_frame = _scaled(module, factor, work / f"module_{k}.json")
        cmds += [
            ["frame-bounds", frame],
            ["dual", frame],
            ["reconstruct", frame, vector],
            ["reconstruct", unit_frame, vector],
            ["series", operator],
            ["series", operator, "--frame", unit_frame],
            ["seminorm", spec, sample],
            ["net", sample, spec, "--eps", "0.5"],
            ["net", sample, spec, "--eps", repr(factor)],
            ["precompact", "--condition", "all", "--sample", sample],
            ["precompact", "--condition", "cd", "--sample", sample, "--eps", "0.5"],
            ["precompact", "--condition", "b", "--sample", sample, "--eps", "0.5"],
            ["precompact", "--condition", "a", "--sample", sample, "--gens", sample, "--eps", "0.5"],
            ["precompact", "--condition", "a", "--sample", sample, "--gens", planted, "--eps", "0.5"],
            ["precompact", "--condition", "a", "--sample", planted, "--gens", sample, "--eps", "0.5"],
            ["precompact", "--condition", "free", "--sample", sample, "--gens", sample, "--eps", "0.5"],
            ["precompact", "--condition", "all", "--sample", in_frame, "--frame", unit_frame],
            ["precompact", "--condition", "cd", "--sample", in_frame, "--frame", unit_frame,
             "--eps", repr(factor)],
            ["counterexample", "--trunc", "4", "--eps", repr(factor)],
        ]
    return cmds


def _no_constant(name):
    raise ValueError(f"{name} in the JSON output")


CSV_HEADERS = {"prefix,tail", "index,seminorm", "net_index", "k,required_norm"}


def _check_stdout(command: str, stdout: str) -> None:
    assert "** On entry" not in stdout
    if command == "frame-bounds":
        assert stdout.startswith("(") and stdout.endswith(")\n")
        fields = stdout[1:-2].split(",")
        assert len(fields) == 2 and all(math.isfinite(float(f)) for f in fields)
    elif command in ("reconstruct", "seminorm", "net", "counterexample"):
        assert stdout.endswith("\n")
        for line in stdout[:-1].split("\n"):
            if line not in CSV_HEADERS:
                assert all(math.isfinite(float(f)) for f in line.split(",")), line
    else:
        doc = json.loads(stdout, parse_constant=_no_constant)
        # the canonical bytes: sorted keys, no whitespace, each float spelled by repr
        assert stdout == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", command


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("magnitudes")
    cmds = _commands(work)
    (work / "commands.json").write_text(json.dumps(cmds))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(work / "commands.json"), str(work / "results.json")],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, check=True,
    )
    assert (done.stdout, done.stderr) == (b"", b"")
    return list(zip(cmds, json.loads((work / "results.json").read_text())))


def test_every_magnitude_gives_documented_output_only(runs):
    assert len(runs) == 19 * len(EXPONENTS)
    for argv, (code, stdout, stderr) in runs:
        assert code in (0, 1, 2), (argv, code, stderr)
        if stderr:
            assert stderr.startswith("cstarframes: error: ") and stderr.count("\n") == 1, (argv, stderr)
            assert stdout == "", (argv, stdout)
        else:
            _check_stdout(argv[0], stdout)


def test_the_range_is_exercised_not_refused(runs):
    """Only frames and generators, through their documented cuts, are refused at some magnitude.

    A scaled frame meets the degeneracy cut or an overflowing gram, a
    scaled generator family is not orthonormal or has a pseudo-inverse
    past the float range; every other command runs at every magnitude.
    """
    for argv, (_, _, stderr) in runs:
        frame_or_gens = any("scaled_frame_" in arg for arg in argv) or "--gens" in argv
        assert frame_or_gens or stderr == "", (argv, stderr)
