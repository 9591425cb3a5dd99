"""End-to-end CLI coverage: every subcommand, exit code, and output format."""

import argparse
import gc
import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_state, random_unit_vector
from cstarframes import (
    AdmissibleSystem,
    AlgebraShape,
    Frame,
    ModuleVector,
    SampleSet,
    SeminormSpec,
    parse,
    serialize,
    theta_op,
)
from cstarframes import cli
from cstarframes.certify import Certificate
from cstarframes.cli import main
from cstarframes.serialization import document

FIXTURES = Path(__file__).parent / "fixtures"
TOOLS = Path(__file__).parent.parent / "tools"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- frame-bounds ---


def test_frame_bounds_parseval(capsys):
    code, out, err = run(capsys, "frame-bounds", fx("parseval.json"))
    assert code == 0
    assert out == "(1,1)\n"
    assert err == ""


def test_frame_bounds_general_format(capsys):
    code, out, _ = run(capsys, "frame-bounds", fx("frame_random.json"))
    assert code == 0
    match = re.fullmatch(r"\(([0-9.eE+-]+),([0-9.eE+-]+)\)\n", out)
    assert match
    c1, c2 = float(match.group(1)), float(match.group(2))
    assert 0 < c1 <= c2


def test_frame_bounds_on_bytes_that_are_not_utf8_is_a_schema_error(capsys, tmp_path):
    path = tmp_path / "frame.json"
    path.write_bytes(bytes.fromhex("fffe7b7d"))
    code, out, err = run(capsys, "frame-bounds", str(path))
    assert code == 1 and out == ""
    assert err == (
        "cstarframes: error: $: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )


# --- dual ---


def test_dual_of_parseval_is_itself(capsys):
    raw = (FIXTURES / "parseval.json").read_bytes()
    code, out, _ = run(capsys, "dual", fx("parseval.json"))
    assert code == 0
    assert out.encode() == raw + b"\n"


def test_dual_out_file(capsys, tmp_path):
    out_file = tmp_path / "dual.json"
    code, out, _ = run(capsys, "dual", fx("parseval.json"), "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert out_file.read_bytes() == (FIXTURES / "parseval.json").read_bytes()


def test_dual_inverts_scaling(capsys, tmp_path):
    shape = AlgebraShape((1,))
    doubled = Frame((ModuleVector.basis(shape, 1, 0) * 2.0,))
    frame_file = tmp_path / "doubled.json"
    frame_file.write_bytes(serialize(doubled))
    code, out, _ = run(capsys, "dual", str(frame_file))
    assert code == 0
    dual = parse("frame", out.strip().encode())
    entry = dual.vectors[0].coords[0].blocks[0][0, 0]
    assert entry == pytest.approx(0.5)


def test_dual_preserves_range_mode(capsys):
    code, out, _ = run(capsys, "dual", fx("frame_range.json"))
    assert code == 0
    assert json.loads(out)["spanning"] == "range"


# --- reconstruct ---


def test_reconstruct_csv(capsys):
    code, out, _ = run(capsys, "reconstruct", fx("parseval.json"), fx("vector.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "prefix,tail"
    tails = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(tails) == 3  # prefixes 0..2 for a 2-vector frame
    assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))
    assert tails[-1] == 0.0


def test_reconstruct_module_mismatch_is_data_error(capsys):
    code, out, err = run(capsys, "reconstruct", fx("parseval.json"), fx("vector_c3.json"))
    assert (code, out) == (1, "")
    assert err == "cstarframes: error: module vectors live in different modules\n"


# --- seminorm ---


def test_seminorm_csv(capsys):
    from cstarframes import seminorm_eval

    spec = parse("seminorm_spec", (FIXTURES / "seminorm_spec.json").read_bytes())
    sample = parse("sample_set", (FIXTURES / "sample_planted.json").read_bytes())
    code, out, _ = run(capsys, "seminorm", fx("seminorm_spec.json"), fx("sample_planted.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,seminorm"
    assert len(lines) == 1 + len(sample.points)
    for i, line in enumerate(lines[1:]):
        idx, value = line.split(",")
        assert int(idx) == i
        assert float(value) == seminorm_eval(spec, sample.points[i])


# Exact output of the fixtures, recorded before the seminorm and net
# commands moved to the state-value tensor; every float must keep its bits.
SEMINORM_GOLDEN = (
    "index,seminorm\n"
    "0,0.9894709520116697\n"
    "1,0.37580402592244805\n"
    "2,0.5099128819032521\n"
    "3,0.3725621386470719\n"
    "4,0.5530249312079881\n"
    "5,0.4199146273651348\n"
)
NET_GOLDEN = {
    "0.1": "net_index\n0\n4\n1\n3\n5\n2\n",
    "0.5": "net_index\n0\n4\n1\n3\n",
    "5.0": "net_index\n0\n",
}


def test_seminorm_csv_golden(capsys):
    result = run(capsys, "seminorm", fx("seminorm_spec.json"), fx("sample_planted.json"))
    assert result == (0, SEMINORM_GOLDEN, "")


@pytest.mark.parametrize("eps", sorted(NET_GOLDEN))
def test_net_golden(capsys, eps):
    result = run(
        capsys, "net", fx("sample_planted.json"), fx("seminorm_spec.json"), "--eps", eps
    )
    assert result == (0, NET_GOLDEN[eps], "")


# --- net ---


def test_net_indices(capsys):
    code, out, _ = run(
        capsys, "net", fx("sample_planted.json"), fx("seminorm_spec.json"), "--eps", "0.5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "net_index"
    indices = [int(line) for line in lines[1:]]
    assert indices[0] == 0
    assert len(indices) == len(set(indices))


def test_net_shrinks_with_coarser_eps(capsys):
    code, fine, _ = run(
        capsys, "net", fx("sample_planted.json"), fx("seminorm_spec.json"), "--eps", "0.1"
    )
    assert code == 0
    code, coarse, _ = run(
        capsys, "net", fx("sample_planted.json"), fx("seminorm_spec.json"), "--eps", "5.0"
    )
    assert code == 0
    assert len(coarse.splitlines()) <= len(fine.splitlines())


# --- precompact ---


def _basis_sample_file(tmp_path, shape_dims, dim, name="gens.json"):
    shape = AlgebraShape(shape_dims)
    points = tuple(ModuleVector.basis(shape, dim, i) for i in range(dim))
    path = tmp_path / name
    path.write_bytes(serialize(SampleSet(points, label="basis")))
    return str(path)


def test_precompact_a_pass(capsys, tmp_path):
    gens = _basis_sample_file(tmp_path, (1, 1, 1), 4)
    out_file = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "precompact",
        "--condition", "a",
        "--sample", fx("sample_planted.json"),
        "--gens", gens,
        "--eps", "1e-6",
        "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_bytes())
    assert doc["kind"] == "certificate"
    assert doc["condition"] == "A"
    assert doc["verdict"] == "pass"


def test_precompact_b_planted_pass(capsys):
    code, out, _ = run(
        capsys,
        "precompact", "--condition", "b", "--sample", fx("sample_planted.json"), "--eps", "0.5",
    )
    assert code == 0
    assert json.loads(out)["witness"]["N"] == 2


def test_precompact_b_witnesses_fail(capsys):
    code, out, _ = run(
        capsys,
        "precompact", "--condition", "b",
        "--sample", fx("sample_witnesses_5_5.json"), "--eps", "0.5",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_precompact_cd_pass(capsys):
    code, out, _ = run(
        capsys,
        "precompact", "--condition", "cd", "--sample", fx("sample_planted.json"), "--eps", "0.5",
    )
    assert code == 0
    assert json.loads(out)["budget_exhausted"] is False


def test_precompact_cd_budget_inconclusive(capsys):
    code, out, _ = run(
        capsys,
        "precompact", "--condition", "cd",
        "--sample", fx("sample_witnesses_5_5.json"), "--eps", "0.5", "--rank-budget", "2",
    )
    assert code == 2
    assert json.loads(out)["budget_exhausted"] is True


@pytest.mark.parametrize("condition", ["cd", "all"])
def test_precompact_negative_rank_budget_is_data_error(capsys, condition):
    code, out, err = run(
        capsys,
        "precompact", "--condition", condition,
        "--sample", fx("sample_planted.json"), "--eps", "0.5", "--rank-budget", "-1",
    )
    assert (code, out) == (1, "")
    assert err == "cstarframes: error: rank budget must be at least 0, got -1\n"


@pytest.mark.parametrize("condition", ["cd", "all"])
def test_precompact_negative_rank_budget_is_data_error_for_an_empty_sample(capsys, tmp_path, condition):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"version": 1, "kind": "sample_set", "shape": [1, 1], "points": []}))
    code, out, err = run(
        capsys,
        "precompact", "--condition", condition,
        "--sample", str(empty), "--eps", "0.5", "--rank-budget", "-1",
    )
    assert (code, out) == (1, "")
    assert err == "cstarframes: error: rank budget must be at least 0, got -1\n"


def _empty_sample_cd(eps):
    """The C/D certificate a hard-coded branch once gave an empty sample: the oracle of the scan."""
    return Certificate(
        condition="CD",
        eps=eps,
        verdict=True,
        witness={"rank": 0},
        diagnostics={"error_profile": [0.0], "best_error": 0.0},
        approximant=(),
    )


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 1, 1)])
@pytest.mark.parametrize("frame", [None, "frame_random.json", "frame_range.json", "parseval.json"])
@pytest.mark.parametrize("budget", [None, 0, 2])
@pytest.mark.parametrize("condition", ["cd", "all"])
def test_precompact_empty_sample_runs_the_cd_scan_to_the_old_certificate(
    capsys, tmp_path, shape, frame, budget, condition
):
    """An empty sample goes through the C/D scan, which stops at rank 0 with error 0.0.

    With no frame, `--condition all` stays vacuous: there is no module
    to build a frame in.
    """
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"version": 1, "kind": "sample_set", "shape": list(shape), "points": []}))
    argv = ["precompact", "--condition", condition, "--sample", str(empty), "--eps", "0.5"]
    argv += [] if frame is None else ["--frame", fx(frame)]
    argv += [] if budget is None else ["--rank-budget", str(budget)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if condition == "cd":
        assert out == serialize(_empty_sample_cd(0.5)).decode() + "\n"
        return
    (entry,) = json.loads(out)["entries"]
    if frame is None:
        assert entry["cd"]["witness"] == {"vacuous": True}
    else:
        assert entry["cd"] == document(_empty_sample_cd(0.5))


@pytest.mark.parametrize("budget", ["0", "1"])
def test_precompact_frame_from_another_module_is_data_error(capsys, budget):
    code, out, err = run(
        capsys,
        "precompact", "--condition", "cd", "--sample", fx("sample_planted.json"),
        "--frame", fx("parseval.json"), "--eps", "0.5", "--rank-budget", budget,
    )
    assert (code, out) == (1, "")
    assert err == "cstarframes: error: module vectors live in different modules\n"


def test_precompact_free(capsys, tmp_path):
    gens = _basis_sample_file(tmp_path, (1, 1, 1), 4)
    code, out, _ = run(
        capsys,
        "precompact", "--condition", "free",
        "--sample", fx("sample_planted.json"), "--gens", gens, "--eps", "1e-6",
    )
    assert code == 0
    assert json.loads(out)["condition"] == "FREE"


def test_precompact_all_report(capsys, tmp_path):
    first = tmp_path / "report1.json"
    second = tmp_path / "report2.json"
    for out_file in (first, second):
        code, out, _ = run(
            capsys,
            "precompact", "--condition", "all",
            "--sample", fx("sample_planted.json"), "--eps", "0.5",
            "--out", str(out_file),
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_bytes())
    assert doc["kind"] == "equivalence_report"
    assert doc["entries"][0]["violations"] == []
    assert "seed" not in doc


def test_precompact_has_no_seed_flag(capsys):
    """Nothing random runs in precompact, so there is no seed to pass."""
    code, out, err = run(
        capsys, "precompact", "--condition", "all",
        "--sample", fx("sample_planted.json"), "--eps", "0.5", "--seed", "3",
    )
    assert (code, out) == (64, "")
    assert "--seed" in err


def test_precompact_missing_eps_is_usage_error(capsys, tmp_path):
    gens = _basis_sample_file(tmp_path, (1, 1, 1), 4)
    code, _, err = run(
        capsys,
        "precompact", "--condition", "a", "--sample", fx("sample_planted.json"), "--gens", gens,
    )
    assert code == 64
    assert "--eps" in err


def test_precompact_missing_gens_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "precompact", "--condition", "a", "--sample", fx("sample_planted.json"), "--eps", "0.5",
    )
    assert code == 64
    assert "--gens" in err


# --- series ---


def test_series_theta_operator(capsys, tmp_path):
    out_file = tmp_path / "series.json"
    code, out, _ = run(capsys, "series", fx("operator.json"), "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_bytes())
    assert doc["kind"] == "series_decomposition"
    assert doc["achieved_rank"] == 1


def test_series_off_range_frame_fails(capsys, tmp_path):
    shape = AlgebraShape((1,))
    e1 = ModuleVector.basis(shape, 2, 0)
    e2 = ModuleVector.basis(shape, 2, 1)
    op_file = tmp_path / "op.json"
    op_file.write_bytes(serialize(theta_op(e1, e1)))
    frame_file = tmp_path / "frame.json"
    frame_file.write_bytes(serialize(Frame((e2,), spanning="range")))
    code, out, _ = run(capsys, "series", str(op_file), "--frame", str(frame_file))
    assert code == 1
    doc = json.loads(out)
    assert doc["achieved_rank"] is None
    assert doc["floor"] == pytest.approx(1.0)


# --- counterexample ---


def test_counterexample_tables(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "counterexample", "--trunc", "8", "--dim", "8", "--eps", "0.25",
        "--out", str(out_file),
    )
    assert code == 1  # the witnesses certify failure: that is the point
    lines = out.splitlines()
    split = lines.index("prefix,tail")
    assert lines[0] == "k,required_norm"
    factorial = 1
    for k, line in enumerate(lines[1:split], start=1):
        factorial *= k
        name, value = line.split(",")
        assert int(name) == k
        assert float(value) == pytest.approx(0.75 * factorial, rel=1e-12)
    for n, line in enumerate(lines[split + 1 :]):
        assert line == f"{n},1.0"
    doc = json.loads(out_file.read_bytes())
    assert doc["kind"] == "certificate" and doc["verdict"] == "fail"


def test_counterexample_dim_defaults_to_trunc(capsys):
    code, out, _ = run(capsys, "counterexample", "--trunc", "3", "--eps", "0.5")
    assert code == 1
    tail_lines = out.splitlines()[out.splitlines().index("prefix,tail") + 1 :]
    assert len(tail_lines) == 3


def test_counterexample_trunc_ceiling_is_data_error(capsys):
    code, out, err = run(capsys, "counterexample", "--trunc", "171", "--eps", "0.25")
    assert code == 1
    assert out == ""
    assert err.startswith("cstarframes: error: truncation level 171 exceeds 170")


def test_counterexample_deterministic(capsys):
    _, first, _ = run(capsys, "counterexample", "--trunc", "5", "--eps", "0.1")
    _, second, _ = run(capsys, "counterexample", "--trunc", "5", "--eps", "0.1")
    assert first == second


def test_counterexample_profiles_each_witness_once(capsys, monkeypatch, tmp_path):
    """One fold over the witnesses, with one SVD call, serves both tail routes, the tail table and condition B."""
    import cstarframes.counterexample as counterexample

    calls = {"tail_profile": 0, "tail_profiles": 0, "fold": 0, "svd": 0}
    for name in ("tail_profile", "tail_profiles"):
        original = getattr(Frame, name)

        def counted(self, arg, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, arg)

        monkeypatch.setattr(Frame, name, counted)
    fold, svd = counterexample.fold_pair_maxima, np.linalg.svd

    def counted_fold(*args):
        calls["fold"] += 1
        return fold(*args)

    def counted_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(counterexample, "fold_pair_maxima", counted_fold)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    out_file = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "counterexample", "--trunc", "6", "--eps", "0.25", "--out", str(out_file)
    )
    assert code == 1
    assert calls == {"tail_profile": 0, "tail_profiles": 0, "fold": 1, "svd": 1}
    doc = json.loads(out_file.read_bytes())
    assert doc["diagnostics"]["tail_profile"] == [1.0] * 6 + [0.0]


# --- non-finite eps ---


NAN_EPS_COMMANDS = {
    "net": ("net", fx("sample_planted.json"), fx("seminorm_spec.json")),
    "counterexample": ("counterexample", "--trunc", "4"),
    "all": ("precompact", "--condition", "all", "--sample", fx("sample_planted.json")),
    "b": ("precompact", "--condition", "b", "--sample", fx("sample_planted.json")),
    "cd": ("precompact", "--condition", "cd", "--sample", fx("sample_planted.json")),
    "series": ("series", fx("operator.json")),
}


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1e-3"])
@pytest.mark.parametrize("command", sorted(NAN_EPS_COMMANDS))
def test_bad_eps_is_data_error(capsys, command, eps):
    """NaN once made `net` loop forever; every eps entry point exits 1 promptly."""
    import signal

    def hung(signum, frame):
        raise AssertionError(f"{command} --eps {eps} did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        code, out, err = run(capsys, *NAN_EPS_COMMANDS[command], f"--eps={eps}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (1, "")
    assert err == "cstarframes: error: eps must be a finite positive number\n"


@pytest.mark.parametrize("condition", ["a", "free"])
def test_bad_eps_with_generators_is_data_error(capsys, tmp_path, condition):
    gens = _basis_sample_file(tmp_path, (1, 1, 1), 4)
    code, out, err = run(
        capsys, "precompact", "--condition", condition,
        "--sample", fx("sample_planted.json"), "--gens", gens, "--eps", "nan",
    )
    assert (code, out) == (1, "")
    assert "finite positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("seminorm", fx("seminorm_spec.json"), fx("sample_witnesses_6.json")),
        ("net", fx("sample_witnesses_6.json"), fx("seminorm_spec.json"), "--eps", "0.5"),
    ],
)
def test_a_table_refused_part_way_prints_nothing(capsys, argv):
    """Every row is computed before the header is written."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "cstarframes: error: module vectors live in different modules\n"


def test_counterexample_that_cannot_write_its_certificate_prints_nothing(capsys, tmp_path):
    out_file = tmp_path / "absent" / "cert.json"
    code, out, err = run(
        capsys, "counterexample", "--trunc", "4", "--eps", "0.25", "--out", str(out_file)
    )
    assert (code, out) == (1, "")
    assert err.startswith("cstarframes: error: ") and err.count("\n") == 1


# --- usage and data errors ---


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 64
    assert "subcommand" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 64


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "frame-bounds", fx("parseval.json"), "--loud")
    assert code == 64


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "net", fx("sample_planted.json"), fx("seminorm_spec.json"))
    assert code == 64


def test_missing_file_is_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "frame-bounds", str(tmp_path / "absent.json"))
    assert code == 1
    assert "error" in err


def test_wrong_kind_file_is_data_error(capsys):
    code, _, err = run(capsys, "frame-bounds", fx("vector.json"))
    assert code == 1
    assert "$.kind" in err


def test_malformed_file_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "frame-bounds", str(bad))
    assert code == 1
    assert "JSON" in err


# --- golden bytes of the frame and series commands ---

GOLDEN = FIXTURES / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("dual", fx("frame_random.json")), "dual_frame_random.json"),
        (("dual", fx("frame_range.json")), "dual_frame_range.json"),
        (("series", fx("operator.json")), "series_operator.json"),
        (("series", fx("operator.json"), "--frame", fx("frame_random.json")),
         "series_operator_frame_random.json"),
    ],
)
def test_out_file_golden(capsys, tmp_path, argv, golden):
    out_file = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(out_file)) == (0, "", "")
    assert out_file.read_bytes() == (GOLDEN / golden).read_bytes()


def test_reconstruct_csv_golden(capsys):
    expected = (GOLDEN / "reconstruct_frame_random_vector.csv").read_text()
    result = run(capsys, "reconstruct", fx("frame_random.json"), fx("vector.json"))
    assert result == (0, expected, "")


def test_series_frame_of_another_module_is_data_error(capsys):
    result = run(capsys, "series", fx("operator.json"), "--frame", fx("frame_range.json"))
    assert result == (1, "", "cstarframes: error: operator/vector dimension mismatch\n")


def test_integer_beyond_float_range_is_data_error(capsys, tmp_path):
    doc = json.loads((FIXTURES / "vector.json").read_bytes())
    doc["coords"][0][0][0][0] = [10**400, 0]
    vec = tmp_path / "huge.json"
    vec.write_text(json.dumps(doc))
    code, out, err = run(capsys, "reconstruct", fx("frame_random.json"), str(vec))
    assert (code, out) == (1, "")
    assert err == "cstarframes: error: $.coords[0][0][0][0][0]: integer beyond float range\n"
    assert "Traceback" not in err


def _coordinate(v):
    """A coordinate over the shape (1, 2): v on the 1x1 block, v times the unit on the 2x2 block."""
    return [[[[v, 0.0]]], [[[v, 0.0], [0.0, 0.0]], [[0.0, 0.0], [v, 0.0]]]]


def test_sample_point_whose_norm_overflows_is_refused_at_parse(capsys, tmp_path):
    """Finite entries of 1.5e308 whose module norm, about 2.1e308, is not finite."""
    doc = {"version": 1, "kind": "sample_set", "shape": [1, 2], "points": [
        [_coordinate(1.5e308), _coordinate(0.0)],  # norm 1.5e308: flagged by the bound, kept
        [_coordinate(1.5e308), _coordinate(1.5e308)],
    ]}
    path = tmp_path / "sample.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(capsys, "precompact", "--condition", "cd", "--eps", "1e300",
                     "--sample", str(path))
    assert result == (1, "", "cstarframes: error: $.points[1]: module norm overflows the float range\n")
    doc["points"].pop()
    assert parse("sample_set", json.dumps(doc).encode()).point_norms == [1.5e308]


def test_vector_whose_norm_overflows_is_refused_at_parse(capsys, tmp_path):
    path = tmp_path / "vector.json"
    path.write_text(json.dumps({
        "version": 1, "kind": "vector", "shape": [1, 2],
        "coords": [_coordinate(1.5e308), _coordinate(1.5e308)],
    }))
    result = run(capsys, "reconstruct", fx("parseval.json"), str(path))
    assert result == (1, "", "cstarframes: error: $: module norm overflows the float range\n")


def _operator_doc(value):
    """A 2x2 operator over the shape (1,) with every entry `value`."""
    entry = [[[[value, 0.0]]]]
    return {"version": 1, "kind": "operator", "shape": [1], "entries": [[entry, entry], [entry, entry]]}


@pytest.mark.parametrize("frame", [False, True])
def test_operator_whose_norm_overflows_is_refused_at_parse(capsys, tmp_path, frame):
    """Finite entries of 1.5e308 whose operator norm, 3e308, is not finite."""
    path = tmp_path / "op.json"
    path.write_text(json.dumps(_operator_doc(1.5e308)))
    argv = ["series", str(path)]
    if frame:
        basis = tmp_path / "frame.json"
        basis.write_bytes(serialize(Frame(tuple(ModuleVector.basis(AlgebraShape((1,)), 2, j) for j in range(2)))))
        argv += ["--frame", str(basis)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(capsys, *argv)
    assert result == (1, "", "cstarframes: error: $.entries: module norm overflows the float range\n")


def test_operator_entries_of_1e300_keep_their_bytes():
    data = json.dumps(_operator_doc(1e300), sort_keys=True, separators=(",", ":")).encode()
    assert serialize(parse("operator", data)) == data


def test_parsing_points_takes_no_norm(monkeypatch):
    """The entrywise bound clears every fixture point: no SVD runs at parse."""
    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran at parse")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for kind, name in [("sample_set", "sample_planted.json"), ("sample_set", "generator_6.json"),
                       ("sample_set", "sample_witnesses_6.json"), ("vector", "vector.json")]:
        parse(kind, (FIXTURES / name).read_bytes())


# --- the parser ---


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from cstarframes import cli

    sample = fx("sample_planted.json")
    cli._build_parser.cache_clear()
    first = run(capsys, "precompact", "--condition", "all", "--sample", sample,
                "--eps", "0.5")
    second = run(capsys, "precompact", "--condition", "all", "--sample", sample)
    assert cli._build_parser.cache_info().misses == 1
    assert [e["eps"] for e in json.loads(first[1])["entries"]] == [0.5]
    doc = json.loads(second[1])
    assert [e["eps"] for e in doc["entries"]] == [1.0, 0.5, 0.25, 0.125]
    cli._build_parser.cache_clear()
    assert run(capsys, "precompact", "--condition", "all", "--sample", sample) == second


def _two_pass_parse(argv):
    """The parse before dispatch on the command name: the whole tree, the tail read twice."""
    parser, _ = cli._build_parser()
    return parser.parse_args(argv)


JOB_ARGV = [
    ("frame-bounds", fx("parseval.json")),
    ("dual", fx("parseval.json")),
    ("reconstruct", fx("parseval.json"), fx("vector.json")),
    ("seminorm", fx("seminorm_spec.json"), fx("sample_planted.json")),
    ("net", fx("sample_planted.json"), fx("seminorm_spec.json"), "--eps", "0.5"),
    ("precompact", "--condition", "cd", "--sample", fx("sample_witnesses_5_5.json"), "--eps", "0.5"),
    ("series", fx("operator.json")),
    ("counterexample", "--trunc", "4", "--eps", "0.25"),
]


@pytest.mark.parametrize("argv", JOB_ARGV, ids=lambda argv: argv[0])
def test_a_job_parses_its_arguments_once(capsys, monkeypatch, argv):
    parse_known_args = argparse.ArgumentParser.parse_known_args
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run(capsys, *argv)[0] in (0, 1)
    assert calls == [f"cstarframes {argv[0]}"]


ARGV_TABLE = [
    (),
    ("-h",),
    ("--help",),
    ("--he",),
    *((command, "-h") for command in cli._COMMANDS),
    ("counterexample", "--eps", "0.25", "--help"),
    # a missing required option or positional
    ("net", fx("sample_planted.json"), fx("seminorm_spec.json")),
    ("counterexample", "--eps", "0.25"),
    ("precompact", "--sample", fx("sample_planted.json")),
    ("reconstruct", fx("parseval.json")),
    ("frame-bounds",),
    # a value its type or choices refuse
    ("counterexample", "--trunc", "four", "--eps", "0.25"),
    ("net", fx("sample_planted.json"), fx("seminorm_spec.json"), "--eps", "x"),
    ("precompact", "--condition", "z", "--sample", fx("sample_planted.json")),
    ("counterexample", "--trunc", "-3", "--eps", "0.25"),
    # an unknown flag, an extra positional
    ("frame-bounds", fx("parseval.json"), "--loud"),
    ("counterexample", "--trunc", "2", "--eps", "0.5", "--seed", "1"),
    ("counterexample", "--trunc", "2", "--loud", "--eps", "0.5", "extra"),
    ("frame-bounds", fx("parseval.json"), "extra"),
    ("counterexample", "counterexample"),
    # "--", "--opt=value", an abbreviated option
    ("frame-bounds", "--", fx("parseval.json")),
    ("counterexample", "--trunc", "2", "--eps", "0.5", "--"),
    ("counterexample", "--trunc", "2", "--", "--eps", "0.5"),
    ("--", "counterexample", "--trunc", "2", "--eps", "0.5"),
    ("counterexample", "--trunc=2", "--eps=0.5"),
    ("counterexample", "--tr", "2", "--eps", "0.5"),
    ("precompact", "--cond", "cd", "--sam", fx("sample_witnesses_5_5.json"), "--e=0.5"),
    # a command name that is not one
    ("counter", "--trunc", "2", "--eps", "0.5"),
    ("Counterexample", "--trunc", "2", "--eps", "0.5"),
    ("frobnicate",),
    # an option before the command
    ("-h", "counterexample"),
    ("--trunc", "2", "counterexample", "--eps", "0.5"),
]


@pytest.mark.parametrize("argv", ARGV_TABLE)
def test_every_argv_runs_as_through_the_two_pass_parse(capsys, monkeypatch, argv):
    """Exit code, stdout and stderr of `main` are the two-pass parse's, help and usage errors included."""
    one_pass = run(capsys, *argv)
    monkeypatch.setattr(cli, "_parse", _two_pass_parse)
    assert run(capsys, *argv) == one_pass


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["counterexample", "--trunc", "3", "--eps", "0.5"]
    monkeypatch.setattr(sys, "argv", ["cstarframes", *argv])
    from_sys = main(), capsys.readouterr()
    assert (from_sys[0], from_sys[1].out, from_sys[1].err) == run(capsys, *argv)


# --- goldens of the counterexample and witness-certificate routes ---


@pytest.mark.parametrize("trunc, dim", [(4, 4), (12, 6), (8, 8), (12, 12)])
@pytest.mark.parametrize("eps", ["0.25", "0.8731"])
def test_counterexample_golden(capsys, tmp_path, trunc, dim, eps):
    out_file = tmp_path / "cert.json"
    code, out, err = run(
        capsys, "counterexample", "--trunc", str(trunc), "--dim", str(dim),
        "--eps", eps, "--out", str(out_file),
    )
    stem = f"counterexample_{trunc}_{dim}_{eps}"
    assert (code, err) == (1, "")
    assert out == (GOLDEN / f"{stem}.csv").read_text()
    assert out_file.read_bytes() == (GOLDEN / f"{stem}.json").read_bytes()


def _scaled_basis_sample_file(tmp_path, shape_dims, dim, scale):
    shape = AlgebraShape(shape_dims)
    points = tuple(ModuleVector.basis(shape, dim, i) * scale for i in range(dim))
    path = tmp_path / "scaled_gens.json"
    path.write_bytes(serialize(SampleSet(points, label="scaled basis")))
    return str(path)


@pytest.mark.parametrize(
    "gens, eps, golden, two_eps_ok",
    [
        # the test_precompact_free inputs
        (lambda p: _basis_sample_file(p, (1, 1, 1), 4), "1e-6", "free_sample_planted.json", True),
        # generators off orthonormal by 2^-32 (within GRAM_DEFECT_ATOL): every point lies
        # in their span, but P = sum theta_{g,g} scales it by (1 + 2^-33)^2, past 2*eps
        (lambda p: _scaled_basis_sample_file(p, (1, 1, 1), 4, 1.0 + 2.0**-33), "1e-11",
         "free_sample_planted_scaled.json", False),
    ],
)
def test_precompact_free_golden(capsys, tmp_path, gens, eps, golden, two_eps_ok):
    out_file = tmp_path / "cert.json"
    code, out, err = run(
        capsys, "precompact", "--condition", "free",
        "--sample", fx("sample_planted.json"), "--gens", gens(tmp_path), "--eps", eps,
        "--out", str(out_file),
    )
    assert (code, out, err) == (0, "", "")
    assert out_file.read_bytes() == (GOLDEN / golden).read_bytes()
    assert json.loads(out_file.read_bytes())["diagnostics"]["two_eps_ok"] is two_eps_ok


def test_precompact_witnesses_with_generator_golden(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, err = run(
        capsys, "precompact", "--condition", "all",
        "--sample", fx("sample_witnesses_6.json"), "--gens", fx("generator_6.json"),
        "--eps", "0.4", "--rank-budget", "5", "--out", str(out_file),
    )
    assert (code, out, err) == (1, "", "")
    assert out_file.read_bytes() == (GOLDEN / "all_sample_witnesses_6.json").read_bytes()


# --- dual of a frame with large bounds ---


def _scaled(value, factor):
    return [_scaled(v, factor) for v in value] if isinstance(value, list) else value * factor


def test_dual_of_a_rescaled_frame_is_written(capsys, tmp_path):
    """The dual is not validated again, so a large frame bound cannot reject it."""
    doc = json.loads((FIXTURES / "frame_random.json").read_bytes())
    doc["vectors"] = _scaled(doc["vectors"], 1e5)
    frame_file = tmp_path / "scaled.json"
    frame_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "dual", str(frame_file))
    assert (code, err) == (0, "")
    frame = parse("frame", frame_file.read_bytes())
    assert frame.bounds[0] > 1e10
    written = json.loads(out)
    assert written["spanning"] == frame.spanning and written["shape"] == doc["shape"]
    expected = [json.loads(serialize(g))["coords"] for g in frame.canonical_dual()]
    assert written["vectors"] == expected


def test_frame_whose_gram_overflows_is_data_error(capsys, tmp_path):
    """Finite entries of 1e200 overflow the gram of block 0: refused, with no warning."""

    def coords(*pairs):
        return [[[[[float(a), 0.0]]], [[[float(b), 0.0]]]] for a, b in pairs]

    frame, vector = tmp_path / "frame.json", tmp_path / "vector.json"
    frame.write_text(json.dumps({
        "kind": "frame", "version": 1, "shape": [1, 1], "spanning": "ambient",
        "vectors": [coords((1, 0), (0, 1)), coords((1e200, 1), (1e200, 1)), coords((0, 0), (1, 1))],
    }))
    vector.write_text(json.dumps({
        "kind": "vector", "version": 1, "shape": [1, 1], "coords": coords((0, 1), (0, 1)),
    }))
    for argv in (["frame-bounds", str(frame)], ["dual", str(frame)],
                 ["reconstruct", str(frame), str(vector)]):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "cstarframes: error: $.vectors: the gram of block 0 is not finite: " \
            "the family's entries overflow\n"
        assert seen == []


def test_system_whose_gram_overflows_is_data_error(capsys, tmp_path):
    """A system entry of 1e200 overflows its block's gram: slack -inf, with no warning."""
    doc = json.loads((FIXTURES / "seminorm_spec.json").read_text())
    doc["system"][0][0][0][0][0][0] = 1e200
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "seminorm", str(spec), fx("sample_planted.json"))
    assert (code, out) == (1, "")
    assert err == "cstarframes: error: $.system: system is not admissible " \
        "(max norm 1e+200, gram slack -inf)\n"
    assert seen == []


def _huge_generators(shape, dim, count, seed):
    """Generator points whose real and imaginary parts are +-(1 to 1.9) * 2^510, signs at random."""
    rng = random.Random(seed)

    def cell():
        return [rng.choice((-1, 1)) * rng.uniform(1.0, 1.9) * 2.0**510 for _ in range(2)]

    return [
        [[[[cell() for _ in range(n)] for _ in range(n)] for n in shape] for _ in range(dim)]
        for _ in range(count)
    ]


@pytest.mark.parametrize("shape, dim, count, seed", [((3,), 2, 1, 0), ((1, 1, 3), 3, 2, 3)])
def test_free_check_refuses_an_overflowing_gram_before_any_svd(tmp_path, shape, dim, count, seed):
    """Generators near 2^510 have finite norms but an overflowing gram: one error line, fd 1 empty.

    An SVD of the gram's NaN entries makes LAPACK write DLASCL complaints
    to the process's C-level stdout, and on the second draw it ends in
    "SVD did not converge"; so the command runs in a fresh interpreter,
    whose fd 1 is read whole.
    """
    gens, empty = tmp_path / "gens.json", tmp_path / "empty.json"
    gens.write_text(json.dumps({"version": 1, "kind": "sample_set", "shape": list(shape),
                                "points": _huge_generators(shape, dim, count, seed)}))
    empty.write_text(json.dumps({"version": 1, "kind": "sample_set", "shape": list(shape), "points": []}))
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "cstarframes.cli", "precompact", "--condition", "free",
         "--sample", str(empty), "--gens", str(gens), "--eps", "0.5"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
    )
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == b"cstarframes: error: generators are not orthonormal: gram defect nan\n"


# --- text that json cannot decode ---


@pytest.mark.parametrize(
    "text, reason",
    [
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ('{"version": 1, "kind": "frame", "shape": [1], "vectors": [[[[[' + "9" * 5000 + ", 0]]]]]}",
         "Exceeds the limit (4300 digits) for integer string conversion"),
    ],
    ids=["nesting", "long-integer"],
)
def test_undecodable_json_is_a_data_error_at_the_root(capsys, tmp_path, text, reason):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "frame-bounds", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("cstarframes: error: $: not valid JSON: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert reason in err


# --- the condition A radius of the equivalence runner ---


def test_precompact_all_names_the_condition_a_radius_that_underflows(capsys):
    code, out, err = run(
        capsys, "precompact", "--condition", "all", "--sample", fx("sample_planted.json"),
        "--eps", "5e-324",
    )
    assert (code, out) == (1, "")
    assert err == (
        "cstarframes: error: the condition A radius eps*c1/(3*c2) = 0.0 at eps = 5e-324 "
        "(c1 = 1.0, c2 = 1.0) is not a finite positive number\n"
    )


# --- parsed families go through the public constructors ---


@pytest.mark.parametrize(
    "argv",
    [
        ("frame-bounds", fx("frame_random.json")),
        ("dual", fx("frame_random.json")),
        ("reconstruct", fx("frame_random.json"), fx("vector.json")),
        ("series", fx("operator.json"), "--frame", fx("frame_random.json")),
    ],
    ids=["frame-bounds", "dual", "reconstruct", "series"],
)
def test_a_parsed_frame_is_built_through_frame_init_once(capsys, monkeypatch, argv):
    """The benchmark's frames.build span wraps Frame.__init__; a parsed frame must pass through it."""
    calls = []
    init = Frame.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Frame, "__init__", counted)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(calls) == 1


def test_precompact_all_builds_no_vector_for_its_generators(capsys, monkeypatch, tmp_path):
    from cstarframes import cli

    loaded = {}
    load = cli._load

    def keep(kind, path):
        loaded[path] = load(kind, path)
        return loaded[path]

    monkeypatch.setattr(cli, "_load", keep)
    out_file = tmp_path / "report.json"
    code, out, err = run(
        capsys, "precompact", "--condition", "all",
        "--sample", fx("sample_witnesses_6.json"), "--gens", fx("generator_6.json"),
        "--eps", "0.4", "--rank-budget", "5", "--out", str(out_file),
    )
    assert (code, out, err) == (1, "", "")
    assert out_file.read_bytes() == (GOLDEN / "all_sample_witnesses_6.json").read_bytes()
    gens = loaded[fx("generator_6.json")]
    assert isinstance(gens, SampleSet) and len(gens) == 1
    assert "points" not in vars(gens)


# --- the cyclic collector, paused while a command runs ---


@pytest.fixture
def collector():
    """Restores the collector's state and callbacks after the test."""
    enabled = gc.isenabled()
    callbacks = list(gc.callbacks)
    yield
    gc.callbacks[:] = callbacks
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("frame-bounds", fx("parseval.json")), 0),
        (("frame-bounds", fx("vector.json")), 1),
        (("frame-bounds", fx("absent.json")), 1),
        (("precompact", "--condition", "cd", "--sample", fx("sample_witnesses_5_5.json"),
          "--eps", "0.5", "--rank-budget", "2"), 2),
        (("precompact", "--condition", "a", "--sample", fx("sample_planted.json"), "--eps", "0.5"), 64),
        (("frobnicate",), 64),
        ((), 64),
    ],
)
def test_main_leaves_the_collector_as_it_found_it(capsys, collector, enabled, argv, exit_code):
    gc.enable() if enabled else gc.disable()
    assert run(capsys, *argv)[0] == exit_code
    assert gc.isenabled() is enabled


def test_a_command_that_raises_leaves_the_collector_enabled(collector, monkeypatch):
    def broken(args):
        assert not gc.isenabled()
        raise RuntimeError("broken command")

    monkeypatch.setitem(cli._COMMANDS, "frame-bounds", broken)
    gc.enable()
    with pytest.raises(RuntimeError, match="broken command"):
        main(["frame-bounds", fx("parseval.json")])
    assert gc.isenabled()


def _net_job_files(tmp_path):
    """A net job the size of a benchmark one: 64 points of A^3 over (1, 2, 3), 3 states."""
    shape, dim = AlgebraShape((1, 2, 3)), 3
    rng = np.random.default_rng(17)
    system = AdmissibleSystem(tuple(ModuleVector.basis(shape, dim, j) * 0.5 for j in range(dim)))
    spec = SeminormSpec(system, tuple(random_state(shape, rng) for _ in range(dim)))
    sample = SampleSet(tuple(random_unit_vector(shape, dim, rng) for _ in range(64)))
    (tmp_path / "spec.json").write_bytes(serialize(spec))
    (tmp_path / "sample.json").write_bytes(serialize(sample))
    return str(tmp_path / "sample.json"), str(tmp_path / "spec.json")


def test_a_net_job_makes_no_collector_pass(capsys, collector, tmp_path):
    """Decoding 64 points allocates thousands of lists: enough for several passes if GC ran."""
    sample, spec = _net_job_files(tmp_path)
    gc.enable()
    gc.collect()  # empties generation 0, so parsing the arguments cannot fill it
    passes = []
    gc.callbacks.append(lambda phase, info: phase == "start" and passes.append(info["generation"]))
    code, out, _ = run(capsys, "net", sample, spec, "--eps", "0.5")
    assert code == 0 and out.startswith("net_index\n0\n")
    assert passes == []


@pytest.mark.parametrize(
    "argv",
    [
        ("frame-bounds", fx("frame_random.json")),
        ("dual", fx("frame_range.json")),
        ("dual", fx("frame_random.json"), "--out", "{tmp}/dual.json"),
        ("reconstruct", fx("frame_random.json"), fx("vector.json")),
        ("seminorm", fx("seminorm_spec.json"), fx("sample_planted.json")),
        ("net", fx("sample_planted.json"), fx("seminorm_spec.json"), "--eps", "0.5"),
        ("precompact", "--condition", "a", "--sample", fx("sample_planted.json"),
         "--gens", "{gens}", "--eps", "1e-6"),
        ("precompact", "--condition", "b", "--sample", fx("sample_witnesses_6.json"), "--eps", "0.5"),
        ("precompact", "--condition", "cd", "--sample", fx("sample_witnesses_5_5.json"),
         "--eps", "0.5", "--rank-budget", "2"),
        ("precompact", "--condition", "all", "--sample", fx("sample_planted.json")),
        ("precompact", "--condition", "free", "--sample", fx("sample_planted.json"),
         "--gens", "{gens}", "--eps", "1e-6"),
        ("series", fx("operator.json"), "--frame", fx("frame_random.json")),
        ("counterexample", "--trunc", "8", "--eps", "0.25", "--out", "{tmp}/cert.json"),
        ("net", fx("sample_planted.json"), fx("seminorm_spec.json"), "--eps", "nan"),
        ("frame-bounds", fx("vector.json")),
        ("frame-bounds", "{tmp}/absent.json"),
    ],
)
def test_a_command_leaves_no_cyclic_garbage(capsys, collector, tmp_path, argv):
    """Reference counting frees all a command builds, so pausing the collector costs no memory."""
    gens = _basis_sample_file(tmp_path, (1, 1, 1), 4)
    argv = [a.format(tmp=tmp_path, gens=gens) for a in argv]
    gc.disable()
    gc.collect()
    run(capsys, *argv)
    assert gc.collect() == 0


def test_cd_along_a_frame_scans_the_whole_frame_by_default(capsys, monkeypatch, tmp_path):
    """With --frame and no --rank-budget, C/D runs through the frame's size, not the module dimension.

    On tools/reach.py's sample of frame_random.json's module (dim 2, 4
    frame vectors) the scan needs all four pairs to reach eps 0.5.
    """
    monkeypatch.setattr(sys, "path", [str(TOOLS), *sys.path])
    import reach

    sample = reach._frame_sample(FIXTURES / "frame_random.json", tmp_path / "module.json")
    argv = ("precompact", "--condition", "cd", "--sample", sample, "--frame", fx("frame_random.json"),
            "--eps", "0.5")
    code, out, err = run(capsys, *argv)
    doc = json.loads(out)
    assert (code, err, doc["witness"]) == (0, "", {"rank": 4})
    assert doc["diagnostics"]["best_error"] < 1e-14
    assert run(capsys, *argv, "--rank-budget", "4") == (code, out, err)
    code, out, _ = run(capsys, *argv, "--rank-budget", "2")
    assert (code, json.loads(out)["witness"]) == (2, {"rank_budget": 2})


def test_every_malformed_input_of_the_reach_list_is_refused_at_a_path(capsys, tmp_path):
    """Each fault input of tools/reach.py still reaches a refusal: exit 1 and the JSON path at fault.

    tools/bytediff.py compares the stderr of these commands between two
    trees; an input that stopped reaching its refusal would compare
    nothing.
    """
    sys.path.insert(0, str(TOOLS))
    try:
        import reach
    finally:
        sys.path.remove(str(TOOLS))
    bad = set(reach._malformed(tmp_path).values())
    cmds = [argv for argv in reach.fixture_commands(tmp_path) if bad & set(argv)]
    assert {arg for argv in cmds for arg in argv} >= bad
    for argv in cmds:
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("cstarframes: error: $"), (argv, err)
