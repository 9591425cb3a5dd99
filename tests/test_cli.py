"""End-to-end CLI coverage: every subcommand, exit code, and output format."""

import json
import re
import warnings
from pathlib import Path

import pytest

from cstarframes import (
    AlgebraShape,
    Frame,
    ModuleVector,
    SampleSet,
    parse,
    serialize,
    theta_op,
)
from cstarframes.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


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
    code, _, err = run(capsys, "reconstruct", fx("parseval.json"), fx("vector_c3.json"))
    assert code == 1
    assert "different modules" in err


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
            "--seed", "3", "--out", str(out_file),
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_bytes())
    assert doc["kind"] == "equivalence_report"
    assert doc["entries"][0]["violations"] == []


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
    """One batched tail pass over the witnesses serves the tail table and condition B."""
    calls = {"tail_profile": 0, "tail_profiles": 0}
    for name in calls:
        original = getattr(Frame, name)

        def counted(self, arg, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, arg)

        monkeypatch.setattr(Frame, name, counted)
    out_file = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "counterexample", "--trunc", "6", "--eps", "0.25", "--out", str(out_file)
    )
    assert code == 1
    assert calls == {"tail_profile": 0, "tail_profiles": 1}
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
    assert code == 1
    assert err == "cstarframes: error: eps must be a finite positive number\n"
    assert "inf" not in out and "pass" not in out


@pytest.mark.parametrize("condition", ["a", "free"])
def test_bad_eps_with_generators_is_data_error(capsys, tmp_path, condition):
    gens = _basis_sample_file(tmp_path, (1, 1, 1), 4)
    code, out, err = run(
        capsys, "precompact", "--condition", condition,
        "--sample", fx("sample_planted.json"), "--gens", gens, "--eps", "nan",
    )
    assert (code, out) == (1, "")
    assert "finite positive" in err


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


# --- the parser ---


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from cstarframes import cli

    sample = fx("sample_planted.json")
    cli._build_parser.cache_clear()
    first = run(capsys, "precompact", "--condition", "all", "--sample", sample,
                "--eps", "0.5", "--seed", "3")
    second = run(capsys, "precompact", "--condition", "all", "--sample", sample)
    assert cli._build_parser.cache_info().misses == 1
    assert json.loads(first[1])["seed"] == 3
    doc = json.loads(second[1])
    assert doc["seed"] == 0
    assert [e["eps"] for e in doc["entries"]] == [1.0, 0.5, 0.25, 0.125]
    cli._build_parser.cache_clear()
    assert run(capsys, "precompact", "--condition", "all", "--sample", sample) == second


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
