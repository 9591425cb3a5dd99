"""Schema round trips, strictness, and the shipped fixture corpus."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_shape, random_state, random_vector
from cstarframes import (
    AlgebraElement,
    AlgebraShape,
    Frame,
    ModuleVector,
    SampleSet,
    SchemaError,
    State,
    build_setting,
    parse,
    serialize,
    standard_basis_frame,
    tail_obstruction,
)
from cstarframes.serialization import document

FIXTURES = Path(__file__).parent / "fixtures"

FIXTURE_KINDS = {
    "shape.json": "shape",
    "element.json": "element",
    "state.json": "state",
    "vector.json": "vector",
    "vector_c3.json": "vector",
    "operator.json": "operator",
    "parseval.json": "frame",
    "frame_random.json": "frame",
    "frame_range.json": "frame",
    "sample_planted.json": "sample_set",
    "sample_witnesses_5_5.json": "sample_set",
    "seminorm_spec.json": "seminorm_spec",
    "setting_8_8.json": "setting",
}


@pytest.mark.parametrize("name,kind", sorted(FIXTURE_KINDS.items()))
def test_fixture_round_trip_bytes(name, kind):
    raw = (FIXTURES / name).read_bytes()
    value = parse(kind, raw)
    assert serialize(value) == raw


def test_round_trip_random_values(rng):
    shape = random_shape(rng)
    values = [
        shape,
        random_vector(shape, 3, rng),
        random_state(shape, rng),
        SampleSet(tuple(random_vector(shape, 2, rng) for _ in range(3)), label="x"),
    ]
    kinds = ["shape", "vector", "state", "sample_set"]
    for kind, value in zip(kinds, values):
        data = serialize(value)
        assert serialize(parse(kind, data)) == data


def test_setting_fixture_reproduces_obstruction():
    setting = parse("setting", (FIXTURES / "setting_8_8.json").read_bytes())
    assert setting.trunc == 8 and setting.dim == 8
    for n in range(8):
        assert tail_obstruction(setting, n) == pytest.approx(1.0, abs=1e-12)


def test_wrong_version_rejected():
    doc = document(AlgebraShape((1,)))
    doc["version"] = 2
    with pytest.raises(SchemaError, match=r"\$\.version"):
        parse("shape", json.dumps(doc))


def test_wrong_kind_rejected():
    data = serialize(AlgebraShape((1,)))
    with pytest.raises(SchemaError, match=r"\$\.kind"):
        parse("vector", data)


def test_unknown_field_rejected():
    doc = document(AlgebraShape((1, 2)))
    doc["extra"] = True
    with pytest.raises(SchemaError, match="unknown field"):
        parse("shape", json.dumps(doc))


def test_unknown_entity_kind():
    with pytest.raises(SchemaError, match="unknown entity kind"):
        parse("certificate", b"{}")


def test_malformed_json():
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse("shape", b"{nope")


def test_bad_density_names_state_index():
    spec_doc = json.loads((FIXTURES / "seminorm_spec.json").read_bytes())
    # double every entry of the second state's first density block
    bad = spec_doc["states"][1]
    bad[0][0][0] = [2.0, 0.0]
    with pytest.raises(SchemaError, match=r"\$\.states\[1\]"):
        parse("seminorm_spec", json.dumps(spec_doc))


def test_non_finite_scalar_rejected():
    doc = document(AlgebraShape((1,)))
    element_doc = {
        "version": 1,
        "kind": "element",
        "shape": [1],
        "blocks": [[[[math.inf, 0.0]]]],
    }
    with pytest.raises(SchemaError, match="non-finite"):
        parse("element", json.dumps(element_doc))


def test_non_finite_serialize_rejected():
    shape = AlgebraShape((1,))
    bad = AlgebraElement(shape, (np.array([[np.inf]], dtype=complex),))
    with pytest.raises(ValueError):
        serialize(bad)


def test_complex_pair_length_checked():
    element_doc = {
        "version": 1,
        "kind": "element",
        "shape": [1],
        "blocks": [[[[1.0]]]],
    }
    with pytest.raises(SchemaError, match="complex scalar"):
        parse("element", json.dumps(element_doc))


def test_ragged_operator_rejected():
    shape_payload = [1]
    zero = [[[[0.0, 0.0]]]]
    doc = {
        "version": 1,
        "kind": "operator",
        "shape": shape_payload,
        "entries": [[zero, zero], [zero]],
    }
    with pytest.raises(SchemaError, match="ragged"):
        parse("operator", json.dumps(doc))


def test_degenerate_frame_rejected_at_parse():
    e1 = ModuleVector.basis(AlgebraShape((1, 1)), 2, 0)
    doc = document(standard_basis_frame(AlgebraShape((1, 1)), 2))
    doc["vectors"] = [doc["vectors"][0]]  # drop e2: no longer spans
    with pytest.raises(SchemaError, match=r"\$\.vectors"):
        parse("frame", json.dumps(doc))


def test_setting_invariant_checked_at_parse():
    doc = {"version": 1, "kind": "setting", "trunc": 3, "dim": 9}
    with pytest.raises(SchemaError, match=r"\$\.dim"):
        parse("setting", json.dumps(doc))


@pytest.mark.parametrize(
    "trunc, dim, path, message",
    [
        (0, 1, "$.trunc", "at least 1"),
        (171, 1, "$.trunc", "exceeds 170"),
        (4, 5, "$.dim", "1 <= dim <= trunc=4"),
    ],
)
def test_setting_errors_name_the_offending_field(trunc, dim, path, message):
    doc = {"version": 1, "kind": "setting", "trunc": trunc, "dim": dim}
    with pytest.raises(SchemaError) as err:
        parse("setting", json.dumps(doc))
    assert err.value.path == path
    assert message in str(err.value)


def test_mixed_point_dims_rejected():
    shape = AlgebraShape((1,))
    doc_a = document(SampleSet((ModuleVector.basis(shape, 2, 0),)))
    doc_b = document(SampleSet((ModuleVector.basis(shape, 3, 0),)))
    doc_a["points"].append(doc_b["points"][0])
    with pytest.raises(SchemaError, match="mixed module dimensions"):
        parse("sample_set", json.dumps(doc_a))


def test_empty_sample_set_not_serializable():
    with pytest.raises(ValueError, match="empty sample set"):
        serialize(SampleSet(()))


def test_certificate_documents_are_deterministic(rng):
    from cstarframes import CertifyConfig, certify_equivalences

    shape = AlgebraShape((1, 1))
    pts = tuple(
        ModuleVector.basis(shape, 3, 0) * complex(v)
        for v in (0.1, 0.2, 0.3)
    )
    sample = SampleSet(pts)
    r1 = certify_equivalences(sample, CertifyConfig(eps_grid=(0.5,), seed=7))
    r2 = certify_equivalences(sample, CertifyConfig(eps_grid=(0.5,), seed=7))
    assert serialize(r1) == serialize(r2)
