"""Schema round trips, strictness, and the shipped fixture corpus."""

import ast
import collections
import dataclasses
import datetime
import enum
import json
import math
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_shape, random_state, random_vector
from cstarframes import (
    AdmissibleSystem,
    AlgebraElement,
    AlgebraShape,
    Frame,
    ModuleVector,
    SampleSet,
    SchemaError,
    SeminormSpec,
    State,
    build_setting,
    parse,
    serialize,
    standard_basis_frame,
)
from cstarframes import serialization

FIXTURES = Path(__file__).parent / "fixtures"
CLI = Path(serialization.__file__).with_name("cli.py")

# Every fixture document with the kind it names.
FIXTURE_KINDS = {
    path.name: json.loads(path.read_bytes())["kind"] for path in sorted(FIXTURES.glob("*.json"))
}


@pytest.mark.parametrize("name,kind", sorted(FIXTURE_KINDS.items()))
def test_fixture_round_trip_bytes(name, kind):
    raw = (FIXTURES / name).read_bytes()
    value = parse(kind, raw)
    assert serialize(value) == raw


def test_parse_reads_exactly_the_kinds_the_cli_loads(rng):
    calls = [
        node
        for node in ast.walk(ast.parse(CLI.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_load"
    ]
    assert calls and all(isinstance(call.args[0], ast.Constant) for call in calls)
    assert {call.args[0].value for call in calls} == set(serialization._PARSERS)
    shape = AlgebraShape((1, 2))
    for value in (shape, AlgebraElement.zero(shape), random_state(shape, rng), build_setting(3)):
        with pytest.raises(TypeError, match=f"no schema for {type(value).__name__}"):
            serialize(value)


def test_round_trip_random_values(rng):
    shape = random_shape(rng)
    system = AdmissibleSystem(tuple(ModuleVector.basis(shape, 2, j) * 0.5 for j in range(2)))
    values = {
        "vector": random_vector(shape, 3, rng),
        "sample_set": SampleSet(tuple(random_vector(shape, 2, rng) for _ in range(3)), label="x"),
        "seminorm_spec": SeminormSpec(system, tuple(random_state(shape, rng) for _ in range(2))),
    }
    for kind, value in values.items():
        data = serialize(value)
        assert serialize(parse(kind, data)) == data


@pytest.mark.parametrize("version", [True, 1.0, 2, "1"])
def test_wrong_version_rejected(version):
    # True and 1.0 compare equal to 1, but only the integer 1 is version 1
    doc = json.loads((FIXTURES / "vector.json").read_bytes())
    doc["version"] = version
    with pytest.raises(SchemaError) as err:
        parse("vector", json.dumps(doc))
    assert str(err.value) == f"$.version: unsupported schema version {version!r}"


def test_wrong_kind_rejected():
    data = (FIXTURES / "vector.json").read_bytes()
    with pytest.raises(SchemaError, match=r"\$\.kind"):
        parse("sample_set", data)


def test_unknown_field_rejected():
    doc = json.loads((FIXTURES / "vector.json").read_bytes())
    doc["extra"] = True
    with pytest.raises(SchemaError, match="unknown field"):
        parse("vector", json.dumps(doc))


def test_unknown_entity_kind():
    with pytest.raises(SchemaError, match="unknown entity kind"):
        parse("certificate", b"{}")


@pytest.mark.parametrize("kind", ["shape", "element", "state", "setting"])
def test_retired_kinds_are_unknown(kind):
    doc = json.dumps({"version": 1, "kind": kind})
    with pytest.raises(SchemaError) as err:
        parse(kind, doc)
    assert (err.value.path, str(err.value)) == ("$", f"$: unknown entity kind {kind!r}")
    with pytest.raises(SchemaError, match=rf"^\$\.kind: expected kind 'vector', found {kind!r}$"):
        parse("vector", doc)


def test_malformed_json():
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse("vector", b"{nope")


def test_bad_density_names_state_index():
    spec_doc = json.loads((FIXTURES / "seminorm_spec.json").read_bytes())
    # double every entry of the second state's first density block
    bad = spec_doc["states"][1]
    bad[0][0][0] = [2.0, 0.0]
    with pytest.raises(SchemaError, match=r"\$\.states\[1\]"):
        parse("seminorm_spec", json.dumps(spec_doc))


def test_non_finite_scalar_rejected():
    vector_doc = {
        "version": 1,
        "kind": "vector",
        "shape": [1],
        "coords": [[[[[math.inf, 0.0]]]]],
    }
    with pytest.raises(SchemaError, match="non-finite"):
        parse("vector", json.dumps(vector_doc))


def test_non_finite_serialize_rejected():
    shape = AlgebraShape((1,))
    bad = ModuleVector._packed(shape, 1, (np.array([[[np.inf]]], dtype=complex),))
    with pytest.raises(ValueError):
        serialize(bad)


def test_complex_pair_length_checked():
    vector_doc = {
        "version": 1,
        "kind": "vector",
        "shape": [1],
        "coords": [[[[[1.0]]]]],
    }
    with pytest.raises(SchemaError, match="complex scalar"):
        parse("vector", json.dumps(vector_doc))


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
    doc = json.loads(serialize(standard_basis_frame(AlgebraShape((1, 1)), 2)))
    doc["vectors"] = [doc["vectors"][0]]  # drop e2: no longer spans
    with pytest.raises(SchemaError, match=r"\$\.vectors"):
        parse("frame", json.dumps(doc))


def test_mixed_point_dims_rejected():
    shape = AlgebraShape((1,))
    doc_a = json.loads(serialize(SampleSet((ModuleVector.basis(shape, 2, 0),))))
    doc_b = json.loads(serialize(SampleSet((ModuleVector.basis(shape, 3, 0),))))
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
    r1 = certify_equivalences(sample, CertifyConfig(eps_grid=(0.5,)))
    r2 = certify_equivalences(sample, CertifyConfig(eps_grid=(0.5,)))
    assert serialize(r1) == serialize(r2)


def _tag_writes(tree) -> list[int]:
    """Lines that write a "version" or "kind" key: a dict display, a subscript store, or dict(...)."""
    tags = {"version", "kind"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys = [node.slice.value] if isinstance(node.slice, ast.Constant) else []
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            keys = [k.arg for k in node.keywords]
        else:
            continue
        lines += [node.lineno] * len(tags.intersection(keys))
    return lines


def test_the_tag_scan_sees_every_way_of_writing_a_key():
    source = 'a = {"kind": 1, "x": 2}\nb["version"] = 2\nc = dict(kind=3)\nd = e["kind"]\nf = {"kinds": 0}\n'
    assert _tag_writes(ast.parse(source)) == [1, 2, 3]


def test_only_serialization_writes_a_version_or_kind_key():
    """One writer for every document kind: certify's results are records that `document` writes."""
    package = CLI.parent
    found = {
        path.name: _tag_writes(ast.parse(path.read_text()))
        for path in sorted(package.glob("*.py"))
    }
    assert found.pop("serialization.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
    certify_source = ast.parse((package / "certify.py").read_text())
    assert not [n for n in ast.walk(certify_source) if getattr(n, "name", None) == "to_json_dict"]


def test_a_value_of_no_kind_has_no_schema():
    with pytest.raises(TypeError, match=r"^no schema for object$"):
        serialization.document(object())


# -- the canonical writer -----------------------------------------------------

GOLDEN_JSON = sorted((FIXTURES / "golden").glob("*.json"))


def _default_bytes(doc) -> bytes:
    """The canonical bytes as the default encoder, with its cycle check, writes them."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.glob("*.json")) + GOLDEN_JSON, ids=lambda p: p.parent.name + "/" + p.name
)
def test_writer_bytes_equal_the_default_encoder_on_every_document(path):
    raw = path.read_bytes()
    doc = json.loads(raw)
    assert serialize(doc) == _default_bytes(doc) == raw


json_leaves = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)
json_trees = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(doc=st.dictionaries(st.text(max_size=3), json_trees, max_size=5))
def test_writer_bytes_equal_the_default_encoder_on_drawn_documents(doc):
    assert serialize(doc) == _default_bytes(doc)


@pytest.mark.parametrize("where", ["top", "list", "dict"])
def test_a_document_that_contains_itself_is_a_value_error(where):
    doc = {"version": 1, "kind": "certificate"}
    if where == "top":
        doc["self"] = doc
    elif where == "list":
        doc["rows"] = [[0.5, -0.0], doc]
    else:
        doc["witness"] = {"inner": {"back": doc}}
    with pytest.raises(ValueError, match="contains itself"):  # not a RecursionError
        serialize(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [("x",), ("rows", 1, 0), ("deep", "a", 0, "b")])
def test_a_non_finite_float_anywhere_is_a_value_error(bad, where):
    doc = {"x": 1.0, "rows": [[0.5], [0.25, 2.0]], "deep": {"a": [{"b": 3.0}]}}
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = bad
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        serialize(doc)


# -- the one-pass decode ------------------------------------------------------

finite_parts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.integers(-(2**64), 2**64),
    st.sampled_from([0, -1, 10**300, -(10**300), 2**53 + 1, 2**1023, 2**1024 - 2**971, 2**1024 - 2**970 - 1]),
)


@st.composite
def element_payloads(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    count = draw(st.integers(1, 4))
    payloads = [
        [
            [[[draw(finite_parts), draw(finite_parts)] for _ in range(n)] for _ in range(n)]
            for n in dims
        ]
        for _ in range(count)
    ]
    return AlgebraShape(tuple(dims)), payloads


def cell_by_cell(payload) -> list[np.ndarray]:
    """The blocks of a well-formed element payload, each cell complex(re, im): the decode's reference."""
    return [np.array([[complex(re, im) for re, im in row] for row in block], dtype=complex) for block in payload]


@settings(max_examples=200, deadline=None)
@given(case=element_payloads())
def test_decode_equals_the_walk_bit_for_bit(case):
    shape, payloads = case
    stacks = serialization._decode_blocks(payloads, shape)
    walked = [cell_by_cell(e) for e in payloads]
    assert stacks is not None
    for stack, (_, ks) in zip(stacks, shape.classes):
        assert stack.dtype == complex
        for j, k in enumerate(ks):
            assert stack[j].tobytes() == np.array([w[k] for w in walked]).tobytes()
    as_floats = [
        [[[[float(p) for p in cell] for cell in row] for row in block] for block in e]
        for e in payloads
    ]
    # the payloads as the coordinates of one vector
    out = json.loads(serialize(serialization.parse_vector_payload(payloads, shape, "$")))["coords"]
    assert json.dumps(out) == json.dumps(as_floats)  # "-0.0" keeps its sign


def _mutate(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    key = path[-1]
    if value == "FIRST_BLOCK_ONLY":
        target[key] = target[key][:1]
    elif value == "DROP_LAST":
        target[key] = target[key][:-1]
    elif value in ("EXTRA_COORD", "ADD_ENTRY"):
        target[key] = target[key] + [target[key][0]]
    else:
        target[key] = value


# Each malformed document and the exact message the per-cell walk gave for
# it before the one-pass decode existed.  Several documents carry two
# faults; the first in document order is the one named.  A row whose
# mutation is bytes replaces the whole document with them.
SCHEMA_ERRORS = [
    ("vector.json", [(("coords", 1, 1, 0, 1, 0), True)], "$.coords[1][1][0][1][0]: expected a number, found True"),
    ("vector.json", [(("coords", 0, 1, 1, 0, 1), "1.5")], "$.coords[0][1][1][0][1]: expected a number, found '1.5'"),
    ("vector.json", [(("coords", 0, 1, 0, 0), [1.0])], "$.coords[0][1][0][0]: complex scalar needs [re, im], found 1 entries"),
    ("vector.json", [(("coords", 1, 0, 0, 0), [1.0, 0.0, 0.0])], "$.coords[1][0][0][0]: complex scalar needs [re, im], found 3 entries"),
    ("vector.json", [(("coords", 0, 1, 1), [[1.0, 0.0]])], "$.coords[0][1][1]: expected 2 columns, found 1"),
    ("vector.json", [(("coords", 0, 1), [[[1.0, 0.0], [0.0, 0.0]]])], "$.coords[0][1]: expected 2 rows, found 1"),
    ("vector.json", [(("coords", 1), "FIRST_BLOCK_ONLY")], "$.coords[1]: expected 2 blocks, found 1"),
    ("vector.json", [(("coords", 1, 1, 1, 1, 0), math.nan)], "$.coords[1][1][1][1][0]: non-finite value nan"),
    ("vector.json", [(("coords", 0, 0, 0, 0, 1), math.inf)], "$.coords[0][0][0][0][1]: non-finite value inf"),
    ("vector.json", [(("coords", 1, 0, 0, 0, 0), -math.inf)], "$.coords[1][0][0][0][0]: non-finite value -inf"),
    ("vector.json", [(("coords", 0, 1, 0, 1), 1.0)], "$.coords[0][1][0][1]: expected an array, found float"),
    ("vector.json", [(("coords", 1, 1, 0, 0, 0), [1.0, 0.0])], "$.coords[1][1][0][0][0]: expected a number, found [1.0, 0.0]"),
    ("vector.json", [(("coords", 0, 1, 0), 5)], "$.coords[0][1][0]: expected an array, found int"),
    ("vector.json", [(("coords", 0, 0), "x")], "$.coords[0][0]: expected an array, found str"),
    ("vector.json", [(("coords", 1), {"a": 1})], "$.coords[1]: expected an array, found dict"),
    ("vector.json", [(("coords",), [])], "$.coords: module vector needs at least one coordinate"),
    ("vector.json", [(("coords",), 3)], "$.coords: expected an array, found int"),
    ("vector.json", [(("coords", 1, 1, 1, 0, 1), None)], "$.coords[1][1][1][0][1]: expected a number, found None"),
    ("vector.json", [(("coords", 0, 1, 1, 1, 1), math.inf)], "$.coords[0][1][1][1][1]: non-finite value inf"),
    ("vector.json", [(("coords", 0, 0, 0, 0), [0.5, 0.5, 0.5])], "$.coords[0][0][0][0]: complex scalar needs [re, im], found 3 entries"),
    ("seminorm_spec.json", [(("states", 0, 0, 0, 0, 0), True)], "$.states[0][0][0][0][0]: expected a number, found True"),
    ("seminorm_spec.json", [(("states", 1, 1), [[[1.0, 0.0]], [[0.0, 0.0]]])], "$.states[1][1]: expected 1 rows, found 2"),
    ("frame_random.json", [(("vectors", 2, 1, 1, 1, 0, 0), False)], "$.vectors[2][1][1][1][0][0]: expected a number, found False"),
    ("frame_random.json", [(("vectors", 3, 0, 0, 0, 0), [1.0])], "$.vectors[3][0][0][0][0]: complex scalar needs [re, im], found 1 entries"),
    ("frame_random.json", [(("vectors", 1), "EXTRA_COORD")], "$.vectors: mixed module dimensions [2, 3]"),
    ("frame_random.json", [(("vectors", 0), [])], "$.vectors[0]: module vector needs at least one coordinate"),
    ("frame_random.json", [(("vectors", 3, 1, 1, 1, 1), math.nan)], "$.vectors[3][1][1][1][1]: expected an array, found float"),
    ("operator.json", [(("entries", 1, 0, 1, 0, 0, 0), "x")], "$.entries[1][0][1][0][0][0]: expected a number, found 'x'"),
    ("operator.json", [(("entries", 1), "DROP_LAST")], "$.entries[1]: ragged row: expected 2 entries, found 1"),
    ("operator.json", [(("entries", 1), [])], "$.entries[1]: operator row is empty"),
    ("operator.json", [(("entries", 0, 1, 1, 1, 1, 1), math.inf)], "$.entries[0][1][1][1][1][1]: non-finite value inf"),
    ("sample_planted.json", [(("points", 4, 2, 1, 0, 0, 1), math.nan)], "$.points[4][2][1][0][0][1]: non-finite value nan"),
    ("sample_planted.json", [(("points", 5, 0, 2), [[[1.0, 0.0]], [[0.0, 0.0]]])], "$.points[5][0][2]: expected 1 rows, found 2"),
    ("sample_planted.json", [(("points", 3, 1, 0, 0, 0, 0), "0")], "$.points[3][1][0][0][0][0]: expected a number, found '0'"),
    ("seminorm_spec.json", [(("system", 2, 0, 0, 0, 0, 0), True)], "$.system[2][0][0][0][0][0]: expected a number, found True"),
    ("seminorm_spec.json", [(("states", 1, 0, 0, 0), "a")], "$.states[1][0][0][0]: expected an array, found str"),
    ("seminorm_spec.json", [(("states", 3), "FIRST_BLOCK_ONLY")], "$.states[3]: expected 3 density blocks, found 1"),
    ("sample_planted.json", [(("points", 2, 1, 0, 0, 0), "ab")], "$.points[2][1][0][0][0]: expected an array, found str"),
    ("vector.json", [(("coords", 0, 1, 1, 0), "re")], "$.coords[0][1][1][0]: expected an array, found str"),
    ("seminorm_spec.json", [(("states", 2, 1, 0, 0, 1), True)], "$.states[2][1][0][0][1]: expected a number, found True"),
    ("sample_planted.json", [(("points", 4, 3, 2, 0, 0, 0), False)], "$.points[4][3][2][0][0][0]: expected a number, found False"),
    ("frame_random.json", [(("vectors", 1, 0, 1, 1, 0), [[0.5, 0.0], [0.0, 0.5]])], "$.vectors[1][0][1][1][0][0]: expected a number, found [0.5, 0.0]"),
    ("seminorm_spec.json", [(("system", 1, 2, 0, 0, 0), [[0.5, 0.0], [0.0, 0.5]])], "$.system[1][2][0][0][0][0]: expected a number, found [0.5, 0.0]"),
    ("vector.json", [(("coords", 1, 1, 0), [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])], "$.coords[1][1][0]: expected 2 columns, found 3"),
    ("seminorm_spec.json", [(("states", 2, 0, 0), [[1.0, 0.0], [0.0, 0.0]])], "$.states[2][0][0]: expected 1 columns, found 2"),
    ("vector.json", [(("coords", 0, 1, 1, 1, 0), "y"), (("coords", 1, 0, 0, 0, 0), True)], "$.coords[0][1][1][1][0]: expected a number, found 'y'"),
    ("frame_random.json", [(("vectors", 1), "EXTRA_COORD"), (("vectors", 2, 0, 0, 0, 0, 0), math.nan)], "$.vectors[2][0][0][0][0][0]: non-finite value nan"),
    ("frame_random.json", [(("vectors", 3, 1, 0, 0, 0), [1.0]), (("vectors", 1, 0, 1, 0, 1), True)], "$.vectors[1][0][1][0][1]: expected an array, found bool"),
    ("operator.json", [(("entries", 0, 1, 0, 0, 0, 1), "z"), (("entries", 1), "DROP_LAST")], "$.entries[0][1][0][0][0][1]: expected a number, found 'z'"),
    ("operator.json", [(("entries", 1), "ADD_ENTRY"), (("entries", 1, 0, 0, 0, 0, 0), True)], "$.entries[1]: ragged row: expected 2 entries, found 3"),
    ("seminorm_spec.json", [(("states", 0, 0, 0, 0, 0), True), (("system", 3, 0, 0, 0, 0, 0), True)], "$.system[3][0][0][0][0][0]: expected a number, found True"),
    ("frame_random.json", bytes.fromhex("fffe7b7d"), "$: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("seminorm_spec.json", [(("states",), [])], "$.states: need exactly one state per system element: 0 states for 4 vectors"),
    ("seminorm_spec.json", [(("states",), "DROP_LAST")], "$.states: need exactly one state per system element: 3 states for 4 vectors"),
    ("seminorm_spec.json", [(("states", 0, 2, 0, 0), [0.0, 0.5]), (("states", 2, 1, 0, 0, 1), True)], "$.states[0]: density 2 is not Hermitian"),
]


def _misplaced(path, width):
    """An object, a bool, a null and a string at `path` of vector.json, the object and string `width` long.

    The decode checks only lengths above the leaves: an object or string
    of the right length flattens to string leaves, which it must refuse.
    """
    where = "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
    for value in (dict.fromkeys(["re", "im"][:width], 0.0), True, None, "ab"[:width]):
        if len(path) == 6:
            message = f"{where}: expected a number, found {value!r}"
        else:
            message = f"{where}: expected an array, found {type(value).__name__}"
        yield ("vector.json", [(path, value)], message)


# vector.json has shape (1, 2): block 0 is 1x1, block 1 is 2x2.  Each
# nesting level: coordinate, block, row, cell, part.
SCHEMA_ERRORS += [
    row
    for path, width in [
        (("coords", 1), 2),
        (("coords", 0, 0), 1), (("coords", 1, 1), 2),
        (("coords", 1, 0, 0), 1), (("coords", 0, 1, 1), 2),
        (("coords", 0, 0, 0, 0), 2), (("coords", 1, 1, 0, 1), 2),
        (("coords", 1, 0, 0, 0, 1), 2), (("coords", 0, 1, 1, 0, 0), 2),
    ]
    for row in _misplaced(path, width)
]


@pytest.mark.parametrize("name, mutations, message", SCHEMA_ERRORS)
def test_malformed_payloads_keep_their_schema_errors(name, mutations, message):
    doc = json.loads((FIXTURES / name).read_bytes())
    if isinstance(mutations, bytes):
        data = mutations
    else:
        for path, value in mutations:
            _mutate(doc, path, value)
        data = json.dumps(doc)
    with pytest.raises(SchemaError) as err:
        parse(doc["kind"], data)
    assert str(err.value) == message


# One fault planted at one place of valid payloads: a bool, a string, [],
# a 3-entry scalar, a dropped item (a row, a cell, a block, ...), an
# integer past float range, or Infinity.
FAULTS = (True, "ab", [], [0.5, 0.5, 0.5], "DROP", 10**400, math.inf)


def _places(node, path=()):
    """The path of every item nested in a list of payloads."""
    for i, item in enumerate(node):
        yield path + (i,)
        if isinstance(item, list):
            yield from _places(item, path + (i,))


@st.composite
def faulty_payloads(draw):
    """(kind, shape, payloads): valid element, vector or state payloads with one fault planted."""
    kind = draw(st.sampled_from(["element", "vector", "state"]))
    shape = AlgebraShape(tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))))
    count = draw(st.integers(1, 3))

    def element():
        return [
            [[[draw(finite_parts), draw(finite_parts)] for _ in range(n)] for _ in range(n)]
            for n in shape.block_dims
        ]

    if kind == "state":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        states = [random_state(shape, rng) for _ in range(count)]
        payloads = [[np.stack((d.real, d.imag), -1).tolist() for d in phi.densities] for phi in states]
    elif kind == "vector":
        dim = draw(st.integers(1, 3))
        payloads = [[element() for _ in range(dim)] for _ in range(count)]
    else:
        payloads = [element() for _ in range(count)]
    path = draw(st.sampled_from(list(_places(payloads))))
    fault = draw(st.sampled_from(FAULTS))
    target = payloads
    for key in path[:-1]:
        target = target[key]
    if fault == "DROP":
        del target[path[-1]]
    else:
        target[path[-1]] = fault
    return kind, shape, payloads


@settings(max_examples=300, deadline=None)
@given(case=faulty_payloads())
def test_the_decode_refuses_exactly_what_the_walk_raises_on(case):
    """The walks build nothing, so every parsed value must come from a decode: they agree on every payload."""
    kind, shape, payloads = case
    decode = serialization._decode_family if kind == "vector" else serialization._decode_blocks
    try:
        if kind == "vector":
            serialization._walk_family(payloads, shape, "$")
        elif kind == "state":
            serialization._walk_states(payloads, shape, "$")
        else:
            for i, e in enumerate(payloads):
                serialization._walk_element(e, shape, f"$[{i}]")
    except SchemaError:
        assert decode(payloads, shape) is None
    else:
        assert decode(payloads, shape) is not None


def test_valid_documents_never_take_the_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("a valid payload was walked cell by cell")

    monkeypatch.setattr(serialization, "_matrix_in", refuse)
    monkeypatch.setattr(serialization, "_walk_element", refuse)
    for name, kind in FIXTURE_KINDS.items():
        assert serialize(parse(kind, (FIXTURES / name).read_bytes())) == (FIXTURES / name).read_bytes()


# -- packed family documents --------------------------------------------------


def test_parsed_families_keep_the_decoded_stack():
    sample = parse("sample_set", (FIXTURES / "sample_planted.json").read_bytes())
    frame = parse("frame", (FIXTURES / "frame_random.json").read_bytes())
    spec = parse("seminorm_spec", (FIXTURES / "seminorm_spec.json").read_bytes())
    families = [
        ("sample_planted.json", "points", sample, "points", sample.realizations),
        ("frame_random.json", "vectors", frame._family, "points", frame._family.realizations),
        ("seminorm_spec.json", "system", spec._system, "points", spec._system.realizations),
    ]
    for name, key, owner, members, stacks in families:
        assert members not in vars(owner)  # built on first use
        doc = json.loads((FIXTURES / name).read_bytes())
        shape = AlgebraShape(tuple(doc["shape"]))
        walked = [ModuleVector(shape, [AlgebraElement(shape, cell_by_cell(c)) for c in v]) for v in doc[key]]
        expected = SampleSet(walked).realizations
        assert [s.tobytes() for s in stacks] == [s.tobytes() for s in expected]
        vectors = getattr(owner, members)
        assert len(vectors) == len(walked)
        for v in vectors:
            assert all(np.shares_memory(a, b) for a, b in zip(v.stacks, stacks))
    assert spec.system.vectors is spec._system.points


# -- states validated together ------------------------------------------------


def _spec_document(shape, states: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    system = AdmissibleSystem(tuple(ModuleVector.basis(shape, states, j) * 0.5 for j in range(states)))
    return json.loads(serialize(SeminormSpec(system, tuple(random_state(shape, rng) for _ in range(states)))))


@pytest.mark.parametrize(
    "densities, message",
    [
        ([[[0.4]], [[0.3, 0.1], [0.0, 0.3]]], "density 1 is not Hermitian"),
        ([[[0.4]], [[0.7, 0.0], [0.0, -0.1]]], "density 1 is not positive semidefinite"),
        ([[[0.5]], [[0.25, 0.0], [0.0, 0.35]]], None),
    ],
)
def test_a_bad_third_state_of_five_names_its_path(densities, message):
    shape = AlgebraShape((1, 2))
    doc = _spec_document(shape, 5, seed=3)
    doc["states"][2] = [[[[float(z), 0.0] for z in row] for row in d] for d in densities]
    with pytest.raises(ValueError) as direct:
        State(shape, tuple(np.array(d, complex) for d in densities))
    if message is None:
        assert str(direct.value).startswith("densities must have total trace 1, got ")
    else:
        assert str(direct.value) == message
    with pytest.raises(SchemaError) as err:
        parse("seminorm_spec", json.dumps(doc))
    assert str(err.value) == f"$.states[2]: {direct.value}"


@pytest.mark.parametrize("states", [2, 6])
def test_a_spec_makes_one_eigvalsh_per_size_class_for_all_its_states(monkeypatch, states):
    shape = AlgebraShape((1, 2, 1, 3))
    raw = json.dumps(_spec_document(shape, states, seed=states), sort_keys=True, separators=(",", ":"))
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        seen.append(a.shape[:-2])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    spec = parse("seminorm_spec", raw)
    # the system's gram check, then the states: one call per class each
    assert seen == [(2,), (1,), (1,), (2, states), (1, states), (1, states)]
    assert serialize(spec) == raw.encode()


def test_a_parsed_spec_keeps_its_decoded_densities(monkeypatch):
    """_densities[c] is the decoded (count, states, n, n) stack, read-only, and no state is stacked again."""
    decoded = []
    decode = serialization._decode_blocks

    def recorded(payloads, shape):
        out = decode(payloads, shape)
        decoded.append(out)
        return out

    monkeypatch.setattr(serialization, "_decode_blocks", recorded)
    shape = AlgebraShape((1, 2, 1, 3))
    spec = parse("seminorm_spec", json.dumps(_spec_document(shape, 4, seed=4)))
    states_stacks = decoded[-1]
    assert [d.shape for d in spec._densities] == [(2, 4, 1, 1), (1, 4, 2, 2), (1, 4, 3, 3)]
    for c, (d, s) in enumerate(zip(spec._densities, states_stacks)):
        assert np.shares_memory(d, s) and d.shape == s.shape
        assert not d.flags.writeable
        assert np.shares_memory(d.reshape(len(d), -1, d.shape[-1]), d)  # the stacked product's view
        assert d.tobytes() == np.stack([phi.stacks[c] for phi in spec.states], axis=1).tobytes()
        assert all(np.shares_memory(phi.stacks[c], d) for phi in spec.states)


@pytest.mark.parametrize(
    "name, path, where",
    [
        ("vector.json", ("coords", 0, 0, 0, 0, 0), "$.coords[0][0][0][0][0]"),
        ("frame_random.json", ("vectors", 2, 1, 1, 0, 1, 1), "$.vectors[2][1][1][0][1][1]"),
        ("seminorm_spec.json", ("states", 1, 1, 0, 0, 1), "$.states[1][1][0][0][1]"),
        ("operator.json", ("entries", 1, 1, 0, 0, 0, 0), "$.entries[1][1][0][0][0][0]"),
    ],
)
@pytest.mark.parametrize("value", [10**400, -(10**309), 2**1024])
def test_integer_beyond_float_range_is_a_schema_error(name, path, where, value):
    doc = json.loads((FIXTURES / name).read_bytes())
    _mutate(doc, path, value)
    with pytest.raises(SchemaError) as err:
        parse(doc["kind"], json.dumps(doc))
    assert err.value.path == where
    assert str(err.value) == f"{where}: integer beyond float range"


def test_largest_integer_below_float_range_parses():
    doc = {"version": 1, "kind": "vector", "shape": [1], "coords": [[[[[2**1024 - 2**970 - 1, 0]]]]]}
    x = parse("vector", json.dumps(doc))
    assert x.coords[0].blocks[0][0, 0] == complex(1.7976931348623157e308, 0.0)
    # with -2**1023 beside it the scalar's modulus, about 2.0e308, is the vector's norm
    doc["coords"][0][0][0][0][1] = -(2**1023)
    with pytest.raises(SchemaError, match=r"^\$: module norm overflows the float range$"):
        parse("vector", json.dumps(doc))


def test_non_finite_serialize_names_the_first_bad_scalar():
    shape = AlgebraShape((2,))
    block = np.array([[0.0, 1 + 2j], [complex(math.inf, 1.0), complex(math.nan, 0.0)]])
    with pytest.raises(ValueError) as err:
        serialize(ModuleVector._packed(shape, 1, (block[None],)))
    assert str(err.value) == "cannot serialize non-finite scalar (inf+1j)"


# -- orjson's decode against the stdlib's -------------------------------------


def _outcome(kind, data):
    """The canonical bytes of what `parse` reads from `data`, or the text of its SchemaError."""
    try:
        return serialize(parse(kind, data))
    except SchemaError as e:
        return f"SchemaError: {e}"


def _refuse(data):
    raise orjson.JSONDecodeError("refused", "", 0)


def assert_the_stdlib_route_agrees(kind, data):
    """`parse` gives the outcome of the stdlib route alone, where a fast decoder refuses every text."""
    fast = _outcome(kind, data)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(serialization.orjson, "loads", _refuse)
        assert fast == _outcome(kind, data)


# Cells that any element takes, most of them moderate so that most drawn
# frames and families are valid.
cells = st.one_of(st.floats(-4.0, 4.0, allow_subnormal=True), finite_parts)


@st.composite
def drawn_documents(draw):
    """(kind, data): a document of each kind `parse` reads, as bytes or text, its cells drawn."""
    kind = draw(st.sampled_from(sorted(serialization._PARSERS)))
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    dim = draw(st.integers(1, 3))

    def element():
        return [[[[draw(cells), draw(cells)] for _ in range(n)] for _ in range(n)] for n in dims]

    def family():  # not empty: an empty sample set has no canonical bytes
        return [[element() for _ in range(dim)] for _ in range(draw(st.integers(1, 4)))]

    if kind == "seminorm_spec":
        doc = _spec_document(AlgebraShape(tuple(dims)), dim, draw(st.integers(0, 2**32 - 1)))
    else:
        doc = {"version": 1, "kind": kind, "shape": dims}
        if kind == "vector":
            doc["coords"] = [element() for _ in range(dim)]
        elif kind == "operator":
            doc["entries"] = [[element() for _ in range(dim)] for _ in range(dim)]
        elif kind == "frame":
            doc.update(spanning=draw(st.sampled_from(["ambient", "range"])), vectors=family())
        else:
            doc.update(label=draw(st.text(max_size=4)), points=family())
    text = json.dumps(doc)
    return kind, text.encode() if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(case=drawn_documents())
def test_parse_reads_drawn_documents_as_the_stdlib_route_does(case):
    assert_the_stdlib_route_agrees(*case)


@settings(max_examples=300, deadline=None)
@given(case=faulty_payloads())
def test_parse_refuses_faulty_payloads_as_the_stdlib_route_does(case):
    kind, shape, payloads = case
    assume(payloads)  # a dropped last item: an empty sample set has no canonical bytes
    if kind == "element":
        doc = {"version": 1, "kind": "vector", "shape": list(shape.block_dims), "coords": payloads}
    elif kind == "vector":
        doc = {"version": 1, "kind": "sample_set", "shape": list(shape.block_dims), "points": payloads}
    else:
        doc = _spec_document(shape, len(payloads), 0)
        doc["states"] = payloads
    assert_the_stdlib_route_agrees(doc["kind"], json.dumps(doc))


def _edge_texts():
    """(id, kind, data): texts that orjson refuses or reads otherwise than json.loads."""
    vector = json.loads((FIXTURES / "vector.json").read_bytes())
    sample = json.loads((FIXTURES / "sample_planted.json").read_bytes())

    def edit(doc, path, value):
        doc = json.loads(json.dumps(doc))
        _mutate(doc, path, value)
        return json.dumps(doc)

    cell = ("coords", 1, 1, 0, 1, 0)
    deep = "[" * 100_000 + "]" * 100_000
    nested = "[" * 2000 + "]" * 2000  # orjson reads it, json.loads does not
    yield "version 10**20", "vector", edit(vector, ("version",), 10**20)
    yield "shape [10**20]", "vector", edit(vector, ("shape",), [10**20])
    yield "shape [1, 10**20]", "vector", edit(vector, ("shape", 1), 10**20)
    for value in (2**70, -(2**70), 10**308, 2**64, 2**63, -(2**63) - 1, math.nan, math.inf, -math.inf):
        yield f"cell {value}", "vector", edit(vector, cell, value)
    yield "cell 1e400", "vector", edit(vector, cell, 0.125).replace("0.125", "1e400")
    yield "label \\ud800", "sample_set", edit(sample, ("label",), "\ud800")
    yield "label lone surrogate", "sample_set", json.dumps({**sample, "label": "\ud800"}, ensure_ascii=False)
    yield "label a:b", "sample_set", edit(sample, ("label",), "a:b")
    yield "BOM", "vector", b"\xef\xbb\xbf" + (FIXTURES / "vector.json").read_bytes()
    yield "invalid UTF-8", "sample_set", edit(sample, ("label",), "xy").encode().replace(b"xy", b"\xff")
    yield "deep root", "vector", deep
    yield "deep unknown field", "vector", edit(vector, ("extra",), 0).replace('"extra": 0', '"extra": ' + deep)
    # the repeated key drops the nested value from orjson's tree
    yield "deep repeated key", "vector", '{"version": ' + nested + ", " + json.dumps(vector)[1:]
    yield "deep version", "vector", edit(vector, ("version",), 0).replace('"version": 0', '"version": ' + nested)
    yield "deep objects", "vector", '{"a": ' * 70_000 + "1" + "}" * 70_000


@pytest.mark.parametrize(
    "kind, data", [case[1:] for case in _edge_texts()], ids=[case[0] for case in _edge_texts()]
)
def test_parse_reads_edge_texts_as_the_stdlib_route_does(kind, data):
    assert_the_stdlib_route_agrees(kind, data)


def _decoded_bits(spelling: str):
    """What orjson.loads and float(json.loads) make of a number's spelling: a float's bits, or "refused"."""
    out = []
    for loads in (orjson.loads, json.loads):
        try:
            out.append(float(loads(spelling)).hex())
        except (ValueError, OverflowError):  # orjson.JSONDecodeError is a ValueError
            out.append("refused")
    return out


# The edges of every binade, subnormals included: each power of two and
# its two neighbours, then zero and the largest double.
BINADE_EDGES = [
    x
    for e in range(-1074, 1024)
    for x in (math.ldexp(1.0, e), math.nextafter(math.ldexp(1.0, e), 0.0), math.nextafter(math.ldexp(1.0, e), math.inf))
] + [0.0, 1.7976931348623157e308]


def test_orjson_reads_the_edges_of_every_binade_bit_for_bit():
    for x in BINADE_EDGES:
        for y in (x, -x):
            for spelling in (repr(y), "%.17e" % y):
                orj, std = _decoded_bits(spelling)
                assert orj == std == y.hex(), spelling


@settings(max_examples=2000, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
def test_orjson_reads_every_double_spelling_bit_for_bit(x):
    for spelling in (repr(x), "%.17e" % x):
        orj, std = _decoded_bits(spelling)
        assert orj == std == x.hex(), spelling


@st.composite
def wide_integers(draw):
    """An integer in [2^63, 2^1030), or the halfway point of two doubles there, or one beside it, either sign."""
    if draw(st.booleans()):
        n = draw(st.integers(2**63, 2**1030 - 1))
    else:
        x = draw(st.floats(2.0**63, 1.7976931348623157e308))
        up = math.nextafter(x, math.inf)
        top = 2**1024 if math.isinf(up) else int(up)
        n = (int(x) + top) // 2 + draw(st.sampled_from([-1, 0, 1]))
    return n if draw(st.booleans()) else -n


@settings(max_examples=2000, deadline=None)
@given(n=wide_integers())
def test_orjson_reads_wide_integers_as_float_does(n):
    orj, std = _decoded_bits(str(n))
    assert orj == std


# -- orjson's encode against the stdlib's -------------------------------------


def assert_respelled_as_repr(values):
    """orjson's text of `values`, as floats and as a float64 array, respelled, is repr's.

    Before the respelling, orjson's spelling of a value differs from
    repr's only where repr's holds an exponent.
    """
    text = orjson.dumps({"x": values}, option=serialization._ORJSON_OPTIONS)
    assert orjson.dumps({"x": np.array(values)}, option=serialization._ORJSON_OPTIONS) == text
    reprs = [repr(v) for v in values]
    assert serialization._respelled(text) == ('{"x":[' + ",".join(reprs) + "]}").encode()
    for spelled, spelling in zip(text[6:-2].decode().split(","), reprs):
        assert spelled == spelling or "e" in spelling, (spelled, spelling)


def test_orjson_respelled_is_repr_on_the_edges_of_every_binade():
    assert_respelled_as_repr([y for x in BINADE_EDGES for y in (x, -x)])


# Where repr's spelling switches between a decimal and an exponent: at
# 1e-5, 1e-4 and 1e16, each decade around them, and the doubles beside
# each switch point.
SWITCH_POINTS = [
    float(f"{mantissa}e{exponent}")
    for switch in (-5, -4, 16)
    for exponent in (switch - 1, switch)
    for mantissa in ("1", "1.5", "2", "5", "9.5", "9.999999999999998", "9.999999999999999")
] + [
    math.nextafter(10.0**switch, toward)
    for switch in (-5, -4, 16)
    for toward in (0.0, math.inf)
]
# Decimals that hold 0.0000 past their first digit, which stay as they are.
ZEROS_INSIDE = [10.00001, 100.000015, 1000.00009, 20.0000001, 0.10000012]


def test_orjson_respelled_is_repr_around_the_switch_points():
    assert_respelled_as_repr([y for x in SWITCH_POINTS + ZEROS_INSIDE for y in (x, -x)])


def test_a_signed_exponent_is_respelled_whole():
    """An exponent spelled with its sign, as repr spells it, is read whole, not cut at the sign."""
    text = b'{"x":[1e+16,-2.5e+300,1e-07,1.5e-05]}'
    assert serialization._respelled(text) == text


@settings(max_examples=2000, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
def test_orjson_respelled_is_repr_on_drawn_doubles(x):
    assert_respelled_as_repr([x, -x])


def _written(value):
    """What `serialize` makes of `value`: its bytes, or the type and text of what it raises."""
    try:
        return serialize(value)
    except (TypeError, ValueError) as e:
        return f"{type(e).__name__}: {e}"


def _refuse_to_write(doc, option=None):
    raise orjson.JSONEncodeError("refused")


def assert_the_stdlib_writer_agrees(value):
    """`serialize` gives the outcome of the stdlib route alone, where the fast encoder refuses every document."""
    fast = _written(value)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(serialization.orjson, "dumps", _refuse_to_write)
        assert fast == _written(value)


# Strings that hold what a writer could take for a number or a mark, and
# each kind of character the two encoders write otherwise.
tricky_text = st.sampled_from(
    ["1e-7", "0.00001", "1e16", "x2e-9", "0.000015,", ",[]:", '"', 'a"1e-7"b', "\\", "\\u0041",
     "\x7f", "\x01", "\n", "\xe9", "\u20ac", "\ud800", "a\udfffb", "null", "true"]
) | st.text(max_size=4)
tricky_floats = st.one_of(
    st.floats(allow_subnormal=True),  # NaN and the infinities included
    st.floats(1e-5, 1e-4),
    st.sampled_from([1e16, 1e-7, 5e-324, -0.0, 1.7976931348623157e308, 0.0001, 1e-05, *ZEROS_INSIDE]),
)


def _float64_array(values: list, layout: str) -> np.ndarray:
    array = np.array(values, dtype=float)
    if layout == "strided":  # not contiguous
        return np.repeat(array, 2)[::2]
    if layout == "fortran":  # 2-D and not C-contiguous
        return np.stack([array, -array]).T
    return np.stack([array, -array])


writer_leaves = st.one_of(
    tricky_floats,
    tricky_floats.map(np.float64),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**64, 2**64 - 1, -(2**63), -(2**63) - 1]),
    st.booleans(),
    st.none(),
    tricky_text,
    st.builds(
        _float64_array,
        st.lists(tricky_floats, max_size=5),
        st.sampled_from(["strided", "fortran", "contiguous"]),
    ),
)
writer_trees = st.recursive(
    writer_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(tricky_text, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(doc=st.dictionaries(tricky_text, writer_trees, max_size=5))
def test_serialize_writes_drawn_documents_as_the_stdlib_route_does(doc):
    assert_the_stdlib_writer_agrees(doc)


class _Float(float):
    pass


class _Str(str):
    pass


class _Level(enum.IntEnum):
    ONE = 1


@dataclasses.dataclass
class _Record:
    x: float = 1.0


def _nested(depth: int):
    doc = 1e-7
    for i in range(depth):
        doc = [doc] if i % 2 else {"k": doc}
    return {"deep": doc}


def _writer_edges():
    """(id, document): what orjson refuses or writes otherwise than json.dumps, and library values at the switch points."""
    looped_list, looped_dict = {"rows": [0.5]}, {"k": 1e-7}
    looped_list["rows"].append(looped_list)
    looped_dict["back"] = {"inner": looped_dict}
    yield "contains itself in a list", looped_list
    yield "contains itself in a dict", looped_dict
    for depth in (254, 255, 256, 300):
        yield f"{depth} deep", _nested(depth)
    yield "int key", {1: 0.5}
    yield "None key", {"a": {None: 1e16}}
    yield "float subclass", {"x": _Float(1e-7)}
    yield "str subclass", {"x": _Str("a")}
    yield "str subclass key", {_Str("a"): 1}
    yield "dict subclass", {"x": collections.OrderedDict(a=1e-5)}
    yield "IntEnum", {"x": _Level.ONE}
    yield "dataclass", {"x": _Record()}
    yield "datetime", {"x": datetime.datetime(2020, 1, 1)}
    yield "NaN float64", {"x": np.float64("nan")}
    yield "NaN in an array", {"x": np.array([1e-7, math.nan])}
    yield "0-d array", {"x": np.array(1e-7)}
    yield "read-only array", {"x": np.frombuffer(np.array([1e-5, 1e16]).tobytes())}
    rng = np.random.default_rng(0)
    shape = AlgebraShape((1, 2))
    for exponent in (-60, -17, -14, 0, 54):
        vectors = [random_vector(shape, 2, rng) * 2.0**exponent for _ in range(3)]
        yield f"vector 2^{exponent}", vectors[0]
        yield f"sample 2^{exponent}", SampleSet(vectors, label="1e-7")
    for exponent in (0, 12, 30, 54):  # the dual's entries about 2^-exponent
        frame = Frame([random_vector(shape, 2, rng) * 2.0**exponent for _ in range(3)])
        yield f"frame 2^{exponent}", frame
        yield f"dual of frame 2^{exponent}", serialization._frame_document(frame, frame._dual)


@pytest.mark.parametrize(
    "value", [case[1] for case in _writer_edges()], ids=[case[0] for case in _writer_edges()]
)
def test_serialize_writes_edge_documents_as_the_stdlib_route_does(value):
    assert_the_stdlib_writer_agrees(value)


def test_library_documents_take_the_fast_route(monkeypatch):
    """No payload of a document the library builds sends it to the stdlib route."""
    calls = []
    monkeypatch.setattr(serialization, "_json_bytes", lambda doc: calls.append(doc))
    for name, kind in sorted(FIXTURE_KINDS.items()):
        serialize(parse(kind, (FIXTURES / name).read_bytes()))
    assert calls == []
