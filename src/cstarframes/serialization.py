"""Strict JSON schemas for the documents the CLI reads or writes.

The CLI reads five kinds: frame, sample_set, seminorm_spec, vector and
operator.  `document` writes those and certify's results: certificate,
equivalence_report and series_decomposition.  Documents are objects
with "version": 1 and a "kind" tag; unknown fields are rejected so
schema drift fails loudly.  Complex scalars are [re, im] pairs of
finite floats, matrices are row lists, and nested payloads (shapes,
elements, vectors) are bare arrays without the version stutter.
Serialization uses sorted keys, no whitespace, and shortest round-trip
decimals, so equal values produce identical bytes.  Parsing enforces the
domain invariants too: a non-PSD density or a degenerate frame is a
schema error with a path, not a crash later.

Every parsed value is built through a `_packed` constructor on the
stacks of the one-pass decode (`_decode_blocks`).  When the decode
refuses a payload, a walk goes through it cell by cell only to name
the fault at its path; the walks build nothing.

Text is read by `orjson.loads`, and the value is built from its tree.
The stdlib's `json.loads` stays the reference: it decodes every text
that orjson refuses or might read otherwise (`_orjson_tree`), and every
text whose orjson tree the schema refuses, so each refusal keeps the
stdlib's message.

Documents are written by `orjson.dumps`, their payload blocks straight
from read-only views of the stored stacks, and each number orjson
spells unlike `repr` is respelled (`_respelled`).  The stdlib's
`json.dumps` stays the reference: it writes every document that orjson
refuses or writes otherwise (`serialize`).
"""

from __future__ import annotations

import functools
import json
import math
import re
from itertools import chain

import numpy as np
import orjson

from .algebra import AlgebraShape, StateError, checked_states, entry_blocks, from_entry_blocks
from .certify import Certificate, EquivalenceReport, SeriesDecomposition
from .frames import DegenerateFrameError, Frame
from .modules import (
    ModuleOperator,
    ModuleVector,
    SampleSet,
    coordinate_blocks,
    stack_norms,
)
from .seminorms import AdmissibleSystem, SeminormSpec


class SchemaError(ValueError):
    """Schema or invariant violation, carrying the JSON path at fault."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# -- low-level helpers --------------------------------------------------------


def _expect_object(val, path: str) -> dict:
    if not isinstance(val, dict):
        raise SchemaError(path, f"expected an object, found {type(val).__name__}")
    return val


def _expect_list(val, path: str) -> list:
    if not isinstance(val, list):
        raise SchemaError(path, f"expected an array, found {type(val).__name__}")
    return val


def _expect_int(val, path: str) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise SchemaError(path, f"expected an integer, found {val!r}")
    return val


def _get(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError(f"{path}.{key}", "required field missing")
    return doc[key]


def _complex_in(val, path: str) -> None:
    pair = _expect_list(val, path)
    if len(pair) != 2:
        raise SchemaError(path, f"complex scalar needs [re, im], found {len(pair)} entries")
    for i, p in enumerate(pair):
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise SchemaError(f"{path}[{i}]", f"expected a number, found {p!r}")
        try:
            part = float(p)
        except OverflowError:
            raise SchemaError(f"{path}[{i}]", "integer beyond float range") from None
        if not math.isfinite(part):
            raise SchemaError(f"{path}[{i}]", f"non-finite value {p!r}")


def _matrix_in(val, n: int, path: str) -> None:
    rows = _expect_list(val, path)
    if len(rows) != n:
        raise SchemaError(path, f"expected {n} rows, found {len(rows)}")
    for i, row in enumerate(rows):
        row = _expect_list(row, f"{path}[{i}]")
        if len(row) != n:
            raise SchemaError(f"{path}[{i}]", f"expected {n} columns, found {len(row)}")
        for j, cell in enumerate(row):
            _complex_in(cell, f"{path}[{i}][{j}]")


_NUMBER_TYPES = {int, float}


def _decode_blocks(payloads: list, shape: AlgebraShape) -> list[np.ndarray] | None:
    """One-pass decode of element payloads: per size class, a (count, size, n, n) stack.

    Each of the `size` payloads must be a list of the shape's per-block
    matrices of [re, im] cells.  Per size class, the payloads' blocks are
    flattened one level at a time, block -> row -> cell -> [re, im], and
    at every level each item must have the expected length, which a
    number, bool or null does not have.  A string or object of that
    length flattens to string leaves, and every leaf must be an int or a
    float, so bools and strings are refused before any conversion, at
    whatever level they stood.  The leaves then become one float array,
    which must be finite, and the complex stack is a view of the
    contiguous [re, im] pairs, so every bit, the sign of a zero included,
    is that of float(re) and float(im).  An empty list of payloads gives
    zero-length stacks.  Returns None on any malformed payload, and only
    then: the payloads are then walked cell by cell (`_decoded`), which
    names the fault.
    """
    size = len(payloads)
    if not set(map(type, payloads)) <= {list} or not set(map(len, payloads)) <= {shape.num_blocks}:
        return None
    stacks = []
    for n, ks in shape.classes:
        level = [e[k] for e in payloads for k in ks]
        for width in (n, n, 2):
            try:
                if not set(map(len, level)) <= {width}:
                    return None
            except TypeError:  # a number, bool or null where a list belongs
                return None
            level = list(chain.from_iterable(level))
        if not set(map(type, level)) <= _NUMBER_TYPES:
            return None
        try:
            values = np.array(level, dtype=float)
        except OverflowError:
            return None
        if not np.isfinite(values).all():
            return None
        cells = values.view(complex).reshape(size, len(ks), n, n)
        stacks.append(np.ascontiguousarray(cells.swapaxes(0, 1)))
    return stacks


def _zip_blocks(blocks: list, depth: int) -> list:
    """Arrays, one per block and all shaped alike, regrouped along their lead axes so the blocks come innermost."""
    if depth == 0:
        return blocks
    return [_zip_blocks(list(parts), depth - 1) for parts in zip(*blocks)]


def _element_payloads(shape: AlgebraShape, stacks) -> list:
    """Payloads of the elements in per-class stacks (count, *lead, n, n), nested by the lead axes.

    Each block of a payload is a read-only, C-contiguous (n, n, 2) view
    of its class's stack read as float64 [re, im] pairs (a contiguous
    stack is not copied), so it holds every bit, the sign of a zero
    included; the blocks are put back in block order under each lead
    index.  `serialize` writes the views.  A non-finite scalar is
    refused with ValueError, the first in document order (lead index,
    block, row, column) named.
    """
    if not all(np.isfinite(s).all() for s in stacks):
        for index in np.ndindex(*stacks[0].shape[1:-2]):
            for c, j in shape.slots:
                block = stacks[c][(j,) + index]
                bad = block[~np.isfinite(block)]
                if bad.size:
                    raise ValueError(f"cannot serialize non-finite scalar {complex(bad[0])!r}")
    pairs = []
    for s in stacks:
        view = np.ascontiguousarray(s, dtype=complex).view(float).reshape(s.shape + (2,))
        view.flags.writeable = False
        pairs.append(view)
    return _zip_blocks([pairs[c][j] for c, j in shape.slots], stacks[0].ndim - 3)


# -- nested payloads ----------------------------------------------------------


def parse_shape_payload(val, path: str) -> AlgebraShape:
    dims = _expect_list(val, path)
    if not dims:
        raise SchemaError(path, "shape needs at least one block")
    out = []
    for i, d in enumerate(dims):
        d = _expect_int(d, f"{path}[{i}]")
        if d < 1:
            raise SchemaError(f"{path}[{i}]", f"block dimension must be >= 1, found {d}")
        out.append(d)
    return AlgebraShape(tuple(out))


def _decoded(decoded, walk, *args):
    """`decoded`, a decode's result, unless the decode refused the payloads (None).

    Then `walk(*args)` goes through them cell by cell and raises the
    SchemaError that names the first fault.  The decodes refuse exactly
    the payloads their walks raise on, so a walk that returns is a bug.
    """
    if decoded is None:
        walk(*args)
        raise AssertionError("the decode refused payloads its walk accepts")
    return decoded


def _walk_element(val, shape: AlgebraShape, path: str, blocks: str = "blocks") -> None:
    """Name the first fault of an element payload, or of a state's densities (blocks="density blocks")."""
    mats = _expect_list(val, path)
    if len(mats) != shape.num_blocks:
        raise SchemaError(path, f"expected {shape.num_blocks} {blocks}, found {len(mats)}")
    for k, (m, n) in enumerate(zip(mats, shape.block_dims)):
        _matrix_in(m, n, f"{path}[{k}]")


def _vector_payloads(shape: AlgebraShape, dim: int, stacks) -> list:
    """Payloads of the vectors in per-class stacks (count, *lead, dim*n, n), nested by the lead axes."""
    return _element_payloads(shape, [coordinate_blocks(s, dim) for s in stacks])


def _walk_vector(val, shape: AlgebraShape, path: str) -> int:
    """Name the first fault of a vector payload; the dimension of a well-formed one."""
    coords = _expect_list(val, path)
    if not coords:
        raise SchemaError(path, "module vector needs at least one coordinate")
    for i, c in enumerate(coords):
        _walk_element(c, shape, f"{path}[{i}]")
    return len(coords)


def _walk_family(raw: list, shape: AlgebraShape, path: str) -> None:
    """Name the first fault of the vector payloads raw[i]: at path[i], or mixed dimensions at path."""
    dims = {_walk_vector(v, shape, f"{path}[{i}]") for i, v in enumerate(raw)}
    if len(dims) != 1:
        raise SchemaError(path, f"mixed module dimensions {sorted(dims)}")


def _decode_family(raw: list, shape: AlgebraShape) -> tuple[int, tuple[np.ndarray, ...]] | None:
    """Vector payloads of one dimension decoded together: (dim, stacks (count, len, dim*n, n))."""
    if not raw or set(map(type, raw)) != {list}:
        return None
    dims = set(map(len, raw))
    if len(dims) != 1 or 0 in dims:
        return None
    (dim,) = dims
    stacks = _decode_blocks(list(chain.from_iterable(raw)), shape)
    if stacks is None:
        return None
    return dim, tuple(s.reshape(len(s), len(raw), dim * s.shape[-1], s.shape[-1]) for s in stacks)


def _refuse_norm_overflow(stacks, path: str) -> None:
    """Refuse a point whose module norm overflows though every entry is finite.

    stacks are a family's realizations, (count, P, rows, cols) per size
    class; an operator is a family of one.  max |entry| * sqrt(rows *
    cols) bounds the Frobenius norm of a
    block, hence its spectral norm, so only the points whose bound is not
    finite get their exact norm (`stack_norms`); the first of them whose
    norm is not finite is refused at path.format(p).
    """
    with np.errstate(over="ignore"):
        bound = functools.reduce(np.maximum, [
            np.abs(s).max(axis=(0, 2, 3)) * math.sqrt(s.shape[2] * s.shape[3]) for s in stacks
        ])
    flagged = np.flatnonzero(~np.isfinite(bound))
    if not len(flagged):
        return
    for p, norm in zip(flagged.tolist(), stack_norms([s[:, flagged] for s in stacks])):
        if not math.isfinite(norm):
            raise SchemaError(path.format(p), "module norm overflows the float range")


def parse_vector_payload(val, shape: AlgebraShape, path: str) -> ModuleVector:
    dim, stacks = _decoded(_decode_family([val], shape), _walk_vector, val, shape, path)
    return ModuleVector._packed(shape, dim, tuple(s[:, 0] for s in stacks))


def _parse_family(raw: list, shape: AlgebraShape, path: str, label: str = "") -> SampleSet:
    """The non-empty vector payloads raw[i], decoded together, as a SampleSet that keeps the stacks."""
    return SampleSet._packed(
        shape, *_decoded(_decode_family(raw, shape), _walk_family, raw, shape, path), label=label
    )


def _walk_states(raw: list, shape: AlgebraShape, path: str) -> None:
    """Name the first fault of the state payloads raw[i], in order.

    The first payload that does not decode alone is walked at path[i],
    after the states before it, which do, are checked together: a
    StateError then names an earlier state's fault.
    """
    for i, val in enumerate(raw):
        if _decode_blocks([val], shape) is None:
            checked_states(shape, _decode_blocks(raw[:i], shape))
            _walk_element(val, shape, f"{path}[{i}]", "density blocks")


def _parse_spec_states(
    system: AdmissibleSystem, raw: list, shape: AlgebraShape, path: str
) -> SeminormSpec:
    """The spec of `system` and the state payloads raw[i], decoded and validated together.

    The decoded stacks go to `SeminormSpec._packed`, which checks the
    states and keeps the stacks; the first faulty state is refused at
    path[i], and then a state count other than the system's size at path.
    """
    try:
        return SeminormSpec._packed(
            system, _decoded(_decode_blocks(raw, shape), _walk_states, raw, shape, path)
        )
    except StateError as e:
        raise SchemaError(f"{path}[{e.index}]", str(e)) from e
    except SchemaError:
        raise
    except ValueError as e:
        raise SchemaError(path, str(e)) from e


# -- top-level documents ------------------------------------------------------


def document(value) -> dict:
    """JSON document for a library value of any of the eight kinds; inverse of parse for the five it reads.

    Payload blocks are float64 arrays (`_element_payloads`), which
    `serialize` writes as nested lists of [re, im] pairs.
    """
    if isinstance(value, ModuleVector):
        return _head("vector", shape=list(value.shape.block_dims),
                     coords=_vector_payloads(value.shape, value.dim, value.stacks))
    if isinstance(value, ModuleOperator):
        return _head("operator", shape=list(value.shape.block_dims), entries=_element_payloads(
            value.shape, [entry_blocks(s, value.target_dim, value.source_dim) for s in value.stacks]
        ))
    if isinstance(value, Frame):
        return _frame_document(value, value._family)
    if isinstance(value, SampleSet):
        if not len(value):
            raise ValueError("an empty sample set has no shape and cannot be serialized")
        doc = _head("sample_set", shape=list(value.shape.block_dims), points=_family_payloads(value))
        if value.label:
            doc["label"] = value.label
        return doc
    if isinstance(value, SeminormSpec):
        system = value._system
        return _head("seminorm_spec", shape=list(system.shape.block_dims), system=_family_payloads(system),
                     states=_element_payloads(system.shape, value._densities))
    if isinstance(value, Certificate):
        return _certificate_document(value)
    if isinstance(value, EquivalenceReport):
        doc = _head("equivalence_report", entries=[{
            "eps": e.eps,
            "a": _certificate_document(e.cert_a),
            "a_scaled": _certificate_document(e.cert_a_scaled),
            "b": _certificate_document(e.cert_b),
            "cd": _certificate_document(e.cert_cd),
            "violations": list(e.violations),
        } for e in value.entries])
        if value.frame_bounds is not None:
            doc["frame_bounds"] = list(value.frame_bounds)
        return doc
    if isinstance(value, SeriesDecomposition):
        return _head("series_decomposition", errors=list(value.errors), floor=value.floor,
                     achieved_rank=value.achieved_rank, rank_count=len(value.errors) - 1)
    raise TypeError(f"no schema for {type(value).__name__}")


def _head(kind: str, **fields) -> dict:
    """The document of `kind`: the version and kind tags, then `fields`."""
    return {"version": 1, "kind": kind, **fields}


def _certificate_document(cert: Certificate) -> dict:
    doc = _head("certificate", condition=cert.condition, eps=cert.eps, verdict="pass" if cert.verdict else "fail",
                budget_exhausted=cert.budget_exhausted, witness=cert.witness, diagnostics=cert.diagnostics)
    if cert.coefficient_bound is not None:
        doc["coefficient_bound"] = cert.coefficient_bound
    return doc


def _family_payloads(family: SampleSet) -> list:
    return _vector_payloads(family.shape, family.dim, family.realizations)


def _frame_document(frame: Frame, family: SampleSet) -> dict:
    return _head("frame", shape=list(frame.shape.block_dims), spanning=frame.spanning,
                 vectors=_family_payloads(family))


_ORJSON_OPTIONS = (
    orjson.OPT_SORT_KEYS
    | orjson.OPT_SERIALIZE_NUMPY
    | orjson.OPT_PASSTHROUGH_SUBCLASS
    | orjson.OPT_PASSTHROUGH_DATACLASS
    | orjson.OPT_PASSTHROUGH_DATETIME
)


def serialize(value) -> bytes:
    """Canonical bytes of a library value, or of a document already built.

    Sorted keys, no whitespace, and each float spelled by `repr`: the
    bytes of `json.dumps(doc, sort_keys=True, separators=(",", ":"),
    allow_nan=False)`, where the float64 arrays of payload blocks are
    written as nested lists.  `orjson.dumps` writes the document, the
    arrays straight from their memory, and each number it spells unlike
    `repr` is respelled (`_respelled`).  `json.dumps` stays the
    reference and writes the whole document instead wherever orjson
    refuses it (an int beyond 64 bits, a non-str key, a subclass of
    float, str, int, list or dict but an enum, a dataclass, a datetime,
    an array that is not C-contiguous or not of a dtype orjson writes,
    more than 255 levels of nesting, a document that contains itself)
    or writes text that `json.dumps` writes otherwise: `null` (None, a
    NaN or an infinity), a backslash, DEL or a byte past ASCII
    (`json.dumps` escapes these).  A document that contains itself, or nests past the
    interpreter's recursion limit, is refused with ValueError; so is a
    NaN or an infinity.

    orjson writes some values `json.dumps` refuses: a `uuid.UUID`, a
    plain `Enum` member, and numpy scalars and arrays of integers, bools
    and float32.  No document of the library holds any of them.
    """
    doc = value if isinstance(value, dict) else document(value)
    try:
        text = orjson.dumps(doc, option=_ORJSON_OPTIONS)
    except orjson.JSONEncodeError:
        return _json_bytes(doc)
    # a null holds a u, which memchr finds at once; a search for all four bytes crawls over digits
    if not text.isascii() or b"u" in text and b"null" in text or b"\\" in text or b"\x7f" in text:
        return _json_bytes(doc)
    return _respelled(text)


def _json_bytes(doc) -> bytes:
    """The reference bytes of `doc`, written by `json.dumps`, float64 arrays as nested lists."""
    try:
        text = json.dumps(
            doc,
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
            check_circular=False,
            default=_listed,
        )
    except RecursionError:
        raise ValueError("document contains itself or nests too deep to serialize") from None
    return text.encode("utf-8")


def _listed(value) -> list:
    """A float64 array as nested lists of floats; any other value is refused as `json.dumps` refuses it."""
    if isinstance(value, np.ndarray) and value.dtype == np.float64:
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# orjson and repr both write the shortest digits that read back to the
# same double, but repr writes an exponent of at least two digits with
# its sign (1e+16, 1e-07), where orjson writes 1e16 and 1e-7, and repr
# writes each value in [1e-5, 1e-4) with an exponent (1.5e-05), where
# orjson writes a decimal (0.000015).  That spelling is orjson's own,
# not a documented format, so pyproject.toml holds orjson to the 3.8
# series the spelling tests pin; an exponent with a sign, as repr writes
# it, is still read whole and respelled.
_MANTISSA = frozenset(b"0123456789.")
_NUMBER = re.compile(rb"[0-9.]+(?:e[-+]?[0-9]+)?")


def _respelled(text: bytes) -> bytes:
    """orjson's `text` with each number that orjson spells unlike repr respelled as repr(float(number)).

    Those are the numbers outside strings that hold an exponent or start
    with 0.0000; a number's sign stays where it is.  Every string of
    `text` is printable ASCII with no backslash, so each quote opens or
    closes a string: a mark lies inside one after an odd count of
    quotes, and past the last quote every string is closed.
    """
    starts = []
    at = text.find(b"0.0000")
    while at >= 0:
        if text[at - 1] not in _MANTISSA:  # not the tail of 10.00001
            starts.append(at)
        at = text.find(b"0.0000", at + 6)
    at = text.find(b"e")
    while at >= 0:
        if text[at - 1] in _MANTISSA:  # not the e of true, false or a key
            start = at - 1
            while text[start - 1] in _MANTISSA:
                start -= 1
            starts.append(start)
        at = text.find(b"e", at + 1)
    pieces, done, counted, quotes = [], 0, 0, 0
    last_quote = text.rfind(b'"')
    for start in sorted(starts):
        if start < last_quote:
            quotes += text.count(b'"', counted, start)
            counted = start
            if quotes % 2:
                continue
        end = _NUMBER.match(text, start).end()
        pieces += (text[done:start], repr(float(text[start:end])).encode())
        done = end
    pieces.append(text[done:])
    return b"".join(pieces)


def serialize_dual(frame: Frame) -> bytes:
    """Canonical bytes of the canonical dual of `frame`, as a frame document.

    The document has the frame's shape and spanning mode and the dual
    vectors g_j = S^(-1) x_j, written from the frame's stored
    realizations.  The dual family is a frame for the same span, with
    bounds (1/c2, 1/c1), so it is not validated again: validating it
    would redo the gram and its eigensystem, and the absolute floor of
    that check rejects valid duals of frames with large bounds.
    """
    return serialize(_frame_document(frame, frame._dual))


def _parse_vector_doc(doc: dict, shape: AlgebraShape) -> ModuleVector:
    vector = parse_vector_payload(_get(doc, "coords", "$"), shape, "$.coords")
    _refuse_norm_overflow([s[:, None] for s in vector.stacks], "$")
    return vector


def _parse_operator_doc(doc: dict, shape: AlgebraShape) -> ModuleOperator:
    rows = _expect_list(_get(doc, "entries", "$"), "$.entries")
    if not rows:
        raise SchemaError("$.entries", "operator needs at least one row")
    width, stacks = _decoded(_decode_family(rows, shape), _walk_operator_entries, rows, shape)
    op = ModuleOperator._packed(
        shape, len(rows), width, tuple(from_entry_blocks(coordinate_blocks(s, width)) for s in stacks)
    )
    _refuse_norm_overflow([s[:, None] for s in op.stacks], "$.entries")
    return op


def _walk_operator_entries(rows: list, shape: AlgebraShape) -> None:
    width = None
    for i, row in enumerate(rows):
        row = _expect_list(row, f"$.entries[{i}]")
        if not row:
            raise SchemaError(f"$.entries[{i}]", "operator row is empty")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(
                f"$.entries[{i}]", f"ragged row: expected {width} entries, found {len(row)}"
            )
        for j, e in enumerate(row):
            _walk_element(e, shape, f"$.entries[{i}][{j}]")


def _parse_frame_doc(doc: dict, shape: AlgebraShape) -> Frame:
    spanning = doc.get("spanning", "ambient")
    if spanning not in ("ambient", "range"):
        raise SchemaError("$.spanning", f"expected 'ambient' or 'range', found {spanning!r}")
    raw = _expect_list(_get(doc, "vectors", "$"), "$.vectors")
    if not raw:
        raise SchemaError("$.vectors", "frame needs at least one vector")
    family = _parse_family(raw, shape, "$.vectors")
    try:
        return Frame(family, spanning)
    except DegenerateFrameError as e:
        raise SchemaError("$.vectors", str(e)) from e


def _parse_sample_set_doc(doc: dict, shape: AlgebraShape) -> SampleSet:
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise SchemaError("$.label", f"expected a string, found {label!r}")
    raw = _expect_list(_get(doc, "points", "$"), "$.points")
    if not raw:
        return SampleSet((), label=label)
    sample = _parse_family(raw, shape, "$.points", label)
    _refuse_norm_overflow(sample.realizations, "$.points[{}]")
    return sample


def _parse_seminorm_spec_doc(doc: dict, shape: AlgebraShape) -> SeminormSpec:
    raw_sys = _expect_list(_get(doc, "system", "$"), "$.system")
    if not raw_sys:
        raise SchemaError("$.system", "admissible system needs at least one vector")
    family = _parse_family(raw_sys, shape, "$.system")
    try:
        system = AdmissibleSystem(family)
    except ValueError as e:
        raise SchemaError("$.system", str(e)) from e
    raw_states = _expect_list(_get(doc, "states", "$"), "$.states")
    return _parse_spec_states(system, raw_states, shape, "$.states")


_PARSERS = {
    "vector": (_parse_vector_doc, {"coords"}),
    "operator": (_parse_operator_doc, {"entries"}),
    "frame": (_parse_frame_doc, {"vectors", "spanning"}),
    "sample_set": (_parse_sample_set_doc, {"points", "label"}),
    "seminorm_spec": (_parse_seminorm_spec_doc, {"system", "states"}),
}


# orjson builds its tree by recursion on the native stack, about 140
# bytes a level of objects, and ends the process where the stack runs
# out: past 50,000 levels of objects on an 8 MB stack.  json.loads raises
# RecursionError there instead.  Text with more opening brackets than
# this, which bound its depth, is left to json.loads.  Valid documents
# open about one bracket per 29 bytes, so up to about 470 kB of them
# go through orjson.
_ORJSON_MAX_OPENS = 2**14


def _orjson_tree(data):
    """orjson's tree of `data`, or None where the stdlib decodes it.

    None for input that is neither bytes nor text, text with a lone
    surrogate, text with more than _ORJSON_MAX_OPENS brackets, text
    orjson refuses, and text whose tree may have lost a value to a
    repeated key (which json.loads might have refused as too deep).  On
    all other text the two trees are equal, but for an integer literal
    outside [-2^63, 2^64), which orjson reads as the correctly rounded
    float: the schema takes one only as a number cell, whose decode
    makes the same float of the integer.
    """
    if isinstance(data, str):
        try:
            data = data.encode("utf-8")
        except UnicodeEncodeError:
            return None
    if not isinstance(data, bytes):
        return None
    text = np.frombuffer(data, np.uint8)
    if np.count_nonzero(text == ord("[")) + np.count_nonzero(text == ord("{")) > _ORJSON_MAX_OPENS:
        return None
    try:
        tree = orjson.loads(data)
    except orjson.JSONDecodeError:
        return None
    # Every member of every object has a colon outside strings, so a text
    # with no more colons than the root has keys repeats no key, and the
    # tree holds all of it.  Valid documents hold no other object.
    if not isinstance(tree, dict) or np.count_nonzero(text == ord(":")) != len(tree):
        return None
    return tree


def _json_tree(data):
    """The stdlib's tree of `data`: the reference decode, which names every fault of the text."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as e:
        raise SchemaError("$", f"not valid UTF-8: {e}") from e
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, an integer literal past the int digit limit, nesting past the stack
        raise SchemaError("$", f"not valid JSON: {e}") from e


def parse(kind: str, data):
    """Parse bytes or text into the typed value for the given kind.

    Rejects bytes that are not UTF-8, text that is not JSON (nesting too
    deep to decode and integer literals too long to convert included),
    any version but the integer 1 (`true` and `1.0` included), mismatched
    kinds, unknown fields, malformed payloads, and invariant violations;
    every error carries the JSON path of the offending field.

    `orjson.loads` decodes the text, and the value is built from its
    tree.  The stdlib's `json.loads` decodes it instead where orjson
    refuses it or might read it otherwise (`_orjson_tree`): a lone
    surrogate, `NaN`, `Infinity` or a number past float range, a BOM,
    bytes that are not UTF-8, more than 2^14 brackets, or a repeated
    key.  It decodes it again where the schema refuses orjson's tree, so
    the stdlib's tree decides every refusal and its message.
    """
    if kind not in _PARSERS:
        raise SchemaError("$", f"unknown entity kind {kind!r}")
    tree = _orjson_tree(data)
    if tree is not None:
        try:
            return _parse_tree(kind, tree)
        except (SchemaError, RecursionError):  # the repr of a deep value in a message
            pass
    return _parse_tree(kind, _json_tree(data))


def _parse_tree(kind: str, doc):
    _expect_object(doc, "$")
    version = _get(doc, "version", "$")
    if type(version) is not int or version != 1:
        raise SchemaError("$.version", f"unsupported schema version {version!r}")
    actual = _get(doc, "kind", "$")
    if actual != kind:
        raise SchemaError("$.kind", f"expected kind {kind!r}, found {actual!r}")
    parser, fields = _PARSERS[kind]
    extra = sorted(set(doc) - {"version", "kind", "shape", *fields})
    if extra:
        raise SchemaError(f"$.{extra[0]}", "unknown field (strict schema)")
    return parser(doc, parse_shape_payload(_get(doc, "shape", "$"), "$.shape"))
