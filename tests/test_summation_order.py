"""Every fixed-order sum goes through `ordered_sum` / `ordered_sums` in cstarframes.algebra.

The kernels must equal a scalar loop that starts at +0.0 and adds the
terms one at a time in index order, whatever the values (signed zeros,
infinities, NaN, magnitudes near the ends of the float range) and
whatever the axis: NaN at the same positions, and every other bit equal.
A NaN's own sign and payload are not compared: IEEE 754-2019 leaves open
which input NaN an addition propagates (§6.2.3), and numpy's scalar add,
which the loop uses, and its array loops pass the operands to the
hardware in opposite order.  No other module may run its own
np.add.accumulate.
"""

import ast
import itertools
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cstarframes
from cstarframes.algebra import ordered_sum, ordered_sums

PACKAGE = Path(cstarframes.__file__).parent

PLANTED = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e150, -1e150, 1e-150, -1e-150]
values = st.one_of(
    st.sampled_from(PLANTED),
    st.floats(-1e3, 1e3),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.sampled_from([-150, 150])),
)


@st.composite
def term_arrays(draw):
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    size = int(np.prod(shape))
    real = np.array(draw(st.lists(values, min_size=size, max_size=size)), float).reshape(shape)
    if draw(st.booleans()):
        terms = real.astype(complex)
        terms.imag = np.array(draw(st.lists(values, min_size=size, max_size=size)), float).reshape(shape)
        return terms
    return real


def loop_prefixes(terms: np.ndarray, axis: int) -> np.ndarray:
    """Every prefix sum along axis from a scalar loop over each line, +0.0 first."""
    axis %= terms.ndim
    moved = np.moveaxis(terms, axis, -1)
    out = np.empty(moved.shape[:-1] + (moved.shape[-1] + 1,), terms.dtype)
    for index in itertools.product(*map(range, moved.shape[:-1])):
        total = terms.dtype.type(0.0)
        out[index + (0,)] = total
        for m, term in enumerate(moved[index]):
            total = total + term
            out[index + (m + 1,)] = total
    return np.moveaxis(out, -1, axis)


def nan_blind_bits(a: np.ndarray) -> tuple[bytes, bytes]:
    """Where a holds NaN (real and imaginary parts apart), and every bit of every other entry."""
    parts = np.ascontiguousarray(a).view(np.float64)
    nan = np.isnan(parts)
    return nan.tobytes(), np.where(nan, 0.0, parts).tobytes()


@st.composite
def terms_and_axes(draw):
    terms = draw(term_arrays())
    return terms, draw(st.integers(-terms.ndim, terms.ndim - 1))


@settings(max_examples=300, deadline=None)
@given(case=terms_and_axes())
@example(case=(np.array([np.inf, -np.inf, np.nan]), 0))
def test_kernels_are_a_loop_from_plus_zero(case):
    terms, axis = case
    with np.errstate(invalid="ignore", over="ignore"):
        expected = loop_prefixes(terms, axis)
        prefixes = ordered_sums(terms, axis)
        total = ordered_sum(terms, axis)
    assert prefixes.dtype == total.dtype == terms.dtype
    assert prefixes.shape == expected.shape
    assert nan_blind_bits(prefixes) == nan_blind_bits(expected)
    last = np.take(expected, -1, axis=axis)
    assert total.shape == last.shape and nan_blind_bits(total) == nan_blind_bits(last)


def test_the_comparison_sees_nan_positions_and_other_bits():
    nan = np.float64(np.nan)
    signed = np.array([nan, -nan])
    assert np.signbit(signed).tolist() == [False, True]
    assert nan_blind_bits(signed) == nan_blind_bits(np.array([np.nan, np.nan]))
    assert nan_blind_bits(np.array([np.nan, 1.0])) != nan_blind_bits(np.array([1.0, np.nan]))
    assert nan_blind_bits(np.array([0.0])) != nan_blind_bits(np.array([-0.0]))
    assert nan_blind_bits(np.array([complex(np.nan, -0.0)])) != nan_blind_bits(np.array([complex(np.nan, 0.0)]))


def test_an_empty_axis_sums_to_plus_zero():
    for dtype in (float, complex):
        terms = np.zeros((3, 0, 2), dtype)
        assert ordered_sum(terms, 1).tobytes() == np.zeros((3, 2), dtype).tobytes()
        assert ordered_sums(terms, 1).tobytes() == np.zeros((3, 1, 2), dtype).tobytes()


def test_a_minus_zero_term_never_reaches_the_total():
    terms = np.array([-0.0, -0.0])
    assert not np.signbit(ordered_sum(terms, 0))
    assert not np.signbit(ordered_sums(terms, 0)).any()


def _accumulate_calls(source: str) -> list[int]:
    """Lines of every call to np.add.accumulate in the source."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "accumulate"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "add"
        and isinstance(node.func.value.value, ast.Name)
        and node.func.value.value.id == "np"
    ]


def test_the_scan_sees_accumulate_calls():
    source = "x = np.add.accumulate(a, axis=1)\ny = np.add.reduce(a)\nz = np.multiply.accumulate(a)\n"
    assert _accumulate_calls(source) == [1]


def test_np_add_accumulate_is_called_only_in_algebra():
    found = {
        path.name: _accumulate_calls(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name for name, lines in found.items() if lines} == {"algebra.py"}
