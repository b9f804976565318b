"""The constructors' short paths give the bits and the errors of the general ones.

``quantum._as_vector`` takes a short path for a list or tuple of the expected
length whose items are exactly ``float`` or ``complex``; a ``tuple`` subclass
holding the same items always takes the general path. ``quantum._norm_squared``
sums ``re*re + im*im`` as floats, the real part of the complex sum it replaced.
Only numpy's own test needs numpy, so the rest runs under any supported Python.
"""

from __future__ import annotations

import inspect
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardycheck import IDENTITY_TOL, StateVector, ValidationError
from hardycheck.quantum import _as_vector, _norm_squared, _unit_state

_SOURCE, _FIRST = inspect.getsourcelines(_as_vector)
#: The first line only the general path runs.
_GENERAL_LINE = _FIRST + next(i for i, line in enumerate(_SOURCE) if line.lstrip().startswith("shape = "))


class Subclassed(tuple):
    """A tuple whose type is not exactly ``tuple``, so ``_as_vector`` reads it on the general path."""


def took_general_path(value: object, size: int) -> bool:
    """Whether ``_as_vector(value, size, ...)`` runs its general path (an error is fine)."""
    lines: set[int] = set()

    def trace(frame, event, arg):
        if frame.f_code is not _as_vector.__code__:
            return None
        if event == "line":
            lines.add(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        _as_vector(value, size, "v")
    except ValidationError:
        pass
    finally:
        sys.settrace(previous)
    return _GENERAL_LINE in lines


def outcome(value: object, size: int) -> tuple:
    """The ``float.hex`` of every part of the coerced vector, or the ``ValidationError`` text."""
    try:
        vec = _as_vector(value, size, "StateVector")
    except ValidationError as exc:
        return ("error", str(exc))
    return ("ok", [(c.real.hex(), c.imag.hex()) for c in vec])


edge_parts = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.3e154, 1e300, -1.7976931348623157e308]
)
float_parts = st.one_of(st.floats(allow_subnormal=True), edge_parts, st.sampled_from([math.inf, -math.inf, math.nan]))
items = st.one_of(float_parts, st.builds(complex, float_parts, float_parts))


@settings(max_examples=500, deadline=None)
@given(size=st.sampled_from([2, 4]), parts=st.lists(items, max_size=6))
@example(size=2, parts=[-0.0, complex(-0.0, -0.0)])
@example(size=4, parts=[5e-324, complex(0.0, -5e-324), 1e300, -1e300])
@example(size=2, parts=[math.inf, 0.0])
@example(size=2, parts=[complex(0.0, math.nan), 1.0])
@example(size=4, parts=[1.0, 0.0])
def test_short_path_gives_the_general_paths_bits_or_error(size: int, parts: list) -> None:
    expected = outcome(Subclassed(parts), size)
    assert outcome(tuple(parts), size) == expected
    assert outcome(list(parts), size) == expected
    assert took_general_path(Subclassed(parts), size)
    assert took_general_path(tuple(parts), size) == (len(parts) != size)


@pytest.mark.parametrize(
    "item", [True, False, 0, 1, Fraction(1, 3), 10**400], ids=["True", "False", "0", "1", "Fraction", "bigint"]
)
@pytest.mark.parametrize("container", [list, tuple])
def test_items_not_exactly_float_or_complex_take_the_general_path(container: type, item: object) -> None:
    for value in (container([item, 0.5]), container([0.5, 0.5, 0.5, item])):
        size = len(value)
        assert took_general_path(value, size)
        assert outcome(value, size) == outcome(Subclassed(value), size)


def test_numpy_float64_items_take_the_general_path() -> None:
    np = pytest.importorskip("numpy")
    value = [np.float64(0.6), 0.8]
    assert took_general_path(value, 2)
    assert outcome(value, 2) == ("ok", [((0.6).hex(), (0.0).hex()), ((0.8).hex(), (0.0).hex())])


def complex_sum_norm(vec: tuple[complex, ...]) -> float:
    """The squared norm as the package computed it before: the real part of a complex ``sum``."""
    return sum([c * c.conjugate() for c in vec]).real


finite_parts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.floats(min_value=-1.0, max_value=1.0),  # squares of one size, so the order of the additions shows
    edge_parts,
    st.sampled_from([1.5e154, -1.4e154, 9.5e153]),  # squares at or just past the float range
)
finite_complexes = st.builds(complex, finite_parts, finite_parts)


@settings(max_examples=1000, deadline=None)
@given(vec=st.one_of(st.tuples(*[finite_complexes] * 2), st.tuples(*[finite_complexes] * 4)))
@example(vec=(complex(1.5e154, 0.0), complex(0.0, 1.5e154)))
@example(vec=(complex(1e200, 1e200), 0j, 0j, complex(-0.0, 5e-324)))
@example(vec=(complex(0.6, 1e-17), complex(0.8, -1e-17)))
@example(vec=(complex(0.48, 0.845), complex(-0.942, -0.069)))  # adding re*re and im*im one at a time differs
def test_float_norm_is_the_complex_sum_bit_for_bit(vec: tuple[complex, ...]) -> None:
    assert _norm_squared(vec).hex() == complex_sum_norm(vec).hex()


@settings(max_examples=300, deadline=None)
@given(vec=st.tuples(*[finite_complexes] * 4))
@example(vec=(complex(1.5e154, 0.0), 0j, 0j, 0j))
@example(vec=(1 + 0j, 1e-6 + 0j, 0j, 0j))
@example(vec=(0.6 + 0j, 0.8 + 0j, 0j, 0j))
def test_state_norm_error_text_is_unchanged(vec: tuple[complex, ...]) -> None:
    norm_sq = complex_sum_norm(vec)
    if abs(norm_sq - 1.0) > IDENTITY_TOL:
        message = f"StateVector squared norm {norm_sq!r} differs from 1 beyond {IDENTITY_TOL}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            StateVector(vec)
    else:
        assert StateVector(vec).components == vec


@settings(max_examples=300, deadline=None)
@given(vec=st.tuples(*[finite_parts] * 4))
@example(vec=(1.0, 0.0, 0.0, 1.0))
@example(vec=(0.6, 0.0, -0.0, 0.8))
@example(vec=(1.5e154, 0.0, 0.0, 0.0))
def test_a_float_state_passes_the_norm_check_as_it_is_or_with_the_constructors_error(
    vec: tuple[float, ...],
) -> None:
    """The objective's norm check on a float tuple returns that tuple, or raises ``StateVector``'s message."""
    try:
        StateVector(vec)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
            _unit_state(vec)
    else:
        assert _unit_state(vec) is vec
