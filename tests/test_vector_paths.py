"""``_as_vector`` gives the bits and the errors of the coercion it replaced; float norms keep their bits.

``quantum._as_vector`` once had two paths: a list or tuple of the expected
length whose items were exactly ``float`` or ``complex`` skipped the shape and
text checks, and every other input took the general path, which any input can
take. That general path is ``reference_as_vector`` below.
``quantum._norm_squared`` sums ``re*re + im*im`` as floats, the real part of the
complex sum it replaced. Only numpy's own test needs numpy, so the rest runs
under any supported Python.
"""

from __future__ import annotations

import cmath
import math
import re
from collections.abc import Sequence
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardycheck import IDENTITY_TOL, StateVector, ValidationError
from hardycheck.quantum import _as_vector, _norm_squared, _unit_state


def reference_as_vector(value: object, size: int, what: str) -> tuple[complex, ...]:
    """The general path of the two-path ``_as_vector``, each check in its order."""
    src = getattr(value, "components", value)
    if type(src) not in (list, tuple):
        if not isinstance(src, Sequence) and hasattr(src, "__array__"):
            src = src.__array__().tolist()
        if isinstance(src, (str, bytes)) or not isinstance(src, Sequence):
            raise ValidationError(f"{what} must be a sequence or array of numbers, got {type(src).__name__}")
    shape = (len(src),) + ((len(src[0]),) if src and isinstance(src[0], (list, tuple)) else ())
    if shape != (size,):
        raise ValidationError(f"{what} must have exactly {size} components, got shape {shape}")
    if any(isinstance(c, str) for c in src):
        raise ValidationError(f"{what} components must be numbers")
    try:
        vec = tuple(map(complex, src))
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} components must be numbers") from None
    if not all(map(cmath.isfinite, vec)):
        raise ValidationError(f"{what} components must be finite")
    return vec


class Subclassed(tuple):
    """A tuple whose type is not exactly ``tuple``."""


class Wrapped:
    """A value read through its ``components``, as ``_as_vector`` reads a vector object."""

    def __init__(self, components: object) -> None:
        self.components = components

    def __repr__(self) -> str:
        return f"Wrapped({self.components!r})"


class Pair(Sequence):
    """A ``Sequence`` that is neither a list nor a tuple."""

    def __init__(self, *items: object) -> None:
        self.items = items

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __repr__(self) -> str:
        return f"Pair({', '.join(map(repr, self.items))})"


def outcome(convert, value: object, size: int) -> tuple:
    """The ``float.hex`` of every part of the coerced vector, or the ``ValidationError`` text."""
    try:
        vec = convert(value, size, "StateVector")
    except ValidationError as exc:
        return ("error", str(exc))
    return ("ok", [(c.real.hex(), c.imag.hex()) for c in vec])


def assert_matches_reference(value: object, size: int) -> None:
    """``_as_vector`` gives the reference's bits or error text on ``value`` and on a wrapper holding it."""
    for given_value in (value, Wrapped(value)):
        assert outcome(_as_vector, given_value, size) == outcome(reference_as_vector, given_value, size)


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
# Items that are not exactly float or complex; the two-path coercion read them on its general path.
@example(size=2, parts=[True, 0.5])
@example(size=4, parts=[0.5, 0.5, 0.5, False])
@example(size=2, parts=[0, 0.5])
@example(size=4, parts=[0.5, 0.5, 0.5, 1])
@example(size=2, parts=[Fraction(1, 3), 0.5])
@example(size=4, parts=[0.5, 0.5, 0.5, Fraction(1, 3)])
@example(size=2, parts=[10**400, 0.5])
@example(size=4, parts=[0.5, 0.5, 0.5, 10**400])
# Two checks fail; the first in the order shape, text, conversion names the error.
@example(size=2, parts=[[1, 2], "x"])
@example(size=2, parts=["x", [1, 2]])
@example(size=2, parts=["1", [1, 2]])
@example(size=2, parts=[[1, 2], 3, 4])
@example(size=2, parts=[[1, 2], [3]])
@example(size=2, parts=[[]])
@example(size=2, parts=[1, [2]])
@example(size=2, parts=[[1, 2], [3, 4]])
def test_one_path_gives_the_reference_bits_or_error(size: int, parts: list) -> None:
    for container in (list, tuple, Subclassed):
        assert_matches_reference(container(parts), size)


@pytest.mark.parametrize(
    ("value", "message"),
    [
        ([[1, 2], "x"], "StateVector must have exactly 2 components, got shape (2, 2)"),
        (["x", [1, 2]], "StateVector components must be numbers"),
        (["1", [1, 2]], "StateVector components must be numbers"),
        ([[1, 2], 3, 4], "StateVector must have exactly 2 components, got shape (3, 2)"),
        ([[1, 2], [3]], "StateVector must have exactly 2 components, got shape (2, 2)"),
        ([[]], "StateVector must have exactly 2 components, got shape (1, 0)"),
        ((1, [2]), "StateVector components must be numbers"),
        (("x", math.inf), "StateVector components must be numbers"),
        ([1, math.nan, 3], "StateVector must have exactly 2 components, got shape (3,)"),
        (Wrapped([[1, 2], [3, 4]]), "StateVector must have exactly 2 components, got shape (2, 2)"),
        (Wrapped("ab"), "StateVector must be a sequence or array of numbers, got str"),
    ],
    ids=repr,
)
def test_the_first_failing_check_names_the_error(value: object, message: str) -> None:
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        _as_vector(value, 2, "StateVector")
    assert outcome(reference_as_vector, value, 2) == ("error", message)


@pytest.mark.parametrize(
    "value",
    [range(2), {0.6, 0.8}, "ab", b"ab", bytearray(b"ab"), None, 0.5, Pair(0.6, 0.8), Pair(0.6, "x"), Pair([1], 2)],
    ids=repr,
)
def test_other_inputs_give_the_reference_bits_or_error(value: object) -> None:
    for size in (2, 4):
        assert_matches_reference(value, size)


def test_numpy_inputs_give_the_reference_bits_or_error() -> None:
    np = pytest.importorskip("numpy")
    arrays = [np.array([0.6, 0.8]), np.array([1, 2]), np.zeros((2, 2)), np.zeros((2, 0)), np.array(["1", "2"])]
    lists = [[np.float64(0.6), 0.8], [np.str_("1"), 0.5], [np.float64(np.inf), 0.5], [np.complex128(1j), 0.5]]
    for value in arrays + [np.float64(0.5)] + [container(v) for v in lists for container in (list, tuple, Subclassed)]:
        assert_matches_reference(value, 2)
    assert outcome(_as_vector, [np.float64(0.6), 0.8], 2) == ("ok", [((0.6).hex(), "0x0.0p+0"), ((0.8).hex(), "0x0.0p+0")])
    assert outcome(_as_vector, np.zeros((2, 0)), 2)[1] == "StateVector must have exactly 2 components, got shape (2, 0)"


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
