"""Two-qubit pure states, local two-outcome measurement bases, Born probabilities.

Vectors are tuples of Python ``complex``, in pure Python: no array library is
imported, and an ndarray input is read through its ``tolist()``. A two-qubit
state is a 4-vector laid out row-major over (left, right) basis indices, i.e.
components (00, 01, 10, 11) with the left system as the slow index. The
dimension is fixed at 2 x 2; there is deliberately no general tensor machinery
here.

Amplitudes ``<x|y> = sum_k conj(x_k) * y_k`` have their rounding defined here,
not by a BLAS kernel. The real part sums the products ``re(x_k)*re(y_k)`` and
``im(x_k)*im(y_k)``, the imaginary part ``re(x_k)*im(y_k)`` and
``-im(x_k)*re(y_k)``, each in index order: a product with an exactly zero
factor is skipped, the first other one is rounded once, and each later one is
added with a correctly rounded fused multiply-add. That step splits both factors
into halves whose four products are exact (Veltkamp/Dekker) and rounds their sum
with the addend once (``math.fsum``); when a factor or product is too large or the
product too small for exact halves, or the sum overflows, it runs in exact integer
arithmetic instead. Norms and overlaps are only compared to a tolerance. A squared
norm sums ``re*re + im*im`` over the components in index order in float
arithmetic, which rounds as the real part of ``sum(c * c.conjugate())`` does;
overlaps use plain complex arithmetic.

Tolerances: algebraic identities (norms, orthogonality, row sums) are held to
``IDENTITY_TOL``, where a ``StateVector``'s norm is checked once, when built.
The Born rule takes the state only as a ``StateVector``. Bases do not enforce
orthonormality: a basis checks itself at the looser ``INPUT_TOL`` once, when
built, and each Born call reads both bases' stored reports; a check at any
other tolerance compares the deviations the basis was built with. Each check
and the Born kernel exist once, as private functions on plain vectors. The
constructors and ``born_joint_probability`` call them, and so does the
optimizer's objective, which builds no object: it runs them on the builder's
float vectors as they are (a float reads as a complex number with a ``+0.0``
imaginary part, so every value has the bits the objects give).
"""

from __future__ import annotations

import cmath
import enum
import math
from collections.abc import Sequence
from dataclasses import FrozenInstanceError
from operator import attrgetter

IDENTITY_TOL = 1e-12
INPUT_TOL = 1e-9


class ValidationError(ValueError):
    """A constructed value or an operation input violates its contract."""


class Outcome(enum.Enum):
    """Binary measurement outcome, printed as "+" or "-"."""

    PLUS = "+"
    MINUS = "-"

    __hash__ = object.__hash__  # members compare by identity; Enum.__hash__ hashes the name in Python

    def __str__(self) -> str:
        return self._value_  # the member attribute; .value goes through the Enum descriptor

    @property
    def opposite(self) -> Outcome:
        return Outcome.MINUS if self is Outcome.PLUS else Outcome.PLUS


#: Canonical outcome order; "+" sorts before "-" everywhere.
OUTCOMES = (Outcome.PLUS, Outcome.MINUS)
_PLUS, _MINUS = OUTCOMES  # module names: on Python 3.10 and 3.11 each Outcome.PLUS load costs ~0.1 us


class Setting(enum.Enum):
    """Measurement choice: side L or R, alternative 1 or 2."""

    L1 = "L1"
    L2 = "L2"
    R1 = "R1"
    R2 = "R2"

    __hash__ = object.__hash__  # members compare by identity; Enum.__hash__ hashes the name in Python

    def __str__(self) -> str:
        return self._value_


LEFT_SETTINGS = (Setting.L1, Setting.L2)
RIGHT_SETTINGS = (Setting.R1, Setting.R2)
#: Hardy's four events as (label, (left, right) settings, (left, right) outcomes) rows: three zeros, then the paradox.
_HARDY_ZEROS = (
    ("Eq1", (Setting.L2, Setting.R2), (_MINUS, _PLUS)),
    ("Eq2", (Setting.L2, Setting.R1), (_PLUS, _PLUS)),
    ("Eq3", (Setting.L1, Setting.R2), (_MINUS, _MINUS)),
)
_HARDY_PARADOX = ("Eq4", (Setting.L1, Setting.R1), (_MINUS, _PLUS))

_PLAIN_NUMBERS = frozenset((float, complex))  # items of exactly these types pass _as_vector's shape and text checks


def _as_vector(value: object, size: int, what: str) -> tuple[complex, ...]:
    """Coerce a wrapper type, sequence or array-like to a finite complex vector, a fresh tuple."""
    src = getattr(value, "components", value)
    if type(src) not in (list, tuple):
        if not isinstance(src, Sequence) and hasattr(src, "__array__"):  # an array, read without importing numpy
            src = src.__array__().tolist()
        if isinstance(src, (str, bytes)) or not isinstance(src, Sequence):
            raise ValidationError(f"{what} must be a sequence or array of numbers, got {type(src).__name__}")
    if len(src) != size or not _PLAIN_NUMBERS.issuperset(map(type, src)):
        shape = (len(src),) + ((len(src[0]),) if src and isinstance(src[0], (list, tuple)) else ())
        if shape != (size,):
            raise ValidationError(f"{what} must have exactly {size} components, got shape {shape}")
        if any(isinstance(c, str) for c in src):  # complex() would parse it
            raise ValidationError(f"{what} components must be numbers")
    try:
        vec = tuple(map(complex, src))
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} components must be numbers") from None
    if not all(map(cmath.isfinite, vec)):  # a complex component is finite only if both parts are
        raise ValidationError(f"{what} components must be finite")
    return vec


def _require(value: object, cls: type, what: str) -> object:
    """``value`` if it is a ``cls``, else a ``ValidationError`` naming ``what`` and the type it got."""
    if not isinstance(value, cls):
        raise ValidationError(f"{what} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _shown(value: object) -> str:
    """A caller's value in a message: its ``repr``, which fails on an int of too many digits (a float's cannot)."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"


class Record:
    """A frozen record of the names annotated in its class body, after those of its bases (``_fields``, at least one).

    This ``__init__`` takes each field once, by position or keyword; a type with checks, or built per op, has its own.
    ``repr`` names the fields, eq and hash compare their values (identity for a type declared with ``eq=False``), every
    name is frozen, and ``__replace__`` (``copy.replace`` on 3.13) builds the copy through ``__init__``, checks and all.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*cls._fields)  # a bare value for one field, a tuple for more
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))  # the field values, in order
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args: object, **kwargs: object) -> None:
        names, values = self._fields, dict(zip(self._fields, args), **kwargs)  # a repeated field is counted below
        if len(args) > len(names) or len(values) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes each of {', '.join(names)} once, by position or keyword")
        # Every multi-field store is one update from a dict: item by item into a fresh instance's dict, Python 3.11
        # keeps a split table, on which attribute reads do not specialize (~4x slower).
        self.__dict__.update(values)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self._values))})"

    def __eq__(self, other: object) -> bool:
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name: str, *value: object) -> None:  # and __delattr__, which passes no value
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def __replace__(self, /, **changes: object) -> Record:
        return type(self)(**dict(zip(self._fields, self._values), **changes))


def _as_float(value: object, what: str) -> float:
    """``float(value)`` for a real number in float range, else a ``ValidationError`` naming ``what``.

    Text is not parsed: ``float()`` would read a ``str`` or any buffer, which has neither conversion hook.
    """
    if type(value) is float:
        return value
    if hasattr(type(value), "__float__") or hasattr(type(value), "__index__"):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"{what} must be a real number in float range, got {_shown(value)}")


def _norm_squared(vec: tuple[complex, ...]) -> float:
    """``sum(c * c.conjugate() for c in vec).real`` bit for bit: that part of each term is ``re*re + im*im``."""
    total = 0.0
    for c in vec:
        re, im = c.real, c.imag
        total += re * re + im * im
    return total


_SPLIT, _BIG, _TINY = 134217729.0, 2.0**995, 2.0**-960  # 2**27 + 1; bounds where no split overflows, no product rounds
_INF = math.inf


def _fma(a: float, b: float, c: float) -> float:
    """``a*b + c`` computed exactly, then rounded once to the nearest float (ties to even).

    If ``c`` is finite, ``|a|, |b| < 2**995`` and ``2**-960 < |a*b| < 2**995``, both factors are split into 26-bit
    halves (Veltkamp/Dekker), so the four partial products are exact, and ``math.fsum`` rounds their sum with ``c``
    once. Otherwise, or when ``fsum`` overflows, the sum is formed in exact integer arithmetic.
    Only a fused step reaches it: ``_amplitude`` skips a zero factor and rounds a product onto a zero sum with ``*``.
    """
    if _TINY < abs(a * b) < _BIG and abs(a) < _BIG and abs(b) < _BIG and -_INF < c < _INF:
        ah, bh = (t := _SPLIT * a) - (t - a), (u := _SPLIT * b) - (u - b)
        al, bl = a - ah, b - bh
        try:
            return math.fsum((ah * bh, ah * bl, al * bh, al * bl, c))
        except OverflowError:  # the sum exceeds the float range; the integer path returns the signed infinity
            pass
    if math.isinf(c):  # a sum that overflowed stays infinite, as in IEEE arithmetic
        return c
    (an, ad), (bn, bd), (cn, cd) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    pd = ad * bd  # denominators are powers of two, so the larger one is a multiple of the other
    num, den = (an * bn + cn * (pd // cd), pd) if pd > cd else (an * bn * (cd // pd) + cn, cd)
    try:
        return num / den  # int / int rounds correctly in CPython
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _amplitude(xs: tuple[complex, ...], ys: tuple[complex, ...]) -> complex:
    """``sum_k conj(x_k) * y_k``: each part is an fma chain over its real products, in index order."""
    re = im = 0.0
    for x, y in zip(xs, ys):
        if not y:  # both parts zero: every product below has a zero factor
            continue
        xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
        if xr and yr:
            re = _fma(xr, yr, re) if re else xr * yr
        if xi and yi:
            re = _fma(xi, yi, re) if re else xi * yi
        if xr and yi:
            im = _fma(xr, yi, im) if im else xr * yi
        if xi and yr:
            im = _fma(-xi, yr, im) if im else -xi * yr
    return complex(re, im)


class StateVector(Record, eq=False):
    """Two-qubit pure state; squared norm must equal 1 within ``IDENTITY_TOL``."""

    components: tuple[complex, ...]

    def __init__(self, components: object) -> None:
        object.__setattr__(self, "components", _unit_state(_as_vector(components, 4, "StateVector")))


def _unit_state(vec: tuple[complex, ...]) -> tuple[complex, ...]:
    """``vec`` if its squared norm is 1 within ``IDENTITY_TOL``: a ``StateVector``'s norm check."""
    norm_sq = _norm_squared(vec)
    if abs(norm_sq - 1.0) > IDENTITY_TOL:
        raise ValidationError(f"StateVector squared norm {norm_sq!r} differs from 1 beyond {IDENTITY_TOL}")
    return vec


class MeasurementBasis(Record, eq=False):
    """Two-outcome local basis for one setting; ``plus`` and ``minus`` are kept as checked complex pairs.

    Orthonormality is an invariant of valid bases but is not enforced by the
    constructor, so that :func:`validate_basis` can be used to report exactly
    which requirement a candidate basis breaks. The deviations are computed once, when
    built (an overlap whose terms exceed the float range reads as ``inf``), and so is the
    ``BasisReport`` at ``INPUT_TOL``. Operations that assume orthonormality read that
    report and raise ``ValidationError``.
    """

    plus: tuple[complex, complex]
    minus: tuple[complex, complex]
    label: Setting

    def __init__(self, plus: object, minus: object, label: Setting) -> None:
        plus = _as_vector(plus, 2, "plus")
        minus = _as_vector(minus, 2, "minus")
        if not isinstance(label, Setting):
            raise ValidationError(f"basis label must be a Setting, got {_shown(label)}")
        report = _basis_report(*_basis_deviations(plus, minus), INPUT_TOL)  # at INPUT_TOL, once; not a field
        self.__dict__.update(plus=plus, minus=minus, label=label, _report=report)

    def vector_for(self, outcome: Outcome) -> tuple[complex, complex]:
        if outcome is not _PLUS and outcome is not _MINUS:  # identity: no __eq__ of the argument runs
            raise ValidationError(f"outcome must be an Outcome, got {_shown(outcome)}")
        return self.plus if outcome is _PLUS else self.minus


class BasisReport(Record):
    """Orthonormality check result; ``failures`` lists every broken requirement."""

    passed: bool
    plus_norm_error: float
    minus_norm_error: float
    overlap: float
    tol: float
    failures: tuple[str, ...]

    def __init__(self, passed, plus_norm_error, minus_norm_error, overlap, tol, failures) -> None:  # one per basis
        self.__dict__.update(
            passed=passed, plus_norm_error=plus_norm_error, minus_norm_error=minus_norm_error, overlap=overlap, tol=tol,
            failures=failures,
        )


def _basis_deviations(plus_vec: tuple[complex, ...], minus_vec: tuple[complex, ...]) -> tuple[float, float, float]:
    """Both squared-norm errors and the overlap magnitude, ``inf`` when the overlap's terms exceed the float range."""
    (p0, p1), (m0, m1) = plus_vec, minus_vec  # each squared norm below is summed in _norm_squared's order
    plus_err = abs(p0.real * p0.real + p0.imag * p0.imag + (p1.real * p1.real + p1.imag * p1.imag) - 1.0)
    minus_err = abs(m0.real * m0.real + m0.imag * m0.imag + (m1.real * m1.real + m1.imag * m1.imag) - 1.0)
    try:
        overlap = abs(p0.conjugate() * m0 + p1.conjugate() * m1)
    except OverflowError:  # finite components whose overlap magnitude exceeds the float range
        overlap = math.inf
    overlap = math.inf if math.isnan(overlap) else overlap  # terms that overflow to opposite infinities
    return plus_err, minus_err, overlap


def _basis_failures(plus_err: float, minus_err: float, overlap: float, tol: float) -> tuple[str, ...]:
    """Every orthonormality requirement these deviations break at ``tol``; empty when none is."""
    if plus_err <= tol and minus_err <= tol and overlap <= tol:
        return ()
    failures: list[str] = []
    if plus_err > tol:
        failures.append(f"plus vector squared norm off by {plus_err:.3e}")
    if minus_err > tol:
        failures.append(f"minus vector squared norm off by {minus_err:.3e}")
    if overlap > tol:
        failures.append(f"plus/minus overlap magnitude {overlap:.3e}")
    return tuple(failures)


def _basis_report(plus_err: float, minus_err: float, overlap: float, tol: float) -> BasisReport:
    failures = _basis_failures(plus_err, minus_err, overlap, tol)
    return BasisReport(not failures, plus_err, minus_err, overlap, tol, failures)


def _not_orthonormal(label: Setting, failures: tuple[str, ...]) -> ValidationError:
    """The Born rule's error for the basis ``label`` that breaks ``failures`` at ``INPUT_TOL``."""
    return ValidationError(f"basis {label} is not orthonormal: " + "; ".join(failures))


def _born(left: tuple[complex, ...], right: tuple[complex, ...], psi: tuple[complex, ...]) -> float:
    """``|<left (x) right | psi>|**2``, the Born kernel, for checked vectors."""
    (l0, l1), (r0, r1) = left, right
    return abs(_amplitude((l0 * r0, l0 * r1, l1 * r0, l1 * r1), psi)) ** 2


def validate_basis(basis: MeasurementBasis, tol: float = IDENTITY_TOL) -> BasisReport:
    """Check that a basis is orthonormal within ``tol`` (``0 < tol < inf``).

    At ``INPUT_TOL`` it returns the report the basis stored when built; at any other tolerance it
    builds one from the deviations the basis stored.
    """
    _require(basis, MeasurementBasis, "basis")
    tol = tol if type(tol) is float else _as_float(tol, "tol")
    if not 0.0 < tol < _INF:
        raise ValidationError(f"tol must be positive and finite, got {tol!r}")
    report = basis._report
    if tol == INPUT_TOL:
        return report
    return _basis_report(report.plus_norm_error, report.minus_norm_error, report.overlap, tol)


def born_joint_probability(
    state: StateVector,
    left_basis: MeasurementBasis,
    left_outcome: Outcome,
    right_basis: MeasurementBasis,
    right_outcome: Outcome,
) -> float:
    """Born-rule joint probability for one setting pair and one outcome pair.

    Returns ``|<v_L (x) v_R | state>|**2`` where ``v_L``/``v_R`` are the basis
    vectors assigned to the requested outcomes. The state must be a
    ``StateVector`` (its norm was checked once, when it was built) and both bases
    orthonormal within ``INPUT_TOL``, checked per call; otherwise a
    ``ValidationError`` is raised. For a fixed setting pair the four outcome
    probabilities sum to 1 within ``IDENTITY_TOL``.
    """
    psi = _require(state, StateVector, "state").components
    if not (check := validate_basis(left_basis, INPUT_TOL)).passed:
        raise _not_orthonormal(left_basis.label, check.failures)
    if not (check := validate_basis(right_basis, INPUT_TOL)).passed:
        raise _not_orthonormal(right_basis.label, check.failures)
    return _born(left_basis.vector_for(left_outcome), right_basis.vector_for(right_outcome), psi)
