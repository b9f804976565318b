"""Two-qubit pure states, local two-outcome measurement bases, Born probabilities.

Vectors are dense complex numpy arrays; numpy is imported on first use, so
the logic modules run without it. A two-qubit state is a 4-vector laid out
row-major over (left, right) basis indices, i.e. components (00, 01, 10, 11)
with the left system as the slow index. The dimension is fixed at 2 x 2; there
is deliberately no general tensor machinery here.

Tolerances: algebraic identities (norms, orthogonality, row sums) are held to
``IDENTITY_TOL``; caller-supplied inputs are rejected at the looser
``INPUT_TOL``.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

IDENTITY_TOL = 1e-12
INPUT_TOL = 1e-9


class _LazyNumpy:
    """Stand-in for ``np`` in an array module: the first attribute read imports
    numpy and rebinds that module's ``np`` to it, so later calls use numpy itself."""

    def __init__(self, namespace: dict[str, object]) -> None:
        self._namespace = namespace

    def __getattr__(self, name: str) -> object:
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = _LazyNumpy(globals())


class ValidationError(ValueError):
    """A constructed value or an operation input violates its contract."""


class Outcome(enum.Enum):
    """Binary measurement outcome, printed as "+" or "-"."""

    PLUS = "+"
    MINUS = "-"

    __hash__ = object.__hash__  # members compare by identity; Enum.__hash__ hashes the name in Python

    def __str__(self) -> str:
        return self.value

    @property
    def opposite(self) -> Outcome:
        return Outcome.MINUS if self is Outcome.PLUS else Outcome.PLUS


#: Canonical outcome order; "+" sorts before "-" everywhere.
OUTCOMES = (Outcome.PLUS, Outcome.MINUS)


class Setting(enum.Enum):
    """Measurement choice: side L or R, alternative 1 or 2."""

    L1 = "L1"
    L2 = "L2"
    R1 = "R1"
    R2 = "R2"

    __hash__ = object.__hash__  # members compare by identity; Enum.__hash__ hashes the name in Python

    def __str__(self) -> str:
        return self.value


LEFT_SETTINGS = (Setting.L1, Setting.L2)
RIGHT_SETTINGS = (Setting.R1, Setting.R2)


def _as_vector(value: object, size: int | None, what: str) -> np.ndarray:
    """Coerce a wrapper type or array-like to a read-only finite complex vector."""
    src = getattr(value, "components", value)
    arr = np.asarray(src, dtype=complex)
    if size is not None and arr.shape != (size,):
        raise ValidationError(f"{what} must have exactly {size} components, got shape {arr.shape}")
    if arr.ndim != 1:
        raise ValidationError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if not all(map(cmath.isfinite, arr.tolist())):  # a complex component is finite only if both parts are
        raise ValidationError(f"{what} components must be finite")
    if type(src) not in (list, tuple):  # numpy builds a fresh array from a plain list or tuple; anything else may alias
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Qubit2Vector:
    """Single-system vector with finite complex components (not necessarily unit)."""

    components: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", _as_vector(self.components, 2, "Qubit2Vector"))

    def norm_squared(self) -> float:
        return float(np.vdot(self.components, self.components).real)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Two-qubit pure state; squared norm must equal 1 within ``IDENTITY_TOL``."""

    components: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_vector(self.components, 4, "StateVector")
        norm_sq = float(np.vdot(arr, arr).real)
        if abs(norm_sq - 1.0) > IDENTITY_TOL:
            raise ValidationError(f"StateVector squared norm {norm_sq!r} differs from 1 beyond {IDENTITY_TOL}")
        object.__setattr__(self, "components", arr)


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Two-outcome local basis for one setting.

    Orthonormality is an invariant of valid bases but is not enforced by the
    constructor, so that :func:`validate_basis` can be used to report exactly
    which requirement a candidate basis breaks. Operations that assume
    orthonormality check it at ``INPUT_TOL`` and raise ``ValidationError``.
    """

    plus: Qubit2Vector
    minus: Qubit2Vector
    label: Setting

    def __post_init__(self) -> None:
        if not isinstance(self.plus, Qubit2Vector):
            object.__setattr__(self, "plus", Qubit2Vector(self.plus))
        if not isinstance(self.minus, Qubit2Vector):
            object.__setattr__(self, "minus", Qubit2Vector(self.minus))
        if not isinstance(self.label, Setting):
            raise ValidationError(f"basis label must be a Setting, got {self.label!r}")

    def vector_for(self, outcome: Outcome) -> Qubit2Vector:
        return self.plus if outcome is Outcome.PLUS else self.minus


@dataclass(frozen=True)
class BasisReport:
    """Orthonormality check result; ``failures`` lists every broken requirement."""

    passed: bool
    plus_norm_error: float
    minus_norm_error: float
    overlap: float
    tol: float
    failures: tuple[str, ...]


def tensor_product(a: object, b: object) -> np.ndarray:
    """Kronecker product of two single-system vectors.

    Component (i, j) of the result is ``a_i * b_j`` at flat index ``2*i + j``
    (left factor slow). The output norm is the product of the input norms.
    """
    left = _as_vector(a, 2, "tensor_product left factor")
    right = _as_vector(b, 2, "tensor_product right factor")
    return np.kron(left, right)


def inner_product(x: object, y: object) -> complex:
    """Hermitian inner product <x|y>, conjugate-linear in the first argument."""
    xv = _as_vector(x, None, "inner_product first argument")
    yv = _as_vector(y, None, "inner_product second argument")
    if xv.shape != yv.shape:
        raise ValidationError(f"inner_product arguments must match in length, got {xv.shape} and {yv.shape}")
    return complex(np.vdot(xv, yv))


def validate_basis(basis: MeasurementBasis, tol: float = IDENTITY_TOL) -> BasisReport:
    """Check that a basis is orthonormal within ``tol`` (``0 < tol < inf``) and report the deviations."""
    if not 0.0 < tol < float("inf"):
        raise ValidationError(f"tol must be positive and finite, got {tol!r}")
    plus_err = abs(basis.plus.norm_squared() - 1.0)
    minus_err = abs(basis.minus.norm_squared() - 1.0)
    overlap = abs(complex(np.vdot(basis.plus.components, basis.minus.components)))
    failures: list[str] = []
    if plus_err > tol:
        failures.append(f"plus vector squared norm off by {plus_err:.3e}")
    if minus_err > tol:
        failures.append(f"minus vector squared norm off by {minus_err:.3e}")
    if overlap > tol:
        failures.append(f"plus/minus overlap magnitude {overlap:.3e}")
    return BasisReport(not failures, plus_err, minus_err, overlap, tol, tuple(failures))


def born_joint_probability(
    state: object,
    left_basis: MeasurementBasis,
    left_outcome: Outcome,
    right_basis: MeasurementBasis,
    right_outcome: Outcome,
) -> float:
    """Born-rule joint probability for one setting pair and one outcome pair.

    Returns ``|<v_L (x) v_R | state>|**2`` where ``v_L``/``v_R`` are the basis
    vectors assigned to the requested outcomes. The state must be unit within
    ``INPUT_TOL`` and both bases orthonormal within ``INPUT_TOL``; otherwise a
    ``ValidationError`` is raised. For a fixed setting pair the four outcome
    probabilities sum to 1 within ``IDENTITY_TOL``.
    """
    psi = _as_vector(state, 4, "state")
    norm_sq = float(np.vdot(psi, psi).real)
    if abs(norm_sq - 1.0) > INPUT_TOL:
        raise ValidationError(f"state squared norm {norm_sq!r} differs from 1 beyond {INPUT_TOL}")
    for basis in (left_basis, right_basis):
        check = validate_basis(basis, INPUT_TOL)
        if not check.passed:
            raise ValidationError(f"basis {basis.label} is not orthonormal: " + "; ".join(check.failures))
    # Basis components are validated read-only 2-vectors; their flattened outer product has np.kron's bits.
    left = left_basis.vector_for(left_outcome).components
    projector = np.multiply.outer(left, right_basis.vector_for(right_outcome).components).ravel()
    return float(abs(complex(np.vdot(projector, psi))) ** 2)
