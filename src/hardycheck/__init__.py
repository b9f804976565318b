"""Verification toolkit for Hardy-type two-qubit nonlocality.

Four layers: Born-rule quantum predictions for an angle-parametrized
configuration family (three zero-probability joint events plus one strictly
positive one), exhaustive counterfactual machine checks of the statement SR
at both left contexts, deterministic local-strategy feasibility, and scalar
maximization of the paradox probability. A CLI exposes each layer as a
reproducible report.

Each submodule is in ``sys.modules`` and is a package attribute from ``import hardycheck`` on, but its code runs
only on its first attribute read, so a CLI command runs only the modules it uses. The first read of an exported
name binds every export (PEP 562), which runs all six.
"""

from __future__ import annotations

import _thread
from types import ModuleType as _ModuleType

#: Each exported name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        (
            "quantum",
            "IDENTITY_TOL INPUT_TOL LEFT_SETTINGS OUTCOMES RIGHT_SETTINGS BasisReport MeasurementBasis Outcome Setting"
            " StateVector ValidationError born_joint_probability validate_basis",
        ),
        (
            "counterfactuals",
            "INSTANCE_FIELDS Constraint ConstraintSet CounterfactualInstance LocalityReport Property1Report"
            " Property2Report SRVerdict check_property1 check_property2 enumerate_instances evaluate_sr"
            " hardy_constraint_set locality_violation_report realizes satisfies_zeros",
        ),
        (
            "hardy",
            "NO_SIGNALLING_TOL OUTCOME_PAIRS SETTING_PAIRS ZERO_TOL HardyConfiguration JointProbabilityTable"
            " NoSignallingReport PredictionReport build_hardy_configuration from_hardy_notation joint_probability_table"
            " no_signalling_check to_hardy_notation verify_hardy_predictions",
        ),
        (
            "lhv",
            "FeasibilityResult LocalStrategy TraceStep enumerate_strategies hardy_lhv_feasibility strategy_realizes"
            " strategy_satisfies",
        ),
        (
            "optimize",
            "DEFAULT_BRACKET ConvergenceError ObjectiveReport maximize_paradox paradox_probability reference_curve"
            " reference_grid_maximum",
        ),
        ("render", "UsageError render_report to_json_text"),
    )
    for name in names.split()
}

__version__ = "0.1.0"

#: Constants, then classes, then functions.
__all__ = sorted(_EXPORTS, key=lambda name: (not name.isupper(), name[0].islower(), name))


_RUNNING = _thread.RLock()  # one for all six, since running one runs those it imports


class _LazyModule(_ModuleType):
    """A submodule whose code runs on its first attribute read, under ``_RUNNING``.

    Another thread's read waits until the code has run, and only then does the module become a plain module.
    ``importlib.util.LazyLoader`` makes it one before running the code (before Python 3.13), so a second thread
    could read a half-run module. A read from the running thread, such as the import system's, reads on.
    """

    def __getattribute__(self, name: str) -> object:
        with _RUNNING:
            spec = _ModuleType.__getattribute__(self, "__spec__")
            if type(self) is _LazyModule and spec.loader_state is None:  # None until the run starts
                spec.loader_state = "running"
                spec.loader.exec_module(self)
                self.__class__ = _ModuleType
        return _ModuleType.__getattribute__(self, name)


def _lazy(name: str) -> _ModuleType:
    """The submodule, in ``sys.modules`` but unrun."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    return module


quantum, counterfactuals, hardy, lhv, optimize, render = map(_lazy, dict.fromkeys(_EXPORTS.values()))  # in that order


def __getattr__(name: str) -> object:
    """Bind every export on the first miss, so ``vars()`` holds them all from then on, and then leave.

    While a module has a ``__getattr__``, Python 3.11+ does not specialize reads of its attributes: a
    ``hardycheck.name`` read would cost ~50 ns instead of ~12. A later miss gets the plain module's AttributeError.
    """
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for export, module in _EXPORTS.items():
        namespace[export] = getattr(namespace[module], export)
    namespace.pop("__getattr__", None)  # another thread may have bound them too
    return namespace[name]


def __dir__() -> list[str]:
    """The same names before the first miss as after it."""
    return sorted({*globals(), *_EXPORTS} - {"__getattr__"})
