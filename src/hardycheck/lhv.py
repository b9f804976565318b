"""Deterministic local strategies and their infeasibility under the Hardy constraints.

A local strategy pre-assigns an outcome to every measurement on both sides,
each side reading only its own setting:

    o_L : {L1, L2} -> {+, -}        o_R : {R1, R2} -> {+, -}

so every one of the four measurements carries a pre-assigned value at once
and the right side cannot see the left choice. There are 2**4 = 16 strategies.
A strategy is feasible when its embedded instance is in the constraint
set's allowed and realized instance sets. A mixture must keep each zero in every supported strategy
but needs each positivity event in only one of them, so this settles
mixture feasibility when there is at most one positivity event, as in the
Hardy set and its drop-one variants; with two or more, a mixture can pass
where no single strategy does. An infeasible verdict comes with a deduction
trace, the package's one unit propagation over the zero events.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from .counterfactuals import (
    Constraint,
    ConstraintSet,
    CounterfactualInstance,
    OutcomeAssignment,
    hardy_constraint_set,
    realizes,
    satisfies_zeros,
)
from .quantum import OUTCOMES, Outcome, Record, _require


class LocalStrategy(OutcomeAssignment):
    """Outcome pre-assignment, stored as (o_L(L1), o_L(L2), o_R(R1), o_R(R2)).

    Every question about a strategy is answered by its embedding into the
    counterfactual carrier, built with the strategy.
    """

    _size = 4
    _noun = "a strategy"

    def __init__(self, outcomes: Iterable[Outcome]) -> None:
        super().__init__(outcomes)
        l1, l2, r1, r2 = self.outcomes  # not a field, so eq, hash and JSON ignore it
        self.__dict__["_instance"] = CounterfactualInstance((l1, l2, r1, r2, r1, r2))

    def as_instance(self) -> CounterfactualInstance:
        """Embed into the counterfactual carrier; the right entries ignore the left choice."""
        return self._instance


_STRATEGIES = tuple(LocalStrategy(combo) for combo in itertools.product(OUTCOMES, repeat=4))


def enumerate_strategies() -> tuple[LocalStrategy, ...]:
    """All 16 strategies in lexicographic order ("+" < "-")."""
    return _STRATEGIES


def strategy_realizes(strategy: LocalStrategy, constraint: Constraint) -> bool:
    return realizes(_require(strategy, LocalStrategy, "strategy").as_instance(), constraint)


def strategy_satisfies(strategy: LocalStrategy, constraint_set: ConstraintSet) -> bool:
    """True when the strategy realizes none of the zero events.

    Positivity events are existentials over a set of strategies, so they are
    checked at the set level by :func:`hardy_lhv_feasibility`, not here.
    """
    return satisfies_zeros(_require(strategy, LocalStrategy, "strategy").as_instance(), constraint_set)


class TraceStep(Record):
    """One step of the deduction over the zero events."""

    constraint: str
    assignment: str
    kind: str  # "forced" or "contradiction"

    def __init__(self, constraint: str, assignment: str, kind: str) -> None:  # a few per infeasible set
        self.__dict__.update(constraint=constraint, assignment=assignment, kind=kind)


@dataclass(frozen=True)
class FeasibilityResult:
    """The witnesses among the 16 strategies, plus a deduction trace when there are none.

    ``feasible`` is true exactly when ``witnesses`` is nonempty, that is when
    one strategy realizes every positivity event (see the module note). For an
    infeasible set, ``assumed`` names the positivity assignments the deduction
    starts from and ``trace`` lists the forced steps up to the contradiction.
    """

    feasible: bool
    witnesses: tuple[LocalStrategy, ...]
    assumed: tuple[str, ...]
    trace: tuple[TraceStep, ...]
    constraint_set: ConstraintSet

    def to_json_dict(self) -> dict[str, object]:
        return {
            "feasible": self.feasible,
            "witness_count": len(self.witnesses),
            "witnesses": [list(w.labels()) for w in self.witnesses],
            "assumed": self.assumed,
            "trace": self.trace,
            "constraint_set": self.constraint_set,
        }


def _strategy_slots(event: Constraint) -> tuple[str, str]:
    left, right = event.settings
    return f"o_L({left})", f"o_R({right})"


def _deduction_trace(constraint_set: ConstraintSet) -> tuple[tuple[str, ...], tuple[TraceStep, ...]]:
    """Seed strategy slots from the positivity events, then propagate the zeros.

    Unit propagation: a zero event with one slot on its outcome forces the other
    slot off it. The zeros are scanned in order to a fixpoint, up to the first
    zero event whose two slots both take its outcomes (a contradiction).
    """
    assigned: dict[str, Outcome] = {}
    assumed: list[str] = []
    for positive in constraint_set.positivity:
        parts = []
        for name, outcome in zip(_strategy_slots(positive), positive.outcomes):
            previous = assigned.setdefault(name, outcome)
            if previous is not outcome:
                clash = TraceStep(positive.label, f"contradiction: {name} already forced to {previous}", "contradiction")
                return tuple(assumed), (clash,)
            parts.append(f"{name} = {outcome}")
        assumed.append(f"{positive.label}: " + ", ".join(parts))
    steps: list[TraceStep] = []
    changed = True
    while changed:
        changed = False
        for zero in constraint_set.zeros:
            names = _strategy_slots(zero)
            now = (assigned.get(names[0]), assigned.get(names[1]))
            if now == zero.outcomes:
                steps.append(TraceStep(zero.label, f"contradiction: event {zero.event_text()} realized", "contradiction"))
                return tuple(assumed), tuple(steps)
            for known, free in ((0, 1), (1, 0)):
                if now[known] is zero.outcomes[known] and now[free] is None:
                    forced = zero.outcomes[free].opposite
                    assigned[names[free]] = forced
                    steps.append(TraceStep(zero.label, f"forces {names[free]} = {forced}", "forced"))
                    changed = True
    return tuple(assumed), tuple(steps)


def hardy_lhv_feasibility(constraint_set: ConstraintSet | None = None) -> FeasibilityResult:
    """The strategies satisfying every zero and realizing every positivity event.

    A strategy passes when its embedded instance is in the allowed and the
    realized instance set. With at most one positivity event this equals
    mixture feasibility; with more, a mixture can pass where no strategy does.
    For the full Hardy set none passes, and the trace closes in three steps:
    assuming (L1-, R1+), the zero on (L2,R1) forces o_L(L2) = -, the zero on
    (L1,R2) forces o_R(R2) = +, and the zero on (L2,R2) is realized outright.
    Dropping any single constraint reopens feasibility.
    """
    cs = hardy_constraint_set() if constraint_set is None else _require(constraint_set, ConstraintSet, "constraint_set")
    feasible = cs._allowed & cs._realized
    witnesses = tuple(strategy for strategy in enumerate_strategies() if feasible >> strategy.as_instance().index & 1)
    if witnesses:
        return FeasibilityResult(True, witnesses, (), (), cs)
    assumed, trace = _deduction_trace(cs)
    return FeasibilityResult(False, (), assumed, trace, cs)
