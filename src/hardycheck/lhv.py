"""Deterministic local strategies and their infeasibility under the Hardy constraints.

A local strategy pre-assigns an outcome to every measurement on both sides,
each side reading only its own setting:

    o_L : {L1, L2} -> {+, -}        o_R : {R1, R2} -> {+, -}

so every one of the four measurements carries a pre-assigned value at once
and the right side cannot see the left choice. There are 2**4 = 16 strategies.
Mixtures reduce to their support for every check here: a zero constraint must
hold in each supported strategy, and a positivity event is realized by a
mixture exactly when some supported strategy realizes it, so scanning the 16
deterministic strategies settles feasibility outright.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .counterfactuals import (
    Constraint,
    ConstraintSet,
    CounterfactualInstance,
    OutcomeAssignment,
    hardy_constraint_set,
    realizes,
    satisfies_zeros,
)
from .quantum import OUTCOMES, Outcome, Setting


@dataclass(frozen=True)
class LocalStrategy(OutcomeAssignment):
    """Outcome pre-assignment, stored as (o_L(L1), o_L(L2), o_R(R1), o_R(R2)).

    Every question about a strategy is answered by its embedding into the
    counterfactual carrier, built once per strategy.
    """

    _size = 4
    _noun = "a strategy"

    @cached_property
    def _instance(self) -> CounterfactualInstance:
        l1, l2, r1, r2 = self.outcomes
        return CounterfactualInstance((l1, l2, r1, r2, r1, r2))

    def as_instance(self) -> CounterfactualInstance:
        """Embed into the counterfactual carrier; the right entries ignore the left choice."""
        return self._instance

    def left_outcome(self, setting: Setting) -> Outcome:
        return self._instance.left_outcome(setting)

    def right_outcome(self, setting: Setting) -> Outcome:
        # Either left choice reads the same right entry of the embedding.
        return self._instance.right_outcome(Setting.L1, setting)


@lru_cache(maxsize=1)
def enumerate_strategies() -> tuple[LocalStrategy, ...]:
    """All 16 strategies in lexicographic order ("+" < "-")."""
    return tuple(LocalStrategy(combo) for combo in itertools.product(OUTCOMES, repeat=4))


def strategy_realizes(strategy: LocalStrategy, constraint: Constraint) -> bool:
    return realizes(strategy.as_instance(), constraint)


def strategy_satisfies(strategy: LocalStrategy, constraint_set: ConstraintSet) -> bool:
    """True when the strategy realizes none of the zero events.

    Positivity events are existentials over a set of strategies, so they are
    checked at the set level by :func:`hardy_lhv_feasibility`, not here.
    """
    return satisfies_zeros(strategy.as_instance(), constraint_set)


@dataclass(frozen=True)
class TraceStep:
    """One constraint-propagation step of the infeasibility deduction."""

    constraint: str
    assignment: str
    kind: str  # "forced" or "contradiction"


@dataclass(frozen=True)
class FeasibilityResult:
    """Witness scan over the 16 strategies, plus a deduction trace when empty.

    ``feasible`` is true exactly when ``witnesses`` is nonempty. For an
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


def _variable_name(setting: Setting) -> str:
    return f"o_{setting.side}({setting})"


def _deduction_trace(constraint_set: ConstraintSet) -> tuple[tuple[str, ...], tuple[TraceStep, ...]]:
    """Unit propagation seeded by the positivity events, scanning zeros to a fixpoint."""
    assigned: dict[Setting, Outcome] = {}
    assumed: list[str] = []
    steps: list[TraceStep] = []
    for positive in constraint_set.positivity:
        parts = []
        for setting, outcome in zip(positive.settings, positive.outcomes):
            previous = assigned.get(setting)
            if previous is not None and previous is not outcome:
                steps.append(
                    TraceStep(
                        positive.label,
                        f"contradiction: {_variable_name(setting)} already forced to {previous}",
                        "contradiction",
                    )
                )
                return tuple(assumed), tuple(steps)
            assigned[setting] = outcome
            parts.append(f"{_variable_name(setting)} = {outcome}")
        assumed.append(f"{positive.label}: " + ", ".join(parts))
    changed = True
    while changed:
        changed = False
        for zero in constraint_set.zeros:
            now = tuple(assigned.get(setting) for setting in zero.settings)
            if now == zero.outcomes:
                steps.append(
                    TraceStep(zero.label, f"contradiction: event {zero.event_text()} realized", "contradiction")
                )
                return tuple(assumed), tuple(steps)
            # A side already on its event outcome forces the unassigned other side off it.
            for known, free in ((0, 1), (1, 0)):
                if now[known] is zero.outcomes[known] and now[free] is None:
                    setting, forced = zero.settings[free], zero.outcomes[free].opposite
                    assigned[setting] = forced
                    steps.append(TraceStep(zero.label, f"forces {_variable_name(setting)} = {forced}", "forced"))
                    changed = True
    return tuple(assumed), tuple(steps)


def hardy_lhv_feasibility(constraint_set: ConstraintSet | None = None) -> FeasibilityResult:
    """Scan all 16 strategies for one satisfying every zero and realizing every positivity event.

    For the full Hardy set the scan comes back empty and the deduction trace
    closes in three steps: assuming the (L1-, R1+) event, the zero on (L2,R1)
    forces o_L(L2) = -, the zero on (L1,R2) forces o_R(R2) = +, and the zero
    on (L2,R2) is then realized outright. Dropping any single constraint
    reopens feasibility.
    """
    cs = hardy_constraint_set() if constraint_set is None else constraint_set
    witnesses = tuple(
        strategy
        for strategy in enumerate_strategies()
        if strategy_satisfies(strategy, cs) and all(strategy_realizes(strategy, p) for p in cs.positivity)
    )
    if witnesses:
        return FeasibilityResult(True, witnesses, (), (), cs)
    assumed, trace = _deduction_trace(cs)
    return FeasibilityResult(False, (), assumed, trace, cs)
