"""Tests for deterministic local strategies and the feasibility scan."""

from __future__ import annotations

import itertools
import json

import pytest

from hardycheck import (
    INSTANCE_FIELDS,
    LEFT_SETTINGS,
    OUTCOMES,
    RIGHT_SETTINGS,
    Constraint,
    ConstraintSet,
    Outcome,
    Setting,
    enumerate_strategies,
    hardy_constraint_set,
    hardy_lhv_feasibility,
    render_report,
    satisfies_zeros,
    strategy_realizes,
    strategy_satisfies,
)
from hardycheck.lhv import LocalStrategy

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS

# Frozen brute-force regression values over the 16 strategies.
ZEROS_ONLY_WITNESS_COUNT = 5
SINGLE_ZERO_DROP_WITNESSES = {
    "Eq1": (MINUS, MINUS, PLUS, PLUS),
    "Eq2": (MINUS, PLUS, PLUS, PLUS),
    "Eq3": (MINUS, MINUS, PLUS, MINUS),
}


def subset_constraint_set(labels: set[str]) -> ConstraintSet:
    full = hardy_constraint_set()
    return ConstraintSet(
        zeros=tuple(c for c in full.zeros if c.label in labels),
        positivity=tuple(c for c in full.positivity if c.label in labels),
    )


class TestEnumeration:
    def test_sixteen_strategies_in_lexicographic_order(self) -> None:
        strategies = enumerate_strategies()
        assert len(strategies) == 16
        assert strategies[0].outcomes == (PLUS,) * 4
        assert strategies[-1].outcomes == (MINUS,) * 4
        assert [s.index for s in strategies] == list(range(16))

    def test_each_strategy_fixes_all_four_setting_pairs(self) -> None:
        for strategy in enumerate_strategies():
            inst = strategy.as_instance()
            o_l1, o_l2, o_r1, o_r2 = strategy.outcomes
            assert (inst.left_outcome(Setting.L1), inst.left_outcome(Setting.L2)) == (o_l1, o_l2)
            for left in (Setting.L1, Setting.L2):
                slots = [INSTANCE_FIELDS.index(f"o_R({left},{right})") for right in (Setting.R1, Setting.R2)]
                assert tuple(inst.outcomes[slot] for slot in slots) == (o_r1, o_r2)

    def test_embedding_is_injective(self) -> None:
        images = {s.as_instance() for s in enumerate_strategies()}
        assert len(images) == 16

    def test_embedded_index_agrees_with_the_strategy_checks(self) -> None:
        # The feasibility check tests each strategy's embedded instance index against instance sets.
        events = [((sl, sr), (ol, orr)) for sl in LEFT_SETTINGS for sr in RIGHT_SETTINGS for ol in OUTCOMES for orr in OUTCOMES]
        for event in events:
            constraint = Constraint("E", *event)
            as_zero = ConstraintSet(zeros=(constraint,))
            for strategy in enumerate_strategies():
                index = strategy.as_instance().index
                assert bool(constraint._instances >> index & 1) is strategy_realizes(strategy, constraint)
                assert bool(as_zero._allowed >> index & 1) is strategy_satisfies(strategy, as_zero)


class TestStrategySatisfies:
    def test_all_plus_left_all_minus_right_passes_zeros(self) -> None:
        strategy = LocalStrategy((PLUS, PLUS, MINUS, MINUS))
        assert strategy_satisfies(strategy, hardy_constraint_set())

    def test_eq1_event_rejected(self) -> None:
        strategy = LocalStrategy((PLUS, MINUS, MINUS, PLUS))
        assert not strategy_satisfies(strategy, hardy_constraint_set())

    def test_paradox_event_cannot_join_the_zeros(self) -> None:
        """o_L(L1) = - with o_R(R1) = + closes the exclusion chain, whatever the rest."""
        cs = hardy_constraint_set()
        for rest in itertools.product((PLUS, MINUS), repeat=2):
            strategy = LocalStrategy((MINUS, rest[0], PLUS, rest[1]))
            assert not strategy_satisfies(strategy, cs)

    def test_agreement_with_instance_zeros_under_embedding(self) -> None:
        zero_labels = ("Eq1", "Eq2", "Eq3")
        for n in range(4):
            for combo in itertools.combinations(zero_labels, n):
                cs = subset_constraint_set(set(combo))
                for strategy in enumerate_strategies():
                    assert strategy_satisfies(strategy, cs) == satisfies_zeros(strategy.as_instance(), cs)


class TestFeasibility:
    def test_full_hardy_set_is_infeasible_with_three_step_trace(self) -> None:
        result = hardy_lhv_feasibility()
        assert not result.feasible
        assert result.witnesses == ()
        assert len(result.trace) == 3
        assert [step.constraint for step in result.trace] == ["Eq2", "Eq3", "Eq1"]
        assert [step.kind for step in result.trace] == ["forced", "forced", "contradiction"]
        assert result.trace[0].assignment == "forces o_L(L2) = -"
        assert result.trace[1].assignment == "forces o_R(R2) = +"
        assert result.assumed == ("Eq4: o_L(L1) = -, o_R(R1) = +",)

    def test_none_means_the_hardy_set(self) -> None:
        hardy = render_report(hardy_lhv_feasibility(hardy_constraint_set()), "json")
        assert render_report(hardy_lhv_feasibility(None), "json") == hardy

    def test_zeros_only_is_feasible_with_expected_witness(self) -> None:
        result = hardy_lhv_feasibility(hardy_constraint_set().without("Eq4"))
        assert result.feasible
        assert len(result.witnesses) == ZEROS_ONLY_WITNESS_COUNT
        assert any(w.outcomes == (PLUS, PLUS, MINUS, MINUS) for w in result.witnesses)
        assert result.trace == ()

    @pytest.mark.parametrize("dropped", ["Eq1", "Eq2", "Eq3"])
    def test_dropping_any_single_zero_restores_feasibility(self, dropped: str) -> None:
        result = hardy_lhv_feasibility(hardy_constraint_set().without(dropped))
        assert result.feasible
        assert len(result.witnesses) == 1
        assert result.witnesses[0].outcomes == SINGLE_ZERO_DROP_WITNESSES[dropped]

    def test_feasibility_monotone_under_constraint_removal(self) -> None:
        labels = ("Eq1", "Eq2", "Eq3", "Eq4")
        witness_sets = {}
        for n in range(5):
            for combo in itertools.combinations(labels, n):
                witness_sets[frozenset(combo)] = set(hardy_lhv_feasibility(subset_constraint_set(set(combo))).witnesses)
        for subset, witnesses in witness_sets.items():
            for label in subset:
                assert witnesses <= witness_sets[subset - {label}]

    def test_infeasibility_matches_direct_scan(self) -> None:
        """Equivalent statement: every zero-satisfying strategy avoids (L1-, R1+)."""
        cs = hardy_constraint_set()
        eq4 = cs.constraint("Eq4")
        for strategy in enumerate_strategies():
            if strategy_satisfies(strategy, cs):
                assert not strategy_realizes(strategy, eq4)

    def test_scan_asks_one_strategy_to_realize_every_positivity_event(self) -> None:
        """Two positivity events that no single strategy realizes, while a mixture does."""
        cs = ConstraintSet(
            positivity=(
                Constraint("A", (Setting.L1, Setting.R1), (PLUS, PLUS)),
                Constraint("B", (Setting.L1, Setting.R1), (MINUS, MINUS)),
            )
        )
        result = hardy_lhv_feasibility(cs)
        assert not result.feasible
        assert result.assumed == ("A: o_L(L1) = +, o_R(R1) = +",)
        assert [(s.constraint, s.assignment, s.kind) for s in result.trace] == [
            ("B", "contradiction: o_L(L1) already forced to +", "contradiction")
        ]
        mixture = tuple(LocalStrategy((o,) * 4) for o in (PLUS, MINUS))
        assert all(strategy_satisfies(s, cs) for s in mixture)
        assert all(any(strategy_realizes(s, p) for s in mixture) for p in cs.positivity)

    def test_json_payload_shape(self) -> None:
        payload = json.loads(render_report(hardy_lhv_feasibility(), "json"))
        assert payload["feasible"] is False
        assert payload["witness_count"] == 0
        assert [step["constraint"] for step in payload["trace"]] == ["Eq2", "Eq3", "Eq1"]
        assert payload["constraint_set"]["positivity"][0]["label"] == "Eq4"
