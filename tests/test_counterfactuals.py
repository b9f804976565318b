"""Tests for the counterfactual carrier, the SR checks, and the logic reports."""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
from collections.abc import Callable

import pytest

from hardycheck import (
    INSTANCE_FIELDS,
    LEFT_SETTINGS,
    OUTCOMES,
    RIGHT_SETTINGS,
    Constraint,
    ConstraintSet,
    CounterfactualInstance,
    LocalStrategy,
    Outcome,
    Setting,
    ValidationError,
    check_property1,
    check_property2,
    ensemble_admissible,
    enumerate_instances,
    evaluate_sr,
    hardy_constraint_set,
    hardy_lhv_feasibility,
    locality_violation_report,
    realizes,
    render_report,
    satisfies_zeros,
    strategy_realizes,
    strategy_satisfies,
)

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS


def right_outcome(inst: CounterfactualInstance, left: Setting, right: Setting) -> Outcome:
    """The outcome ``inst`` assigns to the right choice ``right`` in the left context ``left``."""
    return inst.outcomes[INSTANCE_FIELDS.index(f"o_R({left},{right})")]


JOINT_EVENTS = [((sl, sr), (ol, orr)) for sl in LEFT_SETTINGS for sr in RIGHT_SETTINGS for ol in OUTCOMES for orr in OUTCOMES]

# Brute-force regression values, frozen from an independent enumeration of the
# 64 sign tuples against the three exclusion rules (see _oracle_* below).
ZERO_SATISFYING_COUNT = 24
FIRST_WITNESS_INDEX = 34
FIRST_WITNESS_LABELS = ("-", "+", "+", "+", "-", "+")
WITNESS_COUNT = 4

def _oracle_zero_satisfying() -> list[tuple[str, ...]]:
    """Independent brute force: the rules are spelled out inline, not via the library."""
    kept = []
    for bits in itertools.product("+-", repeat=6):
        l1, l2, _, r_l1_r2, r_l2_r1, r_l2_r2 = bits
        if l2 == "-" and r_l2_r2 == "+":
            continue
        if l2 == "+" and r_l2_r1 == "+":
            continue
        if l1 == "-" and r_l1_r2 == "-":
            continue
        kept.append(bits)
    return kept


class TestEnumeration:
    def test_exactly_64_distinct_instances(self) -> None:
        instances = enumerate_instances()
        assert len(instances) == 64
        assert len(set(instances)) == 64

    def test_lexicographic_order_and_index(self) -> None:
        instances = enumerate_instances()
        assert instances[0].outcomes == (PLUS,) * 6
        assert instances[-1].outcomes == (MINUS,) * 6
        assert [inst.index for inst in instances] == list(range(64))

    def test_every_setting_combination_is_assigned(self) -> None:
        for inst in enumerate_instances():
            for left in (Setting.L1, Setting.L2):
                assert inst.left_outcome(left) in (PLUS, MINUS)
                for right in (Setting.R1, Setting.R2):
                    assert right_outcome(inst, left, right) in (PLUS, MINUS)

    def test_left_outcome_takes_no_right_argument(self) -> None:
        inst = enumerate_instances()[5]
        with pytest.raises(TypeError):
            inst.left_outcome(Setting.L1, Setting.R1)  # type: ignore[call-arg]
        with pytest.raises(ValidationError):
            inst.left_outcome(Setting.R1)

    @pytest.mark.parametrize("size", [0, 5, 7])
    def test_wrong_length_rejected(self, size: int) -> None:
        with pytest.raises(ValidationError, match="exactly 6"):
            CounterfactualInstance((PLUS,) * size)

    @pytest.mark.parametrize("value", [None, 5, object()], ids=["none", "int", "object"])
    @pytest.mark.parametrize(("cls", "size"), [(CounterfactualInstance, 6), (LocalStrategy, 4)], ids=["instance", "strategy"])
    def test_non_iterable_outcomes_rejected(self, cls: type, size: int, value: object) -> None:
        with pytest.raises(ValidationError, match=f"^an? (instance|strategy) needs exactly {size} Outcome entries$"):
            cls(value)


class TestOutcomeAssignmentTypes:
    """Both types are plain subclasses of the frozen record ``OutcomeAssignment`` and inherit its behaviour."""

    @pytest.mark.parametrize(("cls", "size"), [(CounterfactualInstance, 6), (LocalStrategy, 4)], ids=["instance", "strategy"])
    def test_inherit_the_record_behaviour(self, cls: type, size: int) -> None:
        value = cls((PLUS,) * size)
        assert cls._fields == ("outcomes",)
        flipped = value.__replace__(outcomes=(MINUS,) * size)
        assert type(flipped) is cls and flipped.outcomes == (MINUS,) * size
        with pytest.raises(ValidationError, match=f"exactly {size}"):
            value.__replace__(outcomes=(MINUS,) * (size + 1))
        assert repr(value).startswith(f"{cls.__name__}(outcomes=(")
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.outcomes = (MINUS,) * size  # type: ignore[misc]
        twin = cls(list(value.outcomes))
        assert twin == value and twin is not value and hash(twin) == hash(value)
        assert flipped != value and {value, twin, flipped} == {value, flipped}

    @pytest.mark.parametrize(("cls", "size"), [(CounterfactualInstance, 6), (LocalStrategy, 4)], ids=["instance", "strategy"])
    def test_refuse_every_assignment_and_deletion_as_a_decorated_frozen_class_does(self, cls: type, size: int) -> None:
        @dataclasses.dataclass(frozen=True)
        class Decorated:
            outcomes: tuple

        value, reference = cls((PLUS,) * size), Decorated((PLUS,) * size)
        index = value.index  # the cached properties fill __dict__ directly, not through __setattr__
        if cls is LocalStrategy:
            assert value.as_instance() is value.as_instance()
        for name in ("outcomes", "foo", "_json", "index"):
            for target in (value, reference):
                with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                    setattr(target, name, 1)
                with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                    delattr(target, name)
        assert value.outcomes == (PLUS,) * size and value.index == index == 0
        assert not hasattr(value, "foo") and not hasattr(value, "_json")

    def test_an_instance_never_equals_a_strategy(self) -> None:
        for strategy in (LocalStrategy(combo) for combo in itertools.product(OUTCOMES, repeat=4)):
            embedded = strategy.as_instance()
            assert embedded != strategy and strategy != embedded
            # Decided by the class check, not by the outcome tuples.
            assert strategy.__eq__(embedded) is NotImplemented and embedded.__eq__(strategy) is NotImplemented


class TestZeroConstraints:
    def test_eq1_violating_instance_rejected(self) -> None:
        inst = CounterfactualInstance((PLUS, MINUS, PLUS, PLUS, PLUS, PLUS))  # o_L(L2) = -, o_R(L2,R2) = +
        assert not satisfies_zeros(inst, hardy_constraint_set())

    def test_all_plus_left_all_minus_right_accepted(self) -> None:
        inst = CounterfactualInstance((PLUS, PLUS, MINUS, MINUS, MINUS, MINUS))
        assert satisfies_zeros(inst, hardy_constraint_set())

    def test_zero_satisfying_count_matches_independent_oracle(self) -> None:
        oracle = _oracle_zero_satisfying()
        assert len(oracle) == ZERO_SATISFYING_COUNT
        cs = hardy_constraint_set()
        admitted = [inst for inst in enumerate_instances() if satisfies_zeros(inst, cs)]
        assert len(admitted) == ZERO_SATISFYING_COUNT
        assert [inst.labels() for inst in admitted] == oracle

    def test_admissible_and_inadmissible_partition_the_space(self) -> None:
        cs = hardy_constraint_set()
        admitted = {inst for inst in enumerate_instances() if satisfies_zeros(inst, cs)}
        rejected = {inst for inst in enumerate_instances() if not satisfies_zeros(inst, cs)}
        assert len(admitted) + len(rejected) == 64
        assert not admitted & rejected


class TestEvaluateSR:
    def test_vacuous_premise_makes_sr_true(self) -> None:
        inst = CounterfactualInstance((PLUS, PLUS, PLUS, PLUS, PLUS, MINUS))
        verdict = evaluate_sr(inst, Setting.L2)
        assert not verdict.premise_holds
        assert verdict.sr_value

    def test_premise_and_conclusion_make_sr_true(self) -> None:
        inst = CounterfactualInstance((PLUS, PLUS, PLUS, PLUS, MINUS, PLUS))
        verdict = evaluate_sr(inst, Setting.L2)
        assert verdict.premise_holds
        assert verdict.sr_value

    def test_premise_without_conclusion_makes_sr_false(self) -> None:
        inst = CounterfactualInstance((PLUS, PLUS, PLUS, PLUS, PLUS, PLUS))
        verdict = evaluate_sr(inst, Setting.L2)
        assert verdict.premise_holds
        assert not verdict.sr_value

    def test_rejects_right_side_context(self) -> None:
        with pytest.raises(ValidationError):
            evaluate_sr(enumerate_instances()[0], Setting.R1)

    def test_depends_only_on_right_entries_at_the_context(self) -> None:
        """Rewriting every slot outside the context's two o_R entries never moves SR."""
        outside = {Setting.L2: (0, 1, 2, 3), Setting.L1: (0, 1, 4, 5)}
        for inst in enumerate_instances():
            for context, slots in outside.items():
                reference = evaluate_sr(inst, context)
                for replacement in itertools.product((PLUS, MINUS), repeat=4):
                    mutated = list(inst.outcomes)
                    for slot, value in zip(slots, replacement):
                        mutated[slot] = value
                    verdict = evaluate_sr(CounterfactualInstance(tuple(mutated)), context)
                    assert verdict.sr_value == reference.sr_value
                    assert verdict.premise_holds == reference.premise_holds


class TestProperty1:
    def test_holds_for_hardy_constraints(self) -> None:
        report = check_property1(hardy_constraint_set())
        assert report.holds
        assert len(report.admissible) == ZERO_SATISFYING_COUNT
        assert all(v.sr_value for v in report.verdicts)
        assert report.counterexamples == ()

    def test_dropping_eq2_breaks_it_with_concrete_counterexample(self) -> None:
        report = check_property1(hardy_constraint_set().without("Eq2"))
        assert not report.holds
        assert any(
            inst.left_outcome(Setting.L2) is PLUS
            and right_outcome(inst, Setting.L2, Setting.R2) is PLUS
            and right_outcome(inst, Setting.L2, Setting.R1) is PLUS
            for inst in report.counterexamples
        )

    def test_dropping_eq1_breaks_it(self) -> None:
        report = check_property1(hardy_constraint_set().without("Eq1"))
        assert not report.holds
        assert report.counterexamples

    def test_stable_under_adding_zero_constraints(self) -> None:
        zeros = {c.label: c for c in hardy_constraint_set().zeros}
        labels = tuple(zeros)
        subsets = [
            tuple(lab for lab in labels if lab in combo)
            for n in range(4)
            for combo in itertools.combinations(labels, n)
        ]
        holds = {
            subset: check_property1(ConstraintSet(zeros=tuple(zeros[lab] for lab in subset))).holds
            for subset in subsets
        }
        for small in subsets:
            for big in subsets:
                if set(small) <= set(big) and holds[small]:
                    assert holds[big]


class TestProperty2:
    def test_witness_exists_for_hardy_constraints(self) -> None:
        cs = hardy_constraint_set()
        report = check_property2(cs)
        assert report.witness_found
        witness = report.witness
        assert witness.index == FIRST_WITNESS_INDEX
        assert witness.labels() == FIRST_WITNESS_LABELS
        assert satisfies_zeros(witness, cs)
        assert realizes(witness, cs.constraint("Eq4"))
        assert report.witness_verdict.premise_holds
        assert not report.witness_verdict.sr_value
        assert report.witness_count == WITNESS_COUNT

    def test_witness_respects_eq3(self) -> None:
        report = check_property2(hardy_constraint_set())
        eq3 = hardy_constraint_set().constraint("Eq3")
        assert not realizes(report.witness, eq3)
        assert report.forced_step == "Eq3 forces o_R(L1,R2) = + given o_L(L1) = -"

    def test_fails_when_positivity_event_is_replaced(self) -> None:
        cs = hardy_constraint_set()
        modified = ConstraintSet(
            zeros=cs.zeros,
            positivity=(Constraint("Eq4", (Setting.L1, Setting.R1), (MINUS, MINUS)),),
        )
        report = check_property2(modified)
        assert not report.witness_found
        assert report.witness is None
        assert report.witness_count == 0


class TestLocalityReport:
    def test_hardy_set_raises_the_flag(self) -> None:
        report = locality_violation_report(hardy_constraint_set())
        assert report.violation
        assert report.sr_always_true_at_l2
        assert report.sr_sometimes_false_at_l1
        assert report.property1.holds
        assert report.property2.witness_found

    def test_empty_constraint_set_has_no_forcing(self) -> None:
        report = locality_violation_report(ConstraintSet())
        assert not report.violation
        assert not report.sr_always_true_at_l2
        assert len(report.property1.admissible) == 64

    def test_zeros_only_set_behaves_per_enumeration(self) -> None:
        # Without the positivity event the witness search ranges over all
        # zero-satisfying instances; one falsifying SR at L1 does exist there.
        zeros_only = hardy_constraint_set().without("Eq4")
        report = locality_violation_report(zeros_only)
        assert report.property1.holds
        assert report.property2.witness_found
        assert report.violation

    def test_json_payload_carries_constraints_verdicts_and_ids(self) -> None:
        payload = json.loads(render_report(locality_violation_report(hardy_constraint_set()), "json"))
        assert payload["violation"] is True
        assert payload["property1"]["admissible_count"] == ZERO_SATISFYING_COUNT
        assert len(payload["property1"]["sr_verdicts"]) == ZERO_SATISFYING_COUNT
        assert payload["property2"]["witness_id"] == FIRST_WITNESS_INDEX
        assert payload["property2"]["witness"] == list(FIRST_WITNESS_LABELS)
        labels = [c["label"] for c in payload["property1"]["constraint_set"]["zeros"]]
        assert labels == ["Eq1", "Eq2", "Eq3"]


class TestConstraintSet:
    def test_disjointness_enforced(self) -> None:
        event = Constraint("Z", (Setting.L1, Setting.R1), (MINUS, PLUS))
        clash = Constraint("P", (Setting.L1, Setting.R1), (MINUS, PLUS))
        with pytest.raises(ValidationError, match="disjoint"):
            ConstraintSet(zeros=(event,), positivity=(clash,))

    def test_duplicate_labels_rejected(self) -> None:
        a = Constraint("Eq1", (Setting.L1, Setting.R1), (MINUS, PLUS))
        b = Constraint("Eq1", (Setting.L2, Setting.R2), (MINUS, PLUS))
        with pytest.raises(ValidationError, match="unique"):
            ConstraintSet(zeros=(a, b))

    def test_without_unknown_label(self) -> None:
        with pytest.raises(ValueError, match="no constraint"):
            hardy_constraint_set().without("Eq9")

    def test_constraint_settings_validated(self) -> None:
        # Settings on the wrong sides or not Setting members, outcomes that are
        # not Outcome members, and pairs of the wrong arity or type.
        bad_inputs = [
            ((Setting.R1, Setting.L1), (PLUS, PLUS)),
            ((Setting.L1, "R1"), (PLUS, PLUS)),
            (("L1", Setting.R1), (PLUS, PLUS)),
            ((Setting.L1, Setting.R1), ("-", "+")),
            ((Setting.L1, Setting.R1, Setting.R2), (PLUS, PLUS)),
            ((Setting.L1, Setting.R1), (PLUS,)),
            ([Setting.L1, Setting.R1], (PLUS, PLUS)),
            (None, (PLUS, PLUS)),
        ]
        for settings, outcomes in bad_inputs:
            with pytest.raises(ValidationError):
                Constraint("bad", settings, outcomes)  # type: ignore[arg-type]

    @pytest.mark.parametrize("label", [["x"], None, 3, "", b"Eq1"], ids=repr)
    def test_constraint_label_must_be_nonempty_string(self, label: object) -> None:
        with pytest.raises(ValidationError, match="label must be a non-empty string"):
            ConstraintSet(zeros=(Constraint(label, (Setting.L1, Setting.R1), (MINUS, PLUS)),))  # type: ignore[arg-type]

    def test_resolved_slots_stay_out_of_eq_hash_and_repr(self) -> None:
        a = Constraint("Eq3", (Setting.L1, Setting.R2), (MINUS, MINUS))
        b = Constraint("Eq3", (Setting.L1, Setting.R2), (MINUS, MINUS))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == f"Constraint(label='Eq3', settings={a.settings!r}, outcomes={a.outcomes!r})"
        assert a != Constraint("Eq3", (Setting.L2, Setting.R2), (MINUS, MINUS))

    def test_each_event_resolves_the_set_of_instances_realizing_it(self) -> None:
        # Bit i of the set stands for the instance of index i; ``realizes`` is the definition.
        for event in JOINT_EVENTS:
            constraint = Constraint("E", *event)
            assert 0 <= constraint._instances < 1 << 64
            for inst in enumerate_instances():
                assert bool(constraint._instances >> inst.index & 1) is realizes(inst, constraint)

    def test_constraint_set_folds_its_events_into_instance_sets(self) -> None:
        full = hardy_constraint_set()
        for cs in [full, ConstraintSet()] + [full.without(c.label) for c in full.zeros + full.positivity]:
            assert 0 <= cs._allowed < 1 << 64 and 0 <= cs._realized < 1 << 64
            for inst in enumerate_instances():
                assert bool(cs._allowed >> inst.index & 1) is satisfies_zeros(inst, cs)
                assert bool(cs._realized >> inst.index & 1) is all(realizes(inst, p) for p in cs.positivity)
        assert repr(ConstraintSet()) == "ConstraintSet(zeros=(), positivity=())"

    def test_constraint_set_rejects_non_constraint_entries(self) -> None:
        eq4 = hardy_constraint_set().constraint("Eq4")
        with pytest.raises(ValidationError, match="Constraint"):
            ConstraintSet(zeros=(eq4.event_key,))  # type: ignore[arg-type]
        with pytest.raises(ValidationError, match="Constraint"):
            ConstraintSet(positivity=(eq4, "Eq1"))  # type: ignore[arg-type]

    @pytest.mark.parametrize(("field", "value"), [("zeros", None), ("positivity", 5)])
    def test_constraint_lists_must_be_iterable(self, field: str, value: object) -> None:
        with pytest.raises(ValidationError, match=f"^constraint set {field} must be an iterable of Constraint"):
            ConstraintSet(**{field: value})

    @pytest.mark.parametrize(
        "call",
        [
            lambda: locality_violation_report(None),  # type: ignore[arg-type]
            lambda: check_property1(3),  # type: ignore[arg-type]
            lambda: check_property2(hardy_constraint_set().zeros),  # type: ignore[arg-type]
            lambda: hardy_lhv_feasibility("x"),  # type: ignore[arg-type]
            lambda: ensemble_admissible(enumerate_instances(), None),  # type: ignore[arg-type]
        ],
        ids=["locality_report", "property1", "property2", "lhv_feasibility", "ensemble_admissible"],
    )
    def test_reports_reject_a_non_constraint_set(self, call: Callable[[], object]) -> None:
        with pytest.raises(ValidationError, match="^constraint_set must be a ConstraintSet, got "):
            call()

    @pytest.mark.parametrize("support", [5, None, enumerate_instances()[0]], ids=["int", "None", "instance"])
    def test_ensemble_rejects_a_support_that_is_not_iterable(self, support: object) -> None:
        message = f"support must be an iterable of CounterfactualInstance objects, got {support!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ensemble_admissible(support, hardy_constraint_set())  # type: ignore[arg-type]

    def test_ensemble_accepts_a_support_that_iterates_by_getitem(self) -> None:
        class Indexed:  # iterable only through the old __getitem__ protocol, not an Iterable
            def __init__(self, items: tuple) -> None:
                self.items = items

            def __getitem__(self, i: int) -> object:
                return self.items[i]

        support = enumerate_instances()[:5]
        expected = ensemble_admissible(support, hardy_constraint_set())
        assert ensemble_admissible(Indexed(support), hardy_constraint_set()) == expected  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        ("call", "name", "expected"),
        [
            (lambda: realizes("++++++", hardy_constraint_set().zeros[0]), "instance", "CounterfactualInstance"),
            (lambda: realizes(LocalStrategy((PLUS,) * 4), hardy_constraint_set().zeros[0]), "instance", "CounterfactualInstance"),
            (lambda: realizes(enumerate_instances()[0], "Eq1"), "constraint", "Constraint"),
            (lambda: satisfies_zeros("++++++", ConstraintSet()), "instance", "CounterfactualInstance"),
            (lambda: satisfies_zeros(enumerate_instances()[0], hardy_constraint_set().zeros), "constraint_set", "ConstraintSet"),
            (lambda: evaluate_sr(None, Setting.L1), "instance", "CounterfactualInstance"),
            (lambda: strategy_realizes(enumerate_instances()[0], hardy_constraint_set().zeros[0]), "strategy", "LocalStrategy"),
            (lambda: strategy_realizes(LocalStrategy((PLUS,) * 4), None), "constraint", "Constraint"),
            (lambda: strategy_satisfies("++++", hardy_constraint_set()), "strategy", "LocalStrategy"),
            (lambda: strategy_satisfies(LocalStrategy((PLUS,) * 4), "Eq1"), "constraint_set", "ConstraintSet"),
        ],
        ids=[
            "realizes_str",
            "realizes_strategy",
            "realizes_constraint",
            "satisfies_zeros_str",
            "satisfies_zeros_tuple",
            "evaluate_sr_none",
            "strategy_realizes_instance",
            "strategy_realizes_constraint",
            "strategy_satisfies_str",
            "strategy_satisfies_constraint_set",
        ],
    )
    def test_per_instance_definitions_name_a_wrong_typed_argument(
        self, call: Callable[[], object], name: str, expected: str
    ) -> None:
        with pytest.raises(ValidationError, match=f"^{name} must be a {expected}, got "):
            call()

    def test_hardy_constraint_set_is_one_shared_object(self) -> None:
        assert hardy_constraint_set() is hardy_constraint_set()


class TestEnsembles:
    def _admissible_instances(self) -> tuple[CounterfactualInstance, ...]:
        cs = hardy_constraint_set()
        return tuple(inst for inst in enumerate_instances() if satisfies_zeros(inst, cs))

    def test_maximal_admissible_ensemble_passes(self) -> None:
        report = ensemble_admissible(self._admissible_instances(), hardy_constraint_set())
        assert report.admissible
        assert report.failures == ()

    def test_missing_positivity_event_fails(self) -> None:
        cs = hardy_constraint_set()
        eq4 = cs.constraint("Eq4")
        without_event = tuple(inst for inst in self._admissible_instances() if not realizes(inst, eq4))
        report = ensemble_admissible(without_event, cs)
        assert not report.admissible
        assert any("Eq4" in failure for failure in report.failures)

    def test_missing_left_minus_realization_fails_by_default(self) -> None:
        cs = hardy_constraint_set().without("Eq4")
        support = tuple(
            inst
            for inst in self._admissible_instances()
            if inst.left_outcome(Setting.L1) is PLUS
        )
        report = ensemble_admissible(support, cs)
        assert not report.admissible
        assert any("L1-" in failure for failure in report.failures)

    def test_only_left_minus_under_l1_is_required(self) -> None:
        # The support never realizes L2-, and the ensemble is still admissible.
        cs = hardy_constraint_set()
        support = tuple(
            inst for inst in self._admissible_instances() if inst.left_outcome(Setting.L2) is PLUS
        )
        assert ensemble_admissible(support, cs).admissible

    def test_zero_constraint_violation_in_support_fails(self) -> None:
        bad = CounterfactualInstance((PLUS, MINUS, PLUS, PLUS, PLUS, PLUS))  # realizes Eq1
        report = ensemble_admissible(self._admissible_instances() + (bad,), hardy_constraint_set())
        assert not report.admissible
