"""The frozen records: construction, repr, equality, hashing, immutability, replacement, copying and pickling.

A record stores every value it derives from its fields when built, and a copy of a table or a no-signalling
report is rebuilt through its constructor, with read-only entries.

Each record type is pinned on one instance, built from the same field values each time. ``repr`` is
``Name(field=value!r, ...)`` in field order; a record compares and hashes by its field values, except
``StateVector``, ``MeasurementBasis``, ``HardyConfiguration`` and ``JointProbabilityTable``, which compare and
hash by identity.
"""

from __future__ import annotations

import copy
import pickle
import sys
from dataclasses import FrozenInstanceError

import pytest

from hardycheck import (
    BasisReport,
    Constraint,
    ConstraintSet,
    CounterfactualInstance,
    HardyConfiguration,
    JointProbabilityTable,
    LocalStrategy,
    MeasurementBasis,
    ObjectiveReport,
    Outcome,
    Property1Report,
    Property2Report,
    Setting,
    SRVerdict,
    StateVector,
    TraceStep,
    ValidationError,
    build_hardy_configuration,
    joint_probability_table,
    no_signalling_check,
    validate_basis,
)

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS
L1, L2, R1, R2 = Setting.L1, Setting.L2, Setting.R1, Setting.R2
KET0, KET1 = (1.0, 0.0), (0.0, 1.0)
STATE = StateVector((1.0, 0.0, 0.0, 0.0))
BASES = tuple(MeasurementBasis(KET0, KET1, setting) for setting in (L1, L2, R1, R2))
ENTRIES = dict(joint_probability_table(build_hardy_configuration(0.5)).entries)
ZERO = Constraint("Z", (L1, R2), (MINUS, MINUS))
ZEROS = ConstraintSet(zeros=(ZERO,))

#: Per type: its field names, in order, and the field values of the instance pinned here.
RECORDS = {
    StateVector: (("components",), (STATE.components,)),
    MeasurementBasis: (("plus", "minus", "label"), (KET0, KET1, L1)),
    BasisReport: (("passed", "plus_norm_error", "minus_norm_error", "overlap", "tol", "failures"), (True, 0.0, 0.0, 0.0, 1e-9, ())),
    HardyConfiguration: (("state", "bases", "theta"), (STATE, BASES, 0.5)),
    JointProbabilityTable: (("entries",), (ENTRIES,)),
    CounterfactualInstance: (("outcomes",), ((PLUS,) * 6,)),
    LocalStrategy: (("outcomes",), ((PLUS, MINUS, PLUS, MINUS),)),
    Constraint: (("label", "settings", "outcomes"), ("Z", (L1, R2), (MINUS, MINUS))),
    ConstraintSet: (("zeros", "positivity"), ((ZERO,), ())),
    SRVerdict: (("instance_index", "context", "premise_holds", "sr_value"), (5, L1, True, False)),
    Property1Report: (("holds", "admissible", "verdicts", "counterexamples", "constraint_set"), (True, (), (), (), ZEROS)),
    Property2Report: (
        ("witness_found", "witness", "witness_verdict", "witness_count", "forced_step", "constraint_set"),
        (False, None, None, 0, None, ZEROS),
    ),
    TraceStep: (("constraint", "assignment", "kind"), ("Eq1", "forces o_L(L2) = -", "forced")),
    ObjectiveReport: (("theta_star", "p4_max", "iterations", "bracket", "oracle_gap"), (0.25, 0.09, 12, (0.01, 1.5), 0.0)),
}
IDENTITY_EQ = (StateVector, MeasurementBasis, HardyConfiguration, JointProbabilityTable)

_ZERO_REPR = (
    "Constraint(label='Z', settings=(<Setting.L1: 'L1'>, <Setting.R2: 'R2'>), "
    "outcomes=(<Outcome.MINUS: '-'>, <Outcome.MINUS: '-'>))"
)
_ZEROS_REPR = f"ConstraintSet(zeros=({_ZERO_REPR},), positivity=())"
#: ``repr`` of each pinned instance, as the records printed before they had a common base.
REPRS = {
    StateVector: "StateVector(components=((1+0j), 0j, 0j, 0j))",
    MeasurementBasis: "MeasurementBasis(plus=((1+0j), 0j), minus=(0j, (1+0j)), label=<Setting.L1: 'L1'>)",
    BasisReport: "BasisReport(passed=True, plus_norm_error=0.0, minus_norm_error=0.0, overlap=0.0, tol=1e-09, failures=())",
    HardyConfiguration: f"HardyConfiguration(state={STATE!r}, bases={BASES!r}, theta=0.5)",
    JointProbabilityTable: f"JointProbabilityTable(entries=mappingproxy({ENTRIES!r}))",
    CounterfactualInstance: "CounterfactualInstance(outcomes=(" + ", ".join(["<Outcome.PLUS: '+'>"] * 6) + "))",
    LocalStrategy: "LocalStrategy(outcomes=(<Outcome.PLUS: '+'>, <Outcome.MINUS: '-'>, <Outcome.PLUS: '+'>, <Outcome.MINUS: '-'>))",
    Constraint: _ZERO_REPR,
    ConstraintSet: _ZEROS_REPR,
    SRVerdict: "SRVerdict(instance_index=5, context=<Setting.L1: 'L1'>, premise_holds=True, sr_value=False)",
    Property1Report: f"Property1Report(holds=True, admissible=(), verdicts=(), counterexamples=(), constraint_set={_ZEROS_REPR})",
    Property2Report: (
        "Property2Report(witness_found=False, witness=None, witness_verdict=None, witness_count=0, forced_step=None, "
        f"constraint_set={_ZEROS_REPR})"
    ),
    TraceStep: "TraceStep(constraint='Eq1', assignment='forces o_L(L2) = -', kind='forced')",
    ObjectiveReport: "ObjectiveReport(theta_star=0.25, p4_max=0.09, iterations=12, bracket=(0.01, 1.5), oracle_gap=0.0)",
}

every_record = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def build(cls: type) -> object:
    return cls(*RECORDS[cls][1])


@every_record
def test_repr_names_each_field_in_order(cls: type) -> None:
    assert repr(build(cls)) == REPRS[cls]


@every_record
def test_equality_and_hash_are_field_wise_or_by_identity(cls: type) -> None:
    value, twin = build(cls), build(cls)
    assert value == value and not value != value
    if cls in IDENTITY_EQ:
        assert value != twin and hash(value) == object.__hash__(value)
    else:
        names = RECORDS[cls][0]
        assert value == twin and not value != twin
        assert hash(value) == hash(twin) == hash(tuple(getattr(value, name) for name in names))


@every_record
def test_positional_and_keyword_construction_agree(cls: type) -> None:
    names, values = RECORDS[cls]
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    assert repr(by_keyword) == repr(mixed) == REPRS[cls]
    assert tuple(getattr(by_keyword, name) for name in names) == tuple(getattr(build(cls), name) for name in names)


@every_record
def test_a_missing_an_extra_or_a_duplicated_argument_is_a_type_error(cls: type) -> None:
    names, values = RECORDS[cls]
    calls = [lambda: cls(*values, values[-1]), lambda: cls(*values, **{names[0]: values[0]}), lambda: cls(*values, foo=1)]
    if cls is not ConstraintSet:  # both its fields default to ()
        calls.append(lambda: cls(*values[:-1]))
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_a_constraint_set_defaults_both_lists_to_empty() -> None:
    assert ConstraintSet() == ConstraintSet((), ()) == ConstraintSet(zeros=[]) and ConstraintSet().zeros == ()


@every_record
def test_every_name_is_frozen(cls: type) -> None:
    value = build(cls)
    before = repr(value)
    for name in (*RECORDS[cls][0], "foo", "_json", "__dict__"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 1)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert repr(value) == before and not hasattr(value, "foo")


@every_record
def test_no_record_equals_a_tuple_or_a_record_of_another_type_with_the_same_values(cls: type) -> None:
    names, values = RECORDS[cls]
    value, other = build(cls), type("Other", (cls,), {})(*values)
    assert tuple(getattr(other, name) for name in names) == tuple(getattr(value, name) for name in names)
    for unlike in (tuple(values), list(values), other):
        assert value != unlike and unlike != value and not value == unlike


COPIERS = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda value: pickle.loads(pickle.dumps(value))}


@every_record
def test_copies_and_pickles_round_trip(cls: type) -> None:
    value = build(cls)
    for copier in COPIERS.values():
        twin = copier(value)
        assert type(twin) is cls and twin is not value and repr(twin) == repr(value)
        assert (twin == value) is (cls not in IDENTITY_EQ)
        assert vars(twin).keys() == vars(value).keys()


@pytest.mark.parametrize("copier", list(COPIERS.values()), ids=list(COPIERS))
def test_a_copied_table_or_no_signalling_report_is_rebuilt_with_read_only_entries(copier) -> None:
    table = JointProbabilityTable(ENTRIES)
    report = no_signalling_check(table)
    twin_table, twin_report = copier(table), copier(report)
    assert twin_table.entries == table.entries and twin_report == report and twin_report is not report
    for mapping in (twin_table.entries, twin_report.deviations):
        assert type(mapping).__name__ == "mappingproxy"
        with pytest.raises(TypeError):
            mapping["x"] = 0.5  # type: ignore[index]


@every_record
def test_a_record_is_whole_when_built(cls: type) -> None:
    # Every value a record derives from its fields is stored by its constructor: reading a field, ``index``,
    # ``as_instance()`` or ``labels()`` later adds nothing to the instance and replaces no stored value.
    value = build(cls)
    built = dict(vars(value))
    for name in (*RECORDS[cls][0], "index"):
        getattr(value, name, None)
    for method in ("as_instance", "labels"):
        if hasattr(value, method):
            getattr(value, method)()
    assert vars(value).keys() == built.keys() and all(vars(value)[name] is item for name, item in built.items())


def test_a_strategy_embeds_one_instance_built_with_it() -> None:
    strategy = build(LocalStrategy)
    embedded = strategy.as_instance()
    assert embedded is strategy.as_instance() and embedded in vars(strategy).values()
    assert embedded == CounterfactualInstance((PLUS, MINUS, PLUS, MINUS, PLUS, MINUS))


@every_record
def test_fields_are_the_annotated_names_in_order(cls: type) -> None:
    assert cls._fields == RECORDS[cls][0]
    assert not hasattr(cls, "__dataclass_fields__")


REPLACERS = [pytest.param(lambda value, **changes: value.__replace__(**changes), id="__replace__")]
if sys.version_info >= (3, 13):
    REPLACERS.append(pytest.param(lambda value, **changes: copy.replace(value, **changes), id="copy.replace"))


@pytest.mark.parametrize("replace", REPLACERS)
class TestReplace:
    """A replaced record is built by its constructor, so it runs the type's checks on the new values."""

    @every_record
    def test_a_replaced_field_keeps_the_others(self, replace, cls: type) -> None:
        names, values = RECORDS[cls]
        value = build(cls)
        same = replace(value)
        assert type(same) is cls and same is not value and repr(same) == repr(value)
        changed = replace(value, **{names[-1]: values[-1]})
        assert repr(changed) == repr(value)
        with pytest.raises(TypeError):
            replace(value, foo=1)

    def test_a_replaced_basis_vector_gets_its_own_report(self, replace) -> None:
        basis = BASES[0]
        unnormalized = replace(basis, plus=(2.0, 0.0))
        report = validate_basis(unnormalized)
        assert not report.passed and (report.plus_norm_error, report.minus_norm_error, report.overlap) == (3.0, 0.0, 0.0)
        assert validate_basis(basis).passed and validate_basis(replace(unnormalized, plus=KET0)).passed

    def test_a_replaced_constraint_is_checked_again(self, replace) -> None:
        with pytest.raises(ValidationError, match=r"^expected a left-side choice \(L1 or L2\), got R1$"):
            replace(ZERO, settings=(R1, R2))
        renamed = replace(ZERO, label="Y")
        assert renamed.label == "Y" and renamed._instances == ZERO._instances

    def test_a_replaced_report_takes_the_new_value(self, replace) -> None:
        report = build(ObjectiveReport)
        assert replace(report, iterations=13).iterations == 13 and report.iterations == 12
        instance = build(CounterfactualInstance)
        assert replace(instance, outcomes=(MINUS,) * 6).index == 63
        with pytest.raises(ValidationError, match="exactly 6"):
            replace(instance, outcomes=(MINUS,) * 5)
