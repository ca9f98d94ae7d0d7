"""The frozen value classes: construction, equality, hashing, repr, immutability
and the checks each one runs once its fields are set."""

import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dualmem
from dualmem.axioms import FullReport, SchemaBudget, Verdict
from dualmem.battery import BatteryItem, BoundedInstance
from dualmem.errors import DualMemError, FormulaError
from dualmem.formulas import (
    And,
    Equality,
    Exists,
    FalseF,
    ForAll,
    Iff,
    Implies,
    Membership,
    Not,
    Or,
    TrueF,
)
from dualmem.hf import DomainCollapse
from dualmem.iso import FailureDiagnostic, IsoCertificate
from dualmem.lemmas import CorpusConfig, GalleryItem, SuiteReport
from dualmem.structure import DualStructure, MembershipRelation, Permutation, dual_structure

VALUE_CLASSES = (
    TrueF, FalseF, Membership, Equality, Not, And, Or, Implies, Iff, ForAll, Exists,
    MembershipRelation, DualStructure, Permutation,
    DomainCollapse,
    IsoCertificate, FailureDiagnostic,
    SchemaBudget, Verdict, FullReport,
    BatteryItem, BoundedInstance,
    SuiteReport, CorpusConfig, GalleryItem,
)

A, B = Membership(1, "x", "y"), Equality("x", "y")


def relation():
    return MembershipRelation(3, [0, 1], [1, 2])


# Each case builds two records afresh, so that equal ones are never the same object.
EQUAL = {
    "true": lambda: TrueF(),
    "and": lambda: And(A, Not(B)),
    "forall": lambda: ForAll("x", Exists("y", Iff(A, Implies(B, FalseF())))),
    "verdict": lambda: Verdict("fail", (("x", "0"),), "bounded"),
    "verdict-keyword": lambda: Verdict(status="pass", mode=None),
    "permutation": lambda: Permutation((1, 0, 2)),
    "structure": lambda: DualStructure(3, relation(), relation()),
    "certificate": lambda: IsoCertificate((0, 1)),
    "diagnostic": lambda: FailureDiagnostic("both-directions-fail", (3,), (2,)),
    "collapse": lambda: DomainCollapse((0, 1, 1), ((1, 2),)),
    "corpus": lambda: CorpusConfig(sizes=(3,), count=5),
    "budget": lambda: SchemaBudget(4, 60),
    "battery-item": lambda: BatteryItem("pairing-1", TrueF()),
    "bounded-instance": lambda: BoundedInstance(0, 1, "w = w", TrueF()),
    "lemma-verdict": lambda: Verdict("n/a", ("reason", "ill-founded")),
}

# Pairs that differ in class alone, or in one field.
UNEQUAL = {
    "and-or": (And(A, B), Or(A, B)),
    "implies-iff": (Implies(A, B), Iff(A, B)),
    "forall-exists": (ForAll("x", A), Exists("x", A)),
    "true-false": (TrueF(), FalseF()),
    "certificate-permutation": (IsoCertificate((0, 1)), Permutation((0, 1))),
    "membership-tag": (Membership(1, "x", "y"), Membership(2, "x", "y")),
    "and-operand-order": (And(A, B), And(B, A)),
    "verdict-mode": (Verdict("fail"), Verdict("fail", mode="bounded")),
    "corpus-seed": (CorpusConfig(), CorpusConfig(seed=1)),
    "relation-edges": (relation(), MembershipRelation(3, [0], [1])),
}


@pytest.mark.parametrize("make", EQUAL.values(), ids=EQUAL.keys())
class TestEqualRecords:
    def test_equal_and_not_unequal(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b
        assert not a != b

    def test_equal_hashes(self, make):
        assert hash(make()) == hash(make())

    def test_pickle_round_trip(self, make):
        a = make()
        assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize(("a", "b"), UNEQUAL.values(), ids=UNEQUAL.keys())
def test_unequal_records(a, b):
    assert a != b
    assert b != a
    assert not a == b


@pytest.mark.parametrize("record", [TrueF(), Verdict("pass"), relation()], ids=["true", "verdict", "relation"])
def test_never_equal_to_other_types(record):
    assert record != ()
    assert record != object()
    assert record.__eq__(()) is NotImplemented


def test_records_are_truthy():
    assert TrueF()
    assert FalseF()
    assert FullReport({})


REPRS = {
    "TrueF()": TrueF(),
    "Membership(tag=1, left='x', right='y')": A,
    "Not(body=Equality(left='x', right='y'))": Not(B),
    "ForAll(var='x', body=And(left=TrueF(), right=FalseF()))": ForAll("x", And(TrueF(), FalseF())),
    "Verdict(status='pass', witness=(), mode=None)": Verdict("pass"),
    "SchemaBudget(bounded_depth=4, bounded_cap=60)": SchemaBudget(bounded_depth=4, bounded_cap=60),
    "CorpusConfig(sizes=(3, 4), count=100, seed=0, kinds=('scrambled',))": CorpusConfig(),
    # The caches are not fields, so they stay out of the repr.
    "MembershipRelation(domain_size=3, child=array([0, 1]), parent=array([1, 2]))": relation(),
}


@pytest.mark.parametrize(("text", "record"), REPRS.items(), ids=REPRS.keys())
def test_repr(text, record):
    assert repr(record) == text


FROZEN = {
    "true": (TrueF(), "x"),
    "membership": (A, "tag"),
    "verdict": (Verdict("pass"), "status"),
    "verdict-default": (Verdict("pass"), "mode"),
    "permutation": (Permutation((0,)), "images"),
    "corpus": (CorpusConfig(), "count"),
    "relation": (relation(), "child"),
    "relation-cache": (relation(), "_member_tuples"),
    "structure": (DualStructure(3, relation(), relation()), "e1"),
    "new-name": (IsoCertificate((0,)), "extra"),
}


@pytest.mark.parametrize(("record", "name"), FROZEN.values(), ids=FROZEN.keys())
class TestFrozen:
    def test_assignment_raises(self, record, name):
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        assert repr(record) == before

    def test_deletion_raises(self, record, name):
        before = repr(record)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert repr(record) == before


class TestConstruction:
    def test_defaults_and_keyword(self):
        v = Verdict("fail", mode="m")
        assert (v.status, v.witness, v.mode) == ("fail", (), "m")
        assert Verdict("fail", mode="m") == Verdict("fail", (), "m")

    def test_keyword_settings(self):
        settings = {"sizes": (3,), "count": 7, "kinds": ("random-pair",)}
        config = CorpusConfig(**settings)
        assert (config.sizes, config.count, config.seed, config.kinds) == ((3,), 7, 0, ("random-pair",))

    def test_budget_default_cap(self):
        budget = SchemaBudget(bounded_depth=4)
        assert budget.bounded_depth == 4
        assert budget.bounded_cap == SchemaBudget().bounded_cap
        assert SchemaBudget().bounded_depth == 12

    def test_all_defaults(self):
        assert CorpusConfig() == CorpusConfig((3, 4), 100, 0, ("scrambled",))
        assert SuiteReport({}).corpus is None
        assert Verdict("pass").witness == ()

    def test_report_holds_its_verdicts(self):
        verdicts = {"pairing": Verdict("pass")}
        report = FullReport({1: verdicts})
        assert report.by_tag[1] is verdicts
        assert report.all_pass

    def test_relation_caches_are_per_instance(self):
        r1, r2 = relation(), relation()
        assert r1._member_tuples is None
        assert r1._derived == {} and r1._derived is not r2._derived
        assert r1.member_tuples() == ((), (0,), (1,))
        assert r2._member_tuples is None

    @pytest.mark.parametrize("make", [
        lambda: TrueF(1),
        lambda: Not(A, B),
        lambda: Verdict("pass", (), None, 1),
        lambda: CorpusConfig((3,), 1, 0, (), 9),
        lambda: CorpusConfig(size=3),
        lambda: Verdict("pass", colour="red"),
        lambda: Verdict("pass", status="fail"),
        lambda: And(A),
        lambda: Membership(tag=1, left="x"),
        lambda: IsoCertificate(),
    ], ids=["no-fields", "one-field", "verdict", "corpus", "unknown-keyword", "unknown-keyword-2",
            "twice", "missing", "missing-keyword", "missing-only"])
    def test_bad_arguments_raise_type_error(self, make):
        with pytest.raises(TypeError):
            make()


POST_INIT = {
    "membership-tag-3": (lambda: Membership(3, "x", "y"), FormulaError, "relation tag must be 1 or 2, got 3"),
    "membership-tag-keyword": (lambda: Membership(left="x", right="y", tag=0), FormulaError, "got 0"),
    "budget-depth-0": (lambda: SchemaBudget(0), DualMemError, "bounded depth must be >= 1, got 0"),
    "budget-keyword": (lambda: SchemaBudget(bounded_depth=0, bounded_cap=5), DualMemError, "got 0"),
    "verdict-status": (lambda: Verdict("maybe"), DualMemError, "bad verdict status 'maybe'"),
    "verdict-status-na": (lambda: Verdict("na"), DualMemError, "bad verdict status 'na'"),
    "permutation": (lambda: Permutation((0, 0, 2)), DualMemError, "not a permutation"),
    "structure-sizes": (lambda: DualStructure(4, relation(), relation()), DualMemError,
                        "relation domain sizes disagree"),
    "relation-outside": (lambda: MembershipRelation(2, [0, 2], [1, 1]), DualMemError,
                         "edge (2,1) outside domain of size 2"),
    "relation-lengths": (lambda: MembershipRelation(2, [0, 1], [1]), DualMemError,
                         "child and parent ids differ in number"),
}


@pytest.mark.parametrize(("make", "error", "message"), POST_INIT.values(), ids=POST_INIT.keys())
def test_post_init_checks_raise(make, error, message):
    with pytest.raises(error, match=re.escape(message)):
        make()


def test_relation_post_init_normalises_edges():
    r = MembershipRelation(3, [1, 0, 0], [2, 1, 1])
    assert r.child.tolist() == [0, 1] and r.parent.tolist() == [1, 2]
    assert not r.child.flags.writeable
    assert r == relation() and hash(r) == hash(relation())
    assert dual_structure(3, [(0, 1), (1, 2)], [(1, 2), (0, 1)]) == DualStructure(3, r, relation())


def _dualmem_modules():
    return [importlib.import_module(f"dualmem.{info.name}") for info in pkgutil.iter_modules(dualmem.__path__)]


def test_value_classes_are_records_not_dataclasses():
    # `@dataclass(frozen=True)` compiled about 166 methods for the 28
    # classes on every start: 0.022 s of the package's 0.028 s import
    # (Python 3.11, x86-64), paid by every command, however short. Record
    # gives the same behaviour with one small generated __init__ per class.
    from dualmem.errors import Record

    defined = [
        obj
        for module in _dualmem_modules()
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]
    assert not [cls for cls in defined if "__dataclass_fields__" in vars(cls)]
    assert len(VALUE_CLASSES) == 25
    assert all(issubclass(cls, Record) for cls in VALUE_CLASSES)
    assert {cls for cls in defined if issubclass(cls, Record) and cls._fields} <= set(VALUE_CLASSES)


def test_importing_the_cli_loads_no_dataclasses():
    code = "import sys, numpy; before = 'dataclasses' in sys.modules; import dualmem.cli; " \
           "print(before, 'dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(dualmem.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    before, after = out.stdout.split()
    assert after == "False" or before == "True"
