import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmem import (
    EvalError,
    FormulaError,
    build_v_universe,
    dual_structure,
    evaluate,
    evaluate_table,
    free_vars,
    instantiate_replacement,
    instantiate_separation,
    parse_formula,
    render,
    scramble,
    tamper,
)
from dualmem.formulas import (
    MAX_FORMULA_DEPTH,
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
    falsifying_assignment,
    rename_free,
)
from dualmem import formulas as formulas_mod
from dualmem.battery import fixed_battery
from dualmem.structure import Permutation, apply_permutation, random_dual_structure

EXTENSIONALITY = "forall x forall y ((forall z (z in1 x <-> z in1 y)) -> x = y)"

VARS = ("x", "y", "z")

# Atoms for the precedence table, by the letter that stands for them.
ATOMS = {"A": "x in1 y", "B": "y in2 z", "C": "z = x", "D": "true"}
A, B, C, D = Membership(1, "x", "y"), Membership(2, "y", "z"), Equality("z", "x"), TrueF()


def formulas(max_depth=4):
    atoms = st.one_of(
        st.just(TrueF()),
        st.just(FalseF()),
        st.builds(Membership, st.sampled_from((1, 2)), st.sampled_from(VARS), st.sampled_from(VARS)),
        st.builds(Equality, st.sampled_from(VARS), st.sampled_from(VARS)),
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Iff, sub, sub),
            st.builds(ForAll, st.sampled_from(VARS), sub),
            st.builds(Exists, st.sampled_from(VARS), sub),
        ),
        max_leaves=max_depth * 2,
    )


def structures(min_size=1):
    def build(size, bits1, bits2):
        pairs = [(a, b) for a in range(size) for b in range(size)]
        e1 = [pairs[i] for i in range(len(pairs)) if bits1 >> i & 1]
        e2 = [pairs[i] for i in range(len(pairs)) if bits2 >> i & 1]
        return dual_structure(size, e1, e2)

    return st.integers(min_size, 4).flatmap(
        lambda n: st.builds(build, st.just(n), st.integers(0, 2 ** (n * n) - 1), st.integers(0, 2 ** (n * n) - 1))
    )


class TestParser:
    def test_membership_atom(self):
        assert parse_formula("x in1 y") == Membership(1, "x", "y")

    def test_quantifier_nesting(self):
        f = parse_formula("forall x exists y x in2 y")
        assert f == ForAll("x", Exists("y", Membership(2, "x", "y")))

    def test_precedence_not_binds_atom(self):
        f = parse_formula("!x in1 y & x = y")
        assert f == And(Not(Membership(1, "x", "y")), Equality("x", "y"))

    def test_quantifier_body_extends_right(self):
        f = parse_formula("forall x x in1 y & y = x")
        assert f == ForAll("x", And(Membership(1, "x", "y"), Equality("y", "x")))

    def test_implication_right_associative(self):
        f = parse_formula("x = x -> y = y -> x = y")
        assert f == Implies(Equality("x", "x"), Implies(Equality("y", "y"), Equality("x", "y")))

    def test_or_binds_tighter_than_implies(self):
        f = parse_formula("x = x | y = y -> x = y")
        assert f == Implies(Or(Equality("x", "x"), Equality("y", "y")), Equality("x", "y"))

    @pytest.mark.parametrize(
        "text, tree",
        [
            ("A -> B -> C", Implies(A, Implies(B, C))),
            ("A -> B <-> C", Iff(Implies(A, B), C)),
            ("A <-> B -> C", Iff(A, Implies(B, C))),
            ("A <-> B <-> C", Iff(Iff(A, B), C)),
            ("A | B | C", Or(Or(A, B), C)),
            ("A & B & C", And(And(A, B), C)),
            ("A | B & C -> D", Implies(Or(A, And(B, C)), D)),
            ("A -> B | C & D", Implies(A, Or(B, And(C, D)))),
            ("A <-> B & C | D -> A", Iff(A, Implies(Or(And(B, C), D), A))),
            ("!A & B | C", Or(And(Not(A), B), C)),
            ("(A -> B) -> C", Implies(Implies(A, B), C)),
            ("A & forall x B | C", And(A, ForAll("x", Or(B, C)))),
            ("forall x x = x & y = y", ForAll("x", And(Equality("x", "x"), Equality("y", "y")))),
        ],
    )
    def test_mixed_precedence(self, text, tree):
        # <-> loosest, then ->, |, &; -> groups to the right, the others to the left.
        for name, atom in ATOMS.items():
            text = text.replace(name, atom)
        assert parse_formula(text) == tree

    def test_parentheses_override(self):
        f = parse_formula("!(x = x & y = y)")
        assert f == Not(And(Equality("x", "x"), Equality("y", "y")))

    def test_lexical_error_has_position(self):
        with pytest.raises(FormulaError) as exc:
            parse_formula("x in1 $")
        assert exc.value.position == 6

    def test_unbalanced_parentheses(self):
        with pytest.raises(FormulaError):
            parse_formula("(x in1 y")

    def test_dangling_quantifier(self):
        with pytest.raises(FormulaError):
            parse_formula("forall forall x x = x")

    @pytest.mark.parametrize(
        "text, position",
        [
            ("(" * (MAX_FORMULA_DEPTH + 1) + "true" + ")" * (MAX_FORMULA_DEPTH + 1), MAX_FORMULA_DEPTH),
            ("!" * MAX_FORMULA_DEPTH + "true", 0),  # the outermost '!' makes the tree too deep
            ("!" * (MAX_FORMULA_DEPTH + 1) + "true", MAX_FORMULA_DEPTH),  # the descent is refused first
            (" & ".join(["x = x"] * (MAX_FORMULA_DEPTH + 1)), 8 * MAX_FORMULA_DEPTH - 2),  # the last '&'
            (" | ".join(["x = x"] * (MAX_FORMULA_DEPTH + 5)), 8 * MAX_FORMULA_DEPTH - 2),
        ],
        ids=["parentheses", "negations-tree", "negations-descent", "and-chain", "or-chain"],
    )
    def test_depth_ceiling_position(self, text, position):
        with pytest.raises(FormulaError, match=f"nested deeper than {MAX_FORMULA_DEPTH} levels") as exc:
            parse_formula(text)
        assert exc.value.position == position

    def test_keywords_not_variables(self):
        with pytest.raises(FormulaError):
            parse_formula("true in1 x")

    @given(f=formulas())
    @settings(max_examples=150, deadline=None)
    def test_parse_render_identity(self, f):
        assert parse_formula(render(f)) == f

    @given(text=st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_formula(text)
        except FormulaError:
            pass


class TestFreeVars:
    def test_atom(self):
        assert free_vars(parse_formula("x in1 y")) == {"x", "y"}

    def test_bound(self):
        assert free_vars(parse_formula("forall x x in1 y")) == {"y"}

    def test_closed(self):
        assert free_vars(parse_formula("forall x x in1 x")) == frozenset()


class TestEvaluate:
    def test_extensionality_on_universe(self, v3):
        assert evaluate(v3, parse_formula(EXTENSIONALITY)) is True

    def test_extensionality_after_tamper(self, v3):
        broken = tamper(v3, "break-extensionality", 1)
        assert evaluate(broken, parse_formula(EXTENSIONALITY)) is False

    def test_reflexivity(self, v3):
        assert evaluate(v3, parse_formula("x = x"), {"x": 0}) is True

    def test_unbound_variable(self, v3):
        with pytest.raises(EvalError):
            evaluate(v3, parse_formula("x = y"), {"x": 0})

    def test_empty_domain_quantifiers(self):
        empty = build_v_universe(0)
        assert evaluate(empty, parse_formula("forall x false")) is True
        assert evaluate(empty, parse_formula("exists x true")) is False
        assert evaluate_table(empty, parse_formula("forall x exists y x in1 y")) is True

    def test_sentence_ignores_assignment(self, v3):
        sentence = parse_formula("forall x exists y x in1 y | x = x")
        assert evaluate(v3, sentence, {"q": 2}) == evaluate(v3, sentence, {})

    def test_bound_rename_invariance(self, v3):
        f = parse_formula("forall x (x in1 y -> exists z z in1 x)")
        g = ForAll("t", rename_free(f.body, "x", "t"))
        for val in range(4):
            assert evaluate(v3, f, {"y": val}) == evaluate(v3, g, {"y": val})

    @given(f=formulas(), s=structures(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_naive_and_table_agree(self, f, s, data):
        values = st.integers(0, s.domain_size - 1)
        assignment = {v: data.draw(values, label=v) for v in sorted(free_vars(f))}
        assert evaluate(s, f, assignment) == evaluate_table(s, f, assignment)

    @given(f=formulas(), s=structures(min_size=0), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_naive_and_table_agree_on_sentences(self, f, s, data):
        for v in sorted(free_vars(f)):
            f = data.draw(st.sampled_from((ForAll, Exists)), label=v)(v, f)
        assert evaluate(s, f) == evaluate_table(s, f)

    def test_vacuous_binder_under_assignment(self, v3):
        f = parse_formula("forall z x in1 y")
        for x, y in itertools.product(range(4), repeat=2):
            assert evaluate_table(v3, f, {"x": x, "y": y}) == evaluate(v3, f, {"x": x, "y": y})

    def test_sentence_invariance_exhaustive_small(self):
        s = dual_structure(4, [(0, 1), (1, 2), (0, 3)], [(2, 1), (3, 0)])
        sentences = [
            parse_formula("forall x exists y (x in1 y | y in2 x)"),
            parse_formula("exists x forall y (y in2 x -> exists z z in1 y)"),
            parse_formula(EXTENSIONALITY),
        ]
        for images in itertools.permutations(range(4)):
            p = Permutation(images)
            moved = dual_structure(
                4, apply_permutation(s.e1, p).edges, apply_permutation(s.e2, p).edges
            )
            for sentence in sentences:
                assert evaluate(moved, sentence) == evaluate(s, sentence)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_sentence_isomorphism_invariance(self, seed):
        s = build_v_universe(2)
        bigger = dual_structure(6, [(0, 1), (1, 2), (3, 4)], [(0, 5), (2, 3)])
        sentence = parse_formula(
            "forall x (exists y (y in1 x & forall z !z in2 y) -> exists w w in2 x)"
        )
        for base in (s, bigger):
            p = Permutation.random(base.domain_size, seed)
            moved = dual_structure(
                base.domain_size,
                apply_permutation(base.e1, p).edges,
                apply_permutation(base.e2, p).edges,
            )
            assert evaluate(base, sentence) == evaluate(moved, sentence)


class TestBoundedTables:
    """A quantifier whose body would pass TABLE_CELL_LIMIT is split over its
    own variable; on structures of at most 4 elements the limits 1, 4 and 16
    leave 0, 1 and 2 axes per table, so every non-vacuous quantifier, or
    only the wider ones, or the falsifying prefix, splits."""

    @given(f=formulas(), names=st.lists(st.sampled_from(VARS), max_size=3), s=structures(min_size=0),
           limit=st.sampled_from((1, 4, 16)), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_split_tables_agree_with_unsplit_and_naive(self, f, names, s, limit, data):
        assignment = None
        if s.domain_size:
            values = st.integers(0, s.domain_size - 1)
            assignment = {v: data.draw(values, label=v) for v in sorted(free_vars(f))}
        sentence = f
        for v in reversed(sorted(free_vars(f) - set(names)) + names):
            sentence = ForAll(v, sentence)
        unsplit = [evaluate_table(s, sentence), falsifying_assignment(s, sentence)]
        if assignment is not None:
            unsplit.append(evaluate_table(s, f, assignment))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formulas_mod, "TABLE_CELL_LIMIT", limit)
            split = [evaluate_table(s, sentence), falsifying_assignment(s, sentence)]
            if assignment is not None:
                split.append(evaluate_table(s, f, assignment))
        naive = [evaluate(s, sentence), least_failing_assignment(s, sentence)]
        if assignment is not None:
            naive.append(evaluate(s, f, assignment))
        assert split == unsplit == naive

    @pytest.mark.parametrize("text", [
        "forall y forall w (y in1 w | exists x x = x)",
        "forall y forall w (y in1 w | !exists x x = x)",
        "exists y exists w (y in1 w & forall x exists z x in2 z)",
    ])
    def test_closed_part_of_a_split_body(self, v3, text):
        # The part that does not read the split variable reduces to a numpy
        # scalar; it is computed once and folded into the slices' tables.
        f = parse_formula(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formulas_mod, "TABLE_CELL_LIMIT", 4)
            assert evaluate_table(v3, f) == evaluate(v3, f)
            assert falsifying_assignment(v3, f) == least_failing_assignment(v3, f)

    @pytest.mark.parametrize("text, split_vars", [
        ("forall x exists y x in1 y", ["x"]),
        ("exists x exists y x in1 y", ["x"]),
        ("forall y exists x x in1 y", ["y"]),
        ("forall y (y = y & exists x x in1 y)", ["x"]),
    ])
    def test_run_of_quantifiers_splits_at_its_outermost(self, v3, text, split_vars):
        # One value of the outer variable can decide the sentence; splitting
        # the inner one would fold every value before the outer one reduces.
        split = formulas_mod._Tables.split
        seen = []

        def spy(tables, f):
            seen.append(f.var)
            return split(tables, f)

        f = parse_formula(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formulas_mod, "TABLE_CELL_LIMIT", 4)
            mp.setattr(formulas_mod._Tables, "split", spy)
            assert evaluate_table(v3, f) == evaluate(v3, f)
        assert seen == split_vars

    def test_reflexive_atom_builds_no_square_table(self):
        n = 4096  # adjacency() would be 16 MiB
        s = dual_structure(n, [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 1)], [])
        for text, expected in (("forall x !x in1 x", False), ("exists x x in1 x", True)):
            result, peak = traced_peak_mib(lambda: evaluate_table(s, parse_formula(text)))
            assert result is expected
            assert peak < 1


def traced_peak_mib(fn):
    """fn's result and the most memory tracemalloc saw allocated during it, numpy buffers included."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestTableMemory:
    """replacement-pointwise-1 has six-variable clauses: 16 MiB tables on a
    16-element structure, unless the quantifiers over u and a are split."""

    def pointwise(self):
        return next(item.sentence for item in fixed_battery() if item.name == "replacement-pointwise-1")

    def test_evaluate_table_peak(self, v4):
        for tag in (1, 2):
            v4.relation(tag).adjacency()  # cached with the structure, not part of the evaluation
        result, peak = traced_peak_mib(lambda: evaluate_table(v4, self.pointwise()))
        assert result is True
        assert peak < 4

    def test_falsifying_assignment_peak(self):
        s = random_dual_structure(16, 1)
        for tag in (1, 2):
            s.relation(tag).adjacency()
        result, peak = traced_peak_mib(lambda: falsifying_assignment(s, self.pointwise()))
        assert result == {"g": 7, "L": 0, "K": 0}
        assert peak < 4


class TestInstantiateSeparation:
    def test_template_example(self):
        inst = instantiate_separation(parse_formula("w in2 p"), 1, ["p"])
        assert render(inst) == "forall p forall a exists b forall w (w in1 b <-> (w in1 a & w in2 p))"

    def test_holds_on_universe(self, v3):
        inst = instantiate_separation(parse_formula("w in2 p"), 1, ["p"])
        assert evaluate(v3, inst) is True

    def test_variable_capture_rejected(self):
        with pytest.raises(FormulaError):
            instantiate_separation(parse_formula("w in1 a"), 1, [])
        with pytest.raises(FormulaError):
            instantiate_separation(parse_formula("w in1 w"), 1, ["b"])

    def test_stray_free_variable_rejected(self):
        with pytest.raises(FormulaError):
            instantiate_separation(parse_formula("w in1 q"), 1, [])


class TestInstantiateReplacement:
    def test_identity_class(self, v3):
        inst = instantiate_replacement(parse_formula("u = v"), 1, [])
        assert evaluate(v3, inst) is True
        assert evaluate_table(v3, inst) is True

    def test_unique_member_class_on_universes(self, v3, v4):
        cls = parse_formula("v in2 u & forall w (w in2 u -> v = w)")
        inst = instantiate_replacement(cls, 1, [])
        assert evaluate_table(v3, inst) is True
        assert evaluate_table(v4, inst) is True

    def test_non_functional_class_is_vacuous(self, v3):
        inst = instantiate_replacement(parse_formula("v = v"), 1, [])
        assert evaluate(v3, inst) is True

    def test_fresh_variable_avoids_capture(self):
        cls = parse_formula("exists v_ (v_ in1 u & v = v)")
        inst = instantiate_replacement(cls, 1, [])
        assert "v__" in render(inst)


class TestFalsifyingAssignment:
    def test_true_sentence_has_none(self, v3):
        assert falsifying_assignment(v3, parse_formula(EXTENSIONALITY)) is None

    def test_least_witness(self, v3):
        sentence = parse_formula("forall x exists y x in1 y")
        got = falsifying_assignment(v3, sentence)
        # least element with no parent: 2 = {{}} sits in 3 only; 3 is in nothing
        assert got == {"x": 2}

    def test_empty_domain_has_no_prefix_tuple(self):
        empty = build_v_universe(0)
        assert evaluate(empty, parse_formula("forall x false")) is True
        assert falsifying_assignment(empty, parse_formula("forall x false")) is None
        assert falsifying_assignment(empty, parse_formula("false")) == {}

    def test_requires_closed_sentence(self, v3):
        with pytest.raises(EvalError):
            falsifying_assignment(v3, parse_formula("x in1 y"))

    def test_rebound_prefix_names(self, v3):
        # Each name takes the value of its innermost binder; names appear once,
        # in order of first occurrence, and the least tuple is taken in the
        # order of the binders: here the innermost x varies fastest.
        assert falsifying_assignment(v3, parse_formula("forall x forall x !x in1 x")) is None
        assert falsifying_assignment(v3, parse_formula("forall x forall y forall x x in1 y")) == {"x": 0, "y": 0}
        # The body fails at (x, y) = (1, 2), (0, 3) and (1, 3): y is least first.
        body = "!(x in1 y & (exists z z in1 x | exists z (z in1 y & !z = x)))"
        assert falsifying_assignment(v3, parse_formula(f"forall x forall y {body}")) == {"x": 0, "y": 3}
        got = falsifying_assignment(v3, parse_formula(f"forall x forall y forall x {body}"))
        assert list(got.items()) == [("x", 1), ("y", 2)]

    @given(names=st.lists(st.sampled_from(VARS), max_size=4), body=formulas(), s=structures())
    @settings(max_examples=200, deadline=None)
    def test_least_failing_prefix_tuple(self, names, body, s):
        sentence = body
        for v in reversed(sorted(free_vars(body) - set(names)) + names):
            sentence = ForAll(v, sentence)
        assert falsifying_assignment(s, sentence) == least_failing_assignment(s, sentence)


def least_failing_assignment(s, sentence):
    """The first tuple of the forall-prefix, in lexicographic order, at which
    the naive evaluation of the body fails, read as one value per name."""
    prefix, body = [], sentence
    while isinstance(body, ForAll):
        prefix.append(body.var)
        body = body.body
    used = free_vars(body)
    for values in itertools.product(range(s.domain_size), repeat=len(prefix)):
        env = dict(zip(prefix, values))  # an inner binder overrides an outer one
        if not evaluate(s, body, env):
            return {v: val for v, val in env.items() if v in used}
    return None
