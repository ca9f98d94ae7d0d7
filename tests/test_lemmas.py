import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmem import (
    CorpusConfig,
    DualMemError,
    LevelExtensionError,
    Permutation,
    build_v_universe,
    counterexample_gallery,
    dual_structure,
    run_corpus,
    run_suite,
    scramble,
    tamper,
)
from dualmem import hf
from dualmem import iso as iso_mod
from dualmem import lemmas as lemmas_mod
from dualmem.axioms import SCHEMA_MODES, FullReport, Verdict, full_report, render_report
from dualmem.lemmas import (
    GALLERY_BUDGET,
    LEMMA_NAMES,
    _chain_vs_v3,
    _equal_extensions,
    SuiteReport,
    _check_functionality,
    _check_level_extension,
    _check_membership_preservation,
    _check_restriction,
    _check_uniqueness,
    count_witnesses_brute,
    gallery_summary,
    render_suite,
)
from dualmem.structure import TAMPER_KINDS, apply_permutation, random_dual_structure, transitive_closure

from conftest import members


def _v3_plus_ordinal():
    edges = [(0, 1), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4), (3, 4)]
    return scramble(dual_structure(5, edges, edges), Permutation.random(5, 2))


class TestRunSuite:
    def test_scrambled_universe_all_pass(self, scrambled_v4):
        report = run_suite(scrambled_v4)
        assert all(v.status == "pass" for v in report.lemmas.values())

    def test_ordinal_verdicts_decided_once(self, monkeypatch, scrambled_v4):
        # One verdict per side of each of the 16 matched pairs, shared by the
        # ordinal-preservation and level-extension checks; the four ordinal
        # pairs are then extended, and internal_level checks both sides again.
        calls = []
        real = iso_mod.is_ordinal
        monkeypatch.setattr(iso_mod, "is_ordinal", lambda rel, x: calls.append(x) or real(rel, x))
        report = run_suite(scrambled_v4)
        assert all(v.status == "pass" for v in report.lemmas.values())
        assert len(calls) == 2 * 16 + 2 * 4

    def test_long_chain_suite(self):
        # A chain fails pairing ({0, 1} has no element), so totality reads
        # n/a; every other lemma passes. Restriction takes one pass over the
        # partners: a witness per pair walks each pair's whole closure, which
        # is quadratic on a chain.
        n = 65_536
        chain = [(k, k + 1) for k in range(n - 1)]
        s = scramble(dual_structure(n, chain, chain), Permutation.random(n, 11))
        start = time.process_time()
        lemmas = run_suite(s).lemmas
        assert time.process_time() - start < 30
        assert lemmas.pop("totality").witness == (("reason", "axioms"), ("tag", "1"), ("axiom", "pairing"))
        assert list(lemmas.values()) == [Verdict("pass")] * 7

    def test_chain_vs_v3_pattern(self):
        report = run_suite(_chain_vs_v3())
        lemmas = report.lemmas
        for name in LEMMA_NAMES[:6]:
            assert lemmas[name].status == "pass", name
        assert lemmas["totality"].status == "n/a"
        assert dict(lemmas["totality"].witness)["reason"] == "axioms"
        assert lemmas["isomorphism"].status == "fail"
        assert dict(lemmas["isomorphism"].witness)["case"] == "both-directions-fail"

    def test_cycle_makes_everything_not_applicable(self, v3):
        report = run_suite(tamper(v3, "add-cycle", 2))
        assert all(v.status == "n/a" for v in report.lemmas.values())
        assert all(dict(v.witness)["reason"] == "ill-founded" for v in report.lemmas.values())

    def test_non_extensional_reports_collapse_warning(self, v3):
        report = run_suite(tamper(v3, "break-extensionality", 2))
        assert all(v.status == "n/a" for v in report.lemmas.values())
        witness = dict(report.lemmas["isomorphism"].witness)
        assert witness["reason"] == "non-extensional"
        assert "collapse-duplicates" in witness

    def test_independent_pair_runs_conditionals(self):
        s = random_dual_structure(6, 11)
        report = run_suite(s)
        for name in LEMMA_NAMES[:5]:
            assert report.lemmas[name].status == "pass", name
        assert report.lemmas["isomorphism"].status in ("pass", "fail")

    @given(seed=st.integers(0, 400), size=st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_passing_battery_forces_isomorphism(self, seed, size):
        """The finite main claim: a full semantic battery on both relations
        leaves no room for non-isomorphic memberships."""
        from dualmem.axioms import full_report

        s = random_dual_structure(size, seed)
        report = run_suite(s)
        if full_report(s, schema_mode="semantic").semantic_pass:
            assert report.lemmas["isomorphism"].status == "pass"

    def test_passing_battery_forces_isomorphism_positive_cases(self):
        from dualmem.axioms import full_report

        for n in (1, 2, 3, 4):
            base = build_v_universe(n)
            for seed in range(5):
                s = scramble(base, Permutation.random(base.domain_size, seed))
                assert full_report(s, schema_mode="semantic").semantic_pass
                assert run_suite(s).lemmas["isomorphism"].status == "pass"

    def test_exhaustive_three_element_worlds(self):
        """Every dual structure over all extensional acyclic 3-element relations:
        the isomorphism verdict must equal collapse-image equality, and a fully
        passing semantic battery must force a certificate."""
        from dualmem import collapse_domain
        from dualmem.axioms import full_report
        from dualmem.structure import relation_from_edges

        pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
        relations = []
        for bits in range(1 << len(pairs)):
            rel = relation_from_edges(3, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            if rel.is_acyclic() and rel.is_extensional():
                relations.append(rel)
        assert len(relations) > 1
        for e1 in relations:
            image1 = collapse_domain(e1).image()
            for e2 in relations:
                s = dual_structure(3, e1.edges, e2.edges)
                report = run_suite(s)
                same = image1 == collapse_domain(e2).image()
                assert (report.lemmas["isomorphism"].status == "pass") == same
                if full_report(s, schema_mode="semantic").semantic_pass:
                    assert same

    def test_fail_witness_reruns_in_isolation(self):
        s = _chain_vs_v3()
        verdict = run_suite(s).lemmas["isomorphism"]
        witness = dict(verdict.witness)
        x, y = int(witness["e1"]), int(witness["e2"])
        assert all(iso_mod.build_witness(s, x, other) is None for other in range(s.domain_size))
        assert all(iso_mod.build_witness(s, other, y) is None for other in range(s.domain_size))

    def test_level_extension_skips_an_unrealized_level(self):
        # V3 plus the ordinal {0, 1, 3}, whose internal level {0, 1, 2, 3} has
        # no element: its pair is skipped and the other ordinal pairs pass.
        s = _v3_plus_ordinal()
        with pytest.raises(LevelExtensionError) as info:
            iso_mod.extend_to_level(s, 4, iso_mod.partners(s)[4])
        assert (info.value.kind, info.value.witness, info.value.tag) == ("missing-level", 4, 1)
        assert run_suite(s).lemmas["level-extension"] == Verdict("pass")

    def test_level_extension_without_level_pairs(self):
        verdict = run_suite(dual_structure(0, [], [])).lemmas["level-extension"]
        assert verdict == Verdict("n/a", (("reason", "no-level-pairs"),))

    def test_level_extension_failure_tokens(self, monkeypatch):
        def unrealized(s, x, y):
            raise LevelExtensionError("unrealized-image", 3, 2)

        monkeypatch.setattr(iso_mod, "extend_to_level", unrealized)
        verdict = run_suite(_v3_plus_ordinal()).lemmas["level-extension"]
        assert verdict == Verdict(
            "fail", (("ordinal", "0"), ("kind", "unrealized-image"), ("witness", "3"))
        )

    def test_suite_renders_no_collapse(self, monkeypatch):
        def refuse(code):
            raise AssertionError("the suite rendered a collapse")

        monkeypatch.setattr(hf, "render_hf", refuse)
        text = render_suite(run_suite(random_dual_structure(40, 1)))
        assert "lemma isomorphism fail case=both-directions-fail e1=3 e2=26\n" in text

    @pytest.mark.parametrize(
        "build", [_chain_vs_v3, lambda: build_v_universe(4)], ids=["chain-vs-v3", "v4"]
    )
    def test_one_matching_sweep(self, monkeypatch, build):
        calls = []
        sweep = iso_mod.partners

        def counted(s):
            calls.append(s)
            return sweep(s)

        monkeypatch.setattr(iso_mod, "partners", counted)
        run_suite(build())
        assert len(calls) == 1

    @pytest.mark.parametrize(
        ("build", "collapses"),
        [(_chain_vs_v3, 0), (lambda: build_v_universe(4), 0), (_equal_extensions, 1)],
        ids=["chain-vs-v3", "v4", "equal-extensions"],
    )
    def test_collapses_only_a_non_extensional_relation(self, monkeypatch, build, collapses):
        calls = []
        collapse_domain = hf.collapse_domain

        def counted(rel, tag=None):
            calls.append(tag)
            return collapse_domain(rel, tag)

        monkeypatch.setattr(hf, "collapse_domain", counted)
        report = run_suite(build())
        assert len(calls) == collapses
        if collapses:
            assert report.lemmas["isomorphism"].witness == (
                ("reason", "non-extensional"), ("tag", "2"), ("collapse-duplicates", "2,3")
            )

    @given(seed=st.integers(0, 60))
    @settings(max_examples=15, deadline=None)
    def test_verdicts_permutation_invariant(self, seed):
        s = random_dual_structure(5, seed)
        p = Permutation.random(5, seed + 13)
        moved = dual_structure(
            5, apply_permutation(s.e1, p).edges, apply_permutation(s.e2, p).edges
        )
        a = run_suite(s).lemmas
        b = run_suite(moved).lemmas
        assert {k: v.status for k, v in a.items()} == {k: v.status for k, v in b.items()}

    def test_report_format(self, scrambled_v3):
        text = render_suite(run_suite(scrambled_v3))
        lines = text.splitlines()
        assert [l.split()[1] for l in lines] == list(LEMMA_NAMES)
        assert all(l.split()[2] in ("pass", "fail", "n/a") for l in lines)


def reference_count(s, x, y):
    """Product-and-filter: every map from the e1 closure of x into the e2
    closure of y, kept when it sends x to y and passes every condition."""
    tc1 = transitive_closure(s.e1, x, include_self=True)
    tc2 = transitive_closure(s.e2, y, include_self=True)
    dom, cod = sorted(tc1), sorted(tc2)
    count = 0
    for values in itertools.product(cod, repeat=len(dom)):
        f = dict(zip(dom, values))
        if f[x] == y and all(iso_mod._witness_conditions(s, x, y, f, tc1, tc2).values()):
            count += 1
    return count


def _scrambled(level, seed):
    base = build_v_universe(level)
    return scramble(base, Permutation.random(base.domain_size, seed))


def _tampered(level, kind, seed):
    return tamper(_scrambled(level, seed), kind, seed)


COUNT_INPUTS = st.one_of(
    st.builds(random_dual_structure, st.integers(3, 8), st.integers(0, 10_000)),
    st.builds(_scrambled, st.sampled_from((3, 4)), st.integers(0, 10_000)),
    st.builds(_tampered, st.sampled_from((3, 4)), st.sampled_from(TAMPER_KINDS), st.integers(0, 10_000)),
)


@st.composite
def edge_sets(draw):
    """Both relations arbitrary edge sets on 1-6 elements: self-loops, longer
    cycles and elements with the same members all come up."""
    n = draw(st.integers(1, 6))
    pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
    return dual_structure(n, draw(pairs), draw(pairs))


def closures2(s, ys):
    return {y: transitive_closure(s.e2, y, include_self=True) for y in ys}


class TestWitnessCounting:
    def test_exactly_one_when_matched(self, scrambled_v3):
        assert count_witnesses_brute(scrambled_v3, 1, closures2(scrambled_v3, [2])) == {2: 1}

    def test_zero_when_unmatched(self, scrambled_v3):
        assert count_witnesses_brute(scrambled_v3, 1, closures2(scrambled_v3, [1])) == {1: 0}

    @given(s=COUNT_INPUTS)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_product_and_filter(self, s):
        def small(rel, x):
            return len(transitive_closure(rel, x, include_self=True)) <= 4

        xs = [x for x in range(s.domain_size) if small(s.e1, x)]
        tc2 = closures2(s, [y for y in range(s.domain_size) if small(s.e2, y)])
        for x in xs:
            expected = {y: reference_count(s, x, y) for y in tc2}
            assert count_witnesses_brute(s, x, tc2) == expected, x

    @given(s=edge_sets())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_product_and_filter_on_any_edge_set(self, s):
        # Every y, whatever its closure size, so that both value prunes run.
        tc2 = closures2(s, range(s.domain_size))
        for x in range(s.domain_size):
            if len(transitive_closure(s.e1, x, include_self=True)) <= 4:
                expected = {y: reference_count(s, x, y) for y in tc2}
                assert count_witnesses_brute(s, x, tc2) == expected, x

    def test_empty_x_against_y_with_members(self):
        # 0 is empty in e1 and its own only member in e2: closures of one element each.
        s = dual_structure(1, [], [(0, 0)])
        assert count_witnesses_brute(s, 0, closures2(s, [0])) == {0: 0} == {0: reference_count(s, 0, 0)}

    def test_closure_of_y_larger_than_that_of_x(self):
        # In e1 the closure of 1 is {0, 1}; in e2 that of 2 is {0, 1, 2}.
        s = dual_structure(3, [(0, 1)], [(0, 1), (1, 2)])
        assert count_witnesses_brute(s, 1, closures2(s, [2])) == {2: 0} == {2: reference_count(s, 1, 2)}

    def test_counts_above_one(self):
        # Without extensionality a pair can have several witnesses: 0 and 1
        # are both empty, so the map on {0, 1, 2} may swap them.
        s = dual_structure(3, [(0, 2), (1, 2)], [(0, 2), (1, 2)])
        assert count_witnesses_brute(s, 2, closures2(s, [2]))[2] == reference_count(s, 2, 2) == 2

    def test_self_loops(self):
        s = dual_structure(2, [(0, 0), (0, 1)], [(1, 1), (1, 0)])
        for x in range(2):
            assert count_witnesses_brute(s, x, closures2(s, range(2))) == {
                y: reference_count(s, x, y) for y in range(2)
            }
        assert count_witnesses_brute(s, 1, closures2(s, [0]))[0] == 1

    def test_long_chain_walks_stop_at_the_bound(self):
        # Only 4 of the 65,536 elements have small closures on each side; a
        # walk of every whole closure would take minutes.
        n = 65_536
        chain = [(k, k + 1) for k in range(n - 1)]
        s = scramble(dual_structure(n, chain, chain), Permutation.random(n, 7))
        partner = iso_mod.partners(s)
        start = time.process_time()
        assert _check_uniqueness(s, partner) == Verdict("pass")
        assert time.process_time() - start < 20


class TestUniquenessFailure:
    """No structure the suite accepts has a wrong partner list, so the fail
    path is reached by swapping two entries of the partners(s) list that
    run_suite hands to the check, and the check is called directly."""

    @pytest.mark.parametrize(
        "swap, line",
        [
            ((0, 1), "x=0 y=1 witnesses=0 expected=1"),
            ((1, 2), "x=1 y=0 witnesses=0 expected=1"),
            ((2, 3), "x=2 y=0 witnesses=1 expected=0"),
            ((0, 3), "x=0 y=2 witnesses=0 expected=1"),
        ],
    )
    def test_swapped_partners_fail_line(self, swap, line):
        s = scramble(build_v_universe(3), Permutation.random(4, 7))
        partner = iso_mod.partners(s)
        assert partner == [3, 1, 0, 2]
        a, b = swap
        partner[a], partner[b] = partner[b], partner[a]
        report = SuiteReport({"witness-uniqueness": _check_uniqueness(s, partner)})
        assert render_suite(report) == f"lemma witness-uniqueness fail {line}\n"


class TestRestrictionFailure:
    """A listed pair without a witness fails the check, naming the pair.
    Swapping two entries of scrambled V3's partners list makes such pairs."""

    @pytest.mark.parametrize(
        "swap, line",
        [
            ((0, 1), "x=0 y=1 reason=no-witness"),
            ((1, 2), "x=1 y=0 reason=no-witness"),
            ((2, 3), "x=2 y=2 reason=no-witness"),
        ],
    )
    def test_swapped_partners_fail_line(self, swap, line):
        s = scramble(build_v_universe(3), Permutation.random(4, 7))
        partner = iso_mod.partners(s)
        swapped = list(partner)
        a, b = swap
        swapped[a], swapped[b] = swapped[b], swapped[a]
        report = SuiteReport({"witness-restriction": _check_restriction(s, partner, list(enumerate(swapped)))})
        assert render_suite(report) == f"lemma witness-restriction fail {line}\n"


class TestExtendToLevelErrors:
    """The errors extend_to_level raises for a pair that is not an extendable
    ordinal pair, and in which order: a non-ordinal on e1, then on e2, then a
    missing level on e1, then on e2."""

    @pytest.mark.parametrize(
        "x, y, message",
        [
            (2, 0, "element 2 is not an ordinal of e1"),
            (0, 2, "element 2 is not an ordinal of e2"),
            (2, 2, "element 2 is not an ordinal of e1"),
        ],
    )
    def test_non_ordinal_on_v4(self, v4, x, y, message):
        with pytest.raises(DualMemError, match=f"^{message}$") as exc:
            iso_mod.extend_to_level(v4, x, y)
        assert not isinstance(exc.value, LevelExtensionError)

    def test_level_mismatch_on_v4(self, v4):
        with pytest.raises(LevelExtensionError) as exc:
            iso_mod.extend_to_level(v4, 3, 11)
        assert exc.value.kind == "level-mismatch"

    def test_non_ordinal_y_beside_a_missing_e1_level(self):
        s = _v3_plus_ordinal()
        with pytest.raises(DualMemError, match="^element 3 is not an ordinal of e2$") as exc:
            iso_mod.extend_to_level(s, 4, 3)
        assert not isinstance(exc.value, LevelExtensionError)

    def test_missing_e1_level(self):
        with pytest.raises(LevelExtensionError) as exc:
            iso_mod.extend_to_level(_v3_plus_ordinal(), 4, 0)
        assert (exc.value.kind, exc.value.witness, exc.value.tag) == ("missing-level", 4, 1)


class TestLevelExtensionFailure:
    """A listed ordinal pair without a witness fails the check, naming the
    ordinal. Swapping two entries of scrambled V3's partners list makes such
    pairs; a swap that pairs a non-ordinal is skipped by the check."""

    @pytest.mark.parametrize(
        "swap, line",
        [
            ((0, 1), "fail ordinal=0 kind=no-witness"),
            ((0, 3), "fail ordinal=0 kind=no-witness"),
            ((1, 3), "fail ordinal=1 kind=no-witness"),
            ((1, 2), "fail ordinal=3 kind=global-disagrees witness=1"),
            ((2, 3), "pass"),
        ],
    )
    def test_swapped_partners_line(self, swap, line):
        s = scramble(build_v_universe(3), Permutation.random(4, 7))
        partner = iso_mod.partners(s)
        assert partner == [3, 1, 0, 2]
        a, b = swap
        partner[a], partner[b] = partner[b], partner[a]
        matched = list(enumerate(partner))
        ordinal = [(iso_mod.is_ordinal(s.e1, x), iso_mod.is_ordinal(s.e2, y)) for x, y in matched]
        report = SuiteReport({"level-extension": _check_level_extension(s, matched, ordinal)})
        assert render_suite(report) == f"lemma level-extension {line}\n"


def reference_restriction(s, matched):
    """The restriction check as first written: a witness for each matched
    pair, then one for each e1 member c of x, compared with the outer witness
    restricted to c's closure. It has no verdict (None) when a listed pair
    has no witness."""
    for x, y in matched:
        f = iso_mod.build_witness(s, x, y)
        if f is None:
            return None
        for child in sorted(members(s.e1, x)):
            sub = iso_mod.build_witness(s, child, f[child])
            if sub is None:
                return Verdict("fail", (("x", str(x)), ("child", str(child)), ("reason", "no-witness")))
            expected = {t: f[t] for t in transitive_closure(s.e1, child, include_self=True)}
            if sub != expected:
                return Verdict("fail", (("x", str(x)), ("child", str(child)), ("reason", "not-restriction")))
    return Verdict("pass")


ACYCLIC_INPUTS = st.one_of(
    st.builds(_scrambled, st.sampled_from((3, 4)), st.integers(0, 10_000)),
    st.builds(random_dual_structure, st.integers(2, 12), st.integers(0, 10_000)),
    st.builds(
        _tampered, st.sampled_from((3, 4)), st.sampled_from(("break-extensionality", "remove-edge")),
        st.integers(0, 10_000),
    ),
)


class TestRestriction:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_per_member_reference(self, data):
        # The partners list, lists drawn from it with pairs missing (and in
        # any order), and lists mixing in arbitrary pairs. Where the
        # reference gives a verdict the check gives the same one; where it
        # has none, the check fails the first pair without a witness.
        s = data.draw(ACYCLIC_INPUTS)
        ids = st.integers(0, s.domain_size - 1)
        guide = [(x, y) for x, y in enumerate(iso_mod.partners(s)) if y is not None]
        drawn = st.sampled_from(guide) if guide else st.tuples(ids, ids)
        matched = data.draw(st.one_of(
            st.just(guide),
            st.lists(drawn, max_size=len(guide)),
            st.lists(st.one_of(drawn, st.tuples(ids, ids)), min_size=1, max_size=s.domain_size + 3),
        ))
        expected = reference_restriction(s, matched)
        if expected is None:
            x, y = next((x, y) for x, y in matched if iso_mod.build_witness(s, x, y) is None)
            expected = Verdict("fail", (("x", str(x)), ("y", str(y)), ("reason", "no-witness")))
        assert _check_restriction(s, iso_mod.partners(s), matched) == expected

    def test_one_witness_per_matched_pair(self, monkeypatch, scrambled_v4):
        # No witness is built when every pair is (x, partners(s)[x]) and no
        # partner repeats; otherwise one per pair, up to the first without one.
        calls = []
        build = iso_mod.build_witness

        def counted(s, x, y):
            calls.append((x, y))
            return build(s, x, y)

        monkeypatch.setattr(iso_mod, "build_witness", counted)
        partner = iso_mod.partners(scrambled_v4)
        matched = list(enumerate(partner))
        assert _check_restriction(scrambled_v4, partner, matched) == Verdict("pass")
        assert calls == []
        wrong = matched[:3] + [(3, matched[4][1])] + matched[4:]
        assert _check_restriction(scrambled_v4, partner, wrong) == Verdict(
            "fail", (("x", "3"), ("y", str(matched[4][1])), ("reason", "no-witness"))
        )
        assert calls == wrong[:4]
        calls.clear()
        # e1's 0 and 3 share the empty member-set, so both have partner 0.
        shared = dual_structure(4, [(0, 1), (0, 2)], [(0, 1), (1, 2), (0, 3), (1, 3)])
        partner = iso_mod.partners(shared)
        repeated = list(enumerate(partner))
        assert repeated == [(0, 0), (1, 1), (2, 1), (3, 0)]
        assert _check_restriction(shared, partner, repeated) == Verdict("pass")
        assert calls == repeated

    @given(s=ACYCLIC_INPUTS)
    @settings(max_examples=150, deadline=None)
    def test_witness_is_partners_on_the_closure(self, s):
        # The fact _check_restriction rests on: a witness, when there is one,
        # is the partners list read along x's members-first closure.
        partner = iso_mod.partners(s)
        for x, y in enumerate(partner):
            if y is None:
                continue
            w = iso_mod.build_witness(s, x, y)
            if w is not None:
                expected = [(t, partner[t]) for t in iso_mod.reachable_postorder(s.e1, x)]
                assert list(w.items()) == expected


class TestCollapseGate:
    @given(s=ACYCLIC_INPUTS)
    @settings(max_examples=80, deadline=None)
    def test_extensional_iff_no_collapse_duplicates(self, s):
        # On an acyclic relation, two elements share a collapse exactly when
        # some two share a member tuple (Mostowski): run_suite's gate rests on it.
        for rel in (s.e1, s.e2):
            assert rel.is_extensional() == (hf.collapse_domain(rel).duplicate_groups == ())


def reference_membership_preservation(s, matched):
    """The definition, pair of pairs by pair of pairs in list order."""
    mt1, mt2 = s.e1.member_tuples(), s.e2.member_tuples()
    for (x, y), (x2, y2) in itertools.product(matched, repeat=2):
        if (x in mt1[x2]) != (y in mt2[y2]):
            return Verdict("fail", (("x", str(x)), ("x2", str(x2)), ("y", str(y)), ("y2", str(y2))))
    return Verdict("pass")


class TestMembershipPreservation:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_quadratic_definition(self, data):
        # Matched lists of any order and length: the partners list, pairs
        # drawn from it (repeats and any order, so they still pass), and
        # arbitrary pairs, wrong and non-injective ones included.
        s = data.draw(COUNT_INPUTS)
        ids = st.integers(0, s.domain_size - 1)
        guide = []
        if s.e1.is_acyclic():
            guide = [(x, y) for x, y in enumerate(iso_mod.partners(s)) if y is not None]
        pairs = st.one_of(st.sampled_from(guide), st.tuples(ids, ids)) if guide else st.tuples(ids, ids)
        matched = data.draw(st.one_of(st.just(guide), st.lists(pairs, max_size=s.domain_size + 3)))
        expected = reference_membership_preservation(s, matched)
        assert _check_membership_preservation(s, matched) == expected
        assert _check_membership_preservation(s, tuple(matched)) == expected

    def test_long_chain(self):
        # e1 is the chain 0 in 1 in .. in n-1, e2 the same chain scrambled, so
        # the true pairs are (i, p(i)). A last pair (n-1, p(k)) is wrong: the
        # first failing pair of pairs is (k-1, p(k-1)) with (n-1, p(k)), since
        # p(k-1) in p(k) in e2 but k-1 is not in n-1 in e1.
        n, k = 20_000, 5_000
        chain = [(i, i + 1) for i in range(n - 1)]
        p = Permutation.random(n, 3)
        s = dual_structure(n, chain, [(p(a), p(b)) for a, b in chain])
        matched = [(i, p(i)) for i in range(n)]
        assert _check_membership_preservation(s, matched) == Verdict("pass")
        matched[-1] = (n - 1, p(k))
        assert _check_membership_preservation(s, matched) == Verdict(
            "fail", (("x", str(k - 1)), ("x2", str(n - 1)), ("y", str(p(k - 1))), ("y2", str(p(k))))
        )


class TestCheckFunctionality:
    def test_pass_on_a_matching(self):
        assert _check_functionality([(2, 0), (0, 1), (1, 2)]) == Verdict("pass")

    def test_x_matched_twice_names_its_ys(self):
        assert _check_functionality([(3, 5), (1, 0), (3, 2)]) == Verdict(
            "fail", (("x", "3"), ("ys", "2,5"))
        )

    def test_y_matched_twice_names_its_xs(self):
        assert _check_functionality([(4, 1), (0, 2), (2, 1)]) == Verdict(
            "fail", (("y", "1"), ("xs", "2,4"))
        )

    def test_x_checked_before_y(self):
        # y=0 is matched twice and sorts before x=5's repeat, which still wins.
        assert _check_functionality([(5, 3), (1, 0), (2, 0), (5, 4)]) == Verdict(
            "fail", (("x", "5"), ("ys", "3,4"))
        )


class TestRunCorpus:
    def test_scrambled_corpus_passes(self):
        report = run_corpus(CorpusConfig(sizes=(3,), count=5))
        assert report.all_ok
        assert "iso-pass=5" in report.corpus
        assert report.corpus.startswith("corpus seeds=0..4 sizes=3 kinds=scrambled")

    def test_random_pairs_counted_and_cross_checked(self):
        report = run_corpus(CorpusConfig(sizes=(4, 6), count=8, kinds=("random-pair",)))
        assert report.all_ok
        assert "items=16" in report.corpus

    def test_empty_config(self):
        report = run_corpus(CorpusConfig(sizes=(), count=0))
        assert report.corpus == "corpus seeds=- sizes= kinds=scrambled items=0 iso-pass=0 iso-fail=0"
        assert all(v.status == "n/a" for v in report.lemmas.values())

    def test_one_level_per_size(self, monkeypatch):
        calls = []
        real = lemmas_mod.build_v_universe
        monkeypatch.setattr(lemmas_mod, "build_v_universe", lambda n: calls.append(n) or real(n))
        report = run_corpus(CorpusConfig(sizes=(3, 4), count=100))
        assert report.all_ok
        assert calls == [3, 4]

    def test_scrambled_failure_stops_with_its_seed(self, monkeypatch):
        # Items 0 and 1 pass all but level-extension; item 2 fails
        # membership-preservation. Earlier items' passes stay, the failing
        # item's own passes do not count, and the corpus line stops at it.
        real = lemmas_mod.run_suite
        calls = []

        def suite(s):
            calls.append(s)
            lemmas = dict(real(s).lemmas)
            lemmas["level-extension"] = Verdict("n/a", (("reason", "no-level-pairs"),))
            if len(calls) == 3:
                lemmas["level-extension"] = Verdict("pass")
                lemmas["membership-preservation"] = Verdict("fail", (("x", "1"), ("y", "2")))
            return SuiteReport(lemmas)

        monkeypatch.setattr(lemmas_mod, "run_suite", suite)
        report = run_corpus(CorpusConfig(sizes=(3,), count=5, seed=7))
        assert not report.all_ok
        assert render_suite(report) == (
            "lemma witness-uniqueness pass\n"
            "lemma witness-restriction pass\n"
            "lemma partner-functionality pass\n"
            "lemma membership-preservation fail x=1 y=2 kind=scrambled size=3 seed=9\n"
            "lemma ordinal-preservation pass\n"
            "lemma level-extension n/a reason=never-applicable\n"
            "lemma totality pass\n"
            "lemma isomorphism pass\n"
            "corpus seeds=7..11 sizes=3 kinds=scrambled items=3 iso-pass=3 iso-fail=0\n"
        )

    def test_random_pair_totality_and_isomorphism_counted_not_failed(self, monkeypatch):
        real = lemmas_mod.run_suite

        def suite(s):
            lemmas = dict(real(s).lemmas)
            lemmas["totality"] = Verdict("fail", (("case", "both-directions-fail"),))
            return SuiteReport(lemmas)

        monkeypatch.setattr(lemmas_mod, "run_suite", suite)
        report = run_corpus(CorpusConfig(sizes=(4,), count=3, kinds=("random-pair",)))
        assert report.all_ok
        assert report.lemmas["totality"] == report.lemmas["isomorphism"] == Verdict(
            "n/a", (("reason", "never-applicable"),)
        )
        assert report.corpus.endswith(" items=3 iso-pass=0 iso-fail=3")

    def test_random_pair_oracle_disagreement_fails(self, monkeypatch):
        # Equal collapse images contradict the failed isomorphism of the first pair.
        monkeypatch.setattr(hf.DomainCollapse, "image", lambda self: frozenset())
        report = run_corpus(CorpusConfig(sizes=(4, 5), count=3, kinds=("random-pair",)))
        assert report.lemmas["isomorphism"] == Verdict(
            "fail", (("reason", "oracle-disagrees"), ("kind", "random-pair"), ("size", "4"), ("seed", "0"))
        )
        assert report.corpus.endswith(" items=1 iso-pass=0 iso-fail=1")

    @pytest.mark.parametrize(
        "size, seed, kind", [(12, 1152, "level-mismatch"), (16, 786, "unrealized-image"), (24, 1108, "level-mismatch")]
    )
    def test_random_pair_failing_the_axioms_leaves_its_level_unjudged(self, size, seed, kind):
        # Each pair fails the semantic gate, and the level lemma, which
        # presupposes the axioms, fails on it with kind: the corpus goes on.
        suite = run_suite(random_dual_structure(size, seed)).lemmas
        assert suite["totality"].witness[0] == ("reason", "axioms")
        assert dict(suite["level-extension"].witness)["kind"] == kind
        report = run_corpus(CorpusConfig(sizes=(size,), count=1, seed=seed, kinds=("random-pair",)))
        assert report.all_ok
        assert report.lemmas["level-extension"] == Verdict("n/a", (("reason", "never-applicable"),))
        assert report.lemmas["membership-preservation"] == Verdict("pass")
        assert report.corpus.endswith(" items=1 iso-pass=0 iso-fail=1")

    def test_random_pair_failing_the_axioms_still_judges_restriction(self, monkeypatch):
        monkeypatch.setattr(iso_mod, "restriction_agrees", lambda x, w, wider: False)
        report = run_corpus(CorpusConfig(sizes=(12,), count=1, seed=1152, kinds=("random-pair",)))
        verdict = report.lemmas["level-extension"]
        assert verdict.status == "fail"
        assert verdict.witness[1:] == (
            ("kind", "restriction-disagrees"), ("kind", "random-pair"), ("size", "12"), ("seed", "1152")
        )

    def test_scrambled_unrealized_image_stops_the_corpus(self, monkeypatch):
        # Even with the semantic gate failing, a scrambled item judges every kind.
        def unrealized(s, x, y):
            raise LevelExtensionError("unrealized-image", 3, 2)

        gate_fails = FullReport({1: {"extensionality": Verdict("fail")}})
        monkeypatch.setattr(iso_mod, "extend_to_level", unrealized)
        monkeypatch.setattr(lemmas_mod.axioms_mod, "full_report", lambda s, schema_mode: gate_fails)
        report = run_corpus(CorpusConfig(sizes=(3,), count=2))
        assert report.lemmas["totality"] == Verdict("n/a", (("reason", "never-applicable"),))
        assert report.lemmas["level-extension"] == Verdict("fail", (
            ("ordinal", "0"), ("kind", "unrealized-image"), ("witness", "3"),
            ("kind", "scrambled"), ("size", "3"), ("seed", "0"),
        ))
        assert report.corpus.endswith(" items=1 iso-pass=1 iso-fail=0")

    def test_timing_not_rendered(self):
        report = run_corpus(CorpusConfig(sizes=(3,), count=2))
        assert "elapsed" not in render_suite(report)


class TestGallery:
    def test_four_items(self):
        items = counterexample_gallery()
        assert len(items) == 4
        assert [i.name for i in items] == [
            "chain-vs-v3",
            "equal-extensions",
            "membership-cycle",
            "schema-gap",
        ]

    def test_summaries_reproduce_bit_exactly(self):
        for item in counterexample_gallery():
            assert gallery_summary(item.structure) == item.expected_summary, item.name

    def test_cycle_item_carries_cycle_witness(self):
        items = {i.name: i for i in counterexample_gallery()}
        assert "cycle=0>3>0" in items["membership-cycle"].expected_summary

    def test_schema_gap_localizes_instance(self):
        items = {i.name: i for i in counterexample_gallery()}
        assert "schema 2 separation-schema instance=bounded:" in items["schema-gap"].expected_summary

    def test_structures_have_equal_sizes_per_item(self):
        for item in counterexample_gallery():
            assert item.structure.e1.domain_size == item.structure.e2.domain_size


def test_each_command_prints_its_own_status_words(scrambled_v3, scrambled_v4):
    # Axiom and lemma rows share one Verdict type, so its status check alone
    # cannot keep "skipped" out of the lemma report or "n/a" out of the axiom one.
    structures = [item.structure for item in counterexample_gallery()]
    structures += [scrambled_v3, scrambled_v4, random_dual_structure(7, 11)]
    axiom_words, lemma_words = set(), set()
    for s in structures:
        for mode in SCHEMA_MODES:
            report = render_report(full_report(s, GALLERY_BUDGET, schema_mode=mode))
            axiom_words.update(line.split()[2] for line in report.splitlines())
        lemma_words.update(line.split()[2] for line in render_suite(run_suite(s)).splitlines())
    assert axiom_words == {"pass", "fail", "skipped"}
    assert lemma_words == {"pass", "fail", "n/a"}
