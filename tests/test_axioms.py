import itertools
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmem import (
    Permutation,
    SchemaBudget,
    build_v_universe,
    check_schema_battery,
    dual_structure,
    full_report,
    render_report,
    scramble,
    tamper,
)
from dualmem.axioms import (
    Verdict,
    check_extensionality,
    check_foundation,
    check_pairing,
    check_power_set,
    check_replacement_semantic,
    check_schema_bounded,
    check_separation_semantic,
    check_union,
)
from dualmem.battery import bounded_instances
from dualmem.formulas import evaluate_table, falsifying_assignment
from dualmem.structure import apply_permutation, random_dual_structure

from conftest import members


def reference_separation(s, tag):
    """Every subset of every member-set, walked in mask order (bit i selects
    the i-th least member); the first unrealized one is the witness."""
    rel = s.relation(tag)
    index = rel.extension_index()
    for a, base in enumerate(rel.member_tuples()):
        for mask in range(1 << len(base)):
            subset = tuple(m for i, m in enumerate(base) if mask >> i & 1)
            if subset not in index:
                witness = (("a", str(a)), ("subset", ",".join(map(str, subset))))
                return Verdict("fail", witness, "exhaustive")
    return Verdict("pass", mode="exhaustive")


def reference_replacement(s, tag):
    """Every map from every nonempty member-set into the elements below the
    height, walked in itertools.product order; the first map whose image is
    unrealized is the witness."""
    rel = s.relation(tag)
    if not rel.is_acyclic():
        return Verdict("skipped", (("reason", "ill-founded"),))
    ranks = rel.ranks()
    low = [x for x in range(rel.domain_size) if ranks[x] < max(ranks, default=0)]
    index = rel.extension_index()
    for a, base in enumerate(rel.member_tuples()):
        if not base:
            continue
        for values in itertools.product(low, repeat=len(base)):
            image = tuple(sorted(set(values)))
            if image not in index:
                pairs = ",".join(f"{m}:{v}" for m, v in zip(base, values))
                witness = (("a", str(a)), ("map", pairs), ("image", ",".join(map(str, image))))
                return Verdict("fail", witness, "exhaustive")
    return Verdict("pass", mode="exhaustive")


@st.composite
def arbitrary_relations(draw):
    """A relation on at most 8 elements, self-loops, cycles and equal
    member-sets allowed; half of them keep only the edges that climb a drawn
    order, so that replacement is not always skipped."""
    n = draw(st.integers(0, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing()
    edges = draw(st.sets(pairs, max_size=n * n))
    if draw(st.booleans()):
        position = {x: i for i, x in enumerate(draw(st.permutations(range(n))))}
        edges = {(a, b) for a, b in edges if position[a] < position[b]}
    return dual_structure(n, edges, [])


class TestExtensionality:
    def test_universe_passes(self, v3):
        assert check_extensionality(v3, 1).passed

    def test_tampered_fails_with_pair(self, v3):
        broken = tamper(v3, "break-extensionality", 2)
        verdict = check_extensionality(broken, 1)
        assert verdict.status == "fail"
        a, b = (int(v) for _, v in verdict.witness)
        assert members(broken.e1, a) == members(broken.e1, b)

    def test_single_element_passes(self):
        assert check_extensionality(dual_structure(1, [], []), 1).passed


class TestFoundation:
    def test_universe_passes(self, v4):
        assert check_foundation(v4, 1).passed

    def test_cycle_tamper_fails_with_cycle(self, v3):
        broken = tamper(v3, "add-cycle", 3)
        verdict = check_foundation(broken, 1)
        assert verdict.status == "fail"
        assert "cycle" in dict(verdict.witness)

    def test_self_loop(self):
        s = dual_structure(1, [(0, 0)], [])
        verdict = check_foundation(s, 1)
        assert verdict.status == "fail"
        assert dict(verdict.witness)["cycle"] == "0>0"


class TestClosureAxioms:
    def test_universe_passes_all_three(self, v4):
        assert check_pairing(v4, 1).passed
        assert check_union(v4, 1).passed
        assert check_power_set(v4, 1).passed

    def test_single_element_pairing_passes(self):
        # height-bounded form: no witness of rank 1 is demanded at height 0,
        # so the one-point universe is (correctly) the first cumulative level
        assert check_pairing(dual_structure(1, [], []), 1).passed

    def test_chain_pairing_fails_at_first_pair(self, chain3):
        verdict = check_pairing(chain3, 1)
        assert verdict.status == "fail"
        assert dict(verdict.witness)["a"] == "0"
        assert dict(verdict.witness)["b"] == "1"

    def test_missing_witness_reverifies(self, chain3):
        target = {int(t) for t in dict(check_pairing(chain3, 1).witness)["target"].split(",")}
        assert all(members(chain3.e1, x) != target for x in range(3))

    def test_union_on_chain_passes(self, chain3):
        assert check_union(chain3, 1).passed

    def test_power_set_fails_on_chain(self, chain3):
        assert check_power_set(chain3, 1).status == "fail"


class TestSeparationSemantic:
    def test_universe_exhaustive(self, v4):
        verdict = check_separation_semantic(v4, 1)
        assert verdict.passed and verdict.mode == "exhaustive"

    def test_chain_passes(self, chain3):
        assert check_separation_semantic(chain3, 1).passed

    def test_missing_subset_fails(self):
        # the third level with the set {{}} removed: {1} below {0,1} has no home
        s = dual_structure(3, [(0, 1), (0, 2), (1, 2)], [])
        verdict = check_separation_semantic(s, 1)
        assert verdict.status == "fail"
        witness = dict(verdict.witness)
        assert witness["a"] == "2" and witness["subset"] == "1"

    def test_witness_is_least_unrealized_mask(self):
        # 4 = {0,1,2,3}; {}, {0}, {1}, {0,1}, {2} and {1,2} are realized, so
        # mask 5 = {0,2} is the least missing one although mask 6 is not
        edges = [(0, 1), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4), (2, 4), (3, 4), (2, 5), (1, 6), (2, 6)]
        verdict = check_separation_semantic(dual_structure(7, edges, []), 1)
        assert verdict == Verdict("fail", (("a", "4"), ("subset", "0,2")), "exhaustive")

    def test_sampled_mode_recorded(self):
        # 21 members, above the old sampling bound: decided exactly now
        big = dual_structure(22, [(i, 21) for i in range(21)], [])
        verdict = check_separation_semantic(big, 1)
        assert verdict == Verdict("fail", (("a", "21"), ("subset", "0")), "exhaustive")

    @given(s=arbitrary_relations())
    @settings(max_examples=300, deadline=None)
    def test_matches_mask_enumeration(self, s):
        assert check_separation_semantic(s, 1) == reference_separation(s, 1)


class TestReplacementSemantic:
    def test_universe_passes(self, v3):
        verdict = check_replacement_semantic(v3, 1)
        assert verdict.passed and verdict.mode == "exhaustive"

    def test_fails_when_image_missing(self):
        # 0, 1={0}, 2={1}, 3={2}, 4={0,1}: the image {1,2} of the pair {0,1}
        # under 0->1, 1->2 is below the height but unrealized
        s = dual_structure(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4)], [])
        verdict = check_replacement_semantic(s, 1)
        assert verdict.status == "fail"
        witness = dict(verdict.witness)
        image = {int(v) for v in witness["image"].split(",")}
        assert all(members(s.e1, x) != image for x in range(5))
        assert all(int(pair.split(":")[0]) in members(s.e1, int(witness["a"])) for pair in witness["map"].split(","))

    def test_skipped_on_cycle(self):
        s = dual_structure(2, [(0, 1), (1, 0)], [])
        assert check_replacement_semantic(s, 1).status == "skipped"

    def test_four_member_failure_is_exact(self, v4):
        # V4 with {3} emptied and ids 1 and 15 swapped: the first nonempty
        # element is {0,1,2,3}, now id 1 with members 0,2,3,15. Below the
        # height lie 0, 2, 3, 8, 15; {0} is realized and {0,8} is not, so the
        # least failing map sends the first three members to 0, the last to 8.
        swap = Permutation((0, 15, *range(2, 15), 1))
        edges = [(swap(a), swap(b)) for a, b in v4.e1.edges if (a, b) != (3, 8)]
        s = dual_structure(16, edges, [])
        verdict = check_replacement_semantic(s, 1)
        assert verdict == Verdict(
            "fail", (("a", "1"), ("map", "0:0,2:0,3:0,15:8"), ("image", "0,8")), "exhaustive"
        )
        assert verdict == reference_replacement(s, 1)

    def test_first_short_size_four(self):
        # V4 plus every subset of it with at most 3 members, ids in code order:
        # below the height lies V4, every image of up to 3 elements is
        # realized, and of the 4-element ones only {0,1,2,3} (id 15)
        codes = [c for c in range(1 << 16) if c < 16 or bin(c).count("1") <= 3]
        edges = [(a, i) for i, c in enumerate(codes) for a in range(16) if c >> a & 1]
        s = dual_structure(len(codes), edges, [])
        verdict = check_replacement_semantic(s, 1)
        assert verdict == Verdict(
            "fail", (("a", "15"), ("map", "0:0,1:1,2:2,3:4"), ("image", "0,1,2,4")), "exhaustive"
        )
        assert verdict == reference_replacement(s, 1)

    @given(s=arbitrary_relations())
    @settings(max_examples=300, deadline=None)
    def test_matches_product_walk(self, s):
        assert check_replacement_semantic(s, 1) == reference_replacement(s, 1)


class TestSchemaChecks:
    def test_battery_all_pass_on_scrambled(self, scrambled_v4):
        verdicts = check_schema_battery(scrambled_v4)
        assert all(v.passed for v in verdicts.values())

    def test_battery_peak_memory_on_v4(self):
        # 16**6 cells is one table of the six-variable replacement instances;
        # the tables used to be built at a bit over twice that.
        v4 = build_v_universe(4)
        v4.e1.adjacency(), v4.e2.adjacency()
        tracemalloc.start()
        try:
            verdicts = check_schema_battery(v4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(v.passed for v in verdicts.values())
        assert peak < 1.5 * 16**6

    def test_skipped_above_domain_limit(self):
        big = dual_structure(40, [], [])
        verdicts = check_schema_battery(big)
        assert all(v.status == "skipped" for v in verdicts.values())

    def test_bounded_localizes_schema_gap(self):
        from dualmem.lemmas import _schema_gap

        verdicts = check_schema_bounded(_schema_gap(), SchemaBudget(bounded_depth=4, bounded_cap=60))
        assert verdicts["bounded-separation-1"].passed
        gap = verdicts["bounded-separation-2"]
        assert gap.status == "fail"
        assert dict(gap.witness)["filter"] == "p_in1_w"


BOUNDED_BUDGETS = [SchemaBudget(depth, cap) for depth, cap in ((1, 20), (2, 25), (4, 60), (12, 400))]


def reference_bounded(s, budget):
    """Every bounded_instances sentence of a tag in order, to the first false
    one: the loop that one verdict per distinct filter table stands in for."""
    instances = bounded_instances(budget.bounded_depth, cap=budget.bounded_cap)
    out = {}
    for tag in (1, 2):
        mine = [inst for inst in instances if inst.tag == tag]
        mode = f"bounded:{len(mine)}"
        bad = next((inst for inst in mine if not evaluate_table(s, inst.sentence)), None)
        if bad is None:
            out[f"bounded-separation-{tag}"] = Verdict("pass", mode=mode)
        else:
            assign = ",".join(f"{k}:{v}" for k, v in falsifying_assignment(s, bad.sentence).items())
            witness = (("instance", f"bounded:{bad.index}"), ("filter", bad.filter_text.replace(" ", "_")),
                       ("assign", assign))
            out[f"bounded-separation-{tag}"] = Verdict("fail", witness, mode)
    return out


def ordinals_vs_chain(size):
    """e1: element k is the von Neumann ordinal k; e2: element k is k nested braces."""
    return dual_structure(size, [(i, k) for k in range(size) for i in range(k)],
                          [(k, k + 1) for k in range(size - 1)])


def bounded_structures():
    from dualmem.lemmas import _schema_gap

    levels = [build_v_universe(n) for n in range(5)]
    out = {f"v{n}": s for n, s in enumerate(levels)}
    out.update((f"v{n}-scrambled", scramble(s, Permutation.random(s.domain_size, 7))) for n, s in enumerate(levels))
    out.update((f"v{n}-{kind}", tamper(levels[n], kind, 1))
               for n in (3, 4) for kind in ("add-cycle", "break-extensionality", "remove-edge"))
    out["ordinals-vs-chain"] = ordinals_vs_chain(16)
    out["schema-gap"] = _schema_gap()
    return out


class TestBoundedMemo:
    @pytest.mark.parametrize("budget", BOUNDED_BUDGETS, ids=lambda b: f"{b.bounded_depth}-{b.bounded_cap}")
    @pytest.mark.parametrize("name", sorted(bounded_structures()))
    def test_matches_every_instance_in_order(self, name, budget):
        s = bounded_structures()[name]
        assert check_schema_bounded(s, budget) == reference_bounded(s, budget)

    @given(size=st.integers(1, 16), seed=st.integers(0, 10_000), budget=st.sampled_from(BOUNDED_BUDGETS))
    @settings(max_examples=40, deadline=None)
    def test_matches_every_instance_on_random_pairs(self, size, seed, budget):
        s = random_dual_structure(size, seed)
        assert check_schema_bounded(s, budget) == reference_bounded(s, budget)

    def test_both_outcomes_are_covered(self):
        # The reference fails on some structures and passes on others, so the
        # comparison above checks failing rows' tokens and not only passes.
        rows = [v for s in bounded_structures().values() for v in reference_bounded(s, BOUNDED_BUDGETS[-1]).values()]
        assert {v.status for v in rows} == {"pass", "fail"}


class TestFullReport:
    def test_scrambled_universe_all_pass(self, scrambled_v4):
        report = full_report(scrambled_v4)
        assert report.all_pass

    def test_targeted_tamper_failures(self, v3):
        for kind, axiom in (("add-cycle", "foundation"), ("break-extensionality", "extensionality")):
            report = full_report(tamper(v3, kind, 4), schema_mode="semantic")
            assert report.by_tag[1][axiom].status == "fail"
            assert all(v.status != "fail" for v in report.by_tag[2].values())

    def test_text_round_trip(self, scrambled_v4, chain3):
        # Each line is '<tag> <axiom> <status>' and then key=value tokens
        # without spaces, which is why a bounded filter renders '_' for ' '.
        from dualmem.lemmas import GALLERY_BUDGET, _schema_gap

        reports = [full_report(s) for s in (scrambled_v4, chain3, tamper(build_v_universe(3), "add-cycle", 1))]
        reports.append(full_report(_schema_gap(), GALLERY_BUDGET, schema_mode="bounded"))
        shape = re.compile(r"[12] [a-z]+(-[a-z]+)* (pass|fail|skipped)( [a-z]+(-[a-z]+)*=[^ ]*)*")
        for report in reports:
            text = render_report(report)
            assert text.endswith("\n")
            for line in text.splitlines():
                assert shape.fullmatch(line), line
        assert "2 separation-schema fail instance=bounded:3 filter=p_in1_w assign=p:1,a:4 " in text

    def test_lines_sorted_by_tag_then_axiom(self, v3):
        lines = render_report(full_report(v3)).splitlines()
        keys = [(int(l.split()[0]), l.split()[1]) for l in lines]
        assert keys == sorted(keys)

    @given(seed=st.integers(0, 60))
    @settings(max_examples=20, deadline=None)
    def test_verdict_pattern_permutation_invariant(self, seed):
        s = random_dual_structure(6, seed)
        p = Permutation.random(6, seed + 1)
        moved = dual_structure(
            6, apply_permutation(s.e1, p).edges, apply_permutation(s.e2, p).edges
        )
        a = full_report(s, schema_mode="semantic")
        b = full_report(moved, schema_mode="semantic")
        for tag in (1, 2):
            for axiom, verdict in a.by_tag[tag].items():
                assert verdict.status == b.by_tag[tag][axiom].status
