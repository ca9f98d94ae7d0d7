import itertools
from functools import cache, cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmem import (
    CycleError,
    Permutation,
    build_v_universe,
    collapse,
    collapse_domain,
    random_extensional_relation,
    render_hf,
)
from dualmem import hf
from dualmem.hf import ackermann_code_if_below
from dualmem.structure import apply_permutation, relation_from_edges, transitive_closure, v_universe_size

from conftest import members


def rel(size, edges):
    return relation_from_edges(size, edges)


def chain(size):
    """Element 0 is the empty set and element k + 1 has element k as its one member."""
    return rel(size, [(k, k + 1) for k in range(size - 1)])


def numeral(uid):
    return ackermann_code_if_below(uid, 1 << 64)


def rank(uid):
    return hf._ranks(uid)[uid]


@cache
def level_uids(n):
    """The collapse of each element of V_n, by element id: element k is numeral k."""
    return collapse_domain(build_v_universe(n).e1).uids


class TestCollapse:
    def test_empty_set(self):
        empty = collapse(rel(1, []), 0)
        assert hf._KEYS[empty] == ()
        assert collapse(build_v_universe(2).e1, 0) == empty  # one uid per set

    def test_chain(self):
        uid = collapse(chain(3), 2)
        assert render_hf(uid) == "{{{}}}"
        assert numeral(uid) == 2

    def test_v3_elements_carry_their_ids_as_codes(self, v3):
        for i in range(4):
            assert numeral(collapse(v3.e1, i)) == i

    def test_cycle_is_hard_error(self):
        r = rel(2, [(0, 1), (1, 0)])
        with pytest.raises(CycleError) as exc:
            collapse(r, 0)
        assert set(exc.value.cycle) == {0, 1}

    def test_cycle_witness_pinned(self, two_cycles):
        for x, cycle in ((0, (3, 4, 5, 3)), (5, (5, 3, 4, 5)), (7, (7, 6, 7))):
            with pytest.raises(CycleError) as exc:
                collapse(two_cycles.e1, x, 1)
            assert (exc.value.cycle, exc.value.tag) == (cycle, 1)

    def test_cycle_elsewhere_is_fine(self):
        r = rel(4, [(0, 1), (2, 3), (3, 2)])
        assert numeral(collapse(r, 1)) == 1

    def test_non_extensional_part_warns_but_collapses(self):
        r = rel(3, [(0, 2), (1, 2)])  # 0 and 1 both empty
        assert numeral(collapse(r, 2)) == 1
        assert collapse_domain(r).duplicate_groups == ((0, 1),)  # the warning

    @given(seed=st.integers(0, 300), size=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_isomorphism(self, seed, size):
        r = random_extensional_relation(size, seed)
        p = Permutation.random(size, seed + 1)
        moved = apply_permutation(r, p)
        for x in range(size):
            assert collapse(r, x) == collapse(moved, p(x))

    @given(seed=st.integers(0, 300), size=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_rank_equals_longest_path(self, seed, size):
        r = random_extensional_relation(size, seed)
        ms = r.member_sets()

        def longest(x):
            return 1 + max((longest(m) for m in ms[x]), default=-1)

        for x in range(size):
            assert rank(collapse(r, x)) == longest(x)

    def test_injective_iff_reachable_part_extensional_small(self):
        # brute force over all acyclic relations on 4 elements
        pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            r = rel(4, edges)
            if not r.is_acyclic():
                continue
            for x in range(4):
                reachable = sorted(transitive_closure(r, x, include_self=True))
                injective = len({collapse(r, t) for t in reachable}) == len(reachable)
                ext_on_part = all(
                    members(r, a) != members(r, b)
                    for a, b in itertools.combinations(reachable, 2)
                )
                assert injective == ext_on_part


class TestAckermann:
    def test_base_values(self):
        # {}, {{}}, {{{}}} and {{},{{}}}
        r = rel(4, [(0, 1), (1, 2), (0, 3), (1, 3)])
        assert [numeral(collapse(r, x)) for x in range(4)] == [0, 1, 2, 3]

    def test_defining_sum(self, v4):
        eleven = v4.e1.member_tuples()[11]
        assert eleven == (0, 1, 3)
        total = sum(1 << numeral(collapse(v4.e1, m)) for m in eleven)
        assert numeral(collapse(v4.e1, 11)) == total == 2**0 + 2**1 + 2**3 == 11

    def test_decode_examples(self, v3):
        # the set each numeral below 4 stands for
        by_numeral = {numeral(u): render_hf(u) for u in collapse_domain(v3.e1).image()}
        assert by_numeral == {0: "{}", 1: "{{}}", 2: "{{{}}}", 3: "{{},{{}}}"}

    def test_round_trip_below_sixteen_bits(self):
        # Every numeral below 2**16 names a set, element n of V5, and reading
        # that set's numeral gives n back. So the image of V5 is exactly
        # range(65536).
        assert [ackermann_code_if_below(u, 1 << 16) for u in level_uids(5)] == list(range(1 << 16))

    def test_injective_on_interned_codes(self, v4):
        # distinct interned sets have distinct numerals (five elements reach rank 4 at most)
        uids = set(collapse_domain(v4.e1).uids)
        for seed in range(40):
            uids |= collapse_domain(random_extensional_relation(5, seed)).image()
        numerals = [numeral(u) for u in uids]
        assert None not in numerals
        assert len(set(numerals)) == len(uids)

    def test_bounded_code_small(self, v4):
        assert ackermann_code_if_below(collapse(v4.e1, 11), 1 << 64) == 11

    def test_bounded_code_overflows(self, monkeypatch):
        # A 5,000-deep chain's numeral is a power tower; the bounded form
        # refuses it. A set of rank 6 has a numeral of at least 2**65536 >
        # 2**64, so the walk down the chain stops seven uids in.
        uids = collapse_domain(chain(5001)).uids
        reads = []

        class CountingKeys(list):
            def __getitem__(self, uid):
                reads.append(uid)
                return super().__getitem__(uid)

        monkeypatch.setattr(hf, "_KEYS", CountingKeys(hf._KEYS))
        assert ackermann_code_if_below(uids[-1], 1 << 64) is None
        assert len(reads) <= 8
        assert [ackermann_code_if_below(u, 1 << 64) for u in uids[:7]] == [0, 1, 2, 4, 16, 65536, None]
        assert ackermann_code_if_below(uids[5], 65536) is None
        assert ackermann_code_if_below(uids[5], 65537) == 65536


class TestRank:
    def test_examples(self, v3):
        assert rank(collapse(rel(1, []), 0)) == 0
        assert rank(collapse(v3.e1, 3)) == 2

    def test_universe_ranks_below_level(self, v4):
        for i in range(16):
            assert rank(collapse(v4.e1, i)) < 4


class TestVLevels:
    def test_small_levels(self):
        images = [{render_hf(u) for u in collapse_domain(build_v_universe(n).e1).image()} for n in range(3)]
        assert images == [set(), {"{}"}, {"{}", "{{}}"}]

    def test_level_four_is_first_sixteen_codes(self, v4):
        assert {ackermann_code_if_below(u, 1 << 16) for u in collapse_domain(v4.e1).image()} == set(range(16))

    def test_sizes_match_universe(self):
        for n, size in zip(range(5), (0, 1, 2, 4, 16)):
            dc = collapse_domain(build_v_universe(n).e1)
            assert dc.extensional
            assert len(dc.image()) == size

    def test_level_five_size(self):
        uids = level_uids(5)
        assert len(uids) == len(set(uids)) == 65536

    def test_universe_sizes_match_level_sizes(self):
        # the generated level has as many elements as its collapse has distinct sets
        for n in range(6):
            assert build_v_universe(n).domain_size == len(set(level_uids(n))) == v_universe_size(n)

    def test_element_i_has_numeral_i(self):
        # The generator, the collapse and the numerals agree: element i of V_n
        # is the set with numeral i, so the image is exactly range(|V_n|).
        # V5 is read in full by TestAckermann::test_round_trip_below_sixteen_bits.
        for n in range(5):
            uids = level_uids(n)
            assert [ackermann_code_if_below(u, 1 << 16) for u in uids] == list(range(len(uids))), n
            assert {ackermann_code_if_below(u, 1 << 16) for u in set(uids)} == set(range(v_universe_size(n)))


class TestRendering:
    def test_members_sorted_by_numeral_order(self, v4):
        assert render_hf(collapse(v4.e1, 11)) == "{{},{{}},{{},{{}}}}"

    def test_numerals_below_4096_render_their_bits(self):
        def from_bits(k):  # the members of k are its set bits, ascending
            return "{" + ",".join(from_bits(i) for i in range(k.bit_length()) if k >> i & 1) + "}"

        uids = level_uids(5)
        for k in range(4096):
            assert render_hf(uids[k]) == from_bits(k), k

    def test_empty(self):
        assert render_hf(collapse(rel(1, []), 0)) == "{}"

    def test_domain_collapse_duplicates(self):
        r = rel(3, [(0, 2), (1, 2)])
        dc = collapse_domain(r)
        assert dc.duplicate_groups == ((0, 1),)
        assert not dc.extensional


# The recursive definitions the iterative forms replace, kept as references.
# They read the member tuples mt of an acyclic extensional relation, whose
# collapse is injective, so an element id stands for its set.
@cache
def reference_compare(mt, x, y):
    """Sets differ at their largest non-shared member, and the larger set holds it."""
    differing = set(mt[x]) ^ set(mt[y])
    if not differing:
        return 0
    largest = max(differing, key=cmp_to_key(lambda a, b: reference_compare(mt, a, b)))
    return 1 if largest in mt[x] else -1


def reference_render(mt, x):
    ordered = sorted(mt[x], key=cmp_to_key(lambda a, b: reference_compare(mt, a, b)))
    return "{" + ",".join(reference_render(mt, m) for m in ordered) + "}"


def reference_code(mt, x):
    return sum(1 << reference_code(mt, m) for m in mt[x])


def reference_code_if_below(mt, x, bound):
    if not mt[x]:
        return 0 if bound > 0 else None
    total = 0
    for m in mt[x]:
        cm = reference_code_if_below(mt, m, bound.bit_length())
        if cm is None:
            return None
        total += 1 << cm
        if total >= bound:
            return None
    return total


def reference_rank(mt, x):
    return 1 + max(reference_rank(mt, m) for m in mt[x]) if mt[x] else 0


class TestIterativeForms:
    @given(seed=st.integers(0, 500), size=st.integers(1, 9), element=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_agree_with_the_recursive_definitions(self, seed, size, element):
        r = random_extensional_relation(size, seed)
        mt, x = r.member_tuples(), element % size
        uid = collapse(r, x)
        assert render_hf(uid) == reference_render(mt, x)
        assert rank(uid) == reference_rank(mt, x)
        if rank(uid) <= 5:  # higher ranks have numerals of more than 2**65536 bits
            code = reference_code(mt, x)
            assert ackermann_code_if_below(uid, code + 1) == code
            assert ackermann_code_if_below(uid, code) is None
        for bound in (-3, 0, 1, 2, 3, 5, 16, 17, 1 << 20, 1 << 64):
            assert ackermann_code_if_below(uid, bound) == reference_code_if_below(mt, x, bound), bound

    def test_deep_chain(self):
        deep = collapse(chain(5001), 5000)
        assert render_hf(deep) == "{" * 5001 + "}" * 5001
        assert rank(deep) == 5000
        assert ackermann_code_if_below(deep, 1 << 64) is None

    def test_compare_chains_differing_at_the_bottom(self):
        # low wraps {} 5,000 times, high wraps {{}} 5,000 times, top = {low, high}
        n = 5001
        edges = [(k, k + 1) for k in range(n - 1)]  # low: elements 0 .. n - 1
        edges += [(0, n), *((k, k + 1) for k in range(n, 2 * n - 1))]  # high: elements n .. 2n - 1
        edges += [(n - 1, 2 * n), (2 * n - 1, 2 * n)]
        top = collapse(rel(2 * n + 1, edges), 2 * n)
        assert render_hf(top) == "{" + "{" * 5001 + "}" * 5001 + "," + "{" * 5002 + "}" * 5002 + "}"


class TestInterning:
    def test_by_uid_lists_every_interned_code(self, v4):
        collapse_domain(v4.e1)
        collapse(chain(300), 299)
        assert len(hf._KEYS) == len(hf._INTERN)
        for uid, key in enumerate(hf._KEYS):
            assert hf._INTERN[key] == uid  # each key maps to its uid, and back
            assert list(key) == sorted(set(key))  # ascending, no repeats
            assert all(m < uid for m in key)  # members are interned before the set

    def test_collapse_reuses_interned_codes(self, scrambled_v4):
        dc = collapse_domain(scrambled_v4.e1)
        assert [hf._intern_uids(hf._KEYS[u]) for u in dc.uids] == list(dc.uids)
        inverse = Permutation.random(16, 7).inverse()
        assert collapse_domain(scrambled_v4.e2).uids == tuple(dc.uids[x] for x in inverse.images)

    def test_walks_make_no_member_code(self, monkeypatch):
        # Rendering, ranks and numerals read the member uids in _KEYS and intern nothing.
        r = random_extensional_relation(40, 2025)
        uid = collapse(r, 39)

        def refuse(*args):
            raise AssertionError("a walk interned a set")

        with monkeypatch.context() as patch:
            patch.setattr(hf, "_intern_uids", refuse)
            patch.setattr(hf, "_INTERN", None)
            got = render_hf(uid), rank(uid), ackermann_code_if_below(uid, 1 << 64)
        mt = r.member_tuples()
        assert got == (reference_render(mt, 39), reference_rank(mt, 39), reference_code_if_below(mt, 39, 1 << 64))


def scrambled_chain(size, seed):
    """A chain of size elements and its image under a seeded permutation, with that permutation."""
    p = Permutation.random(size, seed)
    return chain(size), apply_permutation(chain(size), p), p.images


@st.composite
def relation_pairs(draw):
    """(e1, e2, h): two acyclic extensional relations on one domain and a
    bijection h, two of its images swapped when drawn so. For a scrambled
    level, chain or random relation, h is the scrambling permutation, the
    isomorphism; for two independent random relations, a seeded permutation."""
    kind = draw(st.sampled_from(["v3", "v4", "chain", "random", "random-pair"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "chain":
        e1, e2, h = scrambled_chain(draw(st.integers(1, 200)), seed)
    elif kind.startswith("random"):
        size = draw(st.integers(1, 12))
        p = Permutation.random(size, seed)
        e1 = random_extensional_relation(size, seed)
        e2 = random_extensional_relation(size, seed + 1) if kind == "random-pair" else apply_permutation(e1, p)
        h = p.images
    else:
        p = Permutation.random(16 if kind == "v4" else 4, seed)
        e1 = build_v_universe(int(kind[1])).e1
        e2, h = apply_permutation(e1, p), p.images
    h = list(h)
    if draw(st.booleans()) and len(h) > 1:
        a, b = draw(st.permutations(range(len(h))))[:2]
        h[a], h[b] = h[b], h[a]
    return e1, e2, h


def carried(h, uids):
    """carried(h, uids)[h[x]] == uids[x]."""
    out = [0] * len(h)
    for x, y in enumerate(h):
        out[y] = uids[x]
    return out


class TestRecursionCheck:
    @given(relation_pairs())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_comparing_both_collapses(self, pair):
        e1, e2, h = pair
        c1, c2 = collapse_domain(e1).uids, collapse_domain(e2).uids
        assert hf.is_collapse(e2, carried(h, c1)) == all(c1[x] == c2[y] for x, y in enumerate(h))
        assert hf.is_collapse(e2, c2) and hf.is_collapse(e1, c1)

    @pytest.mark.parametrize("seed", range(3))
    def test_true_and_swapped_certificates_on_level_five(self, seed):
        e1 = build_v_universe(5).e1
        p = Permutation.random(e1.domain_size, seed)
        e2, h = apply_permutation(e1, p), list(p.images)
        c1 = collapse_domain(e1).uids
        assert hf.is_collapse(e2, carried(h, c1))
        h[7], h[65_535] = h[65_535], h[7]
        assert not hf.is_collapse(e2, carried(h, c1))

    @given(size=st.integers(1, 6), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_passing_check_is_the_collapse(self, size, data):
        # On any relation, cyclic or not, extensional or not: labels drawn from
        # the sets of V4 pass only when they are the collapse, and the
        # collapse passes exactly when no element has two members of one collapse.
        pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        r = rel(size, data.draw(st.lists(pairs, max_size=2 * size)))
        labels = [level_uids(4)[i] for i in data.draw(st.lists(st.integers(0, 15), min_size=size, max_size=size))]
        if hf.is_collapse(r, labels):
            assert r.is_acyclic()
            assert labels == list(collapse_domain(r).uids)
        if r.is_acyclic():
            uids = collapse_domain(r).uids
            merged = any(len({uids[m] for m in ms}) < len(ms) for ms in r.member_tuples())
            assert hf.is_collapse(r, uids) == (not merged)

    @given(size=st.integers(1, 40), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_extensional_collapse_matches_the_deduplicating_one(self, size, seed):
        r = random_extensional_relation(size, seed)
        dc = collapse_domain(r)
        assert dc.uids == tuple(hf._collapse_uids(r.member_tuples(), r.toposort(), [0] * size))
        assert dc.duplicate_groups == ()

