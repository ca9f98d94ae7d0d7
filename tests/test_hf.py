import itertools
import signal
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
from dualmem.iso import partners
from dualmem.structure import apply_permutation, relation_from_edges, transitive_closure, v_universe_size

from conftest import members, mixed_member_structures


def rel(size, edges):
    return relation_from_edges(size, edges)


def chain(size):
    """Element 0 is the empty set and element k + 1 has element k as its one member."""
    return rel(size, [(k, k + 1) for k in range(size - 1)])


def ordinals(size):
    """Element k is the von Neumann ordinal k, the set of every element below it."""
    return rel(size, [(i, k) for k in range(size) for i in range(k)])


def numeral(universe, uid):
    return ackermann_code_if_below(list(universe), uid, 1 << 64)


def rank(universe, uid):
    return hf._ranks(list(universe), uid)[uid]


def render(universe, uid):
    return render_hf(list(universe), uid)


@cache
def level(n):
    """V_n's key table, and the collapse of each element by element id: element k is numeral k."""
    universe = {}
    uids = collapse_domain(universe, build_v_universe(n).e1).uids
    return tuple(universe), uids


class TestCollapse:
    def test_empty_set(self):
        universe = {}
        empty = collapse(universe, rel(1, []), 0)
        assert list(universe)[empty] == ()
        assert collapse(universe, build_v_universe(2).e1, 0) == empty  # one uid per set

    def test_chain(self):
        universe = {}
        uid = collapse(universe, chain(3), 2)
        assert render(universe, uid) == "{{{}}}"
        assert numeral(universe, uid) == 2

    def test_v3_elements_carry_their_ids_as_codes(self, v3):
        universe = {}
        for i in range(4):
            assert numeral(universe, collapse(universe, v3.e1, i)) == i

    def test_cycle_is_hard_error(self):
        r = rel(2, [(0, 1), (1, 0)])
        with pytest.raises(CycleError) as exc:
            collapse({}, r, 0)
        assert set(exc.value.cycle) == {0, 1}

    def test_cycle_witness_pinned(self, two_cycles):
        for x, cycle in ((0, (3, 4, 5, 3)), (5, (5, 3, 4, 5)), (7, (7, 6, 7))):
            with pytest.raises(CycleError) as exc:
                collapse({}, two_cycles.e1, x, 1)
            assert (exc.value.cycle, exc.value.tag) == (cycle, 1)

    def test_cycle_elsewhere_is_fine(self):
        r = rel(4, [(0, 1), (2, 3), (3, 2)])
        universe = {}
        assert numeral(universe, collapse(universe, r, 1)) == 1

    def test_non_extensional_part_warns_but_collapses(self):
        r = rel(3, [(0, 2), (1, 2)])  # 0 and 1 both empty
        universe = {}
        assert numeral(universe, collapse(universe, r, 2)) == 1
        assert collapse_domain(universe, r).duplicate_groups == ((0, 1),)  # the warning

    @given(seed=st.integers(0, 300), size=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_isomorphism(self, seed, size):
        r = random_extensional_relation(size, seed)
        p = Permutation.random(size, seed + 1)
        moved = apply_permutation(r, p)
        universe = {}
        for x in range(size):
            assert collapse(universe, r, x) == collapse(universe, moved, p(x))

    @given(seed=st.integers(0, 300), size=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_rank_equals_longest_path(self, seed, size):
        r = random_extensional_relation(size, seed)
        ms = r.member_sets()

        def longest(x):
            return 1 + max((longest(m) for m in ms[x]), default=-1)

        universe = {}
        for x in range(size):
            assert rank(universe, collapse(universe, r, x)) == longest(x)

    def test_injective_iff_reachable_part_extensional_small(self):
        # brute force over all acyclic relations on 4 elements
        pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            r = rel(4, edges)
            if not r.is_acyclic():
                continue
            universe = {}
            for x in range(4):
                reachable = sorted(transitive_closure(r, x, include_self=True))
                injective = len({collapse(universe, r, t) for t in reachable}) == len(reachable)
                ext_on_part = all(
                    members(r, a) != members(r, b)
                    for a, b in itertools.combinations(reachable, 2)
                )
                assert injective == ext_on_part


class TestAckermann:
    def test_base_values(self):
        # {}, {{}}, {{{}}} and {{},{{}}}
        r = rel(4, [(0, 1), (1, 2), (0, 3), (1, 3)])
        universe = {}
        assert [numeral(universe, collapse(universe, r, x)) for x in range(4)] == [0, 1, 2, 3]

    def test_defining_sum(self, v4):
        eleven = v4.e1.member_tuples()[11]
        assert eleven == (0, 1, 3)
        universe = {}
        total = sum(1 << numeral(universe, collapse(universe, v4.e1, m)) for m in eleven)
        assert numeral(universe, collapse(universe, v4.e1, 11)) == total == 2**0 + 2**1 + 2**3 == 11

    def test_decode_examples(self, v3):
        # the set each numeral below 4 stands for
        universe = {}
        image = collapse_domain(universe, v3.e1).image()
        by_numeral = {numeral(universe, u): render(universe, u) for u in image}
        assert by_numeral == {0: "{}", 1: "{{}}", 2: "{{{}}}", 3: "{{},{{}}}"}

    def test_round_trip_below_sixteen_bits(self):
        # Every numeral below 2**16 names a set, element n of V5, and reading
        # that set's numeral gives n back. So the image of V5 is exactly
        # range(65536).
        keys, uids = level(5)
        assert [ackermann_code_if_below(keys, u, 1 << 16) for u in uids] == list(range(1 << 16))

    def test_injective_on_interned_codes(self, v4):
        # distinct interned sets have distinct numerals (five elements reach rank 4 at most)
        universe = {}
        uids = set(collapse_domain(universe, v4.e1).uids)
        for seed in range(40):
            uids |= collapse_domain(universe, random_extensional_relation(5, seed)).image()
        numerals = [numeral(universe, u) for u in uids]
        assert None not in numerals
        assert len(set(numerals)) == len(uids) == len(universe)

    def test_bounded_code_small(self, v4):
        universe = {}
        uid = collapse(universe, v4.e1, 11)
        assert ackermann_code_if_below(list(universe), uid, 1 << 64) == 11

    def test_bounded_code_overflows(self):
        # A 5,000-deep chain's numeral is a power tower; the bounded form
        # refuses it. A set of rank 6 has a numeral of at least 2**65536 >
        # 2**64, so the walk down the chain stops seven uids in.
        universe = {}
        uids = collapse_domain(universe, chain(5001)).uids
        reads = []

        class CountingKeys(list):
            def __getitem__(self, uid):
                reads.append(uid)
                return super().__getitem__(uid)

        keys = CountingKeys(universe)
        assert ackermann_code_if_below(keys, uids[-1], 1 << 64) is None
        assert len(reads) <= 8
        assert [ackermann_code_if_below(keys, u, 1 << 64) for u in uids[:7]] == [0, 1, 2, 4, 16, 65536, None]
        assert ackermann_code_if_below(keys, uids[5], 65536) is None
        assert ackermann_code_if_below(keys, uids[5], 65537) == 65536


class TestRank:
    def test_examples(self, v3):
        universe = {}
        assert rank(universe, collapse(universe, rel(1, []), 0)) == 0
        assert rank(universe, collapse(universe, v3.e1, 3)) == 2

    def test_universe_ranks_below_level(self, v4):
        universe = {}
        for i in range(16):
            assert rank(universe, collapse(universe, v4.e1, i)) < 4


class TestVLevels:
    def test_small_levels(self):
        images = []
        for n in range(3):
            universe = {}
            image = collapse_domain(universe, build_v_universe(n).e1).image()
            images.append({render(universe, u) for u in image})
        assert images == [set(), {"{}"}, {"{}", "{{}}"}]

    def test_level_four_is_first_sixteen_codes(self, v4):
        universe = {}
        image = collapse_domain(universe, v4.e1).image()
        assert {ackermann_code_if_below(list(universe), u, 1 << 16) for u in image} == set(range(16))

    def test_sizes_match_universe(self):
        for n, size in zip(range(5), (0, 1, 2, 4, 16)):
            dc = collapse_domain({}, build_v_universe(n).e1)
            assert dc.duplicate_groups == ()
            assert len(dc.image()) == size

    def test_level_five_size(self):
        keys, uids = level(5)
        assert len(uids) == len(set(uids)) == len(keys) == 65536

    def test_universe_sizes_match_level_sizes(self):
        # the generated level has as many elements as its collapse has distinct sets
        for n in range(6):
            assert build_v_universe(n).domain_size == len(set(level(n)[1])) == v_universe_size(n)

    def test_element_i_has_numeral_i(self):
        # The generator, the collapse and the numerals agree: element i of V_n
        # is the set with numeral i, so the image is exactly range(|V_n|).
        # V5 is read in full by TestAckermann::test_round_trip_below_sixteen_bits.
        for n in range(5):
            keys, uids = level(n)
            assert [ackermann_code_if_below(keys, u, 1 << 16) for u in uids] == list(range(len(uids))), n
            assert {ackermann_code_if_below(keys, u, 1 << 16) for u in set(uids)} == set(range(v_universe_size(n)))


class TestRendering:
    def test_members_sorted_by_numeral_order(self, v4):
        universe = {}
        assert render(universe, collapse(universe, v4.e1, 11)) == "{{},{{}},{{},{{}}}}"

    def test_numerals_below_4096_render_their_bits(self):
        def from_bits(k):  # the members of k are its set bits, ascending
            return "{" + ",".join(from_bits(i) for i in range(k.bit_length()) if k >> i & 1) + "}"

        keys, uids = level(5)
        for k in range(4096):
            assert render_hf(keys, uids[k]) == from_bits(k), k

    def test_empty(self):
        universe = {}
        assert render(universe, collapse(universe, rel(1, []), 0)) == "{}"

    def test_domain_collapse_duplicates(self):
        r = rel(3, [(0, 2), (1, 2)])
        dc = collapse_domain({}, r)
        assert dc.duplicate_groups == ((0, 1),)


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
        universe = {}
        uid = collapse(universe, r, x)
        keys = list(universe)
        assert render_hf(keys, uid) == reference_render(mt, x)
        assert rank(universe, uid) == reference_rank(mt, x)
        if rank(universe, uid) <= 5:  # higher ranks have numerals of more than 2**65536 bits
            code = reference_code(mt, x)
            assert ackermann_code_if_below(keys, uid, code + 1) == code
            assert ackermann_code_if_below(keys, uid, code) is None
        for bound in (-3, 0, 1, 2, 3, 5, 16, 17, 1 << 20, 1 << 64):
            assert ackermann_code_if_below(keys, uid, bound) == reference_code_if_below(mt, x, bound), bound

    def test_deep_chain(self):
        universe = {}
        deep = collapse(universe, chain(5001), 5000)
        assert render(universe, deep) == "{" * 5001 + "}" * 5001
        assert rank(universe, deep) == 5000
        assert numeral(universe, deep) is None

    def test_compare_chains_differing_at_the_bottom(self):
        # low wraps {} 5,000 times, high wraps {{}} 5,000 times, top = {low, high}
        n = 5001
        edges = [(k, k + 1) for k in range(n - 1)]  # low: elements 0 .. n - 1
        edges += [(0, n), *((k, k + 1) for k in range(n, 2 * n - 1))]  # high: elements n .. 2n - 1
        edges += [(n - 1, 2 * n), (2 * n - 1, 2 * n)]
        universe = {}
        top = collapse(universe, rel(2 * n + 1, edges), 2 * n)
        assert render(universe, top) == "{" + "{" * 5001 + "}" * 5001 + "," + "{" * 5002 + "}" * 5002 + "}"

    @pytest.mark.parametrize("r", [
        *(build_v_universe(n).e1 for n in range(5)),
        ordinals(12),
        chain(40),
        *(random_extensional_relation(size, seed) for size, seed in [(12, 1), (16, 2), (20, 4), (24, 3)]),
    ])
    def test_shared_sets_render_as_the_recursive_definition(self, r):
        # Ordinals and levels hold each set in many others: their texts are built once and pasted.
        mt, universe = r.member_tuples(), {}
        for x in range(r.domain_size):
            assert render(universe, collapse(universe, r, x)) == reference_render(mt, x), x

    def test_exponential_rendering_finishes(self):
        # Ordinal k holds every ordinal below it: its text has 5 * 2**(k - 1) - 1 characters for
        # k >= 1, though only k + 1 sets lie below it.
        texts = ["{}"]
        for k in range(1, 21):
            texts.append("{" + ",".join(texts) + "}")
        universe = {}
        uid = collapse(universe, ordinals(21), 20)
        keys = list(universe)

        def expire(signum, frame):
            raise TimeoutError("rendering ordinal 20 took over 20 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(20)
        try:
            text = render_hf(keys, uid)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(text) == 5 * 2 ** 19 - 1
        assert text == texts[20]


class TestInterning:
    def test_by_uid_lists_every_interned_code(self, v4):
        universe = {}
        collapse_domain(universe, v4.e1)
        collapse(universe, chain(300), 299)
        keys = list(universe)
        assert list(universe.values()) == list(range(len(keys)))  # uids in insertion order
        for uid, key in enumerate(keys):
            assert list(key) == sorted(set(key))  # ascending, no repeats
            assert all(m < uid for m in key)  # members are interned before the set

    def test_collapse_reuses_interned_codes(self, scrambled_v4):
        universe = {}
        dc = collapse_domain(universe, scrambled_v4.e1)
        keys = list(universe)
        assert [universe[keys[u]] for u in dc.uids] == list(dc.uids)
        # e2 collapsed into e1's universe shares its uids and adds no key
        images = Permutation.random(16, 7).images
        assert collapse_domain(universe, scrambled_v4.e2).uids == tuple(dc.uids[images.index(y)] for y in range(16))
        assert list(universe) == keys

    def test_walks_make_no_member_code(self):
        # Rendering, ranks and numerals read the member uids in a read-only key table and intern nothing.
        r = random_extensional_relation(40, 2025)
        universe = {}
        uid = collapse(universe, r, 39)
        before = dict(universe)
        keys = tuple(universe)
        got = render_hf(keys, uid), hf._ranks(keys, uid)[uid], ackermann_code_if_below(keys, uid, 1 << 64)
        assert universe == before
        mt = r.member_tuples()
        assert got == (reference_render(mt, 39), reference_rank(mt, 39), reference_code_if_below(mt, 39, 1 << 64))

    def test_uids_depend_only_on_their_universe(self, v4):
        # A fresh universe numbers V4's sets alike whatever was collapsed
        # before into another one: members first, from 0.
        def fresh_v4():
            universe = {}
            uids = collapse_domain(universe, v4.e1).uids
            return uids, [render(universe, u) for u in uids]

        before = fresh_v4()
        collapse({}, chain(300), 299)
        assert fresh_v4() == before
        assert sorted(before[0]) == list(range(16))


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
        universe = {}
        c1, c2 = collapse_domain(universe, e1).uids, collapse_domain(universe, e2).uids
        keys = list(universe)
        assert hf.is_collapse(keys, e2, carried(h, c1)) == all(c1[x] == c2[y] for x, y in enumerate(h))
        assert hf.is_collapse(keys, e2, c2) and hf.is_collapse(keys, e1, c1)

    @pytest.mark.parametrize("seed", range(3))
    def test_true_and_swapped_certificates_on_level_five(self, seed):
        e1 = build_v_universe(5).e1
        p = Permutation.random(e1.domain_size, seed)
        e2, h = apply_permutation(e1, p), list(p.images)
        keys, c1 = level(5)
        assert hf.is_collapse(keys, e2, carried(h, c1))
        h[7], h[65_535] = h[65_535], h[7]
        assert not hf.is_collapse(keys, e2, carried(h, c1))

    @given(size=st.integers(1, 6), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_passing_check_is_the_collapse(self, size, data):
        # On any relation, cyclic or not, extensional or not: labels drawn from
        # the sets of V4 pass only when they are the collapse, and the
        # collapse passes exactly when no element has two members of one collapse.
        pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        r = rel(size, data.draw(st.lists(pairs, max_size=2 * size)))
        keys, level_uids = level(4)
        labels = [level_uids[i] for i in data.draw(st.lists(st.integers(0, 15), min_size=size, max_size=size))]
        if hf.is_collapse(keys, r, labels):
            assert r.is_acyclic()
            assert labels == list(collapse_domain({key: uid for uid, key in enumerate(keys)}, r).uids)
        if r.is_acyclic():
            universe = {}
            uids = collapse_domain(universe, r).uids
            merged = any(len({uids[m] for m in ms}) < len(ms) for ms in r.member_tuples())
            assert hf.is_collapse(list(universe), r, uids) == (not merged)

    @given(size=st.integers(1, 40), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_extensional_collapse_matches_the_deduplicating_one(self, size, seed):
        r = random_extensional_relation(size, seed)
        universe = {}
        dc = collapse_domain(universe, r)
        assert dc.uids == tuple(hf._collapse_uids(universe, r.member_tuples(), r.toposort(), [0] * size))
        assert dc.duplicate_groups == ()


def reference_collapse_uids(universe, members, order):
    """_collapse_uids with every key a sorted set of member uids."""
    uid = [0] * len(members)
    for x in order:
        uid[x] = universe.setdefault(tuple(sorted({uid[m] for m in members[x]})), len(universe))
    return uid


def reference_is_collapse(keys, r, uids):
    """is_collapse with every key sorted."""
    return all(keys[u] == tuple(sorted(uids[m] for m in ms)) for u, ms in zip(uids, r.member_tuples()))


class TestOneMemberKeys:
    def test_sweeps_agree_with_sorted_keys(self):
        verdicts = set()
        for s in mixed_member_structures():
            n, universe = s.domain_size, {}
            for r in (s.e1, s.e2):
                mt, order = r.member_tuples(), r.toposort()
                expected = reference_collapse_uids(universe, mt, order)
                assert hf._collapse_uids(universe, mt, order, [0] * n) == expected
                assert hf._collapse_uids(universe, mt, order, [0] * n, True) == expected
                assert list(collapse_domain(universe, r).uids) == expected
            c1 = collapse_domain(universe, s.e1).uids
            keys = list(universe)
            maps = [list(range(n)), list(Permutation.random(n, 1).images)]
            partner = partners(s)
            if None not in partner and len(set(partner)) == n:  # an isomorphism, then two of its images swapped
                swapped = partner[:]
                swapped[1], swapped[-1] = partner[-1], partner[1]
                maps += [partner, swapped]
            for h in maps:
                uids = carried(h, c1)
                verdict = hf.is_collapse(keys, s.e2, uids)
                assert verdict == reference_is_collapse(keys, s.e2, uids)
                verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_swapped_one_member_uids_fail(self):
        e1, e2, h = scrambled_chain(50, 5)
        universe = {}
        uids = carried(h, collapse_domain(universe, e1).uids)
        keys = list(universe)
        assert hf.is_collapse(keys, e2, uids)
        a, b = h[10], h[30]  # the e2 images of chain elements 10 and 30, one member each
        uids[a], uids[b] = uids[b], uids[a]
        assert not hf.is_collapse(keys, e2, uids)
