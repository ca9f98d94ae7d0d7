import itertools
from functools import cache, cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmem import (
    CycleError,
    EMPTY,
    Permutation,
    ackermann_code,
    build_v_universe,
    collapse,
    collapse_domain,
    decode_ackermann,
    hf_rank,
    random_extensional_relation,
    render_hf,
    v_level_codes,
)
from dualmem import hf
from dualmem.hf import HfCode, ackermann_code_if_below, intern_hf
from dualmem.structure import apply_permutation, relation_from_edges, transitive_closure


def rel(size, edges):
    return relation_from_edges(size, edges)


class TestCollapse:
    def test_empty_set(self):
        assert collapse(rel(1, []), 0) is EMPTY

    def test_chain(self):
        r = rel(3, [(0, 1), (1, 2)])
        code = collapse(r, 2)
        assert render_hf(code) == "{{{}}}"
        assert ackermann_code(code) == 2

    def test_v3_elements_carry_their_ids_as_codes(self, v3):
        for i in range(4):
            assert ackermann_code(collapse(v3.e1, i)) == i

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
        assert ackermann_code(collapse(r, 1)) == 1

    def test_non_extensional_part_warns_but_collapses(self):
        r = rel(3, [(0, 2), (1, 2)])  # 0 and 1 both empty
        assert ackermann_code(collapse(r, 2)) == 1
        assert collapse_domain(r).duplicate_groups == ((0, 1),)  # the warning

    @given(seed=st.integers(0, 300), size=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_isomorphism(self, seed, size):
        r = random_extensional_relation(size, seed)
        p = Permutation.random(size, seed + 1)
        moved = apply_permutation(r, p)
        for x in range(size):
            assert collapse(r, x) is collapse(moved, p(x))

    @given(seed=st.integers(0, 300), size=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_rank_equals_longest_path(self, seed, size):
        r = random_extensional_relation(size, seed)
        ms = r.member_sets()

        def longest(x):
            return 1 + max((longest(m) for m in ms[x]), default=-1)

        for x in range(size):
            assert hf_rank(collapse(r, x)) == longest(x)

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
                    r.members(a) != r.members(b)
                    for a, b in itertools.combinations(reachable, 2)
                )
                assert injective == ext_on_part


class TestAckermann:
    def test_base_values(self):
        assert ackermann_code(EMPTY) == 0
        one = intern_hf([EMPTY])
        assert ackermann_code(one) == 1
        assert ackermann_code(intern_hf([one])) == 2
        assert ackermann_code(intern_hf([EMPTY, one])) == 3

    def test_defining_sum(self):
        three = decode_ackermann(3)
        eleven = intern_hf([EMPTY, decode_ackermann(1), three])
        assert ackermann_code(eleven) == 2**0 + 2**1 + 2**3 == 11

    def test_decode_examples(self):
        assert decode_ackermann(0) is EMPTY
        assert render_hf(decode_ackermann(3)) == "{{},{{}}}"

    def test_round_trip_below_sixteen_bits(self):
        for n in range(1 << 16):
            assert ackermann_code(decode_ackermann(n)) == n

    @given(n=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, n):
        assert ackermann_code(decode_ackermann(n)) == n

    def test_injective_on_interned_codes(self):
        codes = {ackermann_code(decode_ackermann(n)) for n in range(256)}
        assert len(codes) == 256

    def test_bounded_code_small(self):
        assert ackermann_code_if_below(decode_ackermann(11), 1 << 64) == 11

    def test_bounded_code_overflows(self, monkeypatch):
        # A 5,000-deep chain's numeral is a power tower; the bounded form
        # refuses it. A set of rank 6 has a numeral of at least 2**65536 >
        # 2**64, so the walk down the chain stops seven uids in.
        chain = [EMPTY]
        for _ in range(5000):
            chain.append(intern_hf([chain[-1]]))
        reads = []

        class CountingKeys(list):
            def __getitem__(self, uid):
                reads.append(uid)
                return super().__getitem__(uid)

        monkeypatch.setattr(hf, "_KEYS", CountingKeys(hf._KEYS))
        assert ackermann_code_if_below(chain[-1], 1 << 64) is None
        assert len(reads) <= 8
        assert [ackermann_code_if_below(c, 1 << 64) for c in chain[:7]] == [0, 1, 2, 4, 16, 65536, None]
        assert ackermann_code_if_below(chain[5], 65536) is None
        assert ackermann_code_if_below(chain[5], 65537) == 65536


class TestRank:
    def test_examples(self):
        assert hf_rank(EMPTY) == 0
        assert hf_rank(decode_ackermann(3)) == 2

    def test_universe_ranks_below_level(self, v4):
        for i in range(16):
            assert hf_rank(collapse(v4.e1, i)) < 4


class TestVLevels:
    def test_small_levels(self):
        assert v_level_codes(0) == frozenset()
        assert v_level_codes(2) == {EMPTY, decode_ackermann(1)}

    def test_level_four_is_first_sixteen_codes(self):
        got = {ackermann_code(c) for c in v_level_codes(4)}
        assert got == set(range(16))

    def test_sizes_match_universe(self):
        for n, size in zip(range(5), (0, 1, 2, 4, 16)):
            assert len(v_level_codes(n)) == size

    def test_level_five_size(self):
        assert len(v_level_codes(5)) == 65536

    def test_universe_sizes_match_level_sizes(self):
        for n in range(5):
            assert build_v_universe(n).domain_size == len(v_level_codes(n))

    def test_bound(self):
        with pytest.raises(Exception):
            v_level_codes(6)


class TestRendering:
    def test_members_sorted_by_numeral_order(self):
        assert render_hf(decode_ackermann(11)) == "{{},{{}},{{},{{}}}}"

    def test_numerals_below_4096_render_their_bits(self):
        def from_bits(k):  # the members of k are its set bits, ascending
            return "{" + ",".join(from_bits(i) for i in range(k.bit_length()) if k >> i & 1) + "}"

        for k in range(4096):
            assert render_hf(decode_ackermann(k)) == from_bits(k), k

    def test_empty(self):
        assert render_hf(EMPTY) == "{}"

    def test_domain_collapse_duplicates(self):
        r = rel(3, [(0, 2), (1, 2)])
        dc = collapse_domain(r)
        assert dc.duplicate_groups == ((0, 1),)
        assert not dc.extensional


# The recursive definitions the iterative forms replace, kept as references.
@cache
def reference_compare(x, y):
    """Sets differ at their largest non-shared member, and the larger set holds it."""
    differing = set(x.members) ^ set(y.members)
    if not differing:
        return 0
    largest = max(differing, key=cmp_to_key(reference_compare))
    return 1 if largest in x.members else -1


def reference_render(x):
    return "{" + ",".join(reference_render(m) for m in sorted(x.members, key=cmp_to_key(reference_compare))) + "}"


def reference_code(x):
    return sum(1 << reference_code(m) for m in x.members)


def reference_code_if_below(x, bound):
    if not x.members:
        return 0 if bound > 0 else None
    total = 0
    for m in x.members:
        cm = reference_code_if_below(m, bound.bit_length())
        if cm is None:
            return None
        total += 1 << cm
        if total >= bound:
            return None
    return total


def reference_rank(x):
    return 1 + max(reference_rank(m) for m in x.members) if x.members else 0


class TestIterativeForms:
    @given(seed=st.integers(0, 500), size=st.integers(1, 9), element=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_agree_with_the_recursive_definitions(self, seed, size, element):
        code = collapse(random_extensional_relation(size, seed), element % size)
        assert render_hf(code) == reference_render(code)
        assert hf_rank(code) == reference_rank(code)
        if hf_rank(code) <= 5:  # higher ranks have numerals of more than 2**65536 bits
            assert ackermann_code(code) == reference_code(code)
        for bound in (-3, 0, 1, 2, 3, 5, 16, 17, 1 << 20, 1 << 64):
            assert ackermann_code_if_below(code, bound) == reference_code_if_below(code, bound), bound

    def test_deep_chain(self):
        deep = EMPTY
        for _ in range(5000):
            deep = intern_hf([deep])
        assert render_hf(deep) == "{" * 5001 + "}" * 5001
        assert hf_rank(deep) == 5000
        assert ackermann_code_if_below(deep, 1 << 64) is None

    def test_compare_chains_differing_at_the_bottom(self):
        low, high = EMPTY, intern_hf([EMPTY])
        for _ in range(5000):
            low, high = intern_hf([low]), intern_hf([high])
        top = intern_hf([low, high])
        assert render_hf(top) == "{" + "{" * 5001 + "}" * 5001 + "," + "{" * 5002 + "}" * 5002 + "}"


class TestInterning:
    def test_by_uid_lists_every_interned_code(self, v4):
        collapse_domain(v4.e1)
        decode_ackermann(12345)
        assert len(hf._KEYS) == len(hf._INTERN)
        for uid, key in enumerate(hf._KEYS):
            assert hf._INTERN[key] == uid  # each key maps to its uid, and back
            code = HfCode(uid)
            assert HfCode(uid) is code  # one code object per uid
            assert tuple(m.uid for m in code.members) == key
        for uid, code in hf._CODES.items():
            assert code.uid == uid

    def test_collapse_reuses_interned_codes(self, scrambled_v4):
        dc = collapse_domain(scrambled_v4.e1)
        codes = [HfCode(u) for u in dc.uids]
        assert [intern_hf(c.members) for c in codes] == codes
        inverse = Permutation.random(16, 7).inverse()
        assert collapse_domain(scrambled_v4.e2).uids == tuple(dc.uids[x] for x in inverse.images)

    def test_collapse_makes_no_code_until_one_is_read(self, v4, monkeypatch):
        def refuse(*args):
            raise AssertionError("the collapse made an HfCode")

        with monkeypatch.context() as patch:
            patch.setattr(HfCode, "__new__", refuse)
            dc = collapse_domain(v4.e1)
        assert [ackermann_code(HfCode(u)) for u in dc.uids] == list(range(16))
        assert len(dc.image()) == 16

    def test_walks_make_no_member_code(self, monkeypatch):
        code = collapse(random_extensional_relation(40, 2025), 39)  # its members never read

        def refuse(*args):
            raise AssertionError("a walk made an HfCode")

        with monkeypatch.context() as patch:
            patch.setattr(HfCode, "__new__", refuse)
            got = render_hf(code), hf_rank(code), ackermann_code_if_below(code, 1 << 64)
        assert got == (reference_render(code), reference_rank(code), reference_code_if_below(code, 1 << 64))
