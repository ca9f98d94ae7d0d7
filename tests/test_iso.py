import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualmem import (
    CycleError,
    DualMemError,
    LevelExtensionError,
    MembershipRelation,
    NonExtensionalError,
    Permutation,
    build_witness,
    build_v_universe,
    collapse,
    dual_structure,
    extend_to_level,
    global_isomorphism,
    internal_level,
    is_ordinal,
    scramble,
    transitive_closure,
    verify_certificate,
)
import numpy as np

from dualmem import hf, iso, structure
from dualmem.cli import main
from dualmem.iso import (
    _CERT_BLOCK,
    FailureDiagnostic,
    IsoCertificate,
    _witness_conditions,
    certificate_blocks,
    partners,
    reachable_postorder,
    render_certificate,
    render_diagnostic,
    restriction_agrees,
)
from dualmem.lemmas import _chain_vs_v3
from dualmem.structure import random_dual_structure, random_extensional_relation, serialize_structure

from conftest import mixed_member_structures


class TestTransitiveClosure:
    def test_empty_element(self, v3):
        assert transitive_closure(v3.e1, 0) == frozenset()

    def test_with_and_without_self(self, v3):
        assert transitive_closure(v3.e1, 3) == {0, 1}
        assert transitive_closure(v3.e1, 3, include_self=True) == {0, 1, 3}

    def test_tolerates_cycles(self):
        s = dual_structure(2, [(0, 1), (1, 0)], [])
        assert transitive_closure(s.e1, 0, include_self=True) == {0, 1}


class TestBuildPsi:
    def test_empty_to_empty(self, scrambled_v3):
        # e2-empty element is p(0) = 0 for the (0 2 1 3) swap
        w = build_witness(scrambled_v3, 0, 0)
        assert w == {0: 0}

    def test_swap_example(self, scrambled_v3):
        w = build_witness(scrambled_v3, 1, 2)
        assert w == {0: 0, 1: 2}

    def test_absence_on_mismatched_collapse(self):
        s = _chain_vs_v3()
        assert build_witness(s, 2, 2) is None
        assert collapse(s.e1, 2) is not collapse(s.e2, 2)

    def test_cycle_below_is_error_not_absence(self):
        s = dual_structure(3, [(0, 1), (1, 0)], [(0, 1)])
        with pytest.raises(CycleError):
            build_witness(s, 0, 0)
        s2 = dual_structure(3, [(0, 1)], [(0, 1), (1, 0)])
        with pytest.raises(CycleError):
            build_witness(s2, 0, 0)

    def test_cycle_witnesses_pinned(self, two_cycles):
        # The same walk from each start, so e1 (tag 1) and the same relation
        # placed in e2 (tag 2) report the same cycle, sliced at the start when
        # the start lies on it.
        swapped = dual_structure(8, two_cycles.e2.edges, two_cycles.e1.edges)
        for x, cycle in ((0, (3, 4, 5, 3)), (5, (5, 3, 4, 5)), (7, (7, 6, 7))):
            for s, tag, pair in ((two_cycles, 1, (x, 0)), (swapped, 2, (0, x))):
                with pytest.raises(CycleError) as exc:
                    build_witness(s, *pair)
                assert (exc.value.cycle, exc.value.tag) == (cycle, tag)
                with pytest.raises(CycleError) as exc:
                    reachable_postorder(s.relation(tag), x, tag)
                assert (exc.value.cycle, exc.value.tag) == (cycle, tag)

    def test_postorder_pinned(self):
        r = random_extensional_relation(8, 5)
        assert reachable_postorder(r, 4) == [6, 3, 0, 1, 7, 2, 4]
        assert reachable_postorder(r, 6) == [6]

    def test_acyclic_e2_is_not_walked(self, monkeypatch):
        s = scramble(build_v_universe(4), Permutation.random(16, 3))
        assert s.e2.is_acyclic()  # its one whole-domain walk, cached before the patch
        walk = MembershipRelation.members_first

        def refuse_e2(rel, roots):
            if rel is s.e2:
                raise AssertionError("build_witness walked the acyclic e2")
            return walk(rel, roots)

        monkeypatch.setattr(MembershipRelation, "members_first", refuse_e2)
        found = [(x, y) for x in range(16) for y in range(16) if build_witness(s, x, y) is not None]
        assert found == [(x, Permutation.random(16, 3)(x)) for x in range(16)]

    @pytest.mark.parametrize("pair", [(0, 4), (4, 0), (-1, 0), (0, -1)])
    def test_pair_outside_domain(self, scrambled_v3, pair):
        with pytest.raises(DualMemError, match="outside domain of size 4"):
            build_witness(scrambled_v3, *pair)

    def test_witness_satisfies_all_conditions(self, scrambled_v4):
        for x in range(16):
            for y in range(16):
                w = build_witness(scrambled_v4, x, y)
                if w is not None:
                    tc1 = transitive_closure(scrambled_v4.e1, x, include_self=True)
                    tc2 = transitive_closure(scrambled_v4.e2, y, include_self=True)
                    assert all(_witness_conditions(scrambled_v4, x, y, w, tc1, tc2).values())

    @pytest.mark.parametrize("value", [99, 4, -1])
    def test_value_outside_domain_fails_only_the_conditions_it_breaks(self, v3, value):
        # the closures, each with itself, of V3's element 0 ({}) and element 1 ({{}})
        empty, one = frozenset({0}), frozenset({0, 1})
        assert _witness_conditions(v3, 0, 0, {0: value}, empty, empty) == {
            "domain": True,
            "into-closure": False,
            "onto-closure": False,
            "preserves-membership": False,
            "maps-top": False,
        }
        assert _witness_conditions(v3, 1, 1, {0: 0, 1: value}, one, one)["preserves-membership"] is False
        assert _witness_conditions(v3, 1, 1, {0: 0, 1: 1}, one, one)["preserves-membership"] is True


class TestPhi:
    def test_tracks_permutation_exactly(self, scrambled_v4):
        p = None
        for x in range(16):
            ys = [y for y in range(16) if build_witness(scrambled_v4, x, y) is not None]
            assert len(ys) == 1
        # rigidity: the matched partner is the collapse partner
        for x, y in itertools.product(range(16), repeat=2):
            expected = collapse(scrambled_v4.e1, x) == collapse(scrambled_v4.e2, y)
            assert (build_witness(scrambled_v4, x, y) is not None) == expected

    @given(s=st.builds(random_dual_structure, size=st.integers(1, 8), seed=st.integers(0, 120)))
    @example(s=scramble(build_v_universe(3), Permutation((0, 2, 1, 3))))
    @example(s=scramble(build_v_universe(4), Permutation.random(16, 7)))
    @settings(max_examples=40, deadline=None)
    def test_partner_sweep_gives_the_matched_pairs(self, s):
        partner = partners(s)
        for x in range(s.domain_size):
            expected = [] if partner[x] is None else [partner[x]]
            assert [y for y in range(s.domain_size) if build_witness(s, x, y) is not None] == expected

    def test_partial_on_mismatched_pair(self):
        s = _chain_vs_v3()
        matched = {x for x in range(4) if any(build_witness(s, x, y) is not None for y in range(4))}
        assert matched == {0, 1, 2}


def reference_match(s, order, index):
    """_match with every key sorted: an element with a member that has no
    partner gets none itself."""
    mt1 = s.e1.member_tuples()
    partner = {}
    for t in order:
        images = [partner[m] for m in mt1[t]]
        partner[t] = None if None in images else index.get(tuple(sorted(images)))
    return partner


class TestOneMemberKeys:
    def test_sweep_agrees_with_sorted_keys(self):
        sizes = set()  # the member counts met, 2 standing for several
        orphaned = 0  # one-member elements whose member has no partner
        for s in mixed_member_structures():
            order, index = s.e1.toposort(), s.e2.fresh_extension_index()
            partner = iso._match(s, order, index)
            assert list(partner.items()) == list(reference_match(s, order, index).items())
            mt1 = s.e1.member_tuples()
            sizes.update(min(len(ms), 2) for ms in mt1)
            orphaned += sum(len(ms) == 1 and partner[ms[0]] is None for ms in mt1)
        assert sizes == {0, 1, 2} and orphaned > 0

    def test_one_member_whose_member_has_no_partner(self):
        # e1: 0 = {}, 1 = {0}, 2 = {0, 1}, 3 = {2}; e2: 0 = {}, 1 = {0}, 2 = {1}, 3 = {0, 2}.
        # e1's 2 has no partner, so neither has 3, whose one member it is.
        s = dual_structure(4, [(0, 1), (0, 2), (1, 2), (2, 3)], [(0, 1), (1, 2), (0, 3), (2, 3)])
        assert partners(s) == [0, 1, None, None]
        assert [build_witness(s, x, y) for x in (2, 3) for y in range(4)] == [None] * 8


class TestOrdinals:
    def test_universe_ordinals(self, v4):
        assert [x for x in range(16) if is_ordinal(v4.e1, x)] == [0, 1, 3, 11]

    def test_two_is_not_transitive(self, v4):
        assert not is_ordinal(v4.e1, 2)

    def test_empty_is_ordinal(self, v3):
        assert is_ordinal(v3.e1, 0)


class TestInternalLevel:
    def test_zero_level(self, v4):
        assert internal_level(v4, 1, 0) == 0

    def test_level_two(self, v4):
        assert internal_level(v4, 1, 3) == 3  # ordinal at position 2: the level {0, 1}

    def test_level_three(self, v4):
        assert internal_level(v4, 1, 11) == 15  # ordinal at position 3: the level {0, 1, 2, 3}

    def test_requires_ordinal(self, v4):
        with pytest.raises(Exception):
            internal_level(v4, 1, 2)


class TestExtendToLevel:
    def test_trivial_bottom(self, v3):
        wider = extend_to_level(v3, 0, 0)
        assert wider == {0: 0}

    def test_scrambled_level_matches_permutation(self):
        p = Permutation.random(16, 3)
        s = scramble(build_v_universe(4), p)
        w = build_witness(s, 11, p(11))
        wider = extend_to_level(s, 11, p(11))
        assert list(wider.items())[-1] == (15, p(15))
        assert all(v == p(u) for u, v in wider.items())
        assert restriction_agrees(11, w, wider)

    def test_unrealized_image_reported(self):
        # e2 is the fourth level except {{{}}} (id 2) now holds {8}; the level
        # above the matched ordinal pair (11, 11) exists on both sides, but the
        # singleton image for id 2 has no realizer.
        v4 = build_v_universe(4)
        e2 = (v4.e2.edges - {(1, 2)}) | {(8, 2)}
        s = dual_structure(16, v4.e1.edges, e2)
        w = build_witness(s, 11, 11)
        assert w is not None
        with pytest.raises(LevelExtensionError) as exc:
            extend_to_level(s, 11, 11)
        assert exc.value.kind == "unrealized-image"
        assert exc.value.witness == 2


class TestGlobalIsomorphism:
    def test_identity_on_shared_relation(self, v4):
        cert = global_isomorphism(v4)
        assert isinstance(cert, IsoCertificate)
        assert cert.mapping == tuple(range(16))

    def test_recovers_permutation(self):
        for seed in (0, 1, 2):
            p = Permutation.random(16, seed)
            s = scramble(build_v_universe(4), p)
            cert = global_isomorphism(s)
            assert cert.mapping == p.images

    def test_unique_by_exhaustive_search(self):
        # rigidity at size 4: the certificate is the only edge-preserving bijection
        p = Permutation((2, 0, 3, 1))
        s = scramble(build_v_universe(3), p)
        cert = global_isomorphism(s)
        found = [
            images
            for images in itertools.permutations(range(4))
            if verify_certificate(s, IsoCertificate(images))
        ]
        assert found == [cert.mapping]

    def test_chain_vs_v3_diagnostic(self):
        s = _chain_vs_v3()
        diag = global_isomorphism(s)
        assert isinstance(diag, FailureDiagnostic)
        assert diag.case == "both-directions-fail"
        assert diag.unmatched_e1 == (3,)
        assert diag.unmatched_e2 == (2,)
        assert render_diagnostic(s, diag) == (
            "fail both-directions-fail\n"
            "unmatched e1 3 collapse {{{{}}}}\n"
            "unmatched e2 2 collapse {{},{{}}}\n"
        )

    def test_diagnostic_is_read_without_the_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the matching consulted the hf oracle")

        class Refusing:  # stands in for the intern tables, so interning inline is caught too
            __getattr__ = __getitem__ = __contains__ = __len__ = __iter__ = refuse

        for name in ("collapse", "collapse_domain", "_collapse_uids", "_intern_uids", "render_hf",
                     "ackermann_code_if_below"):
            monkeypatch.setattr(hf, name, refuse)
        for name in ("_INTERN", "_KEYS"):
            monkeypatch.setattr(hf, name, Refusing())
        assert global_isomorphism(_chain_vs_v3()) == FailureDiagnostic("both-directions-fail", (3,), (2,))

    def test_ill_founded_is_error(self):
        s = dual_structure(2, [(0, 1), (1, 0)], [(0, 1)])
        with pytest.raises(CycleError):
            global_isomorphism(s)

    def test_non_extensional_is_error(self):
        s = dual_structure(3, [(0, 2), (1, 2)], [(0, 1)])
        with pytest.raises(NonExtensionalError):
            global_isomorphism(s)

    def test_extensionality_builds_no_e1_index(self):
        # e1 is only tested for extensionality; the sweep reads a fresh e2
        # index once and keeps none, so neither relation caches one
        n = 300
        p = Permutation.random(n, 5)
        s = scramble(dual_structure(n, [(x, x + 1) for x in range(n - 1)], []), p)
        assert global_isomorphism(s).mapping == p.images
        assert "ext_index" not in s.e1._derived
        assert "ext_index" not in s.e2._derived

    def test_one_object_per_id(self):
        # Ids above 256 are distinct int objects unless shared: both
        # relations' member tuples, their walks, the index and the
        # certificate hold one object per id, and the oracle adds none.
        n = 1_000
        chain = [(x, x + 1) for x in range(n - 1)]
        s = scramble(dual_structure(n, chain, chain), Permutation.random(n, 2))
        cert = global_isomorphism(s)
        hf.collapse_domain(s.e1, 1), hf.collapse_domain(s.e2, 2)
        views = [cert.mapping]
        for rel in (s.e1, s.e2):
            views += [*rel.member_tuples(), rel.toposort(), rel.extension_index().values()]
        seen: dict[int, int] = {}
        for x in itertools.chain(*views):
            assert seen.setdefault(x, x) is x
        assert len(seen) == n

    def test_bit_identical_across_fresh_structures(self):
        texts = []
        for _ in range(2):
            p = Permutation.random(16, 9)
            s = scramble(build_v_universe(4), p)
            texts.append(render_certificate(global_isomorphism(s)))
        assert texts[0] == texts[1]
        diags = []
        for _ in range(2):
            s = _chain_vs_v3()
            diags.append(render_diagnostic(s, global_isomorphism(s)))
        assert diags[0] == diags[1]


class TestVerifyCertificate:
    def test_accepts_constructed(self, scrambled_v4):
        cert = global_isomorphism(scrambled_v4)
        assert verify_certificate(scrambled_v4, cert)

    def test_swap_breaks_certificate(self, scrambled_v3):
        cert = global_isomorphism(scrambled_v3)
        images = list(cert.mapping)
        images[1], images[2] = images[2], images[1]
        assert not verify_certificate(scrambled_v3, IsoCertificate(tuple(images)))

    def test_identity_on_mismatched_pair(self):
        s = _chain_vs_v3()
        assert not verify_certificate(s, IsoCertificate((0, 1, 2, 3)))

    def test_rejects_non_bijection(self, v3):
        assert not verify_certificate(v3, IsoCertificate((0, 0, 1, 2)))

    @pytest.mark.parametrize(
        "images", [(0, 1, 2, -1), (0, 1, 2, 4), (0, 1, 2)], ids=["negative", "equal-to-n", "too-short"]
    )
    def test_rejects_images_that_are_not_a_permutation(self, v3, images):
        assert not verify_certificate(v3, IsoCertificate(images))

    def test_accepts_the_empty_certificate_on_an_empty_domain(self):
        assert verify_certificate(dual_structure(0, [], []), IsoCertificate(()))

    def test_accepts_the_identity_on_a_chain(self, chain3):
        assert verify_certificate(chain3, IsoCertificate((0, 1, 2)))

    def test_matches_brute_force_on_small(self):
        # certificate acceptance coincides with brute-force isomorphism search
        for size, seeds in ((5, range(6)), (6, range(3))):
            for seed in seeds:
                s = random_dual_structure(size, seed)
                accepted = {
                    images
                    for images in itertools.permutations(range(size))
                    if verify_certificate(s, IsoCertificate(images))
                }
                result = global_isomorphism(s)
                if isinstance(result, IsoCertificate):
                    assert accepted == {result.mapping}
                else:
                    assert not accepted


def reference_verdict(s, images):
    """verify_certificate's verdict from its definition: a permutation whose
    image of e1, built as a relation, is e2."""
    n = s.domain_size
    if sorted(images) != list(range(n)):
        return False
    h = np.array(images, dtype=np.int64)
    return MembershipRelation(n, h[s.e1.child], h[s.e1.parent]) == s.e2


def swapped(images, a, b):
    images = list(images)
    images[a], images[b] = images[b], images[a]
    return tuple(images)


def certificate_cases():
    """(structure, mappings): scrambled V3/V4, random pairs of 5-24 elements
    and the rejection cases above, each with its certificate when it has
    one, that certificate with two images swapped, the identity and a
    seeded permutation."""
    cases = [
        (build_v_universe(3), [(0, 0, 1, 2), (0, 1, 2, -1), (0, 1, 2, 4), (0, 1, 2)]),
        (_chain_vs_v3(), [(0, 1, 2, 3)]),
        (dual_structure(0, [], []), [()]),
        (dual_structure(3, [(0, 1), (1, 2)], [(0, 1), (1, 2)]), [(0, 1, 2)]),
        (dual_structure(3, [(0, 1)], [(0, 1), (1, 2)]), [(0, 1, 2)]),  # e1's image is a part of e2
        (dual_structure(3, [(0, 1), (1, 2)], [(0, 1)]), [(0, 1, 2)]),  # and the other way round
        (dual_structure(2, [(0, 1)], [(0, 0)]), [(0, 1), (1, 0)]),  # an image edge with e2's child, not its parent
    ]
    levels = build_v_universe(3), build_v_universe(4)
    structures = [scramble(v, Permutation.random(v.domain_size, seed)) for v in levels for seed in (1, 7)]
    structures += [random_dual_structure(size, seed) for size in range(5, 25) for seed in range(2)]
    rng = random.Random(5)
    for s in structures:
        n = s.domain_size
        mappings = [tuple(range(n)), tuple(rng.sample(range(n), n))]
        result = global_isomorphism(s) if s.e1.is_acyclic() and s.e1.is_extensional() else None
        if isinstance(result, IsoCertificate):
            mappings += [result.mapping, swapped(result.mapping, *rng.sample(range(n), 2))]
        cases.append((s, mappings))
    return cases


class TestCertificateKeys:
    """verify_certificate compares sorted edge keys, or the lexsort order
    above _KEYED_SORT_MAX, and agrees with building the image relation."""

    def test_both_orders_agree_with_the_reference(self, monkeypatch):
        verdicts = set()
        for s, mappings in certificate_cases():
            for images in mappings:
                expected = reference_verdict(s, images)
                keyed = verify_certificate(s, IsoCertificate(images))
                with monkeypatch.context() as m:
                    m.setattr(structure, "_KEYED_SORT_MAX", -1)  # every n takes the lexsort order
                    assert structure.edge_keys(s.domain_size, s.e1.child, s.e1.parent) is None
                    lexsorted = verify_certificate(s, IsoCertificate(images))
                assert keyed == lexsorted == expected, (s, images)
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_one_moved_edge_is_rejected(self, monkeypatch):
        # In V4, 4 = {2} and 5 = {0, 2} are of rank 3 and members of nothing:
        # swapping their images keeps a bijection and the edge count, and
        # moves the one edge 0 -> 5 onto 0 -> 4.
        s = scramble(build_v_universe(4), Permutation.random(16, 7))
        h = global_isomorphism(s).mapping
        assert s.e1.ranks()[4] == s.e1.ranks()[5] == 3
        images = swapped(h, 4, 5)
        moved = {(images[a], images[b]) for a, b in s.e1.edges} ^ s.e2.edges
        assert moved == {(h[0], h[4]), (h[0], h[5])}
        assert verify_certificate(s, IsoCertificate(h))
        assert not verify_certificate(s, IsoCertificate(images))
        monkeypatch.setattr(structure, "_KEYED_SORT_MAX", -1)
        assert verify_certificate(s, IsoCertificate(h))
        assert not verify_certificate(s, IsoCertificate(images))


def reference_certificate_text(cert):
    """render_certificate's text as one join over a list of every line."""
    lines = [f"iso {len(cert.mapping)}"]
    lines.extend(f"map {x} {y}" for x, y in enumerate(cert.mapping))
    return "\n".join(lines) + "\n"


class TestCertificateText:
    def test_render(self, scrambled_v3):
        cert = global_isomorphism(scrambled_v3)
        text = render_certificate(cert)
        assert text.splitlines()[0] == "iso 4"
        assert text == reference_certificate_text(cert)

    @pytest.mark.parametrize("n", [0, 1, _CERT_BLOCK - 1, _CERT_BLOCK, _CERT_BLOCK + 1, 10_000])
    def test_blocks_join_to_the_reference_text(self, n):
        cert = IsoCertificate(Permutation.random(n, n).images)
        text = render_certificate(cert)
        assert text == reference_certificate_text(cert)
        # The CLI writes the blocks one by one: the header, then up to _CERT_BLOCK map lines each.
        full, rest = divmod(n, _CERT_BLOCK)
        assert [b.count("\n") for b in certificate_blocks(cert)] == [1] + [_CERT_BLOCK] * full + [rest] * (rest > 0)

    def test_diagnostic_format(self):
        s = _chain_vs_v3()
        diag = global_isomorphism(s)
        assert diag == FailureDiagnostic("both-directions-fail", (3,), (2,))
        assert render_diagnostic(s, diag) == (
            "fail both-directions-fail\n"
            "unmatched e1 3 collapse {{{{}}}}\n"
            "unmatched e2 2 collapse {{},{{}}}\n"
        )


class TestOracleAgreement:
    @given(seed=st.integers(0, 120), size=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_phi_iff_equal_collapse(self, seed, size):
        s = random_dual_structure(size, seed)
        for x in range(size):
            for y in range(size):
                expected = collapse(s.e1, x) == collapse(s.e2, y)
                assert (build_witness(s, x, y) is not None) == expected


def seeded_sweep_fault(s, kind, seed):
    """(fault, first lines): a fault that edits the whole-domain sweep's
    partner dict of s, and the first line find-iso must print under each
    flag set, as the definitions decide it. s must be a scrambled level, so
    that its certificate is the only isomorphism and ranks repeat.

    swap exchanges the partners of two e1 elements a < b of one rank: a
    bijection that is no isomorphism, whose first element with a wrong
    collapse is a. drop takes the partner from one top-rank element: that
    element and its true partner go unmatched. alias gives a the partner of
    b: no e1 element is unmatched, and a's true partner is.
    """
    rng = random.Random(seed)
    ranks = s.e1.ranks()
    if kind == "swap":
        by_rank = {}
        for x, r in enumerate(ranks):
            by_rank.setdefault(r, []).append(x)
        a, b = sorted(rng.sample(rng.choice([xs for xs in by_rank.values() if len(xs) > 1]), 2))
        h = global_isomorphism(s).mapping
        oracle = f"fail oracle-mismatch x={a} y={h[b]}"
        lines = {"--verify": "fail certificate-rejected", "--oracle-check": oracle, "both": "fail certificate-rejected"}

        def fault(partner):
            partner[a], partner[b] = partner[b], partner[a]
    elif kind == "drop":
        top = max(ranks)
        x = rng.choice([x for x, r in enumerate(ranks) if r == top])
        lines = dict.fromkeys(("--verify", "--oracle-check", "both"), "fail both-directions-fail")

        def fault(partner):
            partner[x] = None
    else:
        a, b = rng.sample(range(s.domain_size), 2)
        lines = dict.fromkeys(("--verify", "--oracle-check", "both"), "fail e2-element-unmatched")

        def fault(partner):
            partner[a] = partner[b]
    return fault, lines


class TestSweepFaults:
    """A faulty whole-domain sweep is caught, on a positive verdict by
    --verify and by the oracle's recursion check, and on a negative one by
    the e2 validation and diagnostic."""

    @pytest.mark.parametrize("level, seed", [(3, 0), (4, 0), (4, 1), (4, 2), (5, 0)])
    @pytest.mark.parametrize("kind", ["swap", "drop", "alias"])
    def test_fault_prints_its_first_line(self, capsys, monkeypatch, tmp_path, level, seed, kind):
        base = build_v_universe(level)
        s = scramble(base, Permutation.random(base.domain_size, 7))
        fault, lines = seeded_sweep_fault(s, kind, seed)
        path = tmp_path / "s.st"
        path.write_text(serialize_structure(s))
        sweep = iso._match

        def faulty(s, order, index, *into):
            partner = sweep(s, order, index, *into)
            if len(partner) == s.domain_size:  # the whole-domain sweep
                fault(partner)
            return partner

        monkeypatch.setattr(iso, "_match", faulty)
        for flags, first in lines.items():
            code = main(["find-iso", str(path), *(["--verify", "--oracle-check"] if flags == "both" else [flags])])
            assert (code, capsys.readouterr().out.split("\n", 1)[0]) == (1, first), flags
