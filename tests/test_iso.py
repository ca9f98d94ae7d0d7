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
    StructureFormatError,
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
from dualmem import hf, iso
from dualmem.cli import main
from dualmem.iso import (
    _CERT_BLOCK,
    FailureDiagnostic,
    IsoCertificate,
    _witness_conditions,
    certificate_blocks,
    parse_certificate,
    partners,
    reachable_postorder,
    render_certificate,
    render_diagnostic,
    restriction_agrees,
)
from dualmem.lemmas import _chain_vs_v3
from dualmem.structure import random_dual_structure, random_extensional_relation, serialize_structure


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


class TestOrdinals:
    def test_universe_ordinals(self, v4):
        assert [x for x in range(16) if is_ordinal(v4.e1, x)] == [0, 1, 3, 11]

    def test_two_is_not_transitive(self, v4):
        assert not is_ordinal(v4.e1, 2)

    def test_empty_is_ordinal(self, v3):
        assert is_ordinal(v3.e1, 0)


class TestInternalLevel:
    def test_zero_level(self, v4):
        level = internal_level(v4, 1, 0)
        assert level.element == 0 and level.extension == frozenset()

    def test_level_two(self, v4):
        level = internal_level(v4, 1, 3)  # ordinal at position 2
        assert level.element == 3
        assert level.extension == {0, 1}

    def test_level_three(self, v4):
        level = internal_level(v4, 1, 11)  # ordinal at position 3
        assert level.element == 15
        assert level.extension == {0, 1, 2, 3}

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


def reference_certificate_text(cert):
    """render_certificate's text as one join over a list of every line."""
    lines = [f"iso {len(cert.mapping)}"]
    lines.extend(f"map {x} {y}" for x, y in enumerate(cert.mapping))
    return "\n".join(lines) + "\n"


class TestCertificateText:
    def test_render_and_parse(self, scrambled_v3):
        cert = global_isomorphism(scrambled_v3)
        text = render_certificate(cert)
        assert text.splitlines()[0] == "iso 4"
        assert parse_certificate(text).mapping == cert.mapping

    @pytest.mark.parametrize("n", [0, 1, _CERT_BLOCK - 1, _CERT_BLOCK, _CERT_BLOCK + 1, 10_000])
    def test_blocks_join_to_the_reference_text(self, n):
        cert = IsoCertificate(Permutation.random(n, n).images)
        text = render_certificate(cert)
        assert text == reference_certificate_text(cert)
        assert parse_certificate(text) == cert
        # The CLI writes the blocks one by one: the header, then up to _CERT_BLOCK map lines each.
        full, rest = divmod(n, _CERT_BLOCK)
        assert [b.count("\n") for b in certificate_blocks(cert)] == [1] + [_CERT_BLOCK] * full + [rest] * (rest > 0)

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("iso 2\nmap -1 1\nmap 0 0\n", 2),
            ("iso 2\nmap 0 1\nmap 2 0\n", 3),
            ("iso 2\nmap 0 1\nmap 1 2\n", 3),
            ("iso 2\nmap 0 1\nmap 0 0\nmap 1 0\n", 3),
            ("iso 2\n\nmap 0 x\nmap 1 0\n", 3),
            ("iso 2\nmap 0 1\nmap ١ 0\n", 3),
            ("iso two\nmap 0 1\nmap 1 0\n", 1),
            ("iso 2 2\nmap 0 1\nmap 1 0\n", 1),
            ("\nmap 0 0\n", 2),
            ("iso 2\nmap 0 1\niso 2\n", 3),
            ("iso 2\nmap 0 1\n", None),
            ("", None),
            ("iso 2\x0bmap 0 0\nmap 1 0\n", 1),
            ("iso 2\nmap 0 0\x0c\nmap 1 5\n", 3),
            ("iso 2\r\nmap 0 0\r\nmap 1 5\r\n", 3),
        ],
    )
    def test_parse_rejects_malformed(self, text, line_no):
        with pytest.raises(StructureFormatError) as exc:
            parse_certificate(text)
        assert exc.value.line_no == line_no

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

        def faulty(s, order, index):
            partner = sweep(s, order, index)
            if len(partner) == s.domain_size:  # the whole-domain sweep
                fault(partner)
            return partner

        monkeypatch.setattr(iso, "_match", faulty)
        for flags, first in lines.items():
            code = main(["find-iso", str(path), *(["--verify", "--oracle-check"] if flags == "both" else [flags])])
            assert (code, capsys.readouterr().out.split("\n", 1)[0]) == (1, first), flags
