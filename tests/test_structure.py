import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualmem import (
    CycleError,
    DualMemError,
    MembershipRelation,
    Permutation,
    StructureFormatError,
    build_v_universe,
    dual_structure,
    parse_structure,
    random_extensional_relation,
    scramble,
    serialize_structure,
    tamper,
)
from dualmem.structure import (
    _KEYED_SORT_MAX,
    V_UNIVERSE_MAX,
    DualStructure,
    _id_objects,
    _ids,
    _parse_canonical,
    _scan_structure,
    apply_permutation,
    random_dual_structure,
    reachable_postorder,
    relation_from_edges,
    transitive_closure,
    v_universe_size,
)

from conftest import members

ARBITRARY_TEXT = st.text(alphabet=st.one_of(st.sampled_from("ne12 03#\n"), st.characters()), max_size=60)

MUTATIONS = ("none", "drop-newline", "duplicate-line", "id-equals-n", "trailing-space", "swap-lines",
             "no-final-newline", "crlf")


def mutated_file(size: int, seed: int, mutation: str, at: int) -> str:
    """A serialized random structure with one mutation at line at % (number of lines)."""
    lines = serialize_structure(random_dual_structure(size, seed)).split("\n")[:-1]
    i = at % len(lines)
    if mutation == "drop-newline":
        lines[i:i + 2] = [" ".join(lines[i:i + 2])] if i + 1 < len(lines) else [lines[i]]
    elif mutation == "duplicate-line":
        lines.insert(i, lines[i])
    elif mutation == "id-equals-n":
        lines.append(f"e{at % 2 + 1} {at % size} {size}")
        lines[i], lines[-1] = lines[-1], lines[i]
    elif mutation == "trailing-space":
        lines[i] += " "
    elif mutation == "swap-lines":
        lines[i], lines[-1] = lines[-1], lines[i]
    elif mutation == "crlf":
        lines[i] += "\r"
    text = "\n".join(lines) + "\n"
    return text[:-1] if mutation == "no-final-newline" else text


def outcome(parse, text):
    try:
        return parse(text)
    except StructureFormatError as exc:
        return str(exc), exc.line_no


def reference_toposort(rel):
    # Kahn's algorithm: FIFO queue over member-set sizes, parents in ascending
    # id. It covers the domain exactly when the relation is acyclic.
    ms, ps = rel.member_sets(), rel.parent_sets()
    pending = [len(ms[x]) for x in range(rel.domain_size)]
    frontier = deque(x for x in range(rel.domain_size) if pending[x] == 0)
    order = []
    while frontier:
        x = frontier.popleft()
        order.append(x)
        for p in sorted(ps[x]):
            pending[p] -= 1
            if pending[p] == 0:
                frontier.append(p)
    return tuple(order) if len(order) == rel.domain_size else None


def tamper_outcome(tamperer, s, kind, seed):
    try:
        return tamperer(s, kind, seed)
    except DualMemError as exc:
        return str(exc)


def reference_tamper(s, kind, seed):
    """tamper as first written, on a set of (child, parent) pairs; break-extensionality
    draws over the full list of candidate pairs."""
    rng = random.Random(seed)
    n = s.domain_size
    edges = set(s.e1.edges)
    if kind == "add-cycle":
        if n < 1:
            raise DualMemError("add-cycle needs a nonempty domain")
        candidates = [(b, a) for a, b in sorted(edges) if (b, a) not in edges]
        if candidates:
            edges.add(rng.choice(candidates))
        else:
            x = rng.randrange(n)
            edges.add((x, x))
    elif kind == "break-extensionality":
        if n < 2:
            raise DualMemError("break-extensionality needs at least two elements")
        mt = s.e1.member_tuples()
        below = [transitive_closure(s.e1, a) for a in range(n)]
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b and mt[a] != mt[b] and b not in below[a]]
        if not pairs:
            raise DualMemError("no pair can be equalized without creating a cycle")
        a, b = rng.choice(pairs)
        edges = {(c, p) for c, p in edges if p != b} | {(m, b) for m in mt[a]}
    else:
        assert kind == "remove-edge"
        if not edges:
            raise DualMemError("remove-edge needs at least one e1 edge")
        edges.remove(rng.choice(sorted(edges)))
    return DualStructure(n, relation_from_edges(n, edges), s.e2)


def tamper_bases(seed):
    """Random pairs of 2-60 elements and scrambled V1-V4, each also with an
    add-cycle tamper, so that cyclic inputs are covered; V1 has no edges."""
    bases = [random_dual_structure(size, seed) for size in (2, 3, 7, 20, 60)]
    bases += [scramble(build_v_universe(n), Permutation.random(v_universe_size(n), seed)) for n in (1, 2, 3, 4)]
    return [t for s in bases for t in (s, reference_tamper(s, "add-cycle", seed))]


def reference_v_universe(n):
    """build_v_universe as first written: one edge per set bit, found by a Python bit loop."""
    size = v_universe_size(n)
    edges = []
    for b in range(size):
        m = b
        while m:
            a = (m & -m).bit_length() - 1
            edges.append((a, b))
            m &= m - 1
    return relation_from_edges(size, edges)


class TestParse:
    def test_empty_universe(self):
        s = parse_structure("n 1")
        assert s.domain_size == 1
        assert not s.e1.edges and not s.e2.edges

    def test_both_relations(self):
        s = parse_structure("n 2\ne1 0 1\ne2 0 1")
        assert s.e1.edges == {(0, 1)}
        assert s.e2.edges == {(0, 1)}

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(StructureFormatError) as exc:
            parse_structure("n 2\ne1 0 1\ne1 0 1")
        assert exc.value.line_no == 3

    def test_vertex_out_of_range(self):
        with pytest.raises(StructureFormatError) as exc:
            parse_structure("n 2\ne1 0 2")
        assert exc.value.line_no == 2

    def test_missing_header(self):
        with pytest.raises(StructureFormatError):
            parse_structure("e1 0 1")

    def test_malformed_token(self):
        with pytest.raises(StructureFormatError) as exc:
            parse_structure("n 2\nedge 0 1")
        assert exc.value.line_no == 2

    def test_comments_and_blank_lines(self):
        s = parse_structure("# a comment\n\nn 2\n# another\ne1 0 1\n")
        assert s.e1.edges == {(0, 1)}

    def test_line_order_irrelevant(self):
        a = parse_structure("n 3\ne1 0 1\ne1 1 2")
        b = parse_structure("n 3\ne1 1 2\ne1 0 1")
        assert a == b

    @pytest.mark.parametrize(
        "text, line_no",
        [("n ²", 1), ("n 2\ne1 ² 1", 2), ("n 2\ne2 0 ١", 2), ("n 3\ne1 0 1\ne1 ０ 2", 3)],
    )
    def test_non_ascii_digits_rejected(self, text, line_no):
        with pytest.raises(StructureFormatError) as exc:
            parse_structure(text)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize(
        "text, line_no",
        [("n 2\x0be1 0 5", 1), ("n 2\x0c\ne1 0 5", 2), ("n 2\u2028\ne1 0 5\n", 2), ("n 2\r\ne1 0 5\r\n", 2)],
    )
    def test_lines_end_at_newline_only(self, text, line_no):
        with pytest.raises(StructureFormatError) as exc:
            parse_structure(text)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("n 99999999999999999999\ne1 0 1\n", 1),
            ("n 9223372036854775808\ne1 0 1\n", 1),
            ("# size first\nn 99999999999999999999\ne1 0 1\n", 2),
            ("n 99999999999999999999", 1),
        ],
    )
    def test_domain_size_beyond_int64_rejected(self, text, line_no):
        with pytest.raises(StructureFormatError) as exc:
            parse_structure(text)
        assert exc.value.line_no == line_no

    def test_largest_int64_domain_size_reads(self):
        assert parse_structure("n 9223372036854775807\n").domain_size == 2**63 - 1

    @given(text=ARBITRARY_TEXT)
    @example(text="\ud800")  # a lone surrogate: text with no UTF-8 encoding
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_structure(text)
        except StructureFormatError:
            pass


class TestCanonicalFastPath:
    def test_reads_serialized_files(self, v3, scrambled_v4):
        for s in (v3, scrambled_v4, parse_structure("n 1"), random_dual_structure(9, 4)):
            assert _parse_canonical(serialize_structure(s)) == s

    @pytest.mark.parametrize(
        "text",
        ["# c\nn 2\n", "n 2\n\ne1 0 1\n", "n 2\r\ne1 0 1\n", "n 2\ne1  0 1\n", "n 2\ne1 0 1 \n",
         "n 2\ne1 0 2\n", "n 2\ne1 0 1\ne1 0 1\n", "n ２\n", "n 2\ne3 0 1\n",
         "n 2\ne1 0 0000000000000000001\n"],
    )
    def test_leaves_other_shapes_to_the_scanner(self, text):
        assert _parse_canonical(text) is None

    @given(text=st.one_of(
        ARBITRARY_TEXT,
        st.builds(mutated_file, st.integers(1, 12), st.integers(0, 10_000), st.sampled_from(MUTATIONS),
                  st.integers(0, 1_000)),
    ))
    @example(text="n 1\n\ud800")
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_line_scanner(self, text):
        assert outcome(parse_structure, text) == outcome(_scan_structure, text)

    def test_parse_peak_memory_is_a_few_file_sizes(self):
        # A backtracking regex kept one frame per edge line: about 18 times the file at its peak.
        n = 1 << 16
        chain = dual_structure(n, zip(range(n - 1), range(1, n)), [])
        s = scramble(chain, Permutation.random(n, 3))
        text = serialize_structure(s)
        tracemalloc.start()
        try:
            parsed = parse_structure(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == s
        assert peak < 10 * len(text)


def shuffled_lines(s: DualStructure, seed: int) -> str:
    """s serialized, its header first and its edge lines in a seeded random order."""
    header, *lines = serialize_structure(s).split("\n")[:-1]
    random.Random(seed).shuffle(lines)
    return "\n".join([header, *lines]) + "\n"


class TestCanonicalTagSplit:
    """The canonical reader splits the edge lines by tag, in any order of the lines."""

    @given(size=st.integers(1, 12), seed=st.integers(0, 10_000), order=st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_shuffled_lines_read_as_the_scanner_reads_them(self, size, seed, order):
        s = random_dual_structure(size, seed)
        text = shuffled_lines(s, order)
        parsed = _parse_canonical(text)
        assert parsed is not None
        assert parsed == _scan_structure(text) == s

    def test_e2_block_before_e1(self, scrambled_v4):
        header, *lines = serialize_structure(scrambled_v4).split("\n")[:-1]
        text = "\n".join([header, *[x for x in lines if x.startswith("e2")], *[x for x in lines if x.startswith("e1")]])
        assert _parse_canonical(text + "\n") == scrambled_v4

    @pytest.mark.parametrize(
        "text, e1, e2",
        [
            ("n 3\ne2 1 2\ne2 0 1\n", [], [(0, 1), (1, 2)]),  # only e2 edges
            ("n 4\n", [], []),  # no edges
            ("n 2\ne2 0 1\ne1 0 1\n", [(0, 1)], [(0, 1)]),  # one pair in both relations is no repeat
            ("n 3\ne1 0 2\ne2 0 1\ne1 0 1\ne2 1 2\ne1 1 2\n", [(0, 1), (0, 2), (1, 2)], [(0, 1), (1, 2)]),
        ],
        ids=["only-e2", "no-edges", "one-pair-in-both", "interleaved"],
    )
    def test_reads(self, text, e1, e2):
        expected = dual_structure(int(text.split()[1]), e1, e2)
        assert _parse_canonical(text) == _scan_structure(text) == expected

    @pytest.mark.parametrize(
        "text, message, line_no",
        [
            ("n 2\ne1 0 1\ne2 0 1\ne2 0 1\n", "duplicate edge e2 0 1", 4),  # repeated in e2, held by e1 too
            ("n 3\ne1 0 1\ne2 1 2\ne1 0 1\n", "duplicate edge e1 0 1", 4),  # repeated in e1
        ],
        ids=["repeated-in-e2", "repeated-in-e1"],
    )
    def test_a_repeat_within_a_relation_is_left_to_the_scanner(self, text, message, line_no):
        assert _parse_canonical(text) is None
        assert outcome(parse_structure, text) == (f"line {line_no}: {message}", line_no)


def noncanonical(text: str, kind: str) -> str:
    """A file the canonical reader leaves to the line scanner, with the same lines."""
    if kind == "comments":
        return "# généré\n" + text.replace("\n", "\n# note\n", 1)
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "blank-lines":
        return text.replace("\n", "\n\n")
    return text.removesuffix("\n")  # no final newline


class TestBytesParse:
    @given(
        size=st.integers(1, 12), seed=st.integers(0, 10_000),
        kind=st.sampled_from(("none", "comments", "crlf", "blank-lines", "no-final-newline")),
    )
    @settings(max_examples=150, deadline=None)
    def test_bytes_parse_as_text(self, size, seed, kind):
        s = random_dual_structure(size, seed)
        text = noncanonical(serialize_structure(s), kind)
        assert parse_structure(text.encode()) == parse_structure(text) == s

    @given(text=st.one_of(
        ARBITRARY_TEXT,
        st.builds(mutated_file, st.integers(1, 12), st.integers(0, 10_000), st.sampled_from(MUTATIONS),
                  st.integers(0, 1_000)),
    ))
    @settings(max_examples=300, deadline=None)
    def test_bytes_fail_as_text(self, text):
        assume(not any("\ud800" <= c <= "\udfff" for c in text))  # a lone surrogate is no file's text
        assert outcome(parse_structure, text.encode()) == outcome(parse_structure, text)

    @pytest.mark.parametrize(
        "data, byte, line_no",
        [(b"n 2\r\ne1 0 1\r\n# caf\xff\r\n", 0xff, 3), (b"\x80n 2\n", 0x80, 1), (b"n 2\n\n\n# \xc3", 0xc3, 4)],
    )
    def test_invalid_utf8_names_its_line(self, data, byte, line_no):
        with pytest.raises(StructureFormatError) as exc:
            parse_structure(data)
        assert (str(exc.value), exc.value.line_no) == (f"line {line_no}: byte {byte:#04x} is not valid UTF-8", line_no)


class TestRelationArrays:
    def test_sorted_by_parent_then_child_without_repeats(self):
        rel = MembershipRelation(3, [1, 0, 0, 0], [2, 2, 1, 2])
        assert rel.child.tolist() == [0, 0, 1]
        assert rel.parent.tolist() == [1, 2, 2]
        assert rel == relation_from_edges(3, [(0, 2), (1, 2), (0, 1)])
        assert not rel.child.flags.writeable

    def test_out_of_domain(self):
        with pytest.raises(DualMemError):
            MembershipRelation(2, [0], [2])

    def test_adjacency(self, v3):
        adj = v3.e1.adjacency()
        assert sorted(zip(*map(np.ndarray.tolist, np.nonzero(adj)))) == sorted(v3.e1.edges)
        assert not adj.flags.writeable

    @given(edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_derived_views_match_edges(self, edges):
        rel = relation_from_edges(8, edges)
        assert rel.edges == frozenset(edges)
        for x in range(8):
            assert members(rel, x) == {a for a, b in edges if b == x}
            assert rel.parent_sets()[x] == {b for a, b in edges if a == x}
        order = rel.toposort()
        if reference_toposort(rel) is None:
            assert order is None
        else:
            assert sorted(order) == list(range(8))
            place = {x: i for i, x in enumerate(order)}
            assert all(place[a] < place[b] for a, b in edges)  # every member before its parent
            assert order == tuple(rel.members_first(range(8))[0])

    @given(edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_member_tuples_are_the_sorted_member_sets(self, edges):
        rel = relation_from_edges(8, edges)
        assert [rel.member_tuples()[b] for b in range(8)] == [tuple(sorted(rel.member_sets()[b])) for b in range(8)]

    @given(
        edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=24),
        probes=st.lists(st.frozensets(st.integers(0, 7), max_size=4), max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_realizer_agrees_with_brute_force(self, edges, probes):
        rel = relation_from_edges(8, edges)
        for s in [*rel.member_sets(), *probes]:
            hits = [x for x in range(8) if members(rel, x) == s]
            assert rel.realizer(s) == (hits[0] if len(hits) == 1 else None)
            assert rel.realizer(sorted(s, reverse=True)) == rel.realizer(s)

    @given(size=st.integers(0, 8), edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_extension_index_agrees_with_brute_force(self, size, edges):
        # A tuple is a key iff some element realizes it, and its value is the
        # one realizer, or None when several share it (cycles included).
        edges = [(a, b) for a, b in edges if a < size and b < size]
        rel = relation_from_edges(size, edges)
        realizers: dict[tuple[int, ...], list[int]] = {}
        for x in range(size):
            realizers.setdefault(tuple(sorted({a for a, b in edges if b == x})), []).append(x)
        expected = {key: xs[0] if len(xs) == 1 else None for key, xs in realizers.items()}
        assert rel.fresh_extension_index() == rel.extension_index() == expected

    @given(edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_duplicate_extensions_group_equal_member_sets(self, edges):
        rel = relation_from_edges(8, edges)
        groups: dict[frozenset[int], list[int]] = {}
        for x in range(8):
            groups.setdefault(frozenset(a for a, b in edges if b == x), []).append(x)
        assert rel.duplicate_extensions() == tuple(sorted(tuple(g) for g in groups.values() if len(g) > 1))

    @given(
        size=st.integers(0, 8),
        edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=24),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=150, deadline=None)
    def test_is_extensional_iff_no_duplicate_extensions(self, size, edges, seed):
        # drawn edges (cycles and shared member-sets included), and extensional relations
        drawn = relation_from_edges(size, [(a, b) for a, b in edges if a < size and b < size])
        for rel in (drawn, random_extensional_relation(size + 1, seed)):
            extensional = rel.is_extensional()
            assert "ext_index" not in rel._derived  # decided without building the index
            assert extensional == (not rel.duplicate_extensions())


def reference_member_tuples(rel):
    """Each element's members as a sorted tuple, from the edge pairs."""
    members = [[] for _ in range(rel.domain_size)]
    for a, b in zip(rel.child.tolist(), rel.parent.tolist()):
        members[b].append(a)
    return tuple(tuple(sorted(ms)) for ms in members)


class TestSharedIds:
    """member_tuples() holds the very id objects of _ids(n): no int object per edge."""

    @pytest.mark.parametrize("shape", ["v4", "chain"])
    def test_entries_are_the_shared_ids(self, shape):
        if shape == "v4":
            s = scramble(build_v_universe(4), Permutation.random(16, 7))
        else:  # ids above 256, each a distinct int object unless shared
            n = 1_000
            s = scramble(dual_structure(n, [(x, x + 1) for x in range(n - 1)], []), Permutation.random(n, 2))
        for rel in (s.e1, s.e2):
            tuples, ids = rel.member_tuples(), _ids(s.domain_size)
            assert tuples == reference_member_tuples(rel)
            assert all(x is ids[x] for ms in tuples for x in ms)
            assert sum(map(len, tuples)) == rel.child.size

    @pytest.mark.parametrize(
        "n, e1, e2",
        [(0, [], []), (2, [(0, 1)], []), (300, [(x, x + 1) for x in range(299)], [])],
        ids=["n-0", "one-edge", "empty-beside-full"],
    )
    def test_small_and_empty_relations(self, n, e1, e2):
        s = dual_structure(n, e1, e2)
        for rel in (s.e1, s.e2):
            tuples, ids = rel.member_tuples(), _ids(n)
            assert tuples == reference_member_tuples(rel)
            assert all(x is ids[x] for ms in tuples for x in ms)
        assert s.e2.member_tuples() == ((),) * n

    def test_object_array_holds_the_tuple_ids_after_another_size(self):
        n = 1_000
        _ids(n), _ids(5)  # the cache holds one size: n is built anew
        ids, objects = _ids(n), _id_objects(n)
        assert objects.dtype == object and not objects.flags.writeable
        assert all(a is b for a, b in zip(objects.tolist(), ids, strict=True))


def reference_sorted_edges(child, parent):
    """Reference: the (parent, child) order without repeats, by np.lexsort and a neighbour mask."""
    order = np.lexsort((child, parent))
    child, parent = child[order], parent[order]
    fresh = np.ones(child.size, dtype=bool)
    fresh[1:] = (child[1:] != child[:-1]) | (parent[1:] != parent[:-1])
    return child[fresh], parent[fresh]


class TestKeyedSort:
    def test_limit_is_the_largest_n_whose_keys_fit_in_int64(self):
        assert _KEYED_SORT_MAX == 3_037_000_499
        assert _KEYED_SORT_MAX**2 - 1 <= np.iinfo(np.int64).max < (_KEYED_SORT_MAX + 1) ** 2 - 1

    @given(
        n=st.integers(1, 9),
        pairs=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_lexsort_reference(self, n, pairs):
        child = np.array([a % n for a, _ in pairs], dtype=np.int64)
        parent = np.array([b % n for _, b in pairs], dtype=np.int64)
        rel = MembershipRelation(n, child, parent)
        expected = reference_sorted_edges(child, parent)
        assert rel.child.tolist() == expected[0].tolist()
        assert rel.parent.tolist() == expected[1].tolist()

    @pytest.mark.parametrize("n", [3_037_000_498, 3_037_000_499, 3_037_000_500, 2**62])
    def test_ids_near_the_top_on_both_sides_of_the_limit(self, n):
        top = n - 1
        child = np.array([top, top - 1, top, 0, top, top - 1, 5], dtype=np.int64)
        parent = np.array([top, top, top - 1, top, top, 0, top - 1], dtype=np.int64)
        rel = MembershipRelation(n, child, parent)
        expected = reference_sorted_edges(child, parent)
        assert rel.child.tolist() == expected[0].tolist()
        assert rel.parent.tolist() == expected[1].tolist()
        assert rel.child.size == 6  # the repeated (top, top) is dropped


class TestSerialize:
    def test_size_one(self):
        assert serialize_structure(parse_structure("n 1")) == "n 1\n"

    def test_canonical_order(self):
        s = dual_structure(2, [(0, 1)], [(0, 1)])
        assert serialize_structure(s) == "n 2\ne1 0 1\ne2 0 1\n"

    def test_sorted_by_parent_then_child(self, v3):
        text = serialize_structure(v3)
        assert text.splitlines()[1:5] == ["e1 0 1", "e1 1 2", "e1 0 3", "e1 1 3"]

    def test_round_trip(self, v3, scrambled_v4):
        for s in (v3, scrambled_v4, parse_structure("n 1")):
            assert parse_structure(serialize_structure(s)) == s


class TestVUniverse:
    def test_sizes(self):
        assert [v_universe_size(n) for n in range(6)] == [0, 1, 2, 4, 16, 65536]

    def test_empty_level(self):
        s = build_v_universe(0)
        assert s.domain_size == 0

    def test_level_three_edges(self, v3):
        assert sorted(v3.e1.edges) == [(0, 1), (0, 3), (1, 2), (1, 3)]
        assert v3.e1 == v3.e2

    def test_level_four_size(self, v4):
        assert v4.domain_size == 16

    def test_too_large(self):
        with pytest.raises(DualMemError):
            build_v_universe(6)

    @pytest.mark.parametrize("n", range(6))
    def test_matches_bit_loop(self, n):
        s = build_v_universe(n)
        reference = reference_v_universe(n)
        assert np.array_equal(s.e1.child, reference.child)
        assert np.array_equal(s.e1.parent, reference.parent)
        assert serialize_structure(s) == serialize_structure(DualStructure(reference.domain_size, reference, reference))
        if n == 5:
            assert s.e1.child.size == 524_288


class TestScramble:
    def test_identity(self, v3):
        assert scramble(v3, Permutation((0, 1, 2, 3))) == v3

    def test_swap_example(self, v3):
        s = scramble(v3, Permutation((0, 2, 1, 3)))
        assert sorted(s.e2.edges) == [(0, 2), (0, 3), (2, 1), (2, 3)]
        assert s.e1 == v3.e1

    def test_length_mismatch(self, v3):
        with pytest.raises(DualMemError):
            scramble(v3, Permutation((0, 1, 2)))

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_preserves_edge_count_and_degrees(self, seed):
        base = build_v_universe(4)
        s = scramble(base, Permutation.random(16, seed))
        assert len(s.e2.edges) == len(s.e1.edges)
        degrees = lambda rel: sorted(len(members(rel, x)) for x in range(rel.domain_size))
        assert degrees(s.e2) == degrees(s.e1)


class TestRandomExtensional:
    def test_size_one(self):
        assert random_extensional_relation(1, 3).edges == frozenset()

    def test_size_two(self):
        for seed in range(20):
            edges = random_extensional_relation(2, seed).edges
            assert edges in ({(0, 1)}, {(1, 0)})

    def test_deterministic(self):
        a = random_extensional_relation(8, 42)
        b = random_extensional_relation(8, 42)
        assert a == b

    @given(size=st.integers(1, 24), seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_always_extensional_and_acyclic(self, size, seed):
        rel = random_extensional_relation(size, seed)
        assert rel.is_acyclic()
        assert rel.is_extensional()


class TestTamper:
    def test_add_cycle_on_v2(self):
        v2 = build_v_universe(2)
        s = tamper(v2, "add-cycle", 0)
        assert s.e1.edges == {(0, 1), (1, 0)}
        assert s.e1.find_cycle() is not None

    def test_add_cycle_self_loop_when_no_edges(self):
        s = tamper(parse_structure("n 1"), "add-cycle", 0)
        assert s.e1.edges == {(0, 0)}

    def test_break_extensionality(self, v3):
        s = tamper(v3, "break-extensionality", 5)
        assert not s.e1.is_extensional()
        assert s.e1.is_acyclic()

    def test_break_extensionality_needs_two(self):
        with pytest.raises(DualMemError):
            tamper(parse_structure("n 1"), "break-extensionality", 0)

    def test_remove_edge_keeps_foundation(self, v3):
        s = tamper(v3, "remove-edge", 9)
        assert len(s.e1.edges) == len(v3.e1.edges) - 1
        assert s.e1.is_acyclic()

    def test_unknown_kind(self, v3):
        with pytest.raises(DualMemError):
            tamper(v3, "nonsense", 0)

    @pytest.mark.parametrize(
        "seed, removed, added",
        [
            (0, {(3, 11)}, {(2, 11)}),
            (1, {(3, 8)}, {(1, 8)}),
            (2, {(0, 15), (1, 15), (2, 15), (3, 15)}, set()),
        ],
    )
    def test_break_extensionality_pinned_on_v4(self, v4, seed, removed, added):
        s = tamper(v4, "break-extensionality", seed)
        assert s.e1.edges == (v4.e1.edges - removed) | added

    @pytest.mark.parametrize(
        "seed, removed, added",
        [
            (0, set(), {(7, 2)}),
            (1, {(2, 3), (4, 3)}, set()),
            (2, {(1, 5), (3, 5)}, {(2, 5)}),
        ],
    )
    def test_break_extensionality_pinned_on_cycles(self, two_cycles, seed, removed, added):
        # The closures below each element must tolerate e1's two cycles.
        s = tamper(two_cycles, "break-extensionality", seed)
        assert s.e1.edges == (two_cycles.e1.edges - removed) | added

    @pytest.mark.parametrize("seed", range(4))
    def test_break_extensionality_matches_pair_list(self, seed):
        # The candidate pairs are counted per element; the draw must still
        # pick the pair that rng.choice over the full list would pick.
        for base in tamper_bases(seed):
            for draw in range(3):
                expected = tamper_outcome(reference_tamper, base, "break-extensionality", draw)
                assert tamper_outcome(tamper, base, "break-extensionality", draw) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_add_cycle_and_remove_edge_match_set_reference(self, seed):
        # tamper edits the arrays; it must write what the set-based reference writes.
        for base in tamper_bases(seed):
            for kind in ("add-cycle", "remove-edge"):
                for draw in range(3):
                    expected = tamper_outcome(reference_tamper, base, kind, draw)
                    assert tamper_outcome(tamper, base, kind, draw) == expected, (base.domain_size, kind, draw)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_break_extensionality_never_creates_cycle(self, seed):
        s = tamper(build_v_universe(3), "break-extensionality", seed)
        assert s.e1.is_acyclic() and not s.e1.is_extensional()


class TestFindCycle:
    def test_witness_pinned(self, two_cycles):
        # Roots in ascending id, members in ascending id: from 0 the walk meets
        # 3>4>5>3 before 6>7>6, and the non-cycle prefix 0 is sliced off.
        assert two_cycles.e1.find_cycle() == (3, 4, 5, 3)
        assert two_cycles.e2.find_cycle() is None


def count_whole_domain_walks(monkeypatch) -> list:
    """Patch members_first to record each relation walked from every root."""
    walked = []
    walk = MembershipRelation.members_first

    def counted(rel, roots):
        if (roots := tuple(roots)) == tuple(range(rel.domain_size)):  # the shared id tuple, not a range
            walked.append(rel)
        return walk(rel, roots)

    monkeypatch.setattr(MembershipRelation, "members_first", counted)
    return walked


def renumbered_members_first(rel):
    """rel with each element renumbered by its place in rel's members-first
    order, so that every edge goes up in id."""
    place = [0] * rel.domain_size
    for i, x in enumerate(rel.toposort()):
        place[x] = i
    return apply_permutation(rel, Permutation(tuple(place)))


GOING_UP = {  # relations whose edges all go up in id
    **{f"v{n}": lambda n=n: build_v_universe(n).e1 for n in range(V_UNIVERSE_MAX + 1)},
    "chain-200": lambda: relation_from_edges(200, [(x, x + 1) for x in range(199)]),
    "ordinals-20": lambda: relation_from_edges(20, [(x, y) for y in range(20) for x in range(y)]),
    "random-30": lambda: renumbered_members_first(random_extensional_relation(30, 3)),
}


class TestOneWalk:
    @pytest.mark.parametrize("name", ["scrambled_v4", "two_cycles"])
    def test_one_whole_domain_walk_per_relation(self, monkeypatch, request, name):
        # At most one walk per relation, and none for one whose edges all go
        # up in id: scrambled V4's e1 (V4 itself) and two_cycles' e2 (a chain).
        # A fresh copy, so that no walk cached by another test carries over.
        given_s = request.getfixturevalue(name)
        s = dual_structure(given_s.domain_size, given_s.e1.edges, given_s.e2.edges)
        walked = count_whole_domain_walks(monkeypatch)
        for _ in range(2):
            for rel in (s.e1, s.e2):
                rel.find_cycle(), rel.toposort(), rel.is_acyclic()
                if rel.is_acyclic():
                    rel.ranks()
                else:
                    with pytest.raises(DualMemError):
                        rel.ranks()
        scrambled = s.e2 if name == "scrambled_v4" else s.e1
        assert [id(rel) for rel in walked] == [id(scrambled)]
        assert not np.all(scrambled.child < scrambled.parent)
        assert (s.e1.find_cycle() is None) == (name == "scrambled_v4")

    @pytest.mark.parametrize("name", GOING_UP)
    def test_edges_going_up_order_by_id_without_a_walk(self, monkeypatch, name):
        rel = GOING_UP[name]()
        n = rel.domain_size
        order = tuple(rel.members_first(_ids(n))[0])
        walked = count_whole_domain_walks(monkeypatch)
        fresh = MembershipRelation(n, rel.child, rel.parent)  # nothing cached
        assert np.all(fresh.child < fresh.parent)
        assert fresh.toposort() == order == tuple(range(n))
        assert fresh.find_cycle() is None
        assert walked == []

    @given(size=st.integers(1, 40), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_renumbered_random_relations_order_by_id(self, size, seed):
        rel = renumbered_members_first(random_extensional_relation(size, seed))
        fresh = MembershipRelation(size, rel.child, rel.parent)
        assert fresh.toposort() == tuple(fresh.members_first(_ids(size))[0])
        assert fresh.find_cycle() is None

    @pytest.mark.parametrize(
        ("size", "edges", "order", "cycle"),
        [
            (3, [(0, 1), (2, 2)], None, (2, 2)),  # a self-loop
            (3, [(0, 1), (1, 2), (2, 0)], None, (0, 2, 1, 0)),  # one edge down closes a cycle
            (3, [(0, 1), (2, 1)], (0, 2, 1), None),  # one edge down, acyclic
        ],
    )
    def test_an_edge_not_going_up_walks(self, monkeypatch, size, edges, order, cycle):
        rel = relation_from_edges(size, edges)
        walked = count_whole_domain_walks(monkeypatch)
        assert (rel.toposort(), rel.find_cycle()) == (order, cycle)
        assert cycle == reference_members_first(rel, range(size))[1]
        assert [id(r) for r in walked] == [id(rel)]


def reference_members_first(rel, roots):
    """The members-first walk without the early finish of a root whose members
    are done: every root walks its members one step each."""
    mt = rel.member_tuples()
    done = {}  # False while on the current path
    order = []
    for root in roots:
        if root in done:
            continue
        done[root] = False
        path = [root]
        walks = [iter(mt[root])]
        while walks:
            child = next(walks[-1], None)
            if child is None:
                node = path.pop()
                done[node] = True
                order.append(node)
                walks.pop()
            elif child not in done:
                done[child] = False
                path.append(child)
                walks.append(iter(mt[child]))
            elif not done[child]:
                return order, tuple(path[path.index(child):] + [child])
    return order, None


@st.composite
def walk_relations(draw):
    """A relation of up to 9 elements: arbitrary edges (cycles included), or a
    scrambled acyclic relation (so that a root's members may come after it in
    id order), with self-loops added to some roots."""
    size = draw(st.integers(1, 9))
    edges = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=3 * size))
    if draw(st.booleans()):
        images = Permutation.random(size, draw(st.integers(0, 1_000))).images
        edges = [(images[a], images[b]) for a, b in edges if a < b]
    loops = draw(st.lists(st.integers(0, size - 1), max_size=2))
    return relation_from_edges(size, edges + [(x, x) for x in loops])


class TestWalkAgainstReference:
    def check(self, rel):
        order, cycle = reference_members_first(rel, range(rel.domain_size))
        assert rel.toposort() == (tuple(order) if cycle is None else None)
        assert rel.find_cycle() == cycle
        for x in range(rel.domain_size):
            below, cycle = reference_members_first(rel, (x,))
            if cycle is None:
                assert reachable_postorder(rel, x) == below
            else:
                with pytest.raises(CycleError) as exc:
                    reachable_postorder(rel, x)
                assert exc.value.cycle == cycle

    @given(rel=walk_relations())
    @settings(max_examples=300, deadline=None)
    def test_walks_equal_the_reference(self, rel):
        self.check(rel)

    @pytest.mark.parametrize("name", ["scrambled_v3", "scrambled_v4", "two_cycles"])
    def test_fixtures_equal_the_reference(self, request, name):
        s = request.getfixturevalue(name)
        for rel in (s.e1, s.e2):
            self.check(rel)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(DualMemError):
            Permutation((0, 0, 1))

    def test_random_pair_structure_is_deterministic(self):
        assert random_dual_structure(6, 3) == random_dual_structure(6, 3)
