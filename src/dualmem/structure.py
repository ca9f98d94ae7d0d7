"""Dual membership structures: types, text format, generators, tamperers.

A structure is one finite domain {0, .., N-1} carrying two edge relations.
An edge (a, b) reads "a is a member of b". A relation is stored as two int64
arrays, ``child`` and ``parent``, holding each edge once, sorted by (parent,
child): the order of the canonical text format. Everything here is immutable
after construction. Derived data is built from the arrays on first use and
cached per instance. The per-element view is ``member_tuples()``: each
element's members as an ascending tuple, cut once from compressed sparse row
(CSR) offsets in O(edges). Ranks, traversals and the extension index (keyed
by those tuples) read it. One members-first walk over the whole domain,
cached per relation, gives both the members-first order (``toposort()``,
which ``ranks()`` and the whole-domain sweeps read) and the first cycle met
(``find_cycle()``, ``is_acyclic()``). Membership tests read the tuples too;
the formula tables read the adjacency matrix, which find-iso never builds.
``member_sets()`` and ``parent_sets()`` build frozensets afresh on each call,
for tests and the benchmark replay; no command calls them. Generators and
tamperers build and edit the arrays.
"""

from __future__ import annotations

import functools
import operator
import random
import re
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import CycleError, DualMemError, Record, StructureFormatError

Edge = tuple[int, int]
_KEYED_SORT_MAX = 3_037_000_499  # isqrt(2**63 - 1): up to this n, parent * n + child < n * n fits in int64


class MembershipRelation(Record):
    """(child, parent) edges over a dense domain {0, .., domain_size-1}.

    The constructor takes the two id sequences in any order, with repeats;
    it stores them as read-only int64 arrays sorted by (parent, child)
    without repeats, by the one int64 key parent * n + child while n <=
    _KEYED_SORT_MAX (the largest n with n * n < 2**63), by np.lexsort above
    it. Two relations are equal when their domain sizes and edge sets are.
    """

    domain_size: int
    child: np.ndarray
    parent: np.ndarray
    # Derived data, filled on first use; no fields, as the names start with
    # "_". __post_init__ sets each with object.__setattr__: a write to the
    # instance __dict__ (as by functools.cached_property) would slow every later
    # attribute read, and the lemma suite reads _member_tuples millions of times.
    _member_tuples: tuple[tuple[int, ...], ...] | None
    _derived: dict

    def __post_init__(self):
        n = self.domain_size
        child = np.array(self.child, dtype=np.int64).reshape(-1)
        parent = np.array(self.parent, dtype=np.int64).reshape(-1)
        if child.shape != parent.shape:
            raise DualMemError("child and parent ids differ in number")
        outside = (child < 0) | (child >= n) | (parent < 0) | (parent >= n)
        if outside.any():
            i = int(outside.argmax())
            raise DualMemError(f"edge ({child[i]},{parent[i]}) outside domain of size {n}")
        if not _canonical_order(child, parent):
            if n <= _KEYED_SORT_MAX:  # one int64 key: about 8 times faster than lexsort on V5's edges
                parent, child = np.divmod(np.sort(parent * n + child), n)
            else:
                order = np.lexsort((child, parent))
                child, parent = child[order], parent[order]
            fresh = np.ones(child.size, dtype=bool)
            fresh[1:] = (child[1:] != child[:-1]) | (parent[1:] != parent[:-1])
            child, parent = child[fresh], parent[fresh]
        child.flags.writeable = parent.flags.writeable = False
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "_member_tuples", None)
        object.__setattr__(self, "_derived", {})

    def __eq__(self, other):
        if not isinstance(other, MembershipRelation):
            return NotImplemented
        return (
            self.domain_size == other.domain_size
            and np.array_equal(self.child, other.child)
            and np.array_equal(self.parent, other.parent)
        )

    def __hash__(self):
        return hash((self.domain_size, self.child.tobytes(), self.parent.tobytes()))

    @property
    def edges(self) -> frozenset[Edge]:
        """The set of (child, parent) pairs, built afresh on each access."""
        return frozenset(zip(self.child.tolist(), self.parent.tolist()))

    def member_tuples(self) -> tuple[tuple[int, ...], ...]:
        """member_tuples()[b] is the tuple of members of b in ascending id,
        cut from the CSR offsets of the parent array. This is the view that
        indexing, ranks, traversals and matching read."""
        if self._member_tuples is None:
            offsets, child, ids = _offsets(self.parent, self.domain_size), self.child.tolist(), _ids(self.domain_size)
            # The shared id objects; itemgetter returns a tuple only for two ids or more.
            ids = operator.itemgetter(*child)(ids) if len(child) > 1 else tuple(ids[c] for c in child)
            tuples = tuple(ids[offsets[b]:offsets[b + 1]] for b in range(self.domain_size))
            object.__setattr__(self, "_member_tuples", tuples)
        return self._member_tuples

    def member_sets(self) -> tuple[frozenset[int], ...]:
        """member_sets()[b] is the set of members of b, built afresh on each call."""
        return tuple(map(frozenset, self.member_tuples()))

    def parent_sets(self) -> tuple[frozenset[int], ...]:
        """parent_sets()[a] is the set of elements a is a member of, built afresh on each call."""
        offsets = _offsets(self.child, self.domain_size)
        ids = self.parent[np.argsort(self.child, kind="stable")].tolist()
        return tuple(frozenset(ids[offsets[a]:offsets[a + 1]]) for a in range(self.domain_size))

    def adjacency(self) -> np.ndarray:
        """The read-only n-by-n boolean matrix that is True exactly at [child, parent] of an edge."""
        if "adjacency" not in self._derived:
            matrix = np.zeros((self.domain_size, self.domain_size), dtype=bool)
            matrix[self.child, self.parent] = True
            matrix.flags.writeable = False
            self._derived["adjacency"] = matrix
        return self._derived["adjacency"]

    def toposort(self) -> tuple[int, ...] | None:
        """Members-first order covering the whole domain, or None if cyclic.

        Deterministic: the order of _walk(), a depth-first walk from each root
        in ascending id, members in ascending id.
        """
        return self._walk()[0]

    def find_cycle(self) -> tuple[int, ...] | None:
        """The first membership cycle _walk() meets (first element repeated last), or None."""
        return self._walk()[1]

    def _walk(self) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
        """(order, None) from members_first over the whole domain, or (None,
        cycle) when it meets a cycle; walked once and cached. When every edge
        goes up in id, each root's members finish before it, so that order is
        the ids ascending and nothing is walked."""
        if "walk" not in self._derived:
            ids = _ids(self.domain_size)
            order, cycle = (ids, None) if np.all(self.child < self.parent) else self.members_first(ids)
            self._derived["walk"] = (tuple(order) if cycle is None else None, cycle)
        return self._derived["walk"]

    def members_first(self, roots: Iterable[int]) -> tuple[list[int], tuple[int, ...] | None]:
        """Depth-first walk from each root in turn, members in ascending id.

        Returns the members-first order of everything reached and None, or,
        at the first cycle met, the order so far and the cycle (first element
        repeated last). A root whose members are all finished is finished at
        once, without a step per member: the walk would only pass over them.
        """
        mt = self.member_tuples()
        done: dict[int, bool] = {}  # False while on the current path
        order: list[int] = []
        for root in roots:
            if root in done:
                continue
            if all(map(done.get, mt[root])):
                done[root] = True
                order.append(root)
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

    def is_acyclic(self) -> bool:
        return self.find_cycle() is None

    def ranks(self) -> tuple[int, ...]:
        """ranks()[x] = 0 for empty member-set, else 1 + max member rank.

        Requires acyclicity; raises DualMemError otherwise.
        """
        if "ranks" not in self._derived:
            order = self.toposort()
            if order is None:
                raise DualMemError("ranks undefined on a cyclic relation")
            mt = self.member_tuples()
            rk = [0] * self.domain_size
            for x in order:
                if mt[x]:
                    rk[x] = 1 + max(map(rk.__getitem__, mt[x]))
            self._derived["ranks"] = tuple(rk)
        return self._derived["ranks"]

    def max_rank(self) -> int:
        return max(self.ranks(), default=0)

    def extension_index(self) -> dict[tuple[int, ...], int | None]:
        """fresh_extension_index(), built on first use and cached."""
        if "ext_index" not in self._derived:
            self._derived["ext_index"] = self.fresh_extension_index()
        return self._derived["ext_index"]

    def fresh_extension_index(self) -> dict[tuple[int, ...], int | None]:
        """Map each realized ascending member tuple (a set s is looked up by tuple(sorted(s)))
        to the element realizing it, or to None when several share it; built afresh on each call."""
        tuples, ids = self.member_tuples(), _ids(self.domain_size)
        index = dict(zip(tuples, ids))  # the last realizer of each tuple
        if len(index) < self.domain_size:  # some tuple is shared: every other realizer marks it
            for members, x in zip(tuples, ids):
                if index[members] != x:
                    index[members] = None
        return index

    def realizer(self, s: Iterable[int]) -> int | None:
        """The unique element whose member-set is s, or None if absent/ambiguous."""
        return self.extension_index().get(tuple(sorted(s)))

    def duplicate_extensions(self) -> tuple[tuple[int, ...], ...]:
        """Groups of distinct elements sharing a member-set, sorted by least id."""
        if len(self.extension_index()) == self.domain_size:
            return ()
        groups: dict[tuple[int, ...], list[int]] = {}
        for x, members in enumerate(self.member_tuples()):
            groups.setdefault(members, []).append(x)
        return tuple(sorted(tuple(xs) for xs in groups.values() if len(xs) > 1))

    def is_extensional(self) -> bool:
        """No two elements share a member-set: decided once from a transient
        set of the member tuples, so no extension index is built or cached."""
        if "extensional" not in self._derived:
            self._derived["extensional"] = len(set(self.member_tuples())) == self.domain_size
        return self._derived["extensional"]


def _canonical_order(child: np.ndarray, parent: np.ndarray) -> bool:
    """True when the edges are strictly ascending by (parent, child)."""
    later, earlier = parent[1:], parent[:-1]
    return bool(np.all((later > earlier) | ((later == earlier) & (child[1:] > child[:-1]))))


@functools.lru_cache(maxsize=1)
def _ids(n: int) -> tuple[int, ...]:
    """The ids 0..n-1, one object each (each int above 256 is a new object), shared by every view."""
    return tuple(range(n))


def _offsets(keys: np.ndarray, n: int) -> list[int]:
    """CSR offsets of sorted keys in {0, .., n-1}: key k occupies [offsets[k], offsets[k + 1])."""
    return [0, *np.cumsum(np.bincount(keys, minlength=n)).tolist()]


class DualStructure(Record):
    """One domain, two membership relations."""

    domain_size: int
    e1: MembershipRelation
    e2: MembershipRelation

    def __post_init__(self):
        if self.e1.domain_size != self.domain_size or self.e2.domain_size != self.domain_size:
            raise DualMemError("relation domain sizes disagree with structure size")

    def relation(self, tag: int) -> MembershipRelation:
        if tag == 1:
            return self.e1
        if tag == 2:
            return self.e2
        raise DualMemError(f"relation tag must be 1 or 2, got {tag}")

    def contains(self, tag: int, a: int, b: int) -> bool:
        """Whether a is a member of b in relation tag, read from b's member tuple."""
        return a in self.relation(tag).member_tuples()[b]


class Permutation(Record):
    """A bijection on {0, .., n-1} given by its image sequence."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise DualMemError("not a permutation: every id must occur exactly once")

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __len__(self) -> int:
        return len(self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation(tuple(inv))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def random(cls, n: int, seed: int) -> "Permutation":
        images = list(range(n))
        random.Random(seed).shuffle(images)
        return cls(tuple(images))


def relation_from_edges(domain_size: int, edges) -> MembershipRelation:
    """The relation holding the given (child, parent) pairs."""
    try:
        pairs = np.array([(int(a), int(b)) for a, b in edges], dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise DualMemError(f"edge id beyond the supported range, domain size {domain_size}") from None
    return MembershipRelation(domain_size, pairs[:, 0], pairs[:, 1])


def dual_structure(domain_size: int, e1_edges, e2_edges) -> DualStructure:
    return DualStructure(
        domain_size,
        relation_from_edges(domain_size, e1_edges),
        relation_from_edges(domain_size, e2_edges),
    )


def apply_permutation(rel: MembershipRelation, p: Permutation) -> MembershipRelation:
    if len(p) != rel.domain_size:
        raise DualMemError("permutation length does not match domain size")
    images = np.array(p.images, dtype=np.int64)
    return MembershipRelation(rel.domain_size, images[rel.child], images[rel.parent])


def reachable_postorder(rel: MembershipRelation, x: int, tag: int | None = None) -> list[int]:
    """Members-first order of the part reachable from (and including) x.

    Raises CycleError when that part has a membership cycle; cycles elsewhere
    in the relation are not consulted.
    """
    order, cycle = rel.members_first((x,))
    if cycle is not None:
        raise CycleError(cycle, tag)
    return order


def transitive_closure(rel: MembershipRelation, x: int, include_self: bool = False) -> frozenset[int]:
    """Least set containing x's members (and x itself when asked) closed under members."""
    if not (0 <= x < rel.domain_size):
        raise DualMemError(f"element {x} outside domain of size {rel.domain_size}")
    members = rel.member_tuples()
    seen: set[int] = set()
    queue = list(members[x])
    while queue:
        t = queue.pop()
        if t not in seen:
            seen.add(t)
            queue.extend(members[t])
    if include_self:
        seen.add(x)
    return frozenset(seen)


# -- text format --------------------------------------------------------------

def is_id_token(token: str) -> bool:
    """An element id or size in the text formats: ASCII digits only.

    str.isdigit() alone admits '²', which int() rejects, and '١', which int()
    reads as 1.
    """
    return token.isascii() and token.isdigit()


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of a text file, numbered from 1.

    Lines end at '\n' only, and a trailing '\r' is dropped. str.splitlines()
    would also break at '\x0b', '\x0c', '\x1c'-'\x1e', '\x85', '\u2028' and
    '\u2029', so its line numbers could disagree with the file's.
    """
    for line_no, line in enumerate(text.split("\n"), start=1):
        yield line_no, line.removesuffix("\r")


def parse_structure(text: str | bytes) -> DualStructure:
    """Parse the line-oriented structure format, from its text or its bytes.

    Grammar per line: comments starting with '#', a single 'n <N>' header,
    then 'e1 <child> <parent>' / 'e2 <child> <parent>' edge lines.
    Duplicate edges, ids >= N, an N beyond int64 and malformed tokens are
    errors with line numbers.
    Files in the shape serialize_structure writes are read by array operations;
    everything else, and every error, goes through the line scanner. Bytes
    are decoded as UTF-8 only for the scanner, and a byte that is not UTF-8
    is an error naming its line.
    """
    s = _parse_canonical(text)
    if s is not None:
        return s
    return _scan_structure(decode_utf8(text) if isinstance(text, bytes) else text)


def decode_utf8(data: bytes) -> str:
    """A file's bytes as UTF-8 text; a byte that is not UTF-8 is a
    StructureFormatError naming its line, lines ending at '\n'."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise StructureFormatError(f"byte {exc.object[exc.start]:#04x} is not valid UTF-8", line_no) from None


# Ids are stored as int64, so a larger 'n' header is a format error.
_MAX_DOMAIN_SIZE = int(np.iinfo(np.int64).max)

# 'n <N>' and then only edge lines, single spaces, each line ended by '\n'.
# At most 18 digits per id keeps every id within int64. The quantifiers are
# possessive: every digit run ends at a non-digit and every line at 'e' or the
# end, so giving nothing back accepts the same files, and the matcher keeps no
# backtracking frame per edge line (with greedy ones it held about 16 times
# the file size at its peak).
_CANONICAL = re.compile(rb"n ([0-9]+)\n(?:e[12] [0-9]{1,18}+ [0-9]{1,18}+\n)*+")


def _parse_canonical(data: str | bytes) -> DualStructure | None:
    """The structure in a file of the canonical shape, or None.

    The shape is _CANONICAL, edge lines in any order, with every id below N
    and no edge repeated. On anything else (comments, blank lines, '\r',
    other whitespace, non-ASCII text, an N beyond int64, an id out of range,
    a repeated edge) it returns None, and the line scanner decides and reports.
    """
    if isinstance(data, str):
        data = data.encode(errors="surrogatepass")  # non-ASCII text becomes bytes the shape has no place for
    if not data.endswith(b"\n"):
        data += b"\n"
    match = _CANONICAL.fullmatch(data)
    if match is None:
        return None
    size = int(match[1])
    if size > _MAX_DOMAIN_SIZE:
        return None
    # Without the 'n' of the header and the 'e' of each tag, the file is
    # integers: the size, then per edge line tag, child and parent.
    values = np.fromstring(data.translate(None, b"en"), dtype=np.int64, sep=" ")
    lines = data.count(b"\n") - 1
    if values.size != 1 + 3 * lines:
        return None
    rows = values[1:].reshape(lines, 3)
    if lines and int(rows[:, 1:].max()) >= size:
        return None
    relations = []
    for tag in (1, 2):
        picked = rows[rows[:, 0] == tag]
        rel = MembershipRelation(size, picked[:, 1], picked[:, 2])
        if rel.child.size != len(picked):  # a repeated edge
            return None
        relations.append(rel)
    return DualStructure(size, *relations)


def _scan_structure(text: str) -> DualStructure:
    """The line scanner: reads any file in the format and reports every error."""
    size: int | None = None
    edges: dict[int, set[Edge]] = {1: set(), 2: set()}
    for line_no, raw in numbered_lines(text):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if size is not None:
                raise StructureFormatError("duplicate 'n' header", line_no)
            if len(tokens) != 2 or not is_id_token(tokens[1]):
                raise StructureFormatError("header must be 'n <N>'", line_no)
            size = int(tokens[1])
            if size > _MAX_DOMAIN_SIZE:
                raise StructureFormatError(f"domain size {size} does not fit in int64", line_no)
        elif tokens[0] in ("e1", "e2"):
            if size is None:
                raise StructureFormatError("edge before 'n' header", line_no)
            if len(tokens) != 3 or not (is_id_token(tokens[1]) and is_id_token(tokens[2])):
                raise StructureFormatError(f"edge line must be '{tokens[0]} <child> <parent>'", line_no)
            a, b = int(tokens[1]), int(tokens[2])
            if a >= size or b >= size:
                raise StructureFormatError(f"vertex id {max(a, b)} outside domain of size {size}", line_no)
            tag = int(tokens[0][1])
            if (a, b) in edges[tag]:
                raise StructureFormatError(f"duplicate edge {tokens[0]} {a} {b}", line_no)
            edges[tag].add((a, b))
        else:
            raise StructureFormatError(f"unrecognized token {tokens[0]!r}", line_no)
    if size is None:
        raise StructureFormatError("missing 'n' header")
    return dual_structure(size, edges[1], edges[2])


def serialize_structure(s: DualStructure) -> str:
    """Canonical form: header, then per relation the edges sorted by (parent, child)."""
    lines = [f"n {s.domain_size}"]
    for tag in (1, 2):
        rel = s.relation(tag)
        lines.extend(f"e{tag} {a} {b}" for a, b in zip(rel.child.tolist(), rel.parent.tolist()))
    return "\n".join(lines) + "\n"


# -- generators ----------------------------------------------------------------

V_UNIVERSE_MAX = 5


def v_universe_size(n: int) -> int:
    size = 0
    for _ in range(n):
        size = 2 ** size
    return size


def build_v_universe(n: int) -> DualStructure:
    """The n-th cumulative level with both relations equal to real membership.

    Element i stands for the hereditarily finite set with binary-sum code i:
    (a, b) is an edge exactly when bit a of b is set.
    """
    if n < 0:
        raise DualMemError("level index must be >= 0")
    if n > V_UNIVERSE_MAX:
        raise DualMemError(f"level {n} exceeds the supported bound {V_UNIVERSE_MAX} (size 2^65536)")
    size = v_universe_size(n)
    # Row b holds the bits of b; its nonzeros come row-major, ordered by (parent, child).
    parent, child = np.nonzero(np.arange(size)[:, None] >> np.arange(max(size - 1, 0).bit_length()) & 1)
    rel = MembershipRelation(size, child, parent)
    return DualStructure(size, rel, rel)


def scramble(s: DualStructure, p: Permutation) -> DualStructure:
    """Keep e1, replace e2 by the p-image of e1; p is then an isomorphism e1 -> e2."""
    return DualStructure(s.domain_size, s.e1, apply_permutation(s.e1, p))


_REJECTION_TRIES = 32


def random_extensional_relation(size: int, seed: int) -> MembershipRelation:
    """Seeded acyclic relation in which distinct elements have distinct member-sets.

    Elements are placed in a random order; each receives a random subset of the
    already-placed ones, rejected while the subset mask is taken, with a
    deterministic linear-probe fallback so termination never depends on luck.
    """
    if size < 1:
        raise DualMemError("size must be >= 1")
    rng = random.Random(seed)
    placement = list(range(size))
    rng.shuffle(placement)
    used_masks: set[int] = set()
    edges: list[Edge] = []
    for i, elem in enumerate(placement):
        space = 1 << i
        mask = rng.getrandbits(i) if i else 0
        for _ in range(_REJECTION_TRIES):
            if mask not in used_masks:
                break
            mask = rng.getrandbits(i) if i else 0
        else:
            while mask in used_masks:
                mask = (mask + 1) % space
        used_masks.add(mask)
        for j in range(i):
            if mask >> j & 1:
                edges.append((placement[j], elem))
    return relation_from_edges(size, edges)


def random_dual_structure(size: int, seed: int) -> DualStructure:
    """Two independently seeded extensional relations on one domain."""
    return DualStructure(
        size,
        random_extensional_relation(size, seed * 2 + 1),
        random_extensional_relation(size, seed * 2 + 2),
    )


def _closure_bits(rel: MembershipRelation) -> list[int]:
    """Bit t of the x-th int is set when t is in transitive_closure(rel, x).

    One members-first pass when rel is acyclic; around a cycle the passes
    repeat until nothing changes.
    """
    members = rel.member_tuples()
    order = rel.toposort()
    below = [0] * rel.domain_size
    while True:
        changed = False
        for x in order or range(rel.domain_size):
            bits = 0
            for m in members[x]:
                bits |= below[m] | 1 << m
            changed |= bits != below[x]
            below[x] = bits
        if order is not None or not changed:
            return below


TAMPER_KINDS = ("add-cycle", "break-extensionality", "remove-edge")


def tamper(s: DualStructure, kind: str, seed: int) -> DualStructure:
    """Return a copy with e1 mutated to violate one targeted axiom."""
    rng = random.Random(seed)
    n, child, parent = s.domain_size, s.e1.child, s.e1.parent
    if kind == "add-cycle":
        if n < 1:
            raise DualMemError("add-cycle needs a nonempty domain")
        # The candidates (b, a), for the edges (a, b) in ascending order, that
        # are no edges themselves: the edges of the reversed relation, in its
        # canonical order, that e1 lacks. The work is per edge, not per element.
        back = MembershipRelation(n, parent, child)
        both = np.concatenate((back.child, child)), np.concatenate((back.parent, parent))
        order = np.lexsort(both)  # stable: of a pair in both, back's copy comes first
        twin = (np.diff(both[0][order]) == 0) & (np.diff(both[1][order]) == 0)
        options = np.delete(np.arange(back.child.size), order[:-1][twin])  # the pairs of back that e1 lacks
        if options.size:
            pick = options[rng.randrange(options.size)]
            child, parent = np.append(child, back.child[pick]), np.append(parent, back.parent[pick])
        else:
            x = rng.randrange(n)
            child, parent = np.append(child, x), np.append(parent, x)
    elif kind == "break-extensionality":
        if n < 2:
            raise DualMemError("break-extensionality needs at least two elements")
        # The candidates are the pairs (a, b), a-major, with b outside a's
        # closure and a's member set: counted per a, then indexed, which is
        # the draw rng.choice makes over the listed pairs.
        mt = s.e1.member_tuples()
        below = _closure_bits(s.e1)
        alike: dict[tuple[int, ...], int] = {}
        for a, members in enumerate(mt):
            alike[members] = alike.get(members, 0) | 1 << a
        everything = (1 << n) - 1

        def candidates(a: int) -> int:
            return everything & ~(below[a] | alike[mt[a]])

        counts = [candidates(a).bit_count() for a in range(n)]
        if not any(counts):
            raise DualMemError("no pair can be equalized without creating a cycle")
        index = rng.randrange(sum(counts))
        a = 0
        while index >= counts[a]:
            index -= counts[a]
            a += 1
        bits = candidates(a)
        for _ in range(index):
            bits &= bits - 1  # drop the least candidate
        b = (bits & -bits).bit_length() - 1
        kept, members = parent != b, np.array(mt[a], dtype=np.int64)
        child, parent = np.append(child[kept], members), np.append(parent[kept], np.full(members.size, b))
    elif kind == "remove-edge":
        if not child.size:
            raise DualMemError("remove-edge needs at least one e1 edge")
        drop = np.lexsort((parent, child))[rng.randrange(child.size)]  # the draw over sorted pairs
        child, parent = np.delete(child, drop), np.delete(parent, drop)
    else:
        raise DualMemError(f"unknown tamper kind {kind!r}; expected one of {TAMPER_KINDS}")
    return DualStructure(n, MembershipRelation(n, child, parent), s.e2)
