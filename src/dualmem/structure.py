"""Dual membership structures: types, text format, generators, tamperers.

A structure is one finite domain {0, .., N-1} carrying two edge relations.
An edge (a, b) reads "a is a member of b". Everything here is immutable
after construction; derived data (member-sets, ranks, indexes) is cached
per instance.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import DualMemError, StructureFormatError

Edge = tuple[int, int]


@dataclass(frozen=True)
class MembershipRelation:
    """A set of (child, parent) edges over a dense domain {0, .., domain_size-1}."""

    domain_size: int
    edges: frozenset[Edge]
    _derived: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for a, b in self.edges:
            if not (0 <= a < self.domain_size and 0 <= b < self.domain_size):
                raise DualMemError(f"edge ({a},{b}) outside domain of size {self.domain_size}")

    def member_sets(self) -> tuple[frozenset[int], ...]:
        """member_sets()[b] is the set of members of b."""
        if "members" not in self._derived:
            ms: list[set[int]] = [set() for _ in range(self.domain_size)]
            for a, b in self.edges:
                ms[b].add(a)
            self._derived["members"] = tuple(frozenset(s) for s in ms)
        return self._derived["members"]

    def members(self, b: int) -> frozenset[int]:
        return self.member_sets()[b]

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self.edges

    def parent_sets(self) -> tuple[frozenset[int], ...]:
        if "parents" not in self._derived:
            ps: list[set[int]] = [set() for _ in range(self.domain_size)]
            for a, b in self.edges:
                ps[a].add(b)
            self._derived["parents"] = tuple(frozenset(s) for s in ps)
        return self._derived["parents"]

    def toposort(self) -> tuple[int, ...] | None:
        """Children-first order covering the whole domain, or None if cyclic.

        Deterministic: ties broken by ascending id (Kahn with a sorted frontier).
        """
        if "topo" not in self._derived:
            ms = self.member_sets()
            ps = self.parent_sets()
            pending = [len(ms[x]) for x in range(self.domain_size)]
            frontier = deque(x for x in range(self.domain_size) if pending[x] == 0)
            order: list[int] = []
            while frontier:
                x = frontier.popleft()
                order.append(x)
                for p in sorted(ps[x]):
                    pending[p] -= 1
                    if pending[p] == 0:
                        frontier.append(p)
            self._derived["topo"] = tuple(order) if len(order) == self.domain_size else None
        return self._derived["topo"]

    def find_cycle(self) -> tuple[int, ...] | None:
        """Some directed membership cycle (first element repeated last), or None."""
        if self.toposort() is not None:
            return None
        return self.members_first(range(self.domain_size))[1]

    def members_first(self, roots: Iterable[int]) -> tuple[list[int], tuple[int, ...] | None]:
        """Depth-first walk from each root in turn, members in ascending id.

        Returns the members-first order of everything reached and None, or,
        at the first cycle met, the order so far and the cycle (first element
        repeated last).
        """
        ms = self.member_sets()
        done: dict[int, bool] = {}  # False while on the current path
        order: list[int] = []
        for root in roots:
            if root in done:
                continue
            done[root] = False
            path = [root]
            walks = [iter(sorted(ms[root]))]
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
                    walks.append(iter(sorted(ms[child])))
                elif not done[child]:
                    return order, tuple(path[path.index(child):] + [child])
        return order, None

    def is_acyclic(self) -> bool:
        return self.toposort() is not None

    def ranks(self) -> tuple[int, ...]:
        """ranks()[x] = 0 for empty member-set, else 1 + max member rank.

        Requires acyclicity; raises DualMemError otherwise.
        """
        if "ranks" not in self._derived:
            order = self.toposort()
            if order is None:
                raise DualMemError("ranks undefined on a cyclic relation")
            ms = self.member_sets()
            rk = [0] * self.domain_size
            for x in order:
                if ms[x]:
                    rk[x] = 1 + max(rk[m] for m in ms[x])
            self._derived["ranks"] = tuple(rk)
        return self._derived["ranks"]

    def max_rank(self) -> int:
        return max(self.ranks(), default=0)

    def extension_index(self) -> dict[frozenset[int], tuple[int, ...]]:
        """Map member-set -> ascending ids of the elements realizing it."""
        if "ext_index" not in self._derived:
            index: dict[frozenset[int], list[int]] = {}
            for x, s in enumerate(self.member_sets()):
                index.setdefault(s, []).append(x)
            self._derived["ext_index"] = {s: tuple(xs) for s, xs in index.items()}
        return self._derived["ext_index"]

    def realizer(self, s: frozenset[int]) -> int | None:
        """The unique element whose member-set is s, or None if absent/ambiguous."""
        hits = self.extension_index().get(s)
        return hits[0] if hits is not None and len(hits) == 1 else None

    def duplicate_extensions(self) -> tuple[tuple[int, ...], ...]:
        """Groups of distinct elements sharing a member-set, sorted by least id."""
        groups = [xs for xs in self.extension_index().values() if len(xs) > 1]
        return tuple(sorted(groups))

    def is_extensional(self) -> bool:
        return not self.duplicate_extensions()


@dataclass(frozen=True)
class DualStructure:
    """One domain, two membership relations."""

    domain_size: int
    e1: MembershipRelation
    e2: MembershipRelation
    _derived: dict = field(default_factory=dict, compare=False, repr=False)

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
        return self.relation(tag).has_edge(a, b)


@dataclass(frozen=True)
class Permutation:
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
    return MembershipRelation(domain_size, frozenset((int(a), int(b)) for a, b in edges))


def dual_structure(domain_size: int, e1_edges, e2_edges) -> DualStructure:
    return DualStructure(
        domain_size,
        relation_from_edges(domain_size, e1_edges),
        relation_from_edges(domain_size, e2_edges),
    )


def apply_permutation(rel: MembershipRelation, p: Permutation) -> MembershipRelation:
    if len(p) != rel.domain_size:
        raise DualMemError("permutation length does not match domain size")
    return relation_from_edges(rel.domain_size, ((p(a), p(b)) for a, b in rel.edges))


# -- text format --------------------------------------------------------------

def is_id_token(token: str) -> bool:
    """An element id or size in the text formats: ASCII digits only.

    str.isdigit() alone admits '²', which int() rejects, and '١', which int()
    reads as 1.
    """
    return token.isascii() and token.isdigit()


def parse_structure(text: str) -> DualStructure:
    """Parse the line-oriented structure format.

    Grammar per line: comments starting with '#', a single 'n <N>' header,
    then 'e1 <child> <parent>' / 'e2 <child> <parent>' edge lines.
    Duplicate edges, ids >= N, and malformed tokens are errors with line numbers.
    """
    size: int | None = None
    edges: dict[int, set[Edge]] = {1: set(), 2: set()}
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
        for a, b in sorted(s.relation(tag).edges, key=lambda e: (e[1], e[0])):
            lines.append(f"e{tag} {a} {b}")
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
    edges = []
    for b in range(size):
        m = b
        while m:
            a = (m & -m).bit_length() - 1
            edges.append((a, b))
            m &= m - 1
    rel = relation_from_edges(size, edges)
    return DualStructure(size, rel, rel)


def scramble(s: DualStructure, p: Permutation) -> DualStructure:
    """Keep e1, replace e2 by the p-image of e1; p is then an isomorphism e1 -> e2."""
    if len(p) != s.domain_size:
        raise DualMemError("permutation length does not match domain size")
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


TAMPER_KINDS = ("add-cycle", "break-extensionality", "remove-edge")


def tamper(s: DualStructure, kind: str, seed: int) -> DualStructure:
    """Return a copy with e1 mutated to violate one targeted axiom."""
    rng = random.Random(seed)
    edges = set(s.e1.edges)
    if kind == "add-cycle":
        if s.domain_size < 1:
            raise DualMemError("add-cycle needs a nonempty domain")
        candidates = [(b, a) for a, b in sorted(edges) if (b, a) not in edges]
        if candidates:
            edges.add(rng.choice(candidates))
        else:
            x = rng.randrange(s.domain_size)
            edges.add((x, x))
    elif kind == "break-extensionality":
        if s.domain_size < 2:
            raise DualMemError("break-extensionality needs at least two elements")
        ms = s.e1.member_sets()
        pairs = [(a, b) for a in range(s.domain_size) for b in range(s.domain_size)
                 if a != b and ms[a] != ms[b] and not _reaches_any(s.e1, ms[a], b)]
        if not pairs:
            raise DualMemError("no pair can be equalized without creating a cycle")
        a, b = rng.choice(pairs)
        edges = {(c, p) for c, p in edges if p != b} | {(m, b) for m in ms[a]}
    elif kind == "remove-edge":
        if not edges:
            raise DualMemError("remove-edge needs at least one e1 edge")
        edges.remove(rng.choice(sorted(edges)))
    else:
        raise DualMemError(f"unknown tamper kind {kind!r}; expected one of {TAMPER_KINDS}")
    return DualStructure(s.domain_size, relation_from_edges(s.domain_size, edges), s.e2)


def _reaches_any(rel: MembershipRelation, starts: frozenset[int], target: int) -> bool:
    # True if target is membership-reachable from (or equal to) any start.
    seen = set(starts)
    queue = deque(starts)
    while queue:
        x = queue.popleft()
        if x == target:
            return True
        for m in rel.members(x):
            if m not in seen:
                seen.add(m)
                queue.append(m)
    return False
