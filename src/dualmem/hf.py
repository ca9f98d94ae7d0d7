"""Canonical hereditarily finite sets: the independent collapse oracle.

A set is an integer uid, interned under its key, the ascending uids of its
members (``_INTERN`` maps keys to uids, ``_KEYS`` uids to keys), so two sets
are equal iff their uids are. The uid is the oracle's one value: collapses
return uids, and rendering and numerals take them. Numerals are computed
only on demand. Rendering and numerals walk the member uids in ``_KEYS`` with
loops and explicit stacks: a deep chain does not exhaust the recursion limit.
The two tables are process-global and single-threaded by contract. Ranks and
the numeral order rendering sorts by are computed per call. Elements sharing
a collapse are grouped by uid, and only on a non-extensional relation, where
some two always do. Every operation is deterministic.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby

from .errors import CycleError, DualMemError, Record
from .structure import MembershipRelation, reachable_postorder

_INTERN: dict[tuple[int, ...], int] = {}  # ascending member uids -> uid
_KEYS: list[tuple[int, ...]] = []  # _KEYS[uid] is the key interned under uid


def _intern_uids(key: tuple[int, ...]) -> int:
    """The uid of the set whose members have exactly the uids in key (ascending, no repeats)."""
    uid = _INTERN.setdefault(key, len(_KEYS))
    if uid == len(_KEYS):
        _KEYS.append(key)
    return uid


def render_hf(uid: int) -> str:
    """Nested braces, members in ascending numeral order: the report format.
    A set that two sets below uid hold has its text built once, members
    first, and pasted; the rest streams through a stack, without recursion."""
    place = _numeral_places(uid)
    uses = Counter(m for u in place for m in _KEYS[u])
    # What a uid's "{" pushes: "}", then its members descending with commas
    # between, so that they are popped ascending; a member with a text is pushed as it.
    pushed: dict[int, list[int | str]] = {}
    text: dict[int, str] = {}
    for u in place:  # ascending numeral order: every member comes before its sets
        members = sorted(_KEYS[u], key=place.__getitem__, reverse=True)
        pushed[u] = ["}", *[t for m in members for t in (text.get(m, m), ",")][:-1]]
        if uses[u] > 1:
            text[u] = _stream(u, pushed)
    return _stream(uid, pushed)


def _stream(uid: int, pushed: dict[int, list[int | str]]) -> str:
    """uid's text: a "{" and then what pushed says it pushes, for each uid popped."""
    parts: list[str] = []
    todo: list[int | str] = [uid]  # a stack of uids still to render and literal tokens
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
        else:
            parts.append("{")
            todo.extend(pushed[item])
    return "".join(parts)


def _numeral_places(uid: int) -> dict[int, int]:
    """Each uid below uid (itself included) mapped to its place in ascending
    numeral order among them.

    A set of higher rank has the larger numeral. Two sets of one rank differ
    at their largest non-shared member (highest differing bit), and the set
    holding it is the larger: they compare as the descending lists of their
    members' places. Members have lower ranks, so sorting the rank layers
    upwards places every member before the sets that hold it.
    """
    rank = _ranks(uid)
    place: dict[int, int] = {}
    for _, layer in groupby(sorted(rank, key=rank.__getitem__), key=rank.__getitem__):
        for u in sorted(layer, key=lambda v: sorted(map(place.__getitem__, _KEYS[v]), reverse=True)):
            place[u] = len(place)
    return place


def _below(uid: int, memo: dict[int, int], depth: int | None = None) -> list[int] | None:
    """The uids reachable from uid (uid included) that are not in memo,
    members first, each once. With depth given, None as soon as the walk
    meets a chain of depth + 1 uids from uid down, each a member of the one
    before: uid's rank is then at least depth."""
    if uid in memo:
        return []
    seen = {uid}
    order: list[int] = []
    stack = [(uid, iter(_KEYS[uid]))]
    while stack:
        u, members = stack[-1]
        for m in members:
            if m not in memo and m not in seen:
                seen.add(m)
                stack.append((m, iter(_KEYS[m])))
                if depth is not None and len(stack) > depth:
                    return None
                break
        else:
            stack.pop()
            order.append(u)
    return order


def _ranks(uid: int) -> dict[int, int]:
    """The rank of each uid below uid (itself included), members first."""
    rank: dict[int, int] = {}
    for u in _below(uid, rank):
        key = _KEYS[u]
        rank[u] = 1 + max(map(rank.__getitem__, key)) if key else 0
    return rank


def ackermann_code_if_below(uid: int, bound: int) -> int | None:
    """The numeral of uid's set when it is < bound, else None. The numeral
    is code({}) = 0, code(x) = sum over members m of 2**code(m).

    Never materializes an out-of-bound numeral (a deep chain's numeral is a
    power tower, so the unbounded form can be unprintable even when the code
    itself is tiny). One members-first walk saturates every numeral at bound:
    sat(c) = min(sum of 2**min(sat(m), cap), bound) with cap the bit length
    of bound. A member numeral e >= cap puts 2**e over bound, so sat(c) is
    the exact numeral whenever it is below bound.

    The walk stops early at a rank that forces the numeral past bound: a set
    of rank r + 1 has a member of rank r, so its numeral is at least
    low(r + 1) = 2**low(r), with low(0) = 0 (rank 6: at least 2**65536).
    """
    if bound <= 0:
        return None
    cap = bound.bit_length()
    depth, low = 1, 0  # low = low(depth - 1); once low >= cap, low(depth) >= 2**cap > bound
    while low < cap:
        depth, low = depth + 1, 1 << low
    sat: dict[int, int] = {}
    order = _below(uid, sat, depth)
    if order is None:
        return None
    for u in order:
        sat[u] = min(sum(1 << min(sat[m], cap) for m in _KEYS[u]), bound)
    return sat[uid] if sat[uid] < bound else None


# -- collapse -----------------------------------------------------------------

def collapse(rel: MembershipRelation, x: int, tag: int | None = None) -> int:
    """The uid of x's collapse: each element reachable from x, members first,
    is replaced by the set of its members' values. A cycle below x is a hard
    error; elements with equal values merge unflagged (collapse_domain lists
    such groups).
    """
    if not (0 <= x < rel.domain_size):
        raise DualMemError(f"element {x} outside domain of size {rel.domain_size}")
    return _collapse_uids(rel.member_tuples(), reachable_postorder(rel, x, tag), {})[x]


class DomainCollapse(Record):
    """Collapse values for every element of a relation's domain: uids[x] is
    the uid of x's collapse."""

    uids: tuple[int, ...]
    duplicate_groups: tuple[tuple[int, ...], ...]

    def image(self) -> frozenset[int]:
        return frozenset(self.uids)


def collapse_domain(rel: MembershipRelation, tag: int | None = None) -> DomainCollapse:
    """Collapse every element; raises CycleError (with a witness) on cyclic input.

    The collapse of a well-founded extensional relation is injective: no
    element shares its collapse, and no key repeats a uid.
    """
    order = rel.toposort()
    if order is None:
        raise CycleError(rel.find_cycle(), tag)
    distinct = rel.is_extensional()
    uids = _collapse_uids(rel.member_tuples(), order, [0] * rel.domain_size, distinct)
    return DomainCollapse(tuple(uids), () if distinct else _duplicate_groups(uids))


def is_collapse(rel: MembershipRelation, uids) -> bool:
    """Whether each uids[y] is interned under exactly the ascending uids of
    y's members: the collapse's own recursion, checked without a walk or a
    new key.

    A key holds only uids older than its own, so uids that pass fall strictly
    along membership: rel is well-founded, and by induction on rank each
    uids[y] is the uid of y's collapse. On an extensional relation the
    converse holds too; elsewhere two members with one collapse fail it.
    """
    uid_of = uids.__getitem__
    for u, ms in zip(uids, rel.member_tuples()):
        if _KEYS[u] != ((uid_of(ms[0]),) if len(ms) == 1 else tuple(sorted(map(uid_of, ms)))):
            return False
    return True


def _collapse_uids(members: tuple[tuple[int, ...], ...], order, uid, distinct: bool = False):
    """Fill uid[x] with the uid of x's collapse for each x of a members-first
    order, interning each member-uid key not met before. With distinct (no
    two members of one element share a collapse), no key is deduplicated."""
    uid_of = uid.__getitem__
    for x in order:
        ms = members[x]
        if len(ms) == 1:  # a one-member key needs neither a set nor a sort
            uid[x] = _intern_uids((uid_of(ms[0]),))
        else:  # with distinct, no key needs a set
            uid[x] = _intern_uids(tuple(sorted(map(uid_of, ms) if distinct else set(map(uid_of, ms)))))
    return uid


def _duplicate_groups(uids: list[int]) -> tuple[tuple[int, ...], ...]:
    """Groups of elements sharing a collapse, given uids[x], the uid of element x's collapse."""
    by_code: dict[int, list[int]] = {}
    for elem, u in enumerate(uids):
        by_code.setdefault(u, []).append(elem)
    return tuple(sorted(tuple(g) for g in by_code.values() if len(g) > 1))
