"""Canonical hereditarily finite sets: the independent collapse oracle.

A set is an integer uid, interned under its key, the ascending uids of its
members (``_INTERN`` maps keys to uids, ``_KEYS`` uids to keys), so two sets
are equal iff their uids are. The collapse works on uids only. An ``HfCode``
is made once per uid, when a code is asked for, so codes compare by identity
even where the binary-sum numeral would be astronomically large. Numerals are
computed only on demand. Rendering, numerals and ranks walk the member uids
in ``_KEYS`` with loops and explicit stacks: a deep chain does not exhaust the
recursion limit, and no member code is made. Five tables are process-global
and single-threaded by contract: ``_INTERN``, ``_KEYS``, ``_CODES`` and the
numeral memos ``_ACK_MEMO`` and ``_DECODE_MEMO``. Ranks and the numeral order
rendering sorts by are computed per call. Every operation is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .errors import CycleError, DualMemError
from .structure import V_UNIVERSE_MAX, MembershipRelation

_INTERN: dict[tuple[int, ...], int] = {}  # ascending member uids -> uid
_KEYS: list[tuple[int, ...]] = []  # _KEYS[uid] is the key interned under uid
_CODES: dict[int, "HfCode"] = {}  # uid -> its code object, for the uids asked for so far
_ACK_MEMO: dict[int, int] = {}  # uid -> its numeral, for the uids asked for so far
_DECODE_MEMO: dict[int, "HfCode"] = {}  # numeral -> its code


class HfCode:
    """A canonical HF set: HfCode(uid) is the one object of an interned uid.
    Its member codes, sorted strictly by uid, are made from its key on first read."""

    __slots__ = ("_members", "uid")

    def __new__(cls, uid: int):
        code = _CODES.get(uid)
        if code is None:
            code = _CODES[uid] = super().__new__(cls)
            code._members, code.uid = None, uid
        return code

    @property
    def members(self) -> tuple["HfCode", ...]:
        if self._members is None:
            self._members = tuple(map(HfCode, _KEYS[self.uid]))
        return self._members

    def __repr__(self):
        return f"HfCode({render_hf(self)})"

    def __hash__(self):
        return self.uid

    def __len__(self):
        return len(_KEYS[self.uid])

    def __iter__(self):
        return iter(self.members)


def intern_hf(members) -> HfCode:
    """The unique code whose member collection is the given codes (deduplicated)."""
    return HfCode(_intern_uids(tuple(sorted({m.uid for m in members}))))


def _intern_uids(key: tuple[int, ...]) -> int:
    """The uid of the set whose members have exactly the uids in key (ascending, no repeats)."""
    uid = _INTERN.setdefault(key, len(_KEYS))
    if uid == len(_KEYS):
        _KEYS.append(key)
    return uid


EMPTY: HfCode = intern_hf(())


def render_hf(x: HfCode) -> str:
    """Nested braces, members in ascending numeral order: the report format."""
    place = _numeral_places(x.uid)
    # What a uid's "{" pushes: "}", then its members descending with commas
    # between, so that they are popped ascending.
    pushed: dict[int, list[int | str]] = {}
    for u in place:
        members = sorted(_KEYS[u], key=place.__getitem__, reverse=True)
        pushed[u] = ["}", *[t for m in members for t in (m, ",")][:-1]]
    parts: list[str] = []
    todo: list[int | str] = [x.uid]  # a stack of uids still to render and literal tokens
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


def _below(uid: int, memo: dict[int, int]) -> list[int]:
    """The uids reachable from uid (uid included) that are not in memo,
    members first, each once; no code is made."""
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


def ackermann_code(x: HfCode) -> int:
    """code({}) = 0; code(x) = sum over members m of 2**code(m)."""
    for u in _below(x.uid, _ACK_MEMO):
        _ACK_MEMO[u] = sum(1 << _ACK_MEMO[m] for m in _KEYS[u])
    return _ACK_MEMO[x.uid]


def ackermann_code_if_below(x: HfCode, bound: int) -> int | None:
    """The numeral of x when it is < bound, else None.

    Never materializes an out-of-bound numeral (a deep chain's numeral is a
    power tower, so the unbounded form can be unprintable even when the code
    itself is tiny). One members-first walk saturates every numeral at bound:
    sat(c) = min(sum of 2**min(sat(m), cap), bound) with cap the bit length
    of bound. A member numeral e >= cap puts 2**e over bound, so sat(c) is
    the exact numeral whenever it is below bound.
    """
    if bound <= 0:
        return None
    cap = bound.bit_length()
    sat: dict[int, int] = {}
    for u in _below(x.uid, sat):
        sat[u] = min(sum(1 << min(sat[m], cap) for m in _KEYS[u]), bound)
    return sat[x.uid] if sat[x.uid] < bound else None


def decode_ackermann(n: int) -> HfCode:
    """Inverse of ackermann_code."""
    if n < 0:
        raise DualMemError("numerals are non-negative")
    got = _DECODE_MEMO.get(n)
    if got is None:
        members = []
        m = n
        while m:
            bit = (m & -m).bit_length() - 1
            members.append(decode_ackermann(bit))
            m &= m - 1
        got = intern_hf(members)
        _DECODE_MEMO[n] = got
        _ACK_MEMO.setdefault(got.uid, n)
    return got


def hf_rank(x: HfCode) -> int:
    """0 for the empty set, else 1 + max member rank."""
    return _ranks(x.uid)[x.uid]


def v_level_codes(n: int) -> frozenset[HfCode]:
    """All HF sets of rank < n; the n-th cumulative level as a set of codes."""
    if n < 0:
        raise DualMemError("level index must be >= 0")
    if n > V_UNIVERSE_MAX:
        raise DualMemError(f"level {n} exceeds the supported bound {V_UNIVERSE_MAX}")
    level: frozenset[HfCode] = frozenset()
    for _ in range(n):
        codes = list(level)  # the subsets do not depend on the order
        level = frozenset(
            intern_hf([codes[i] for i in range(len(codes)) if mask >> i & 1])
            for mask in range(1 << len(codes))
        )
    return level


# -- collapse -----------------------------------------------------------------

def collapse(rel: MembershipRelation, x: int, tag: int | None = None) -> HfCode:
    """The collapse of x: each element reachable from x, members first, is
    replaced by the set of its members' values. A cycle below x is a hard
    error; elements with equal values merge unflagged (collapse_domain lists
    such groups).
    """
    if not (0 <= x < rel.domain_size):
        raise DualMemError(f"element {x} outside domain of size {rel.domain_size}")
    order, cycle = rel.members_first((x,))
    if cycle is not None:
        raise CycleError(cycle, tag)
    return HfCode(_collapse_uids(rel.member_tuples(), order, {})[x])


@dataclass(frozen=True)
class DomainCollapse:
    """Collapse values for every element of a relation's domain: uids[x] is
    the uid of x's collapse, and HfCode(uids[x]) its code, made when asked for."""

    uids: tuple[int, ...]
    duplicate_groups: tuple[tuple[int, ...], ...]

    @property
    def extensional(self) -> bool:
        return not self.duplicate_groups

    def image(self) -> frozenset[HfCode]:
        return frozenset(map(HfCode, set(self.uids)))


def collapse_domain(rel: MembershipRelation, tag: int | None = None) -> DomainCollapse:
    """Collapse every element; raises CycleError (with a witness) on cyclic input."""
    order = rel.toposort()
    if order is None:
        raise CycleError(rel.find_cycle(), tag)
    uids = _collapse_uids(rel.member_tuples(), order, [0] * rel.domain_size)
    return DomainCollapse(tuple(uids), _duplicate_groups(uids))


def _collapse_uids(members: tuple[tuple[int, ...], ...], order, uid):
    """Fill uid[x] with the uid of x's collapse for each x of a members-first
    order, interning each member-uid key not met before; no code is made."""
    uid_of = uid.__getitem__
    for x in order:
        ms = members[x]  # a key of at most one member needs no set or sort
        uid[x] = _intern_uids(tuple(sorted(set(map(uid_of, ms)))) if len(ms) > 1 else tuple(map(uid_of, ms)))
    return uid


def _duplicate_groups(uids: list[int]) -> tuple[tuple[int, ...], ...]:
    """Groups of elements sharing a collapse, given uids[x], the uid of element x's collapse."""
    if len(set(uids)) == len(uids):
        return ()
    by_code: dict[int, list[int]] = {}
    for elem, u in enumerate(uids):
        by_code.setdefault(u, []).append(elem)
    return tuple(sorted(tuple(g) for g in by_code.values() if len(g) > 1))
