"""Canonical hereditarily finite sets: the independent collapse oracle.

A set is an integer uid, interned under its key, the ascending uids of its
members (``_INTERN`` maps keys to uids, ``_KEYS`` uids to keys), so two sets
are equal iff their uids are. The collapse works on uids only. An ``HfCode``
is made once per uid, when a code is asked for, so codes compare by identity
even where the binary-sum numeral would be astronomically large. Numerals are
computed only on demand. Comparison, rendering, numerals and ranks walk with
loops and explicit stacks, so a deep chain does not exhaust the interpreter's
recursion limit. The intern tables are process-global and single-threaded by
contract; every operation is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from .errors import CycleError, DualMemError
from .structure import MembershipRelation

_INTERN: dict[tuple[int, ...], int] = {}  # ascending member uids -> uid
_KEYS: list[tuple[int, ...]] = []  # _KEYS[uid] is the key interned under uid
_CODES: dict[int, "HfCode"] = {}  # uid -> its code object, for the uids asked for so far
_ACK_MEMO: dict[int, int] = {}
_RANK_MEMO: dict[int, int] = {}
_CMP_MEMO: dict[tuple[int, int], int] = {}
_SORTED_MEMO: dict[int, tuple["HfCode", ...]] = {}
_DECODE_MEMO: dict[int, "HfCode"] = {}


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


def hf_compare(x: HfCode, y: HfCode) -> int:
    """Order by binary-sum numeral without materializing it.

    Two distinct sets differ at their largest non-shared member (highest
    differing bit): whichever set contains it is the larger. That member pair
    is compared the same way, so the walk goes down one pair per rank until a
    memoized pair or a pair whose shared prefix decides by length; every pair
    on the way gets the same result.
    """
    if x is y:
        return 0
    path: list[tuple[HfCode, HfCode]] = []
    while True:
        cached = _CMP_MEMO.get((x.uid, y.uid))
        if cached is not None:
            result = cached
            break
        path.append((x, y))
        xs, ys = _members_descending(x), _members_descending(y)
        first = next(((mx, my) for mx, my in zip(xs, ys) if mx is not my), None)
        if first is None:
            result = (len(xs) > len(ys)) - (len(xs) < len(ys))
            break
        x, y = first
    for a, b in path:
        _CMP_MEMO[(a.uid, b.uid)] = result
        _CMP_MEMO[(b.uid, a.uid)] = -result
    return result


def _members_descending(x: HfCode) -> tuple[HfCode, ...]:
    """x's members in descending numeral order.

    The codes below x are sorted members first, so each sort compares codes
    whose own members are already sorted, and hf_compare's walk never starts
    another sort: the call depth stays constant however deep x is.
    """
    got = _SORTED_MEMO.get(x.uid)
    if got is None:
        key = cmp_to_key(hf_compare)
        for code in _unmemoized_below(x, _SORTED_MEMO):
            _SORTED_MEMO[code.uid] = tuple(sorted(code.members, key=key, reverse=True))
        got = _SORTED_MEMO[x.uid]
    return got


def render_hf(x: HfCode) -> str:
    """Nested braces, members in ascending numeral order: the report format."""
    parts: list[str] = []
    todo: list[HfCode | str] = [x]  # a stack of codes still to render and literal tokens
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append("{")
        todo.append("}")
        members = _members_descending(item)
        for i, m in enumerate(members, start=1):  # pushed descending, so popped ascending
            todo.append(m)
            if i < len(members):
                todo.append(",")
    return "".join(parts)


def _unmemoized_below(x: HfCode, memo: dict[int, int]) -> list[HfCode]:
    """The codes reachable from x (x included) whose uid is not in memo,
    members first, each once."""
    if x.uid in memo:
        return []
    seen = {x.uid}
    order: list[HfCode] = []
    stack = [(x, iter(x.members))]
    while stack:
        code, members = stack[-1]
        for m in members:
            if m.uid not in memo and m.uid not in seen:
                seen.add(m.uid)
                stack.append((m, iter(m.members)))
                break
        else:
            stack.pop()
            order.append(code)
    return order


def ackermann_code(x: HfCode) -> int:
    """code({}) = 0; code(x) = sum over members m of 2**code(m)."""
    for code in _unmemoized_below(x, _ACK_MEMO):
        _ACK_MEMO[code.uid] = sum(1 << _ACK_MEMO[m.uid] for m in code.members)
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
    for code in _unmemoized_below(x, sat):
        sat[code.uid] = min(sum(1 << min(sat[m.uid], cap) for m in code.members), bound)
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
    for code in _unmemoized_below(x, _RANK_MEMO):
        _RANK_MEMO[code.uid] = 1 + max(_RANK_MEMO[m.uid] for m in code.members) if code.members else 0
    return _RANK_MEMO[x.uid]


V_LEVEL_MAX = 5


def v_level_codes(n: int) -> frozenset[HfCode]:
    """All HF sets of rank < n; the n-th cumulative level as a set of codes."""
    if n < 0:
        raise DualMemError("level index must be >= 0")
    if n > V_LEVEL_MAX:
        raise DualMemError(f"level {n} exceeds the supported bound {V_LEVEL_MAX}")
    level: frozenset[HfCode] = frozenset()
    for _ in range(n):
        codes = sorted(level, key=cmp_to_key(hf_compare))
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
