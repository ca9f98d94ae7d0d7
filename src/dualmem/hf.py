"""Canonical hereditarily finite sets: the independent collapse oracle.

Identity is by interning: two codes are the same set iff they are the same
object, so equality is constant-time even where the binary-sum numeral would
be astronomically large. Numerals are computed only on demand. The intern
table is process-global and single-threaded by contract; every operation is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from .errors import CycleError, DualMemError
from .structure import MembershipRelation

_INTERN: dict[tuple[int, ...], "HfCode"] = {}
_ACK_MEMO: dict[int, int] = {}
_RANK_MEMO: dict[int, int] = {}
_CMP_MEMO: dict[tuple[int, int], int] = {}
_SORTED_MEMO: dict[int, tuple["HfCode", ...]] = {}
_DECODE_MEMO: dict[int, "HfCode"] = {}


class HfCode:
    """A canonical HF set: a uid plus member codes sorted strictly by uid."""

    __slots__ = ("members", "uid", "__weakref__")

    def __init__(self, members: tuple["HfCode", ...], uid: int):
        self.members = members
        self.uid = uid

    def __repr__(self):
        return f"HfCode({render_hf(self)})"

    def __hash__(self):
        return self.uid

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def intern_hf(members) -> HfCode:
    """The unique code whose member collection is the given codes (deduplicated)."""
    key = tuple(sorted({m.uid for m in members}))
    code = _INTERN.get(key)
    if code is None:
        by_uid = {m.uid: m for m in members}
        code = HfCode(tuple(by_uid[u] for u in key), len(_INTERN))
        _INTERN[key] = code
    return code


EMPTY: HfCode = intern_hf(())


def hf_compare(x: HfCode, y: HfCode) -> int:
    """Order by binary-sum numeral without materializing it.

    Two distinct sets differ at their largest non-shared member (highest
    differing bit): whichever set contains it is the larger.
    """
    if x is y:
        return 0
    key = (x.uid, y.uid)
    cached = _CMP_MEMO.get(key)
    if cached is not None:
        return cached
    xs, ys = _members_descending(x), _members_descending(y)
    result = 0
    for mx, my in zip(xs, ys):
        c = hf_compare(mx, my)
        if c:
            result = c
            break
    else:
        result = (len(xs) > len(ys)) - (len(xs) < len(ys))
    _CMP_MEMO[key] = result
    _CMP_MEMO[(y.uid, x.uid)] = -result
    return result


def _members_descending(x: HfCode) -> tuple[HfCode, ...]:
    got = _SORTED_MEMO.get(x.uid)
    if got is None:
        got = tuple(sorted(x.members, key=cmp_to_key(hf_compare), reverse=True))
        _SORTED_MEMO[x.uid] = got
    return got


def render_hf(x: HfCode) -> str:
    """Nested braces, members in ascending numeral order: the report format."""
    return "{" + ",".join(render_hf(m) for m in reversed(_members_descending(x))) + "}"


def ackermann_code(x: HfCode) -> int:
    """code({}) = 0; code(x) = sum over members m of 2**code(m)."""
    got = _ACK_MEMO.get(x.uid)
    if got is None:
        got = sum(1 << ackermann_code(m) for m in x.members)
        _ACK_MEMO[x.uid] = got
    return got


def ackermann_code_if_below(x: HfCode, bound: int) -> int | None:
    """The numeral of x when it is < bound, else None.

    Never materializes an out-of-bound numeral: exponents are capped level by
    level (a deep chain's numeral is a power tower, so the unbounded form can
    be unprintable even when the code itself is tiny).
    """
    if not x.members:
        return 0 if bound > 0 else None
    exponent_cap = bound.bit_length()
    total = 0
    for m in x.members:
        cm = ackermann_code_if_below(m, exponent_cap)
        if cm is None:
            return None
        total += 1 << cm
        if total >= bound:
            return None
    return total


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
    got = _RANK_MEMO.get(x.uid)
    if got is None:
        got = 1 + max(hf_rank(m) for m in x.members) if x.members else 0
        _RANK_MEMO[x.uid] = got
    return got


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

@dataclass(frozen=True)
class CollapseResult:
    """Collapse of the part reachable from one element.

    ``mapping`` covers exactly the elements reachable from (and including) the
    start; ``duplicate_groups`` lists reachable elements merged to one code,
    the warning flag for a non-extensional reachable part.
    """

    code: HfCode
    mapping: dict[int, HfCode]
    duplicate_groups: tuple[tuple[int, ...], ...]

    @property
    def extensional(self) -> bool:
        return not self.duplicate_groups


def collapse_result(rel: MembershipRelation, x: int, tag: int | None = None) -> CollapseResult:
    """Recursively replace every reachable element by the set of its members' values.

    A cycle below x is a hard error; merged elements are only flagged.
    """
    if not (0 <= x < rel.domain_size):
        raise DualMemError(f"element {x} outside domain of size {rel.domain_size}")
    order, cycle = rel.members_first((x,))
    if cycle is not None:
        raise CycleError(cycle, tag)
    ms = rel.member_sets()
    mapping: dict[int, HfCode] = {}
    for node in order:
        mapping[node] = intern_hf([mapping[m] for m in ms[node]])
    by_code: dict[int, list[int]] = {}
    for elem in sorted(mapping):
        by_code.setdefault(mapping[elem].uid, []).append(elem)
    duplicates = tuple(sorted(tuple(g) for g in by_code.values() if len(g) > 1))
    return CollapseResult(mapping[x], mapping, duplicates)


def collapse(rel: MembershipRelation, x: int, tag: int | None = None) -> HfCode:
    return collapse_result(rel, x, tag).code


@dataclass(frozen=True)
class DomainCollapse:
    """Collapse values for every element of a relation's domain."""

    codes: tuple[HfCode, ...]
    duplicate_groups: tuple[tuple[int, ...], ...]

    @property
    def extensional(self) -> bool:
        return not self.duplicate_groups

    def image(self) -> frozenset[HfCode]:
        return frozenset(self.codes)


def collapse_domain(rel: MembershipRelation, tag: int | None = None) -> DomainCollapse:
    """Collapse every element; raises CycleError (with a witness) on cyclic input."""
    order = rel.toposort()
    if order is None:
        raise CycleError(rel.find_cycle(), tag)
    ms = rel.member_sets()
    codes: list[HfCode | None] = [None] * rel.domain_size
    for x in order:
        codes[x] = intern_hf([codes[m] for m in ms[x]])
    by_code: dict[int, list[int]] = {}
    for elem in range(rel.domain_size):
        by_code.setdefault(codes[elem].uid, []).append(elem)
    duplicates = tuple(sorted(tuple(g) for g in by_code.values() if len(g) > 1))
    return DomainCollapse(tuple(codes), duplicates)
