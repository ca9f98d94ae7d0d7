"""The definable-isomorphism construction and its certificates.

The matching is the paper's recursion on membership: each e1 element goes to
the e2 element whose members are exactly the images of its members. One
members-first sweep (``_match``) computes it: ``partners`` runs it over the
whole domain, ``build_witness`` below x, and ``extend_to_level`` over an
internal level. ``read_off`` turns the whole-domain sweep into either a
re-checkable bijection or the ids of the elements with no partner;
``global_isomorphism`` validates e1 and runs the sweep: a bijection is the
certificate, and otherwise e2 is validated before ``read_off``. The ordinal
and internal-level functions are the construction that the level-extension
lemma checks; the global map does not run them.

The collapse oracle (hf module) is never consulted by the construction. Only
``render_diagnostic``, which renders the collapse of each unmatched element,
and the CLI's ``--oracle-check`` read it.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import hf
from .errors import CycleError, DualMemError, LevelExtensionError, NonExtensionalError, Record
from .structure import DualStructure, MembershipRelation, edge_keys, reachable_postorder, sort_edges


def _match(
    s: DualStructure, order, index: dict[tuple[int, ...], int | None], partner: dict | list | None = None
) -> dict[int, int | None] | list[int | None]:
    """The partner of each element of a members-first e1 order, in that order:
    the unique e2 element whose members are exactly its members' partners (by
    index, e2's extension index), or None when there is none, several, or a
    member without one. The sweep goes on past a failure; a None propagates upward.
    It fills partner, indexed by element: a new dict by default, or a list of
    domain size for a whole-domain order. Returns partner.
    """
    mt1 = s.e1.member_tuples()
    lookup = index.get
    if partner is None:
        partner = {}
    image = partner.__getitem__
    for t in order:
        ms = mt1[t]
        if len(ms) == 1:  # a one-member key needs no sort, and (None,) is no e2 element's key
            partner[t] = lookup((image(ms[0]),))
            continue
        try:  # among several, a None image does not sort with ids, or else makes a key that no e2 element has
            partner[t] = lookup(tuple(sorted(map(image, ms))))
        except TypeError:
            partner[t] = None
    return partner


def build_witness(s: DualStructure, x: int, y: int) -> dict[int, int] | None:
    """The unique witness for (x, y) when one exists; None when matching fails.

    The witness is the matching sweep's own map on the e1 closure of x, in
    members-first order with x last. Each call runs the sweep below x, which
    also fails on a non-injective map (impossible on an extensional e1).
    Cycles below x (in e1) or below y (in e2) are errors, distinct from
    absence: the witness predicate presupposes well-founded closures. The walk
    below y runs only when e2 has a cycle somewhere, to find out whether one
    lies below y.
    """
    for t in (x, y):
        if not (0 <= t < s.domain_size):
            raise DualMemError(f"element {t} outside domain of size {s.domain_size}")
    if not s.e2.is_acyclic():
        reachable_postorder(s.e2, y, tag=2)  # for its CycleError only
    f = _match(s, reachable_postorder(s.e1, x, tag=1), s.e2.extension_index())
    if f[x] != y or len(set(f.values())) < len(f):
        return None
    return f  # f[x] == y, so no value is None: a None would have reached x


def _witness_conditions(
    s: DualStructure, x: int, y: int, f: dict[int, int], tc1: frozenset[int], tc2: frozenset[int]
) -> dict[str, bool]:
    """Check each witness condition for an arbitrary candidate map f, given
    tc1 and tc2, the closures below-and-including x in e1 and y in e2, so
    that many candidate maps can share them. This is the brute-force side of
    the uniqueness property: it never calls the construction. A value outside
    the domain fails preserves-membership, which reads the member tuples."""
    domain_ok = set(f) == set(tc1)
    into = domain_ok and all(f[t] in tc2 for t in tc1)
    onto = domain_ok and {f[t] for t in tc1} == set(tc2)
    mt1, mt2 = s.e1.member_tuples(), s.e2.member_tuples()
    preserves = domain_ok and all(f[t] in range(s.domain_size) for t in tc1) and all(
        (t in mt1[w]) == (f[t] in mt2[f[w]]) for t in tc1 for w in tc1
    )
    return {
        "domain": domain_ok,
        "into-closure": into,
        "onto-closure": onto,
        "preserves-membership": preserves,
        "maps-top": domain_ok and f.get(x) == y,
    }


# -- ordinals and levels ---------------------------------------------------------

def _is_transitive_set(rel: MembershipRelation, x: int) -> bool:
    mt = rel.member_tuples()
    members = frozenset(mt[x])
    return all(members.issuperset(mt[t]) for t in mt[x])


def is_ordinal(rel: MembershipRelation, x: int) -> bool:
    """A transitive element all of whose members are transitive."""
    return _is_transitive_set(rel, x) and all(_is_transitive_set(rel, t) for t in rel.member_tuples()[x])


def internal_level(s: DualStructure, tag: int, alpha: int) -> int | None:
    """The element realizing the cumulative level indexed by the ordinal
    alpha inside relation tag, or None when no element does: the internal
    power set iterated along alpha's position gives the level's extension.
    """
    rel = s.relation(tag)
    if not is_ordinal(rel, alpha):
        raise DualMemError(f"element {alpha} is not an ordinal of e{tag}")
    mt = rel.member_tuples()
    extension: frozenset[int] = frozenset()
    for _ in range(len(mt[alpha])):
        extension = frozenset(x for x in range(rel.domain_size) if extension.issuperset(mt[x]))
    return rel.realizer(extension)


def extend_to_level(s: DualStructure, x: int, y: int) -> dict[int, int]:
    """Extend the matched ordinal pair (x, y) to the witness for its level pair:
    the sweep's map on the e1 level of x, in members-first order with the
    level element last.

    Mirrors the successor construction: each element of the level maps to the
    e2 element collecting exactly the images of its members. Raises
    DualMemError when x (then y) is not an ordinal, and LevelExtensionError
    naming the ordinal whose level is missing (e1 first), the element whose
    image set is unrealized, or a top-level mismatch; the caller checks
    containment against the witness for (x, y).
    """
    lev1, lev2 = internal_level(s, 1, x), internal_level(s, 2, y)
    if lev1 is None:
        raise LevelExtensionError("missing-level", x, 1)
    if lev2 is None:
        raise LevelExtensionError("missing-level", y, 2)
    extended = _match(s, reachable_postorder(s.e1, lev1, tag=1), s.e2.extension_index())
    for u, v in extended.items():  # members first: the first None has all its members matched
        if v is None:
            raise LevelExtensionError("unrealized-image", u, 2)
    if extended[lev1] != lev2:
        raise LevelExtensionError("level-mismatch", lev1, 2)
    return extended


def restriction_agrees(x: int, w: dict[int, int], wider: dict[int, int]) -> bool:
    """Containment of w, the witness for an ordinal pair with top x, in wider,
    the witness for its level pair, below x.

    The top point itself outranks the level for positions >= 3 (its rank
    equals the level index), so literal containment is checked only where the
    domains can overlap.
    """
    return all(wider.get(t) == ft for t, ft in w.items() if t != x or t in wider)


# -- the global map ----------------------------------------------------------------

class IsoCertificate(Record):
    """A total bijection h with a e1 b iff h(a) e2 h(b)."""

    mapping: tuple[int, ...]


class FailureDiagnostic(Record):
    """Which side(s) of the matched-pair relation fail to cover the domain.

    Each side lists its unmatched element ids ordered by (rank, id); only
    render_diagnostic turns them into collapse renderings.
    """

    case: str  # both-directions-fail | e1-element-unmatched | e2-element-unmatched
    unmatched_e1: tuple[int, ...]
    unmatched_e2: tuple[int, ...]


def partners(s: DualStructure) -> list[int | None]:
    """partners(s)[x] is the e2 element matched to x, or None when x has none.

    The matching sweep over all of e1 in toposort order, by a fresh e2 index
    that it drops. On an extensional e1 these are exactly the pairs
    build_witness certifies. Requires e1 acyclic.
    """
    return _match(s, s.e1.toposort(), s.e2.fresh_extension_index(), [None] * s.domain_size)


def global_isomorphism(s: DualStructure) -> IsoCertificate | FailureDiagnostic:
    """Validate e1, match the whole domain in one members-first sweep and read
    the result off it.

    The ordinal and level stages of the proof are not run here; the
    level-extension lemma checks them. Requires both relations acyclic and
    extensional (typed errors otherwise, e1's first). A bijective sweep maps
    each element's members onto its partner's: an isomorphism, so e2 is
    acyclic and extensional as e1 is, and is validated only otherwise.
    Extensionality is tested without an extension index; e2's is built once,
    by the sweep.
    """
    _validate(s, 1)
    partner = partners(s)
    if None not in partner and len(set(partner)) == s.domain_size:
        return IsoCertificate(tuple(partner))
    _validate(s, 2)
    return read_off(s, partner)


def _validate(s: DualStructure, tag: int) -> None:
    """Raise CycleError, then NonExtensionalError, for relation tag of s."""
    rel = s.relation(tag)
    cycle = rel.find_cycle()
    if cycle is not None:
        raise CycleError(cycle, tag)
    if not rel.is_extensional():
        dupes = rel.duplicate_extensions()  # builds the index only to name the pair
        raise NonExtensionalError((dupes[0][0], dupes[0][1]), tag)


def read_off(s: DualStructure, partner: list[int | None]) -> IsoCertificate | FailureDiagnostic:
    """The certificate when partner, a partners(s) list, is total and onto;
    otherwise the diagnostic listing the unmatched ids of each side, whose
    witnesses are re-checkable. Requires both relations acyclic.
    """
    matched2 = {y for y in partner if y is not None}
    unmatched1 = [x for x in range(s.domain_size) if partner[x] is None]
    unmatched2 = [y for y in range(s.domain_size) if y not in matched2]
    if not unmatched1 and not unmatched2:
        return IsoCertificate(tuple(partner))

    if unmatched1 and unmatched2:
        case = "both-directions-fail"
    elif unmatched2:
        case = "e2-element-unmatched"
    else:
        case = "e1-element-unmatched"
    ranks1, ranks2 = s.e1.ranks(), s.e2.ranks()
    return FailureDiagnostic(
        case,
        tuple(sorted(unmatched1, key=lambda x: (ranks1[x], x))),
        tuple(sorted(unmatched2, key=lambda y: (ranks2[y], y))),
    )


def verify_certificate(s: DualStructure, cert: IsoCertificate) -> bool:
    """Re-check a certificate from the definitions only.

    h must be a bijection on the domain (n distinct images, each in range),
    and the h-image of e1's edges, the pairs (h[child], h[parent]), must be
    exactly e2's edges: a e1 b iff h(a) e2 h(b). A bijection maps e1's
    distinct edges to distinct pairs in range, so no relation is built: the
    image's sorted edge keys must equal e2's, which ascend as e2 is stored.
    """
    h = cert.mapping
    n = s.domain_size
    if len(h) != n or len(set(h)) != n or (n and (min(h) < 0 or max(h) >= n)):  # n == 0: min(()) raises
        return False
    if s.e1.child.size != s.e2.child.size:
        return False
    images = np.array(h, dtype=np.int64)
    child, parent = images[s.e1.child], images[s.e1.parent]
    keys = edge_keys(n, child, parent)
    if keys is None:
        child, parent = sort_edges(n, child, parent)
        return np.array_equal(child, s.e2.child) and np.array_equal(parent, s.e2.parent)
    return np.array_equal(np.sort(keys), edge_keys(n, s.e2.child, s.e2.parent))


# -- text formats ------------------------------------------------------------------

_CERT_BLOCK = 4096  # map lines per string: a writer of the strings holds neither every line nor the whole text


def certificate_blocks(cert: IsoCertificate) -> Iterator[str]:
    """An 'iso <N>' header line, then 'map <x> <y>' for each x ascending, _CERT_BLOCK lines a string."""
    h = cert.mapping
    yield f"iso {len(h)}\n"
    for start in range(0, len(h), _CERT_BLOCK):
        yield "".join(f"map {x} {y}\n" for x, y in enumerate(h[start:start + _CERT_BLOCK], start))


def render_certificate(cert: IsoCertificate) -> str:
    """The certificate's text: certificate_blocks joined."""
    return "".join(certificate_blocks(cert))


def render_diagnostic(s: DualStructure, diag: FailureDiagnostic) -> str:
    """The report text of a diagnostic: each unmatched element with the
    rendering of its collapse. Each relation with an unmatched element is
    collapsed once, as a whole (a diagnostic exists only for acyclic
    relations), into one universe whose keys are listed once per relation.
    """
    lines, universe = [f"fail {diag.case}"], {}
    for tag, unmatched in ((1, diag.unmatched_e1), (2, diag.unmatched_e2)):
        if unmatched:
            uids = hf.collapse_domain(universe, s.relation(tag), tag).uids
            keys = list(universe)
            lines.extend(f"unmatched e{tag} {x} collapse {hf.render_hf(keys, uids[x])}" for x in unmatched)
    return "\n".join(lines) + "\n"
