"""Executable verification of the matched-pair construction's properties.

Each lemma of the construction becomes a check on a concrete structure:
uniqueness and restriction of witnesses, functionality/injectivity and
membership preservation of the matching, ordinal preservation, level
extension, totality under the surrogate axioms, and the final isomorphism.
Ill-founded or non-extensional inputs make the whole chain not-applicable
with the offending witness, since the witness predicate presupposes both.

Corpus mode generates scrambled universes and independent random pairs,
halting with the reproducing seed on any unexpected verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import axioms as axioms_mod
from . import hf
from . import iso as iso_mod
from .axioms import SchemaBudget
from .errors import DualMemError, LevelExtensionError
from .structure import (
    DualStructure,
    MembershipRelation,
    Permutation,
    build_v_universe,
    dual_structure,
    random_dual_structure,
    scramble,
)

LEMMA_NAMES = (
    "witness-uniqueness",
    "witness-restriction",
    "partner-functionality",
    "membership-preservation",
    "ordinal-preservation",
    "level-extension",
    "totality",
    "isomorphism",
)

Witness = tuple[tuple[str, str], ...]

# Witnesses are counted by brute force on pairs whose closures (self
# included) have at most this many elements on both sides.
UNIQUENESS_CLOSURE_BOUND = 4


@dataclass(frozen=True)
class LemmaVerdict:
    status: str  # "pass" | "fail" | "n/a"
    witness: Witness = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class SuiteReport:
    lemmas: dict[str, LemmaVerdict]
    corpus: str | None = None

    @property
    def all_ok(self) -> bool:
        return all(v.status != "fail" for v in self.lemmas.values())


def render_suite(report: SuiteReport) -> str:
    lines = []
    for name in LEMMA_NAMES:
        if name not in report.lemmas:
            continue
        v = report.lemmas[name]
        parts = [f"lemma {name} {v.status}"]
        parts.extend(f"{k}={val}" for k, val in v.witness)
        lines.append(" ".join(parts))
    if report.corpus is not None:
        lines.append(report.corpus)
    return "\n".join(lines) + "\n"


def _na(reason: str, *extra: tuple[str, str]) -> LemmaVerdict:
    return LemmaVerdict("n/a", (("reason", reason),) + extra)


def _all_na(reason: str, *extra: tuple[str, str]) -> dict[str, LemmaVerdict]:
    return {name: _na(reason, *extra) for name in LEMMA_NAMES}


def run_suite(s: DualStructure) -> SuiteReport:
    """Run every lemma check that applies to the given structure."""
    for tag in (1, 2):
        cycle = s.relation(tag).find_cycle()
        if cycle is not None:
            witness = (("tag", str(tag)), ("cycle", ">".join(map(str, cycle))))
            return SuiteReport(_all_na("ill-founded", *witness))
    for tag in (1, 2):
        if not s.relation(tag).is_extensional():  # acyclic: shared member tuples iff shared collapses
            group = ",".join(map(str, hf.collapse_domain(s.relation(tag), tag).duplicate_groups[0]))
            witness = (("tag", str(tag)), ("collapse-duplicates", group))
            return SuiteReport(_all_na("non-extensional", *witness))

    lemmas: dict[str, LemmaVerdict] = {}
    partner = iso_mod.partners(s)
    matched = tuple((x, y) for x, y in enumerate(partner) if y is not None)
    lemmas["witness-uniqueness"] = _check_uniqueness(s, partner)
    lemmas["witness-restriction"] = _check_restriction(s, partner, matched)
    lemmas["partner-functionality"] = _check_functionality(s, matched)
    lemmas["membership-preservation"] = _check_membership_preservation(s, matched)
    ordinal = [(iso_mod.is_ordinal(s.e1, x), iso_mod.is_ordinal(s.e2, y)) for x, y in matched]
    lemmas["ordinal-preservation"] = _check_ordinal_preservation(matched, ordinal)
    lemmas["level-extension"] = _check_level_extension(s, matched, ordinal)

    gate = axioms_mod.full_report(s, schema_mode="semantic")
    result = iso_mod.read_off(s, partner)  # the gates above cover global_isomorphism's checks
    if not gate.semantic_pass:
        failing = _first_semantic_failure(gate)
        lemmas["totality"] = _na("axioms", *failing)
    else:
        lemmas["totality"] = _check_totality(result)
    lemmas["isomorphism"] = _check_isomorphism(s, result)
    return SuiteReport(lemmas)


def _first_semantic_failure(report: axioms_mod.FullReport) -> Witness:
    for tag in sorted(report.by_tag):
        for axiom in sorted(report.by_tag[tag].verdicts):
            v = report.by_tag[tag].verdicts[axiom]
            if v.status == "fail":
                return (("tag", str(tag)), ("axiom", axiom))
    return ()


def _check_uniqueness(s: DualStructure, partner: list[int | None]) -> LemmaVerdict:
    """Brute-force witness counting on pairs with small closures on both sides:
    one witness where the partners(s) list sends x to y, none elsewhere. One
    search per small x counts its witnesses for every small y at once; each
    closure walk stops once the closure is too large to keep."""
    small2 = {y: c for y in range(s.domain_size) if (c := _small_closure(s.e2, y)) is not None}
    for x in range(s.domain_size):
        if _small_closure(s.e1, x) is None:
            continue
        for y, count in count_witnesses_brute(s, x, small2).items():
            expected = 1 if partner[x] == y else 0
            if count != expected:
                return LemmaVerdict(
                    "fail",
                    (("x", str(x)), ("y", str(y)), ("witnesses", str(count)), ("expected", str(expected))),
                )
    return LemmaVerdict("pass")


def _small_closure(rel: MembershipRelation, x: int) -> frozenset[int] | None:
    """transitive_closure(rel, x, include_self=True) when it has at most
    UNIQUENESS_CLOSURE_BOUND elements, else None, found as soon as the walk
    passes the bound."""
    mt = rel.member_tuples()
    seen = {x}
    stack = [x]
    while stack:
        for m in mt[stack.pop()]:
            if m not in seen:
                seen.add(m)
                if len(seen) > UNIQUENESS_CLOSURE_BOUND:
                    return None
                stack.append(m)
    return frozenset(seen)


def count_witnesses_brute(s: DualStructure, x: int, tc2: dict[int, frozenset[int]]) -> dict[int, int]:
    """For each y of tc2, the number of maps from the e1 closure of x into the
    e2 closure of y satisfying the witness conditions, checked from the
    definitions. tc2 maps each candidate y to its e2 closure, y included.

    One exhaustive depth-first search that never calls the construction. The
    e1 closure of x is ordered top-down: breadth-first from x, members in
    ascending id. x takes every y of tc2 in turn, and every other element a
    value only among the e2 members of the value of the element it was reached
    from: any other value breaks preserves-membership on that edge. A partial
    map is dropped as soon as two bound elements t, w (t = w included)
    disagree on membership, read from the member tuples: t in w in e1 but not
    f[t] in f[w] in e2 or the other way round, since every completion of it
    fails preserves-membership. The e1 side of these tests is read once per
    position, before the search.

    Two more prunes drop only what no witness f can hold. A witness maps the
    members of each t of the closure onto the members of v = f[t]: into them
    by preserves-membership, and over them since each member u of v lies in
    the closure of y, so u = f[w] for some w by onto-closure, and w is in t by
    preserves-membership. So v has at most as many members as t, and none
    exactly when t has none; a y whose closure is larger than x's is skipped
    outright, since no map from k elements covers more than k. Neither prune
    needs foundation or extensionality.

    The values of a complete map lie in the closure of y; the map counts only
    when they cover it (else it is not onto) and _witness_conditions accepts
    all of its conditions. The count is that of all maps with f[x] = y that
    pass the conditions, on any relation, cyclic or non-extensional included.
    """
    mt1, mt2 = s.e1.member_tuples(), s.e2.member_tuples()
    order, above = [x], [0]  # above[i]: the position order[i] was reached from
    seen = {x}
    for i, t in enumerate(order):  # order grows while it is walked: breadth-first
        for m in mt1[t]:
            if m not in seen:
                seen.add(m)
                order.append(m)
                above.append(i)
    tc1 = frozenset(order)
    # Per position: t's self-loop, its member count and, for each earlier w,
    # whether t is in w and w in t, all in e1.
    loops = [t in mt1[t] for t in order]
    sizes = [len(mt1[t]) for t in order]
    pairs = [[(w, t in mt1[w], w in mt1[t]) for w in order[:i]] for i, t in enumerate(order)]
    f: dict[int, int] = {}
    counts = dict.fromkeys(tc2, 0)
    # choices[i]: the values still to try for order[i]
    choices = [iter([y for y, c in tc2.items() if len(c) <= len(tc1)])]
    while choices:
        i = len(choices) - 1
        loop, size, tests = loops[i], sizes[i], pairs[i]
        for v in choices[-1]:
            members = mt2[v]
            if (
                len(members) <= size
                and bool(members) == bool(size)
                and loop == (v in members)
                and all(
                    (v in mt2[f[w]]) == t_in_w and (f[w] in members) == w_in_t
                    for w, t_in_w, w_in_t in tests
                )
            ):
                break
        else:
            choices.pop()
            continue
        f[order[i]] = v
        if i + 1 < len(order):
            choices.append(iter(mt2[f[order[above[i + 1]]]]))
        else:
            y = f[x]
            if len(set(f.values())) == len(tc2[y]) and all(
                iso_mod._witness_conditions(s, x, y, f, tc1, tc2[y]).values()
            ):
                counts[y] += 1
    return counts


def _check_restriction(s: DualStructure, partner: list[int | None], matched) -> LemmaVerdict:
    """One witness f per matched (x, y); the first pair without one fails.

    The restriction itself (f on the closure of an e1 member c of x is the
    witness for (c, f[c])) holds by construction, so it is not rebuilt per
    member: _match gives each element a value that depends only on its
    members' values and on e2's index, so when f exists, build_witness(s, c,
    f[c]) is never None and equals f restricted to c's closure. Any e2 cycle
    below f[c] lies below y, so the call for (x, y) would already have raised.
    So on acyclic relations the witness for (x, partners(s)[x]) is partner on x's closure,
    which exists unless a partner repeats: such lists pass at once, others are built pair by pair.
    """
    images = [y for y in partner if y is not None]
    if s.e1.is_acyclic() and s.e2.is_acyclic() and len(set(images)) == len(images) and all(
        x in range(s.domain_size) and y is not None and partner[x] == y for x, y in matched
    ):
        return LemmaVerdict("pass")
    for x, y in matched:
        if iso_mod.build_witness(s, x, y) is None:
            return LemmaVerdict("fail", (("x", str(x)), ("y", str(y)), ("reason", "no-witness")))
    return LemmaVerdict("pass")


def _check_functionality(s: DualStructure, matched) -> LemmaVerdict:
    """No element is matched twice on either side. On the acyclic, extensional
    relations the suite runs on, matches(s, x, y) holds iff partners(s)[x] == y
    (equal images force equal member-sets, by induction on rank)."""
    by_x: dict[int, list[int]] = {}
    by_y: dict[int, list[int]] = {}
    for x, y in sorted(matched):
        by_x.setdefault(x, []).append(y)
        by_y.setdefault(y, []).append(x)
    for key, listed, groups in (("x", "ys", by_x), ("y", "xs", by_y)):
        for k, others in groups.items():
            if len(others) > 1:
                return LemmaVerdict("fail", ((key, str(k)), (listed, ",".join(map(str, others)))))
    return LemmaVerdict("pass")


def _check_membership_preservation(s: DualStructure, matched) -> LemmaVerdict:
    """x in x2 in e1 iff y in y2 in e2 for all matched (x, y) and (x2, y2); a
    failure names the first failing pair of pairs in list order. For each
    (x2, y2), the failing (x, y) are the symmetric difference of those whose x
    is an e1 member of x2 and those whose y is an e2 member of y2, so each
    edge is read once per matched end instead of testing every pair of pairs.
    """
    at_x: dict[int, list[int]] = {}  # positions in matched, by first and by second entry
    at_y: dict[int, list[int]] = {}
    for i, (x, y) in enumerate(matched):
        at_x.setdefault(x, []).append(i)
        at_y.setdefault(y, []).append(i)
    mt1, mt2 = s.e1.member_tuples(), s.e2.member_tuples()
    failing = []  # (the least failing i, j) for each j that fails
    for j, (x2, y2) in enumerate(matched):
        in1 = {i for m in mt1[x2] for i in at_x.get(m, ())}
        in2 = {i for m in mt2[y2] for i in at_y.get(m, ())}
        if in1 != in2:
            failing.append((min(in1 ^ in2), j))
    if not failing:
        return LemmaVerdict("pass")
    i, j = min(failing)
    (x, y), (x2, y2) = matched[i], matched[j]
    return LemmaVerdict("fail", (("x", str(x)), ("x2", str(x2)), ("y", str(y)), ("y2", str(y2))))


def _check_ordinal_preservation(matched, ordinal) -> LemmaVerdict:
    """ordinal holds, per matched pair, whether x is an e1 ordinal and y an e2 one."""
    for (x, y), (in1, in2) in zip(matched, ordinal):
        if in1 != in2:
            return LemmaVerdict("fail", (("x", str(x)), ("y", str(y))))
    return LemmaVerdict("pass")


def _check_level_extension(s: DualStructure, matched, ordinal) -> LemmaVerdict:
    """Extend each matched pair of ordinals (ordinal as in
    _check_ordinal_preservation) whose levels exist (extend_to_level raises
    missing-level for the others); check agreement. A listed pair without a
    witness fails before it is extended."""
    partner = dict(matched)
    eligible = 0
    for (x, y), (in1, in2) in zip(matched, ordinal):
        if not (in1 and in2):
            continue
        w = iso_mod.build_witness(s, x, y)
        if w is None:
            return LemmaVerdict("fail", (("ordinal", str(x)), ("kind", "no-witness")))
        try:
            wider = iso_mod.extend_to_level(s, x, y)
        except LevelExtensionError as exc:
            if exc.kind == "missing-level":
                continue
            return LemmaVerdict(
                "fail", (("ordinal", str(x)), ("kind", exc.kind), ("witness", str(exc.witness)))
            )
        eligible += 1
        if not iso_mod.restriction_agrees(x, w, wider):
            return LemmaVerdict("fail", (("ordinal", str(x)), ("kind", "restriction-disagrees")))
        for u, v in sorted(wider.items()):
            if partner.get(u) != v:
                return LemmaVerdict(
                    "fail", (("ordinal", str(x)), ("kind", "global-disagrees"), ("witness", str(u)))
                )
    if eligible == 0:
        return _na("no-level-pairs")
    return LemmaVerdict("pass")


def _check_totality(result: iso_mod.IsoCertificate | iso_mod.FailureDiagnostic) -> LemmaVerdict:
    if isinstance(result, iso_mod.IsoCertificate):
        return LemmaVerdict("pass")
    e1 = str(result.unmatched_e1[0]) if result.unmatched_e1 else "-"
    e2 = str(result.unmatched_e2[0]) if result.unmatched_e2 else "-"
    return LemmaVerdict("fail", (("case", result.case), ("e1", e1), ("e2", e2)))


def _check_isomorphism(
    s: DualStructure, result: iso_mod.IsoCertificate | iso_mod.FailureDiagnostic
) -> LemmaVerdict:
    if isinstance(result, iso_mod.FailureDiagnostic):
        return _check_totality(result)
    if not iso_mod.verify_certificate(s, result):
        return LemmaVerdict("fail", (("case", "certificate-rejected"),))
    return LemmaVerdict("pass")


# -- corpus -----------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusConfig:
    """Corpus parameters; sizes are level indices for scrambled universes
    and domain sizes for independent random pairs."""

    sizes: tuple[int, ...] = (3, 4)
    count: int = 100
    seed: int = 0
    kinds: tuple[str, ...] = ("scrambled",)


def run_corpus(config: CorpusConfig) -> SuiteReport:
    """Aggregate suite over generated structures; halts on the reproducing seed.

    Scrambled universes must pass every applicable lemma. Independent random
    pairs must pass the conditional lemmas, and their isomorphism verdict must
    coincide with collapse-image equality (both outcomes are counted).
    A lemma reads pass once some item passes it; the failing item's own
    passes do not count.
    """
    for kind in config.kinds:
        if kind not in ("scrambled", "random-pair"):
            raise DualMemError(f"unknown corpus kind {kind!r}")
    passed: set[str] = set()
    failed: tuple[str, LemmaVerdict] | None = None
    items = iso_pass = iso_fail = 0
    for kind, size_index, seed, s in _corpus_items(config):
        report = run_suite(s)
        items += 1
        iso_status = report.lemmas["isomorphism"].status
        iso_pass += iso_status == "pass"
        iso_fail += iso_status == "fail"
        repro = (("kind", kind), ("size", str(size_index)), ("seed", str(seed)))
        # A random pair's totality and isomorphism are counted in the corpus
        # line and cross-checked below, not judged.
        judged = [(name, v) for name, v in report.lemmas.items()
                  if kind != "random-pair" or name not in ("totality", "isomorphism")]
        failed = next(
            ((name, LemmaVerdict("fail", v.witness + repro)) for name, v in judged if v.status == "fail"), None
        )
        if failed is None and kind == "random-pair" and iso_status != "n/a":
            same_images = hf.collapse_domain(s.e1, 1).image() == hf.collapse_domain(s.e2, 2).image()
            if same_images != (iso_status == "pass"):
                failed = ("isomorphism", LemmaVerdict("fail", (("reason", "oracle-disagrees"),) + repro))
        if failed is not None:
            break
        passed.update(name for name, v in judged if v.passed)
    lemmas = {name: LemmaVerdict("pass") if name in passed else _na("never-applicable") for name in LEMMA_NAMES}
    if failed is not None:
        name, verdict = failed
        lemmas[name] = verdict
    return SuiteReport(lemmas, _corpus_line(config, items, iso_pass, iso_fail))


def _corpus_items(config: CorpusConfig):
    """(kind, size, seed, structure) for each corpus item, in order. A level
    is built when an item first needs it, once per size; scramble keeps e1."""
    levels: dict[int, DualStructure] = {}
    for kind in config.kinds:
        for size_index in config.sizes:
            for seed in range(config.seed, config.seed + config.count):
                if kind == "random-pair":
                    s = random_dual_structure(size_index, seed)
                else:
                    if size_index not in levels:
                        levels[size_index] = build_v_universe(size_index)
                    base = levels[size_index]
                    s = scramble(base, Permutation.random(base.domain_size, seed))
                yield kind, size_index, seed, s


def _corpus_line(config: CorpusConfig, items: int, iso_pass: int, iso_fail: int) -> str:
    seeds = f"{config.seed}..{config.seed + config.count - 1}" if config.count else "-"
    sizes = ",".join(map(str, config.sizes))
    kinds = ",".join(config.kinds)
    return (
        f"corpus seeds={seeds} sizes={sizes} kinds={kinds} "
        f"items={items} iso-pass={iso_pass} iso-fail={iso_fail}"
    )


# -- counterexample gallery ----------------------------------------------------------

GALLERY_BUDGET = SchemaBudget(bounded_depth=4, bounded_cap=60)


@dataclass(frozen=True)
class GalleryItem:
    name: str
    structure: DualStructure
    expected_summary: str


def gallery_summary(s: DualStructure, budget: SchemaBudget = GALLERY_BUDGET) -> str:
    """The stored-and-reproduced account of one gallery item.

    Two axiom lines (failing axiom names per tag), one line per failing
    schema row with its witness, then the full suite report.
    """
    report = axioms_mod.full_report(s, budget, schema_mode="bounded")
    lines = []
    for tag in (1, 2):
        rows = report.by_tag[tag].verdicts
        failing = [name for name in sorted(rows) if rows[name].status == "fail"]
        lines.append(f"axioms{tag} " + (",".join(failing) if failing else "pass"))
    for tag in (1, 2):
        rows = report.by_tag[tag].verdicts
        for name in ("separation-schema", "replacement-schema"):
            if rows[name].status == "fail":
                toks = " ".join(f"{k}={v}" for k, v in rows[name].witness)
                lines.append(f"schema {tag} {name} {toks}")
    return "".join(line + "\n" for line in lines) + render_suite(run_suite(s))


def _chain_vs_v3() -> DualStructure:
    # e1: a four-link membership chain; e2: the third level, numbered so the
    # two-element set sits at id 2.
    return dual_structure(
        4,
        [(0, 1), (1, 2), (2, 3)],
        [(0, 1), (0, 2), (1, 2), (1, 3)],
    )


def _equal_extensions() -> DualStructure:
    # e2 gives ids 2 and 3 the same member-set.
    return dual_structure(
        4,
        [(0, 1), (1, 2), (0, 3), (1, 3)],
        [(0, 1), (1, 2), (1, 3)],
    )


def _membership_cycle() -> DualStructure:
    # e1 is the third level plus a back edge closing the cycle 0, 1, 3, 0.
    return dual_structure(
        4,
        [(0, 1), (1, 2), (0, 3), (1, 3), (3, 0)],
        [(0, 1), (1, 2), (0, 3), (1, 3)],
    )


def _schema_gap() -> DualStructure:
    # Rigid extensional DAGs of equal size, not isomorphic; on the e2 side the
    # definable subset "nonempty members of id 4" has no realizer.
    return dual_structure(
        5,
        [(0, 1), (1, 2), (0, 3), (1, 3), (2, 4)],
        [(0, 1), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4), (2, 4)],
    )


_GALLERY_BUILDERS = (
    ("chain-vs-v3", _chain_vs_v3),
    ("equal-extensions", _equal_extensions),
    ("membership-cycle", _membership_cycle),
    ("schema-gap", _schema_gap),
)

# Golden summaries, reproduced bit-exactly by gallery_summary on a fresh run.
EXPECTED_SUMMARIES: dict[str, str] = {
    "chain-vs-v3": (
        "axioms1 pairing,power-set\n"
        "axioms2 pass\n"
        "lemma witness-uniqueness pass\n"
        "lemma witness-restriction pass\n"
        "lemma partner-functionality pass\n"
        "lemma membership-preservation pass\n"
        "lemma ordinal-preservation pass\n"
        "lemma level-extension pass\n"
        "lemma totality n/a reason=axioms tag=1 axiom=pairing\n"
        "lemma isomorphism fail case=both-directions-fail e1=3 e2=2\n"
    ),
    "equal-extensions": (
        "axioms1 pass\n"
        "axioms2 extensionality,pairing,power-set\n"
        "lemma witness-uniqueness n/a reason=non-extensional tag=2 collapse-duplicates=2,3\n"
        "lemma witness-restriction n/a reason=non-extensional tag=2 collapse-duplicates=2,3\n"
        "lemma partner-functionality n/a reason=non-extensional tag=2 collapse-duplicates=2,3\n"
        "lemma membership-preservation n/a reason=non-extensional tag=2 collapse-duplicates=2,3\n"
        "lemma ordinal-preservation n/a reason=non-extensional tag=2 collapse-duplicates=2,3\n"
        "lemma level-extension n/a reason=non-extensional tag=2 collapse-duplicates=2,3\n"
        "lemma totality n/a reason=non-extensional tag=2 collapse-duplicates=2,3\n"
        "lemma isomorphism n/a reason=non-extensional tag=2 collapse-duplicates=2,3\n"
    ),
    "membership-cycle": (
        "axioms1 foundation,replacement-schema,separation-schema,separation-semantic,union\n"
        "axioms2 pass\n"
        "schema 1 separation-schema instance=separation-apply-1 assign=u:0,g:0,a:0\n"
        "schema 1 replacement-schema instance=replacement-pointwise-1 assign=g:0,L:0,K:0\n"
        "lemma witness-uniqueness n/a reason=ill-founded tag=1 cycle=0>3>0\n"
        "lemma witness-restriction n/a reason=ill-founded tag=1 cycle=0>3>0\n"
        "lemma partner-functionality n/a reason=ill-founded tag=1 cycle=0>3>0\n"
        "lemma membership-preservation n/a reason=ill-founded tag=1 cycle=0>3>0\n"
        "lemma ordinal-preservation n/a reason=ill-founded tag=1 cycle=0>3>0\n"
        "lemma level-extension n/a reason=ill-founded tag=1 cycle=0>3>0\n"
        "lemma totality n/a reason=ill-founded tag=1 cycle=0>3>0\n"
        "lemma isomorphism n/a reason=ill-founded tag=1 cycle=0>3>0\n"
    ),
    "schema-gap": (
        "axioms1 pairing,power-set,replacement-semantic\n"
        "axioms2 pairing,power-set,replacement-semantic,separation-schema,separation-semantic\n"
        "schema 2 separation-schema instance=bounded:3 filter=p_in1_w assign=p:1,a:4\n"
        "lemma witness-uniqueness pass\n"
        "lemma witness-restriction pass\n"
        "lemma partner-functionality pass\n"
        "lemma membership-preservation pass\n"
        "lemma ordinal-preservation pass\n"
        "lemma level-extension pass\n"
        "lemma totality n/a reason=axioms tag=1 axiom=pairing\n"
        "lemma isomorphism fail case=both-directions-fail e1=4 e2=4\n"
    ),
}


def counterexample_gallery() -> tuple[GalleryItem, ...]:
    """Fixed, seed-free negative instances, each with its stored summary."""
    return tuple(
        GalleryItem(name, build(), EXPECTED_SUMMARIES[name]) for name, build in _GALLERY_BUILDERS
    )
