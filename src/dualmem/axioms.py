"""Finite-surrogate axiom checks for each relation of a dual structure.

The surrogate theory is set theory minus Infinity with Foundation, read at
finite scale: a witness set is demanded only when its rank would fit under
the relation's height (max rank). Under the naive reading no nonempty finite
structure closes under singletons, so the height-aware forms are the ones
that characterize the cumulative levels exactly; the characterization is
exercised by the acceptance suite.

Semantic (second-order) separation and replacement quantify over external
subsets and functions, and both are decided exactly. Separation: every
subset of ms(x) is realized iff every ms(x) - {m} is realized by an element
that itself misses no subset. Replacement: the images of the maps from ms(x)
into the elements below the height are the sets of those elements with one
to |ms(x)| members, so it comes down to counting the realized ones per size.
Schema checks evaluate joint-vocabulary first-order instances: the fixed
battery and, in bounded mode, enumerated separation instances.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

from . import battery as battery_mod
from .errors import DualMemError
from .formulas import evaluate_table, falsifying_assignment
from .structure import DualStructure, MembershipRelation

AXIOM_NAMES = (
    "extensionality",
    "foundation",
    "pairing",
    "union",
    "power-set",
    "separation-semantic",
    "replacement-semantic",
    "separation-schema",
    "replacement-schema",
)

SCHEMA_MODES = ("semantic", "battery", "bounded")

Witness = tuple[tuple[str, str], ...]


# The schema checks tabulate every assignment of a sentence's variables, so
# they are skipped on domains above this size.
SCHEMA_DOMAIN_LIMIT = 16


@dataclass(frozen=True)
class SchemaBudget:
    """Formula size and instance cap of the bounded separation schema."""

    bounded_depth: int = 12
    bounded_cap: int = battery_mod.DEFAULT_BOUNDED_CAP

    def __post_init__(self):
        if self.bounded_depth < 1:  # no filter has size below 1: the schema row would pass vacuously
            raise DualMemError(f"bounded depth must be >= 1, got {self.bounded_depth}")


@dataclass(frozen=True)
class Verdict:
    status: str  # "pass" | "fail" | "skipped"
    witness: Witness = ()
    mode: str | None = None

    def __post_init__(self):
        if self.status not in ("pass", "fail", "skipped"):
            raise DualMemError(f"bad verdict status {self.status!r}")

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _fail(*pairs: tuple[str, str], mode: str | None = None) -> Verdict:
    return Verdict("fail", tuple(pairs), mode)


def _ids(xs) -> str:
    return ",".join(map(str, sorted(xs)))


# -- semantic checks -------------------------------------------------------------

def check_extensionality(s: DualStructure, tag: int) -> Verdict:
    groups = s.relation(tag).duplicate_extensions()
    if groups:
        a, b = groups[0][0], groups[0][1]
        return _fail(("x", str(a)), ("y", str(b)))
    return Verdict("pass")


def check_foundation(s: DualStructure, tag: int) -> Verdict:
    cycle = s.relation(tag).find_cycle()
    if cycle is not None:
        return _fail(("cycle", ">".join(map(str, cycle))))
    return Verdict("pass")


def _height_checked(rel: MembershipRelation) -> tuple[int, ...] | None:
    return rel.ranks() if rel.is_acyclic() else None


def check_pairing(s: DualStructure, tag: int) -> Verdict:
    """Every two elements of non-maximal rank have an element collecting exactly them."""
    rel = s.relation(tag)
    ranks = _height_checked(rel)
    if ranks is None:
        return Verdict("skipped", (("reason", "ill-founded"),))
    height = max(ranks, default=0)
    index = rel.extension_index()
    for a in range(rel.domain_size):
        if ranks[a] >= height:
            continue
        for b in range(a, rel.domain_size):
            if ranks[b] >= height:
                continue
            target = (a,) if a == b else (a, b)
            if target not in index:
                return _fail(("a", str(a)), ("b", str(b)), ("target", _ids(target)))
    return Verdict("pass")


def check_union(s: DualStructure, tag: int) -> Verdict:
    rel = s.relation(tag)
    mt = rel.member_tuples()
    index = rel.extension_index()
    for a in range(rel.domain_size):
        target = tuple(sorted({m for x in mt[a] for m in mt[x]}))
        if target not in index:
            return _fail(("a", str(a)), ("target", _ids(target)))
    return Verdict("pass")


def check_power_set(s: DualStructure, tag: int) -> Verdict:
    """Every non-maximal-rank element has an element collecting its realized subsets."""
    rel = s.relation(tag)
    ranks = _height_checked(rel)
    if ranks is None:
        return Verdict("skipped", (("reason", "ill-founded"),))
    height = max(ranks, default=0)
    mt = rel.member_tuples()
    index = rel.extension_index()
    for a in range(rel.domain_size):
        if ranks[a] >= height:
            continue
        covers = set(mt[a]).issuperset
        target = tuple(x for x in range(rel.domain_size) if covers(mt[x]))
        if target not in index:
            return _fail(("a", str(a)), ("target", _ids(target)))
    return Verdict("pass")


def check_separation_semantic(s: DualStructure, tag: int) -> Verdict:
    """Every subset of every member-set is some element's member-set.

    All subsets of ms(x) are realized iff every removal ms(x) - {m} is the
    member-set of an element that itself misses no subset, so one pass over
    the member tuples in ascending length decides all of them. The witness
    is the first element that misses a subset, with its least unrealized
    subset in mask order (bit i selects the i-th least member).
    """
    rel = s.relation(tag)
    index = rel.extension_index()
    full: set[tuple[int, ...]] = set()
    for base in sorted(index, key=len):
        if all(base[:i] + base[i + 1:] in full for i in range(len(base))):
            full.add(base)
    for a, base in enumerate(rel.member_tuples()):
        if base not in full:
            bit = {m: 1 << i for i, m in enumerate(base)}
            realized = {sum(map(bit.__getitem__, t)) for t in index if all(m in bit for m in t)}
            mask = next(i for i in itertools.count() if i not in realized)
            subset = [m for m, b in bit.items() if mask & b]
            return _fail(("a", str(a)), ("subset", _ids(subset)), mode="exhaustive")
    return Verdict("pass", mode="exhaustive")


def check_replacement_semantic(s: DualStructure, tag: int) -> Verdict:
    """Images of member-sets under arbitrary maps into sub-height elements exist.

    The images of the maps from a k-member set into low, the elements below
    the height, are exactly the sets S within low with 1 <= |S| <= k. With j
    the least size at which fewer than C(|low|, j) subsets of low are
    realized, an element fails iff it has at least j members. The witness is
    the first unrealized map in itertools.product order: take the unrealized
    S least by (min S, |S|, sorted S), send the first k - |S| + 1 members to
    min S and the rest to the rest of S in ascending order.
    """
    rel = s.relation(tag)
    ranks = _height_checked(rel)
    if ranks is None:
        return Verdict("skipped", (("reason", "ill-founded"),))
    height = max(ranks, default=0)
    low = [x for x in range(rel.domain_size) if ranks[x] < height]
    index = rel.extension_index()
    by_size = Counter(map(len, index))  # members rank below their set, so every key lies within low
    short = next((j for j in range(1, len(low) + 1) if by_size[j] < math.comb(len(low), j)), math.inf)
    for a, base in enumerate(rel.member_tuples()):
        if len(base) >= short:
            image = _least_unrealized_image(low, len(base), index)
            values = image[:1] * (len(base) - len(image) + 1) + image[1:]
            pairs = ",".join(f"{m}:{v}" for m, v in zip(base, values))
            return _fail(("a", str(a)), ("map", pairs), ("image", _ids(image)), mode="exhaustive")
    return Verdict("pass", mode="exhaustive")


def _least_unrealized_image(low: list[int], k: int, index) -> tuple[int, ...]:
    """The unrealized S within low, 1 <= |S| <= k, least by (min S, |S|,
    sorted S); the caller knows one exists. Each candidate passed over is a
    distinct realized set, so the walk makes at most n + 1 lookups."""
    for i, m in enumerate(low):
        tail = low[i + 1:] if k > 1 else []  # copied only when larger sets follow
        for size in range(min(k - 1, len(tail)) + 1):
            for rest in itertools.combinations(tail, size):
                if (m, *rest) not in index:
                    return (m, *rest)


# -- schema checks ---------------------------------------------------------------

def _falsifying_tokens(s: DualStructure, sentence) -> str:
    assign = falsifying_assignment(s, sentence) or {}
    return ",".join(f"{k}:{v}" for k, v in assign.items())


def check_schema_battery(s: DualStructure) -> dict[str, Verdict]:
    """Evaluate every fixed battery sentence; falsifying assignments reported."""
    out: dict[str, Verdict] = {}
    for item in battery_mod.fixed_battery():
        if s.domain_size > SCHEMA_DOMAIN_LIMIT:
            out[item.name] = Verdict("skipped", (("reason", "domain-too-large"),))
        elif evaluate_table(s, item.sentence):
            out[item.name] = Verdict("pass")
        else:
            out[item.name] = _fail(("instance", item.name), ("assign", _falsifying_tokens(s, item.sentence)))
    return out


def check_schema_bounded(s: DualStructure, budget: SchemaBudget | None = None) -> dict[str, Verdict]:
    """Evaluate enumerated separation instances up to the configured depth/cap."""
    budget = budget or SchemaBudget()
    out: dict[str, Verdict] = {}
    if s.domain_size > SCHEMA_DOMAIN_LIMIT:
        for tag in (1, 2):
            out[f"bounded-separation-{tag}"] = Verdict("skipped", (("reason", "domain-too-large"),))
        return out
    instances = battery_mod.bounded_instances(budget.bounded_depth, cap=budget.bounded_cap)
    for tag in (1, 2):
        mine = [inst for inst in instances if inst.tag == tag]
        mode = f"bounded:{len(mine)}"
        bad = next((inst for inst in mine if not evaluate_table(s, inst.sentence)), None)
        if bad is None:
            out[f"bounded-separation-{tag}"] = Verdict("pass", mode=mode)
        else:
            out[f"bounded-separation-{tag}"] = _fail(
                ("instance", f"bounded:{bad.index}"),
                ("filter", bad.filter_text.replace(" ", "_")),
                ("assign", _falsifying_tokens(s, bad.sentence)),
                mode=mode,
            )
    return out


# -- aggregation -------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomReport:
    verdicts: dict[str, Verdict] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(v.status != "fail" for v in self.verdicts.values())

    @property
    def semantic_pass(self) -> bool:
        semantic = AXIOM_NAMES[:7]
        return all(self.verdicts[name].passed for name in semantic if name in self.verdicts)


@dataclass(frozen=True)
class FullReport:
    by_tag: dict[int, AxiomReport]

    @property
    def all_pass(self) -> bool:
        return all(r.all_pass for r in self.by_tag.values())

    @property
    def semantic_pass(self) -> bool:
        return all(r.semantic_pass for r in self.by_tag.values())


def _combine_schema(verdicts: dict[str, Verdict], mode_label: str) -> Verdict:
    fails = [v for v in verdicts.values() if v.status == "fail"]
    if fails:
        return Verdict("fail", fails[0].witness, mode_label)
    skips = [v for v in verdicts.values() if v.status == "skipped"]
    if len(skips) == len(verdicts) and verdicts:
        return Verdict("skipped", skips[0].witness)
    return Verdict("pass", mode=mode_label)


def full_report(s: DualStructure, budget: SchemaBudget | None = None, schema_mode: str = "battery") -> FullReport:
    """Run every check for both tags; the budget only shapes bounded mode."""
    if schema_mode not in SCHEMA_MODES:
        raise DualMemError(f"schema mode must be one of {SCHEMA_MODES}")
    battery_verdicts = check_schema_battery(s) if schema_mode != "semantic" else {}
    bounded_verdicts = check_schema_bounded(s, budget) if schema_mode == "bounded" else {}
    by_tag: dict[int, AxiomReport] = {}
    for tag in (1, 2):
        rows: dict[str, Verdict] = {
            "extensionality": check_extensionality(s, tag),
            "foundation": check_foundation(s, tag),
            "pairing": check_pairing(s, tag),
            "union": check_union(s, tag),
            "power-set": check_power_set(s, tag),
            "separation-semantic": check_separation_semantic(s, tag),
            "replacement-semantic": check_replacement_semantic(s, tag),
        }
        if schema_mode == "semantic":
            rows["separation-schema"] = Verdict("skipped", (("reason", "mode-semantic"),))
            rows["replacement-schema"] = Verdict("skipped", (("reason", "mode-semantic"),))
        else:
            sep = {k: v for k, v in battery_verdicts.items()
                   if k == f"separation-apply-{tag}"}
            if schema_mode == "bounded":
                sep[f"bounded-separation-{tag}"] = bounded_verdicts[f"bounded-separation-{tag}"]
            label = "battery" if schema_mode == "battery" else "battery+bounded"
            rows["separation-schema"] = _combine_schema(sep, label)
            rep = {k: v for k, v in battery_verdicts.items()
                   if k in (f"replacement-pointwise-{tag}", f"replacement-graph-{tag}")}
            rows["replacement-schema"] = _combine_schema(rep, "battery")
        by_tag[tag] = AxiomReport(rows)
    return FullReport(by_tag)


# -- text format --------------------------------------------------------------------

def render_report(report: FullReport) -> str:
    lines = []
    for tag in sorted(report.by_tag):
        rows = report.by_tag[tag].verdicts
        for axiom in sorted(rows):
            v = rows[axiom]
            parts = [str(tag), axiom, v.status]
            parts.extend(f"{k}={val}" for k, val in v.witness)
            if v.mode is not None:
                parts.append(f"mode={v.mode}")
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
