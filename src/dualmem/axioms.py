"""Finite-surrogate axiom checks for each relation of a dual structure.

The surrogate theory is set theory minus Infinity with Foundation, read at
finite scale: a witness set is demanded only when its rank would fit under
the relation's height (max rank). Under the naive reading no nonempty finite
structure closes under singletons, so the height-aware forms are the ones
that characterize the cumulative levels exactly; the characterization is
exercised by the acceptance suite.

Semantic (second-order) separation and replacement quantify over external
subsets and functions, exhaustively below the configured bounds and by
seeded sampling above them. Schema checks evaluate joint-vocabulary
first-order instances: the fixed battery and, in bounded mode, enumerated
separation instances.
"""

from __future__ import annotations

import itertools
import random
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


@dataclass(frozen=True)
class SamplingBudget:
    """Knobs for the exhaustive/sampled split and the schema checks."""

    seed: int = 0
    samples: int = 64
    separation_exhaustive_bound: int = 20
    replacement_exhaustive_bound: int = 3
    schema_domain_limit: int = 16
    bounded_depth: int = 12
    bounded_cap: int = battery_mod.DEFAULT_BOUNDED_CAP


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
    ms = rel.member_sets()
    index = rel.extension_index()
    for a in range(rel.domain_size):
        target = tuple(sorted({m for x in ms[a] for m in ms[x]}))
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
    ms = rel.member_sets()
    index = rel.extension_index()
    for a in range(rel.domain_size):
        if ranks[a] >= height:
            continue
        target = tuple(x for x in range(rel.domain_size) if ms[x] <= ms[a])
        if target not in index:
            return _fail(("a", str(a)), ("target", _ids(target)))
    return Verdict("pass")


def check_separation_semantic(s: DualStructure, tag: int, budget: SamplingBudget | None = None) -> Verdict:
    """Every subset of every member-set is some element's member-set."""
    budget = budget or SamplingBudget()
    rel = s.relation(tag)
    index = rel.extension_index()
    sampled = 0
    for a, base in enumerate(rel.member_tuples()):
        if len(base) <= budget.separation_exhaustive_bound:
            candidates = (
                tuple(itertools.compress(base, (mask >> i & 1 for i in range(len(base)))))
                for mask in range(1 << len(base))
            )
        else:
            rng = random.Random(budget.seed * 1000003 + tag * 1009 + a)
            candidates = (
                tuple(x for x in base if rng.random() < 0.5) for _ in range(budget.samples)
            )
            sampled += budget.samples
        for subset in candidates:
            if subset not in index:
                mode = _sample_mode(sampled, budget)
                return _fail(("a", str(a)), ("subset", _ids(subset)), mode=mode)
    return Verdict("pass", mode=_sample_mode(sampled, budget))


def check_replacement_semantic(s: DualStructure, tag: int, budget: SamplingBudget | None = None) -> Verdict:
    """Images of member-sets under arbitrary maps into sub-height elements exist."""
    budget = budget or SamplingBudget()
    rel = s.relation(tag)
    ranks = _height_checked(rel)
    if ranks is None:
        return Verdict("skipped", (("reason", "ill-founded"),))
    height = max(ranks, default=0)
    low = [x for x in range(rel.domain_size) if ranks[x] < height]
    index = rel.extension_index()
    sampled = 0
    for a, base in enumerate(rel.member_tuples()):
        if not base:
            continue
        if len(base) <= budget.replacement_exhaustive_bound:
            choices = itertools.product(low, repeat=len(base))
        else:
            rng = random.Random(budget.seed * 1000003 + tag * 2003 + a)
            choices = (tuple(rng.choice(low) for _ in base) for _ in range(budget.samples)) if low else ()
            sampled += budget.samples if low else 0
        for values in choices:
            image = tuple(sorted(set(values)))
            if image not in index:
                pairs = ",".join(f"{m}:{v}" for m, v in zip(base, values))
                mode = _sample_mode(sampled, budget)
                return _fail(("a", str(a)), ("map", pairs), ("image", _ids(image)), mode=mode)
    return Verdict("pass", mode=_sample_mode(sampled, budget))


def _sample_mode(sampled: int, budget: SamplingBudget) -> str:
    if sampled:
        return f"sampled:{sampled},seed={budget.seed}"
    return "exhaustive"


# -- schema checks ---------------------------------------------------------------

def check_schema_battery(s: DualStructure, budget: SamplingBudget | None = None) -> dict[str, Verdict]:
    """Evaluate every fixed battery sentence; falsifying assignments reported."""
    budget = budget or SamplingBudget()
    out: dict[str, Verdict] = {}
    for item in battery_mod.fixed_battery():
        if s.domain_size > budget.schema_domain_limit:
            out[item.name] = Verdict("skipped", (("reason", "domain-too-large"),))
            continue
        if evaluate_table(s, item.sentence):
            out[item.name] = Verdict("pass")
        else:
            assign = falsifying_assignment(s, item.sentence) or {}
            toks = ",".join(f"{k}:{v}" for k, v in assign.items())
            out[item.name] = _fail(("instance", item.name), ("assign", toks))
    return out


def check_schema_bounded(s: DualStructure, budget: SamplingBudget | None = None) -> dict[str, Verdict]:
    """Evaluate enumerated separation instances up to the configured depth/cap."""
    budget = budget or SamplingBudget()
    out: dict[str, Verdict] = {}
    if s.domain_size > budget.schema_domain_limit:
        for tag in (1, 2):
            out[f"bounded-separation-{tag}"] = Verdict("skipped", (("reason", "domain-too-large"),))
        return out
    instances = battery_mod.bounded_instances(budget.bounded_depth, cap=budget.bounded_cap)
    for tag in (1, 2):
        verdict = Verdict("pass", mode=f"bounded:{sum(1 for i in instances if i.tag == tag)}")
        for inst in instances:
            if inst.tag != tag:
                continue
            if not evaluate_table(s, inst.sentence):
                assign = falsifying_assignment(s, inst.sentence) or {}
                toks = ",".join(f"{k}:{v}" for k, v in assign.items())
                verdict = _fail(
                    ("instance", f"bounded:{inst.index}"),
                    ("filter", inst.filter_text.replace(" ", "_")),
                    ("assign", toks),
                    mode=f"bounded:{sum(1 for i in instances if i.tag == tag)}",
                )
                break
        out[f"bounded-separation-{tag}"] = verdict
    return out


# -- aggregation -------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomReport:
    tag: int
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
    schema_mode: str

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


def full_report(s: DualStructure, budget: SamplingBudget | None = None, schema_mode: str = "battery") -> FullReport:
    """Run every check for both tags. Deterministic given the budget seed."""
    if schema_mode not in SCHEMA_MODES:
        raise DualMemError(f"schema mode must be one of {SCHEMA_MODES}")
    budget = budget or SamplingBudget()
    battery_verdicts = check_schema_battery(s, budget) if schema_mode != "semantic" else {}
    bounded_verdicts = check_schema_bounded(s, budget) if schema_mode == "bounded" else {}
    by_tag: dict[int, AxiomReport] = {}
    for tag in (1, 2):
        rows: dict[str, Verdict] = {
            "extensionality": check_extensionality(s, tag),
            "foundation": check_foundation(s, tag),
            "pairing": check_pairing(s, tag),
            "union": check_union(s, tag),
            "power-set": check_power_set(s, tag),
            "separation-semantic": check_separation_semantic(s, tag, budget),
            "replacement-semantic": check_replacement_semantic(s, tag, budget),
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
        by_tag[tag] = AxiomReport(tag, rows)
    return FullReport(by_tag, schema_mode)


# -- text format --------------------------------------------------------------------

def render_verdict_line(tag: int, axiom: str, v: Verdict) -> str:
    parts = [str(tag), axiom, v.status]
    parts.extend(f"{k}={val}" for k, val in v.witness)
    if v.mode is not None:
        parts.append(f"mode={v.mode}")
    return " ".join(parts)


def render_report(report: FullReport) -> str:
    lines = []
    for tag in sorted(report.by_tag):
        rows = report.by_tag[tag].verdicts
        for axiom in sorted(rows):
            lines.append(render_verdict_line(tag, axiom, rows[axiom]))
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> FullReport:
    """Inverse of render_report at the text level."""
    by_tag: dict[int, dict[str, Verdict]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        tokens = line.split(" ")
        if len(tokens) < 3:
            raise DualMemError(f"bad report line: {line!r}")
        tag, axiom, status = int(tokens[0]), tokens[1], tokens[2]
        witness: list[tuple[str, str]] = []
        mode = None
        for tok in tokens[3:]:
            key, _, val = tok.partition("=")
            if key == "mode":
                mode = val
            else:
                witness.append((key, val))
        by_tag.setdefault(tag, {})[axiom] = Verdict(status, tuple(witness), mode)
    return FullReport({tag: AxiomReport(tag, rows) for tag, rows in by_tag.items()}, "parsed")
