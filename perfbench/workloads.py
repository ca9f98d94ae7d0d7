"""The four workloads: the `dualmem` command lines each one runs, and their answers.

Every expected exit code and output line is derived here from set theory and
from the inputs this benchmark wrote, never from the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

# Why each workload exists; BENCHMARK.json repeats these.
WORKLOADS = {
    "iso-wide": "find-iso --verify --oracle-check on scrambled V5: 65,536 elements, "
                "rank 4, 2x524,288 edges; parse and index building dominate",
    "iso-deep": "find-iso --verify --oracle-check on a scrambled 65,536-chain of rank "
                "65,535; guards the deep shape that per-rank work would slow",
    "lemmas-corpus": "verify-lemmas on 200 scrambled V3/V4 universes: no parse, brute "
                     "witness counting and the lemma suite dominate",
    "cli-small": "short check-axioms/eval/find-iso/collapse calls on <=16 elements: "
                 "start-up, table evaluation and rendering; the only negative verdicts",
}

LEMMA_NAMES = (
    "witness-uniqueness", "witness-restriction", "partner-functionality",
    "membership-preservation", "ordinal-preservation", "level-extension",
    "totality", "isomorphism",
)
EXTENSIONALITY = "forall x forall y ((forall z (z in{t} x <-> z in{t} y)) -> x = y)"

# Semantic rows of `check-axioms` on e1 = the von Neumann ordinals 0..15 and
# e2 = the Zermelo chain 0..15, both with height 15. Ordinals: {0,2} is no
# ordinal (pairing), the map 0 -> 1 has image {1} (replacement), {1} is a
# subset of 2 = {0,1} that no ordinal realizes (separation); the realized
# subsets of k are the ordinals 0..k, i.e. k+1 (power set). Chain: {0,1} is
# unrealized (pairing), the realized subsets of 1 are 0 and 1 (power set);
# every member-set is a singleton, so every subset and image is realized.
ORDINALS_VS_CHAIN_ROWS = {
    "1 extensionality": "pass", "1 foundation": "pass", "1 pairing": "fail",
    "1 union": "pass", "1 power-set": "pass", "1 separation-semantic": "fail",
    "1 replacement-semantic": "fail",
    "2 extensionality": "pass", "2 foundation": "pass", "2 pairing": "fail",
    "2 union": "pass", "2 power-set": "fail", "2 separation-semantic": "pass",
    "2 replacement-semantic": "pass",
}
AXIOM_ROWS = tuple(row.split()[1] for row in ORDINALS_VS_CHAIN_ROWS if row.startswith("1 "))

Check = Callable[[str], "str | None"]  # stdout -> None when right, else the reason


@dataclass(frozen=True)
class Invocation:
    """One `dualmem` command line, its expected exit code and an output check."""

    argv: tuple[str, ...]
    exit_code: int
    check: Check


def render_numeral(k: int) -> str:
    """The HF set with binary-sum code k, members in ascending numeral order."""
    return "{" + ",".join(render_numeral(b) for b in range(k.bit_length()) if k >> b & 1) + "}"


def _certificate(perm: np.ndarray) -> Check:
    expected = perm.tolist()

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if not lines or lines[0] != f"iso {len(expected)}":
            return f"header {lines[0] if lines else ''!r}"
        got = [None] * len(expected)
        for line in lines[1:]:
            tok = line.split()
            if len(tok) != 3 or tok[0] != "map":
                return f"bad line {line!r}"
            got[int(tok[1])] = int(tok[2])
        return None if got == expected else "certificate differs from the scrambling permutation"
    return check


def _lines(expected: list[str]) -> Check:
    def check(out: str) -> str | None:
        return None if out.splitlines() == expected else f"expected {expected!r}"
    return check


def _first_line(expected: str) -> Check:
    def check(out: str) -> str | None:
        first = out.split("\n", 1)[0]
        return None if first == expected else f"first line {first!r}"
    return check


def _axiom_rows(expected: dict[str, str]) -> Check:
    def check(out: str) -> str | None:
        got = {" ".join(line.split()[:2]): line.split()[2] for line in out.splitlines() if line}
        wrong = [row for row, status in expected.items() if got.get(row) != status]
        return f"rows {wrong}" if wrong else None
    return check


def _all_rows_pass(out: str) -> str | None:
    expected = {f"{tag} {axiom}": "pass" for tag in (1, 2) for axiom in AXIOM_ROWS}
    failing = [line for line in out.splitlines() if line.split()[2:3] != ["pass"]]
    return _axiom_rows(expected)(out) or (f"rows {failing}" if failing else None)


def _corpus(out: str) -> str | None:
    lines = out.splitlines()
    want = [f"lemma {name} pass" for name in LEMMA_NAMES]
    if len(lines) != len(want) + 1 or lines[:-1] != want:
        return "lemma lines are not all pass"
    if not lines[-1].startswith("corpus ") or "items=200 iso-pass=200 iso-fail=0" not in lines[-1]:
        return f"corpus line {lines[-1]!r}"
    return None


def build(name: str, seed: int, work: Path) -> list[Invocation]:
    """Write the workload's inputs under work and return its command lines."""
    if name in ("iso-wide", "iso-deep"):
        edges = inputs.level_edges(5) if name == "iso-wide" else inputs.chain_edges(65536)
        perm = inputs.permutation(seed, 0 if name == "iso-wide" else 1, edges[0])
        path = work / f"{name}.st"
        inputs.write_scrambled(path, edges, perm)
        return [Invocation(("find-iso", str(path), "--verify", "--oracle-check"), 0, _certificate(perm))]
    if name == "lemmas-corpus":
        return [Invocation(("verify-lemmas", "--corpus", "sizes=3,4 count=100", "--seed", str(seed)),
                           0, _corpus)]
    if name != "cli-small":
        raise ValueError(f"unknown workload {name!r}")
    levels = []
    for stream in (2, 3):
        perm = inputs.permutation(seed, stream, 16)
        path = work / f"v4-{stream}.st"
        inputs.write_scrambled(path, inputs.level_edges(4), perm)
        levels.append((path, perm))
    (a, _), (b, perm_b) = levels
    ordinals = work / "ordinals-vs-chain.st"
    _, chain_child, chain_parent = inputs.chain_edges(16)
    chain_perm = inputs.permutation(seed, 4, 16)
    _, ord_child, ord_parent = inputs.ordinal_edges(16)
    inputs.write_structure(ordinals, 16, (ord_child, ord_parent),
                           (chain_perm[chain_child], chain_perm[chain_parent]))
    k = int(np.random.default_rng([seed, 5]).integers(4, 16))
    return [
        Invocation(("check-axioms", str(a), "--mode", "bounded"), 0, _all_rows_pass),
        Invocation(("check-axioms", str(b), "--mode", "bounded"), 0, _all_rows_pass),
        Invocation(("check-axioms", str(ordinals), "--mode", "bounded"), 1,
                   _axiom_rows(ORDINALS_VS_CHAIN_ROWS)),
        Invocation(("eval", str(a), "--formula", EXTENSIONALITY.format(t=1)), 0, _lines(["true"])),
        Invocation(("eval", str(b), "--formula", EXTENSIONALITY.format(t=2)), 0, _lines(["true"])),
        # Only 0 and 1 coincide as ordinal and numeral; both sides leave 2..15 unmatched.
        Invocation(("find-iso", str(ordinals)), 1, _first_line("fail both-directions-fail")),
        Invocation(("collapse", str(a), "--element", "3"), 0, _lines(["{{},{{}}}", "code=3"])),
        Invocation(("collapse", str(b), "--relation", "2", "--element", str(int(perm_b[k]))), 0,
                   _lines([render_numeral(k), f"code={k}"])),
    ]
