"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import dualmem
from dualmem import (
    CorpusConfig,
    Permutation,
    build_v_universe,
    collapse_domain,
    counterexample_gallery,
    evaluate,
    evaluate_table,
    parse_formula,
    run_corpus,
    scramble,
    serialize_structure,
)
from dualmem.axioms import (
    SchemaBudget,
    check_extensionality,
    check_foundation,
    check_pairing,
    check_power_set,
    check_schema_bounded,
    check_separation_semantic,
    check_union,
)
from dualmem.battery import bounded_instances
from dualmem.hf import ackermann_code_if_below, collapse_domain as collapse_domain_fn
from dualmem.iso import IsoCertificate, build_witness, global_isomorphism, render_diagnostic
from dualmem.lemmas import _chain_vs_v3, _schema_gap, count_witnesses_brute, gallery_summary
from dualmem.structure import random_dual_structure, tamper, transitive_closure, v_universe_size


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def well_founded_extensional(s) -> bool:
    return all(
        s.relation(tag).is_acyclic() and s.relation(tag).is_extensional() for tag in (1, 2)
    )


def small_corpus(max_size):
    """Well-founded extensional structures with domain size <= max_size."""
    structures = []
    for n in range(5):
        base = build_v_universe(n)
        if base.domain_size <= max_size:
            structures.append(base)
            for seed in range(3):
                structures.append(scramble(base, Permutation.random(base.domain_size, seed)))
    for size in (2, 3, 5, 8, 12, 16):
        if size <= max_size:
            for seed in range(3):
                structures.append(random_dual_structure(size, seed))
    structures.append(_chain_vs_v3())
    structures.append(_schema_gap())
    return [s for s in structures if well_founded_extensional(s)]


class TestAcceptance:
    def test_criterion_1_scrambled_round_trip(self, tmp_path):
        with criterion(1, "scrambled-universe round trip"):
            for n in (1, 2, 3, 4):
                base = build_v_universe(n)
                for seed in range(100):
                    p = Permutation.random(base.domain_size, seed)
                    result = global_isomorphism(scramble(base, p))
                    assert isinstance(result, IsoCertificate)
                    assert result.mapping == p.images

            # n = 5 through the real command-line path, against the clock
            from dualmem.cli import main

            v5 = tmp_path / "v5.st"
            v5s = tmp_path / "v5s.st"
            base = build_v_universe(5)
            v5.write_text(serialize_structure(base))
            p = Permutation.random(65536, 42)
            v5s.write_text(serialize_structure(scramble(base, p)))
            out_file = tmp_path / "cert.txt"
            start = time.perf_counter()
            with out_file.open("w") as sink:
                old = sys.stdout
                sys.stdout = sink
                try:
                    code = main(["find-iso", str(v5s)])
                finally:
                    sys.stdout = old
            elapsed = time.perf_counter() - start
            assert code == 0
            assert elapsed < 60.0, f"find-iso took {elapsed:.1f}s"
            lines = out_file.read_text().splitlines()
            assert lines[0] == "iso 65536"
            mapping = tuple(int(line.split()[2]) for line in lines[1:])
            assert mapping == p.images

    def test_criterion_2_oracle_equivalence(self):
        with criterion(2, "oracle equivalence"):
            mismatches = 0
            for s in small_corpus(16):
                universe = {}
                c1 = collapse_domain_fn(universe, s.e1, 1).uids
                c2 = collapse_domain_fn(universe, s.e2, 2).uids
                for x in range(s.domain_size):
                    for y in range(s.domain_size):
                        if (build_witness(s, x, y) is not None) != (c1[x] == c2[y]):
                            mismatches += 1
            assert mismatches == 0

    def test_criterion_3_witness_uniqueness_brute_force(self):
        with criterion(3, "witness uniqueness by brute force"):
            for s in small_corpus(8):
                tc2 = {y: transitive_closure(s.e2, y, include_self=True) for y in range(s.domain_size)}
                for x in range(s.domain_size):
                    if len(transitive_closure(s.e1, x, include_self=True)) > 4:
                        continue
                    counts = count_witnesses_brute(s, x, tc2)
                    for y in range(s.domain_size):
                        expected = 0 if build_witness(s, x, y) is None else 1
                        assert counts[y] == expected

    def test_criterion_4_lemma_suite_corpus(self):
        with criterion(4, "lemma suite on the scrambled corpus"):
            report = run_corpus(CorpusConfig(sizes=(3, 4), count=100, kinds=("scrambled",)))
            assert report.all_ok, report.lemmas
            assert "items=200" in report.corpus
            for name, verdict in report.lemmas.items():
                assert verdict.status == "pass", (name, verdict)

    def test_criterion_5_finite_surrogate_characterization(self):
        with criterion(5, "finite-surrogate characterization"):
            structures = small_corpus(16)
            structures.append(tamper(build_v_universe(3), "add-cycle", 0))
            structures.append(tamper(build_v_universe(3), "break-extensionality", 0))
            structures.append(tamper(build_v_universe(4), "remove-edge", 0))
            discrepancies = 0
            for s in structures:
                for tag in (1, 2):
                    rel = s.relation(tag)
                    battery = all(
                        check(s, tag).passed
                        for check in (
                            check_extensionality,
                            check_foundation,
                            check_pairing,
                            check_union,
                            check_power_set,
                        )
                    )
                    sep = check_separation_semantic(s, tag)
                    battery = battery and sep.passed and sep.mode == "exhaustive"
                    if rel.is_acyclic():
                        universe = {}
                        dc = collapse_domain(universe, rel)
                        level = rel.max_rank() + 1 if rel.domain_size else 0
                        is_level = (
                            level <= 4  # higher levels exceed 16 elements
                            and dc.duplicate_groups == ()
                            and {ackermann_code_if_below(list(universe), u, 1 << 16) for u in dc.image()}
                            == set(range(v_universe_size(level)))
                        )
                    else:
                        is_level = False
                    if battery != is_level:
                        discrepancies += 1
            assert discrepancies == 0

    def test_criterion_6_counterexample_gallery(self):
        with criterion(6, "counterexample gallery"):
            items = counterexample_gallery()
            assert len(items) == 4
            for item in items:
                assert gallery_summary(item.structure) == item.expected_summary, item.name
            chain = next(i for i in items if i.name == "chain-vs-v3")
            assert "lemma isomorphism fail case=both-directions-fail" in chain.expected_summary
            diag = global_isomorphism(chain.structure)
            assert diag.case == "both-directions-fail"
            # the two unmatched witnesses and their collapse renderings:
            # {{{{}}}} on the chain side, {{},{{}}} on the level side
            assert diag.unmatched_e1 == (3,)
            assert diag.unmatched_e2 == (2,)
            assert render_diagnostic(chain.structure, diag) == (
                "fail both-directions-fail\n"
                "unmatched e1 3 collapse {{{{}}}}\n"
                "unmatched e2 2 collapse {{},{{}}}\n"
            )

    def test_criterion_7_evaluator_cross_check(self):
        with criterion(7, "formula evaluator cross-check"):
            structures = []
            for size in (2, 3, 4, 5, 6):
                for seed in range(8):
                    structures.append(random_dual_structure(size, seed))
            for seed in range(5):
                structures.append(tamper(build_v_universe(3), "break-extensionality", seed))
                structures.append(scramble(build_v_universe(2), Permutation.random(2, seed)))
            structures = structures[:50]
            assert len(structures) == 50

            ext1 = parse_formula("forall x forall y ((forall z (z in1 x <-> z in1 y)) -> x = y)")
            ext2 = parse_formula("forall x forall y ((forall z (z in2 x <-> z in2 y)) -> x = y)")
            instances = bounded_instances(2, cap=25)
            budget = SchemaBudget(bounded_depth=2, bounded_cap=25)
            disagreements = 0
            for s in structures:
                if evaluate(s, ext1) != check_extensionality(s, 1).passed:
                    disagreements += 1
                if evaluate(s, ext2) != check_extensionality(s, 2).passed:
                    disagreements += 1
                by_tag = {1: True, 2: True}
                for inst in instances:
                    naive = evaluate(s, inst.sentence)
                    if naive != evaluate_table(s, inst.sentence):
                        disagreements += 1
                    by_tag[inst.tag] = by_tag[inst.tag] and naive
                checker = check_schema_bounded(s, budget)
                for tag in (1, 2):
                    if checker[f"bounded-separation-{tag}"].passed != by_tag[tag]:
                        disagreements += 1
            assert disagreements == 0

    def test_criterion_8_cli_determinism(self, tmp_path):
        with criterion(8, "CLI determinism"):
            v3 = tmp_path / "v3.st"
            v3.write_text(serialize_structure(build_v_universe(3)))
            gallery_dir = tmp_path / "g"
            commands = [
                ["gen", "v-universe", "--n", "4", "--out", str(tmp_path / "v4.st")],
                ["gen", "scramble", "--in", str(v3), "--seed", "7", "--out", str(tmp_path / "s.st")],
                ["gen", "random-pair", "--size", "6", "--seed", "3", "--out", str(tmp_path / "r.st")],
                ["gen", "tamper", "--in", str(v3), "--tamper-kind", "add-cycle", "--seed", "1",
                 "--out", str(tmp_path / "t.st")],
                ["gen", "tamper", "--in", str(v3), "--tamper-kind", "break-extensionality", "--seed", "1",
                 "--out", str(tmp_path / "b.st")],
                ["gen", "gallery", "--out", str(gallery_dir)],
                ["check-axioms", str(v3)],
                ["check-axioms", str(v3), "--mode", "bounded", "--depth", "3"],
                ["check-axioms", str(tmp_path / "t.st")],
                ["check-axioms", str(tmp_path / "v4.st"), "--mode", "semantic"],
                ["find-iso", str(tmp_path / "s.st"), "--verify", "--oracle-check"],
                ["find-iso", str(gallery_dir / "chain-vs-v3.st")],
                ["find-iso", str(gallery_dir / "membership-cycle.st")],
                ["eval", str(v3), "--formula", "forall x exists y x in1 y"],
                ["eval", str(v3), "--formula", "x in1 y", "--assign", "x=0,y=1"],
                ["verify-lemmas", str(v3)],
                ["verify-lemmas", "--corpus", "sizes=3 count=3", "--seed", "2"],
                ["collapse", str(v3), "--element", "3"],
                ["collapse", str(gallery_dir / "membership-cycle.st"), "--element", "0"],
                ["gen", "random-pair", "--size", "40", "--seed", "1", "--out", str(tmp_path / "r40.st")],
                ["verify-lemmas", str(tmp_path / "r40.st")],
            ]
            # The children run in tmp_path, so a relative PYTHONPATH would not find the package.
            env = {**os.environ, "PYTHONPATH": str(Path(dualmem.__file__).parents[1])}
            for argv in commands:
                runs = [
                    subprocess.run(
                        [sys.executable, "-m", "dualmem.cli", *argv],
                        capture_output=True,
                        cwd=tmp_path,
                        env=env,
                    )
                    for _ in range(2)
                ]
                assert runs[0].stdout == runs[1].stdout, argv
                assert runs[0].stderr == runs[1].stderr, argv
                assert runs[0].returncode == runs[1].returncode, argv
                for proc in runs:
                    assert b"Traceback" not in proc.stderr, argv
                    assert not (proc.returncode == 1 and proc.stdout == b""), argv
