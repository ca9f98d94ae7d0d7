"""In-process replay of `dualmem` command lines, optionally traced per module.

Run as a child of run.py, one fresh interpreter per replay, so that no
process-wide cache of the program carries over from one replay to the next:

    python3 perfbench/replay.py SPEC.json OUT.json TRACED

SPEC.json holds a list of argument vectors for the `dualmem` CLI. Each one is
passed to the program's own `dualmem.cli.main`, with stdout captured, so the
replay runs exactly the calls the command line runs. With TRACED=1, the
benchmark swaps spanning wrappers in for the library's public functions
wherever the program's modules refer to them, so that calls the library makes
internally (e.g. the lemma suite calling the axiom checks) are seen too. After
each parse, the wrapper computes the structure accessors the command reaches,
each in its own span, so that matching and axiom spans exclude cached
structure work. Only public names of the library are used.
"""

import contextlib
import io
import sys
import time

# Relations whose ranks each command computes: find-iso's certificate path
# ranks e1 only, the axiom checks rank both. Commands not listed here reach
# no accessor ahead of their own work, so their parses get no accessor spans.
RANKED = {"find-iso": (1,), "check-axioms": (1, 2)}


def main(spec_path: str, out_path: str, traced: bool) -> None:
    start = time.perf_counter()
    import dualmem.cli  # the CLI imports every module
    import_s = time.perf_counter() - start

    import json

    from tracer import NullTracer, Tracer

    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    tracer = Tracer() if traced else NullTracer()
    outputs, total_s = [], 0.0
    for argv in spec:
        with tracer.instrumented(targets(RANKED.get(argv[0]))):
            t0 = time.perf_counter()
            with tracer.span("cli." + argv[0]), contextlib.redirect_stdout(io.StringIO()) as out:
                code = dualmem.cli.main(list(argv))
            total_s += time.perf_counter() - t0
        outputs.append((code, out.getvalue()))
    tracer.count("cli.stdout_bytes", sum(len(stdout.encode()) for _, stdout in outputs))
    result = {"import_s": import_s, "total_s": total_s, "outputs": outputs}
    result.update(tracer.summary())
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


def _after_parse(ranked):
    def after(tracer, s, *args):
        rels = (s.e1, s.e2)
        tracer.count("structure.elements", s.domain_size)
        tracer.count("structure.edges", sum(len(rel.edges) for rel in rels))
        if ranked is None:
            return
        with tracer.span("structure.index"):
            for rel in rels:
                rel.member_sets(), rel.parent_sets(), rel.extension_index()
        with tracer.span("structure.toposort"):
            for rel in rels:
                rel.toposort()
        with tracer.span("structure.validate"):
            for rel in rels:
                rel.find_cycle(), rel.duplicate_extensions()
        ranked_rels = [s.relation(tag) for tag in ranked]
        if all(rel.is_acyclic() for rel in ranked_rels):
            with tracer.span("structure.ranks"):
                for rel in ranked_rels:
                    rel.ranks()
            tracer.count("structure.max_rank", max(rel.max_rank() for rel in ranked_rels), combine=max)
    return after


def _fail_rows(tracer, verdicts, *args):
    rows = verdicts.values() if isinstance(verdicts, dict) else (verdicts,)
    tracer.count("axioms.fail_rows", sum(v.status == "fail" for v in rows))


def _iso_counts(tracer, result, s):
    unmatched = getattr(result, "unmatched_e1", None)
    if unmatched is None:
        tracer.count("iso.matched", s.domain_size)
        tracer.count("iso.unmatched", 0)
    else:
        tracer.count("iso.matched", s.domain_size - len(unmatched))
        tracer.count("iso.unmatched", len(unmatched) + len(result.unmatched_e2))


def _count_instances(tracer, instances, *args):
    tracer.count("battery.instances", len(instances))


def _count_codes(tracer, collapsed, *args):
    tracer.count("hf.distinct_codes", len(collapsed.image()))


def targets(ranked):
    """(module, public function, span name, after) for every traced function;
    `ranked` picks the relations the parse hook ranks, None for no accessors."""
    return (
        ("structure", "parse_structure", "structure.parse", _after_parse(ranked)),
        ("iso", "global_isomorphism", "iso.match", _iso_counts),
        ("iso", "verify_certificate", "iso.verify", None),
        ("iso", "render_certificate", "iso.render", None),
        ("iso", "render_diagnostic", "iso.render", None),
        ("hf", "collapse_domain", "hf.collapse", _count_codes),
        ("hf", "collapse", "hf.collapse", None),
        ("hf", "render_hf", "hf.render", None),
        ("hf", "ackermann_code_if_below", "hf.render", None),
        *(("axioms", f"check_{name}", "axioms.semantic", _fail_rows)
          for name in ("extensionality", "foundation", "pairing", "union", "power_set",
                       "separation_semantic", "replacement_semantic")),
        *(("axioms", f"check_schema_{name}", "axioms.schema", _fail_rows)
          for name in ("battery", "bounded")),
        ("battery", "fixed_battery", "battery.build", _count_instances),
        ("battery", "bounded_instances", "battery.build", _count_instances),
        ("formulas", "evaluate_table", "formulas.table", None),
        ("formulas", "falsifying_assignment", "formulas.table", None),
        ("formulas", "evaluate", "formulas.naive", None),
        ("lemmas", "run_suite", "lemmas.suite", None),
        ("lemmas", "count_witnesses_brute", "lemmas.brute_witness", None),
    )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")
