"""Command-line interface.

Exit codes: 0 success / all-pass, 1 semantic negative (axiom failure, no
isomorphism, false sentence, lemma failure, ill-founded input), 2 usage or
input errors, input too large for memory included; 141 (128 + SIGPIPE) when
the reader of stdout has gone, with nothing on stderr. verify-lemmas exits 0 on
ill-founded or non-extensional input: every lemma reads n/a. Reports go to
stdout; usage diagnostics to stderr. Every command is deterministic given its
flags and seeds.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from pathlib import Path

from . import axioms as axioms_mod
from . import hf
from . import iso as iso_mod
from . import lemmas as lemmas_mod
from .errors import CycleError, DualMemError, NonExtensionalError
from .formulas import evaluate_table, free_vars, parse_formula
from .structure import (
    TAMPER_KINDS,
    Permutation,
    build_v_universe,
    decode_utf8,
    is_id_token,
    parse_structure,
    random_dual_structure,
    scramble,
    serialize_structure,
    tamper,
)

PASS, NEGATIVE, USAGE = 0, 1, 2


def _read_structure(path: str):
    return parse_structure(Path(path).read_bytes())


def _write_structure(path: Path, s) -> None:
    path.write_text(serialize_structure(s), encoding="utf-8")


def cmd_gen(args) -> int:
    out = sys.stdout
    if args.kind == "v-universe":
        s = build_v_universe(args.n)
        path = Path(args.out or f"v{args.n}.st")
        _write_structure(path, s)
        print(path, file=out)
    elif args.kind == "scramble":
        if not args.infile:
            raise DualMemError("scramble needs --in")
        s = _read_structure(args.infile)
        p = Permutation.random(s.domain_size, args.seed)
        path = Path(args.out or f"{Path(args.infile).stem}-scrambled-{args.seed}.st")
        _write_structure(path, scramble(s, p))
        print(path, file=out)
        print("perm " + " ".join(map(str, p.images)), file=out)
    elif args.kind == "random-pair":
        if args.size is None:
            raise DualMemError("random-pair needs --size")
        s = random_dual_structure(args.size, args.seed)
        path = Path(args.out or f"random-{args.size}-{args.seed}.st")
        _write_structure(path, s)
        print(path, file=out)
    elif args.kind == "tamper":
        if not args.infile:
            raise DualMemError("tamper needs --in")
        s = tamper(_read_structure(args.infile), args.tamper_kind, args.seed)
        path = Path(args.out or f"{Path(args.infile).stem}-{args.tamper_kind}-{args.seed}.st")
        _write_structure(path, s)
        print(path, file=out)
    elif args.kind == "gallery":
        directory = Path(args.out or "gallery")
        directory.mkdir(parents=True, exist_ok=True)
        for item in lemmas_mod.counterexample_gallery():
            st_path = directory / f"{item.name}.st"
            _write_structure(st_path, item.structure)
            expected_path = directory / f"{item.name}.expected"
            expected_path.write_text(item.expected_summary, encoding="utf-8")
            print(st_path, file=out)
            print(expected_path, file=out)
    return PASS


def cmd_check_axioms(args) -> int:
    s = _read_structure(args.infile)
    budget = axioms_mod.SchemaBudget(bounded_depth=args.depth)
    report = axioms_mod.full_report(s, budget, schema_mode=args.mode)
    sys.stdout.write(axioms_mod.render_report(report))
    return PASS if report.all_pass else NEGATIVE


def cmd_find_iso(args) -> int:
    s = _read_structure(args.infile)
    try:
        result = iso_mod.global_isomorphism(s)
    except CycleError as exc:
        tag = exc.tag or 0
        print(f"fail ill-founded e{tag} cycle={'>'.join(map(str, exc.cycle))}")
        return NEGATIVE
    except NonExtensionalError as exc:
        print(f"fail non-extensional e{exc.tag} x={exc.pair[0]} y={exc.pair[1]}")
        return NEGATIVE
    if isinstance(result, iso_mod.FailureDiagnostic):
        sys.stdout.write(iso_mod.render_diagnostic(s, result))
        return NEGATIVE
    if args.verify and not iso_mod.verify_certificate(s, result):
        print("fail certificate-rejected")
        return NEGATIVE
    if args.oracle_check:
        c1 = hf.collapse_domain(s.e1, 1)
        c2 = hf.collapse_domain(s.e2, 2)
        for x, y in enumerate(result.mapping):
            if c1.uids[x] != c2.uids[y]:
                print(f"fail oracle-mismatch x={x} y={y}")
                return NEGATIVE
    sys.stdout.writelines(iso_mod.certificate_blocks(result))
    return PASS


def _parse_assignment(text: str) -> dict[str, int]:
    assignment: dict[str, int] = {}
    if not text:
        return assignment
    for chunk in text.split(","):
        name, _, value = chunk.strip().partition("=")
        if not name or not is_id_token(value.removeprefix("-")):
            raise DualMemError(f"bad assignment chunk {chunk!r}; expected var=id")
        if name in assignment:
            raise DualMemError(f"assignment repeats variable {name!r}")
        assignment[name] = int(value)
    return assignment


def cmd_eval(args) -> int:
    s = _read_structure(args.infile)
    if args.formula is not None:
        text = args.formula
    elif args.formula_file is not None:
        text = decode_utf8(Path(args.formula_file).read_bytes())
    else:
        raise DualMemError("eval needs --formula or --formula-file")
    sentence = parse_formula(text)
    assignment = _parse_assignment(args.assign or "")
    missing = free_vars(sentence) - assignment.keys()
    if missing:
        raise DualMemError(f"assignment misses free variables: {', '.join(sorted(missing))}")
    value = evaluate_table(s, sentence, assignment)
    print("true" if value else "false")
    return PASS if value else NEGATIVE


def cmd_verify_lemmas(args) -> int:
    if args.corpus and args.infile:
        raise DualMemError("verify-lemmas takes either a structure file or --corpus, not both")
    if args.corpus:
        settings = _parse_corpus(args.corpus, args.seed)
        report = lemmas_mod.run_corpus(settings)
    elif args.infile:
        report = lemmas_mod.run_suite(_read_structure(args.infile))
    else:
        raise DualMemError("verify-lemmas needs a structure file or --corpus")
    sys.stdout.write(lemmas_mod.render_suite(report))
    return PASS if report.all_ok else NEGATIVE


def _parse_corpus(text: str, seed: int) -> lemmas_mod.CorpusConfig:
    settings: dict = {}  # the defaults are CorpusConfig's
    for chunk in text.replace(";", " ").split():
        key, _, value = chunk.partition("=")
        if key in settings:
            raise DualMemError(f"corpus repeats setting {key!r}")
        if key == "sizes":
            settings[key] = tuple(_corpus_int(key, v) for v in value.split(",") if v)
        elif key == "count":
            settings[key] = _corpus_int(key, value)
            if settings[key] < 0:
                raise DualMemError(f"corpus setting count must be >= 0, got {settings[key]}")
        elif key == "kinds":
            settings[key] = tuple(v for v in value.split(",") if v)
        else:
            raise DualMemError(f"unknown corpus setting {key!r}")
    return lemmas_mod.CorpusConfig(seed=seed, **settings)


def _corpus_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise DualMemError(f"corpus setting {key} needs an integer, got {value!r}") from None


def cmd_collapse(args) -> int:
    s = _read_structure(args.infile)
    try:
        uid = hf.collapse(s.relation(args.relation), args.element, args.relation)
    except CycleError as exc:
        print(f"fail ill-founded e{args.relation} cycle={'>'.join(map(str, exc.cycle))}")
        return NEGATIVE
    print(hf.render_hf(uid))
    numeral = hf.ackermann_code_if_below(uid, 1 << 64)
    print(f"code={numeral}" if numeral is not None else "code=large")
    return PASS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualmem",
        description="Generate, check, and match dual membership structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write structure files")
    gen.add_argument("kind", choices=["v-universe", "scramble", "random-pair", "tamper", "gallery"])
    gen.add_argument("--n", type=int, default=3, help="level index for v-universe")
    gen.add_argument("--in", dest="infile", help="input structure file")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--size", type=int, help="domain size for random-pair")
    gen.add_argument("--tamper-kind", choices=list(TAMPER_KINDS), default="add-cycle")
    gen.add_argument("--out", help="output path (file, or directory for gallery)")
    gen.set_defaults(func=cmd_gen)

    check = sub.add_parser("check-axioms", help="run the axiom battery on a structure file")
    check.add_argument("infile")
    check.add_argument("--mode", choices=list(axioms_mod.SCHEMA_MODES), default="battery")
    check.add_argument("--depth", type=int, default=12, help="bounded-mode formula size")
    check.set_defaults(func=cmd_check_axioms)

    find = sub.add_parser("find-iso", help="construct the definable isomorphism")
    find.add_argument("infile")
    find.add_argument("--verify", action="store_true", help="re-check the certificate")
    find.add_argument("--oracle-check", action="store_true", help="cross-check against collapse codes")
    find.set_defaults(func=cmd_find_iso)

    ev = sub.add_parser("eval", help="evaluate a formula on a structure file")
    ev.add_argument("infile")
    ev.add_argument("--formula")
    ev.add_argument("--formula-file")
    ev.add_argument("--assign", help="free-variable values, e.g. 'x=0,y=3'")
    ev.set_defaults(func=cmd_eval)

    verify = sub.add_parser("verify-lemmas", help="run the lemma suite")
    verify.add_argument("infile", nargs="?")
    verify.add_argument("--corpus", help="e.g. 'sizes=3,4 count=100 kinds=scrambled'")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify_lemmas)

    col = sub.add_parser("collapse", help="canonical set value of one element")
    col.add_argument("infile")
    col.add_argument("--relation", type=int, choices=[1, 2], default=1)
    col.add_argument("--element", type=int, required=True)
    col.set_defaults(func=cmd_collapse)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    collecting = gc.isenabled()
    try:
        sys.stdout = sys.stdout or _devnull()  # None when the process started with fd 1 closed: the text is dropped
        sys.stderr = sys.stderr or _devnull()  # and with fd 2 closed
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help, or a usage error argparse has reported
            code = USAGE if exc.code not in (0, None) else PASS
            try:
                sys.stderr.flush()  # a stderr that cannot take argparse's usage line fails here, and exits 2
            except OSError:  # as in _error: a buffered stderr would fail again on its last flush
                sys.stderr = _devnull()
        else:
            # A command makes no reference cycles, so the cyclic collector would only
            # re-scan live objects; reference counting frees everything it drops.
            gc.disable()
            code = args.func(args)
        sys.stdout.flush()  # a reader that has gone fails here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # Quiet, as a writer killed by SIGPIPE; what is still buffered goes to
        # os.devnull when stdout is flushed at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DualMemError, OSError) as exc:
        return _error(f"error: {exc}")
    except MemoryError as exc:
        return _error(f"error: out of memory: {exc}")
    finally:
        if collecting:
            gc.enable()


def _devnull():
    return open(os.open(os.devnull, os.O_WRONLY), "w", encoding="utf-8", closefd=False)


def _error(line: str) -> int:
    """Write an error line to stderr, if it can be written; exit 2 either way."""
    try:
        print(line, file=sys.stderr)
    except OSError:  # a buffered stderr keeps the line and would fail again on its last flush
        sys.stderr = _devnull()
    return USAGE


def run() -> None:
    """The `dualmem` command: main() on sys.argv, then the end of the process.

    A normal exit frees every module and object one at a time, numpy's
    included: about 0.02 s of CPU, more than a tenth of a short command's.
    Once the atexit callbacks have run and stdout and stderr are flushed,
    os._exit ends the process without that. Under a tracer or profiler, which
    may report only once the program has exited normally, it exits normally:
    one set through sys.settrace or sys.setprofile, or, from Python 3.12, a
    sys.monitoring tool (cProfile and coverage register there instead).
    """
    code = main()
    monitoring = getattr(sys, "monitoring", None)
    if (sys.gettrace() is not None or sys.getprofile() is not None
            or monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))):
        sys.exit(code)
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):  # each on its own: a gone stdout reader must not cost stderr's text
        try:
            stream.flush()
        except BrokenPipeError:
            code = 141
    os._exit(code)


if __name__ == "__main__":
    run()
