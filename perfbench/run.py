"""Benchmark of the `dualmem` command line, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
Inputs are written from the seed under `perfbench/.work/` and deleted at the end.

--trace 0 runs the real CLI in child processes, one at a time, pass after pass
over the workload's command lines until S seconds have gone (at least
MIN_PASSES). This process, every child and speedometer.py are pinned to one
CPU; the speedometer runs a fixed chunk of work every 30 ms on that
CPU and gives, for each child's own wall-clock interval, how much slower than
nominal the CPU ran (its `slowdown`). On a shared 2-vCPU VM that factor moves
between about 1 and 2 for seconds at a time, and raw CPU times moved by 25% or
more between runs of the same code; divided by it they moved by about 5%.
Reported:

- `cpu_norm_s`: the CPU time (user + sys, from `os.wait4`) of the pass's
  children, each divided by its own slowdown: CPU seconds at the speed at
  which the speedometer's chunk takes speedometer.CHUNK_S. Of the run's
  passes, the one that ran at the least slowdown is reported;
- `peak_rss_mb`: the highest peak RSS of any one child of a pass, median over
  passes;
- `setup_s`: the CPU time of a cold `dualmem --help` (interpreter start plus
  every import), divided the same way; SETUP_PER_PASS samples before each
  pass, topped up after the last pass to at least SETUP_SAMPLES, of which the
  median of the SETUP_KEPT least slowed down is reported.

The division does not correct every workload exactly: in log terms the CPU
time moved about 0.7 (deep chain), 0.8 (short commands) and 1.0 (lemma suite)
times as much as the speedometer's chunk. Taking the least slowed samples
keeps that error small. Raw CPU
and wall time and the slowdown of every pass are on the detail line.

--trace 1 replays the same command lines in-process (replay.py), each replay
in a fresh child interpreter, in rounds of traced, untraced, traced until S
seconds have gone. It reports each module's median self time, counts that must
repeat exactly between all traced replays, and the tracing overhead: per
round, the mean in-process time of its two traced replays minus that of its
untraced one, median over rounds. Under machine noise it can come out negative.

Every exit code and output is checked against answers this benchmark derives
itself (workloads.py); a mismatch, crash or timeout counts as failed. The last
line of stdout is the JSON result; the line before it records the environment
and the per-pass samples.

Gain claims should be re-checked on HELD_OUT_SEED, which is kept out of tuning.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import speedometer
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
HELD_OUT_SEED = 104729
SETUP_PER_PASS = 3
SETUP_SAMPLES = 15
SETUP_KEPT = 5
MIN_PASSES = 2
MIN_CHUNKS = 5
CHILD_TIMEOUT_S = 100

LAYER_TIMES = ("structure.parse", "structure.index", "structure.toposort", "structure.validate",
               "structure.ranks", "iso.match", "iso.verify", "iso.render", "hf.collapse",
               "hf.render", "axioms.semantic", "axioms.schema", "battery.build", "formulas.table",
               "formulas.naive", "lemmas.brute_witness")
LAYER_COUNTS = ("structure.elements", "structure.edges", "structure.max_rank", "iso.matched",
                "iso.unmatched", "hf.distinct_codes", "axioms.fail_rows", "battery.instances",
                "lemmas.brute_witness_calls", "cli.stdout_bytes")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users start from compiled bytecode
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list[str], work: Path) -> tuple[tuple[float, float], float, float, int, str]:
    """Run one child to the end: its (start, end) in time.monotonic seconds, CPU s,
    peak RSS MB, exit code, stdout."""
    out_path = work / "child.out"
    with open(out_path, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        window = (start, time.monotonic())
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    return window, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, stdout


@contextlib.contextmanager
def sampling_speed(work: Path):
    """Runs speedometer.py for the duration of the block; yields a function that
    gives the mean cost of its chunk over a (start, end) window, as a multiple of
    speedometer.CHUNK_S, once the block has ended."""
    out = work / "speedometer.json"
    proc = subprocess.Popen([sys.executable, str(HERE / "speedometer.py"), str(out)],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT)
    samples: list = []

    def slowdown(window: tuple[float, float]) -> float:
        start, end = window
        costs = [cpu for s, e, cpu in samples if start <= s and e <= end]
        if len(costs) < MIN_CHUNKS:  # too short a window: the chunks nearest its middle
            middle = (start + end) / 2
            costs = [cpu for s, e, cpu in sorted(samples, key=lambda c: abs(c[0] + c[1] - 2 * middle))]
            costs = costs[:MIN_CHUNKS]
        return statistics.fmean(costs) / speedometer.CHUNK_S

    try:
        if proc.stdout.readline() != b"ready\n":
            raise RuntimeError("speedometer did not start")
        yield slowdown
    finally:
        proc.terminate()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"speedometer exited {proc.returncode}")
    samples.extend(json.loads(out.read_text(encoding="utf-8")))


def verdict(inv: workloads.Invocation, code: int, stdout: str) -> str | None:
    """None when the invocation gave the expected exit code and output, else why not."""
    if code != inv.exit_code:
        return f"exit {code}, expected {inv.exit_code}"
    try:
        return inv.check(stdout)
    except (ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "dualmem.cli", *args]


def least_slowed(values: list[float], slowdowns: list[float], kept: int) -> float:
    """Median of the `kept` values measured while the CPU was least slowed down.

    The division by the slowdown is not exact for every workload, so values
    measured near nominal speed carry the least error. The choice looks only
    at the speedometer, never at the values themselves.
    """
    order = sorted(range(len(values)), key=slowdowns.__getitem__)
    return statistics.median(values[i] for i in order[:kept])


def measure_cli(invocations, seconds: float, work: Path):
    failures: list[str] = []
    attempted = 0
    setup = []  # (window, CPU s) of each cold start
    passes = []  # per pass: [(window, CPU s, peak RSS MB), ...] per invocation

    def cold_start():
        nonlocal attempted
        window, cpu, _, code, stdout = run_child(cli_argv(["--help"]), work)
        attempted += 1
        if code != 0 or not stdout.startswith("usage: dualmem"):
            failures.append(f"--help: exit {code}")
        return window, cpu

    with sampling_speed(work) as slowdown:
        cold_start()  # compiles bytecode; not timed
        start = time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
            # Cold starts are spread over the run so that setup_s sees the same
            # machine as the passes, not only its first seconds.
            setup.extend(cold_start() for _ in range(SETUP_PER_PASS))
            runs = []
            for inv in invocations:
                window, cpu, peak, code, stdout = run_child(cli_argv(inv.argv), work)
                attempted += 1
                runs.append((window, cpu, peak))
                reason = verdict(inv, code, stdout)
                if reason:
                    failures.append(f"{inv.argv[0]}: {reason}")
            passes.append(runs)
        while len(setup) < SETUP_SAMPLES:
            setup.append(cold_start())

    cpu_s = [sum(cpu for _, cpu, _ in runs) for runs in passes]
    cpu_norm = [sum(cpu / slowdown(window) for window, cpu, _ in runs) for runs in passes]
    pass_slowdown = [raw / norm for raw, norm in zip(cpu_s, cpu_norm)]
    rss = [max(peak for _, _, peak in runs) for runs in passes]
    setup_slowdown = [slowdown(window) for window, _ in setup]
    setup_norm = [cpu / factor for (_, cpu), factor in zip(setup, setup_slowdown)]
    metrics = {
        "cpu_norm_s": (least_slowed(cpu_norm, pass_slowdown, 1), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (least_slowed(setup_norm, setup_slowdown, SETUP_KEPT), "s"),
    }
    samples = {
        "passes": len(passes),
        "cpu_norm_s": cpu_norm,
        "slowdown": pass_slowdown,
        "cpu_s": cpu_s,
        "wall_s": [sum(end - start for (start, end), _, _ in runs) for runs in passes],
        "peak_rss_mb": rss,
        "setup_norm_s": setup_norm,
        "setup_slowdown": setup_slowdown,
        "setup_cpu_s": [cpu for _, cpu in setup],
    }
    return attempted, failures, metrics, samples


def replay(invocations, traced: bool, work: Path) -> dict:
    spec, out = work / "replay-spec.json", work / "replay-out.json"
    spec.write_text(json.dumps([list(inv.argv) for inv in invocations]), encoding="utf-8")
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "replay.py"), str(spec), str(out), "1" if traced else "0"]
    _, _, _, code, _ = run_child(argv, work)
    if code != 0 or not out.exists():
        return {"error": f"replay exited {code}"}
    return json.loads(out.read_text(encoding="utf-8"))


def measure_layers(invocations, seconds: float, work: Path):
    """Replays traced, untraced, traced, repeated until the window is over."""
    runs: list[dict] = []
    window = time.perf_counter()
    while not runs or time.perf_counter() - window < seconds:
        runs.extend(replay(invocations, traced, work) for traced in (True, False, True))
    attempted = len(invocations) * len(runs)
    failures = []
    for run in runs:
        if "error" in run:
            failures.extend([run["error"]] * len(invocations))
            continue
        for inv, (code, stdout) in zip(invocations, run["outputs"]):
            reason = verdict(inv, code, stdout)
            if reason:
                failures.append(f"replay {inv.argv[0]}: {reason}")
    if failures:
        return attempted, failures, {}, {}
    traced = [run for run in runs if "layers" in run]
    plain = [run for run in runs if "layers" not in run]
    for run in traced:
        run["counts"]["lemmas.brute_witness_calls"] = run["layers"].get("lemmas.brute_witness", {}).get("calls", 0)
        run["calls"] = {name: layer["calls"] for name, layer in run["layers"].items()}
    if any(run["counts"] != traced[0]["counts"] or run["calls"] != traced[0]["calls"] for run in traced):
        failures.append("counts differ between traced replays")

    def median(key):
        return statistics.median(key(run) for run in traced)

    metrics = {}
    for name in LAYER_TIMES:
        metrics[name + "_s"] = (median(lambda run: run["layers"].get(name, {}).get("self_s", 0.0)), "s")
    suites = [d for run in traced for d in run["durations"].get("lemmas.suite", [])]
    metrics["lemmas.suite_s_p50"] = (statistics.median(suites) if suites else 0.0, "s")
    metrics["lemmas.suite_s_p90"] = (statistics.quantiles(suites, n=10)[8] if len(suites) > 1 else 0.0, "s")
    for name in LAYER_COUNTS:
        metrics[name] = (traced[0]["counts"].get(name, 0), "B" if name == "cli.stdout_bytes" else "count")
    metrics["cli.import_s"] = (statistics.median(run["import_s"] for run in runs), "s")
    rounds = [runs[i:i + 3] for i in range(0, len(runs), 3)]
    metrics["trace.overhead_s"] = (statistics.median(
        (first["total_s"] + last["total_s"]) / 2 - untraced["total_s"] for first, untraced, last in rounds), "s")
    metrics["trace.coverage"] = (median(lambda run: sum(
        layer["self_s"] for name, layer in run["layers"].items() if not name.startswith("cli.")) / run["total_s"]),
        "ratio")
    samples = {"replays": len(runs), "traced_total_s": [run["total_s"] for run in traced],
               "plain_total_s": [run["total_s"] for run in plain], "suite_samples": len(suites),
               "layers": traced[0]["layers"]}
    return attempted, failures, metrics, samples


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "held_out_seed": HELD_OUT_SEED,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds into run_child, which reaps
    if not (ROOT / "src" / "dualmem" / "cli.py").is_file():
        print(f"error: no dualmem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One CPU for this process, the speedometer and every child, so that the
    # speedometer samples the CPU the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        invocations = workloads.build(args.workload, args.seed, work)
        if args.trace:
            attempted, failures, metrics, samples = measure_layers(invocations, args.seconds, work)
        else:
            attempted, failures, metrics, samples = measure_cli(invocations, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            work.parent.rmdir()
    env["loadavg_end"] = os.getloadavg()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env,
                      "fail_rate": len(failures) / attempted, "failures": failures[:20], "samples": samples}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
