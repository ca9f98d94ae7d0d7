"""Samples how fast the CPU is running, beside the program and on the same CPU.

    python3 perfbench/speedometer.py OUT.json

On a shared VM the speed of one virtual CPU moves by half or more for
seconds at a time, presumably as other tenants load the same physical core,
and the CPU time of a fixed piece of work moves with it. run.py pins itself,
this process and every child to one CPU. This process then runs a fixed chunk
of work, about CHUNK_S of CPU, every PERIOD_S, and records each chunk's CPU
cost and wall-clock interval, so that each child of run.py can be divided by
the mean chunk cost over its own interval. The chunk takes about 5% of the CPU
and does not count in the children's CPU time.

The chunk is interpreter work on small dicts and frozensets that touches
little memory, so its cost hardly depends on what the program leaves in the
caches. Under contention it slowed down about as much as the lemma suite and
more than the rest: in log terms the deep chain's CPU time moved about 0.7 as
much, short commands about 0.8. Adding random reads in a large table to the
chunk tracked the chain better but the lemma suite worse, and spread more.

It prints "ready" once it can be stopped. On SIGTERM it writes its samples
as [[start, end, cpu_s], ...] (time.monotonic seconds) and exits 0.
"""

import json
import signal
import sys
import time

ITERATIONS = 2500
PERIOD_S = 0.03
CHUNK_S = 0.0012  # CPU seconds of one chunk on an uncontended core of a 2-vCPU Xeon VM


def chunk() -> int:
    acc = 0
    for i in range(ITERATIONS):
        d = {i: i, i + 1: i}
        acc += len(frozenset(d.items()))
    return acc


def main(out_path: str) -> None:
    stopping = False

    def stop(*_):
        nonlocal stopping
        stopping = True

    signal.signal(signal.SIGTERM, stop)
    print("ready", flush=True)
    samples = []
    while not stopping:
        start, cpu = time.monotonic(), time.process_time()
        chunk()
        samples.append((start, time.monotonic(), time.process_time() - cpu))
        time.sleep(PERIOD_S)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(samples, f)


if __name__ == "__main__":
    main(sys.argv[1])
