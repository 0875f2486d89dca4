"""One pass of a benchmark workload, in a fresh interpreter.

Set-up (imports, inputs from the seed, expected answers) runs first; then the
timed phase runs every item in order, one at a time, and checks each answer.
All through the timed phase it runs chunks of a fixed reference loop, so that
the pass's time can be divided by the speed the shared host gave it while the
items ran.
Prints one JSON object on stdout.  ``run.py`` starts this script, one process
per pass, with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import diskcovers

import workloads
from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
IMPORT_CLI = "import time; t = time.perf_counter(); import diskcovers.cli; print(time.perf_counter() - t)"

#: The reference chunk's inputs: fixed, whatever the seed, and run through the
#: benchmark's own permutation arithmetic, so no change to the program moves it.
_REFERENCE_RNG = random.Random(0)
REFERENCE = [(d, workloads.random_pairs(_REFERENCE_RNG, d, 12)) for d in _REFERENCE_RNG.choices(range(3, 8), k=20)]
#: A reference chunk runs after every this many seconds of the pass's CPU
#: time, inside items too, so that long items are sampled while they run.
TICK_S = 0.01
#: Between items, chunks run until their time is at least this share of the
#: items' time; for items that run in child processes, these are all.
REFERENCE_SHARE = 0.1
#: ``wall_norm_s`` and ``setup_s`` are the times on a host where one reference
#: chunk takes this long.
NOMINAL_CHUNK_S = 1e-3


def reference_chunk() -> None:
    """One chunk of the reference loop.  The cyclic garbage collector is off
    while it runs, so that the chunk is never charged for scanning the heap
    the program built up: its own objects are freed by reference counting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for degree, pairs in REFERENCE:
            workloads.cycle_lengths(workloads.perm_product(degree, pairs))
            workloads.component_count(degree, pairs)
    finally:
        if enabled:
            gc.enable()


class Reference:
    """Timed chunks of the reference loop: from a profiling timer while the
    pass computes, if ``timer``, and from :meth:`top_up` between items."""

    def __init__(self, timer: bool) -> None:
        self.timer = timer
        self.seconds = 0.0
        self.chunks = 0
        self._busy = False

    def run(self) -> None:
        if self._busy:  # a tick inside a chunk: that time is being counted
            return
        self._busy = True
        try:
            began = time.perf_counter()
            reference_chunk()
            self.seconds += time.perf_counter() - began
            self.chunks += 1
        finally:
            self._busy = False

    def top_up(self, items_s: float) -> None:
        while self.seconds < REFERENCE_SHARE * items_s:
            self.run()

    def __enter__(self) -> "Reference":
        if self.timer:
            self._previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.run())
            signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, self._previous)


def interpreter_costs(repeats: int = 5) -> dict[str, float]:
    """Medians, in ms, of a bare interpreter's start-up (whole process) and of
    ``import diskcovers.cli`` timed inside a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    starts, imports = [], []
    for _ in range(repeats):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env)
        starts.append((time.perf_counter() - began) * 1e3)
        out = subprocess.run([sys.executable, "-c", IMPORT_CLI], check=True, env=env, capture_output=True, text=True)
        imports.append(float(out.stdout) * 1e3)
    return {"cli.interpreter_ms": sorted(starts)[repeats // 2], "cli.import_ms": sorted(imports)[repeats // 2]}


def run_pass(workload: str, seed: int, trace: bool, spawned: float) -> dict:
    """Set up, run and check one pass; ``spawned`` is ``time.monotonic()``
    just before this process was started."""
    plan = workloads.plan(workload, seed)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    items, failures, known, facts = [], [], [], {}
    wall_s = 0.0
    if plan.in_children:
        # Children inherit this: chunks then time the CPU the children run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.monotonic()
    # No chunk runs inside an item when it would land in a span, or when it
    # would run beside a child process and slow it down.
    with Reference(timer=not (tracer or plan.in_children)) as reference:
        for item in plan.items:
            if tracer:
                tracer.item = item.id
            before = reference.seconds
            began = time.perf_counter()
            try:
                observed = item.run()
            except workloads.KnownDefect as exc:
                known.append({"item": item.id, "defect": str(exc)})
                ok = False
            except Exception as exc:  # every item failure is itemised, not fatal
                failures.append({"item": item.id, "error": f"{type(exc).__name__}: {exc}"})
                ok = False
            else:
                ok = True
                if observed:
                    facts[item.id] = observed
            # Chunk time first: a tick taken at the clock call runs after the clock is read.
            spent = reference.seconds - before
            took = time.perf_counter() - began - spent
            wall_s += took
            items.append([item.kind, took * 1e3, ok])
            reference.top_up(wall_s)
    chunk_s = reference.seconds / reference.chunks
    who = resource.RUSAGE_CHILDREN if plan.in_children else resource.RUSAGE_SELF
    result = {
        "setup_raw_s": start - spawned,
        "setup_s": (start - spawned) * NOMINAL_CHUNK_S / chunk_s,
        "wall_s": wall_s,
        "wall_norm_s": wall_s * NOMINAL_CHUNK_S / chunk_s,
        "ref_chunk_ms": chunk_s * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "items": items,
        "failures": failures,
        "known_defects": known,
        "properties": {**plan.properties, "facts": facts},
    }
    if tracer:
        tracer.uninstall()
        tracer.write(ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json")
        result["layers"] = layer_metrics(tracer.spans, wall_s)
        if workload == "cli":
            result["layers"].update(interpreter_costs())
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    args = parser.parse_args()
    if not Path(diskcovers.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"diskcovers imported from {diskcovers.__file__}, not from this checkout", file=sys.stderr)
        return 2
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace), args.spawned)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
