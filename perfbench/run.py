"""Run one workload of the diskcovers benchmark and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each pass of a workload runs in a fresh interpreter (``worker.py``) on the
inputs the seed gives.  Passes repeat until ``--seconds`` have gone by, and at
least ``MIN_PASSES`` times; each metric is the median over the passes.

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_norm_s``, ``peak_rss_mb``).  With ``--trace 1`` the benchmark runs untraced passes
(enough for 100 items) and one traced pass of every workload, whatever
``--workload`` names, because each per-layer metric belongs to the workload where it moves
(see ``PER_LAYER``); the metrics are the per-layer ones.

The last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it itemises failed items, items that
reproduced a known defect, ``failed_ratio`` (both kinds over attempted items)
and the workload's properties.  Exits 2 without a result when the checkout
holds no program, 1 when a pass crashes or times out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify", "classify", "queries", "cli")
MIN_PASSES = 3
#: No pass starts when it would end after this many seconds of the run.
BUDGET_S = 150
#: A pass still running this many seconds into the run is killed.
RUN_LIMIT_S = 170
#: Fewer samples would leave fewer than ten beyond p90.
PERCENTILE_MIN_ITEMS = 100

CLI_COMMANDS = ("invariants", "canon", "restrict", "curve", "lift", "interval-type", "act",
                "orbit", "verify-theorem-c", "invalid-input")
#: Per-layer metrics, each under the workload whose end-to-end metrics it
#: should move (the mapping is spelt out in README.md).
PER_LAYER = {
    "certify": [
        "orbit.hurwitz_orbit.s", "orbit.hurwitz_orbit.elements", "orbit.hurwitz_orbit.elements_per_s",
        "orbit.hurwitz_orbit.letters_computed",
        "orbit.schreier_generators.s", "orbit.schreier_generators.words",
        "lift.is_liftable.s", "lift.is_liftable.calls", "lift.theorem_c_generators.s",
        "cosets.todd_coxeter.s", "cosets.todd_coxeter.index", "cosets.todd_coxeter.subgroup_words",
        "cosets.todd_coxeter.inconclusive",
    ],
    "classify": [
        "hurwitz.canonicalize.cold_s", "hurwitz.canonicalize.cold_calls",
        "hurwitz.canonicalize.warm_s", "hurwitz.canonicalize.warm_calls",
        "hurwitz.replay_certificate.s", "hurwitz.certificate.moves",
        "core.canonical_target.s", "core.is_equivalent.s",
        "orbit.classify_all.s", "orbit.classify_all.sequences",
    ],
    "queries": [
        "restrict.restrict.s", "restrict.restrict.calls", "restrict.restricted_total_monodromy.s",
        "core.total_monodromy.s", "core.surface_invariants.s", "core.components.s",
        "hurwitz.act.s", "hurwitz.act.letters",
        "lift.curve_monodromy.s", "lift.interval_type.s", "lift.catalog_curves.s",
    ],
    "cli": ["cli.interpreter_ms", "cli.import_ms"],
}
LATENCY_WORKLOADS = ("queries", "cli")
END_TO_END = ("setup_s", "wall_norm_s", "peak_rss_mb")
#: Reported for every pass in the report line: the end-to-end metrics, the raw
#: times and the reference chunk they are normalized by.
RAW = ("setup_raw_s", "wall_s", "ref_chunk_ms")
PASS_FIELDS = END_TO_END + RAW


def per_layer_names() -> list[str]:
    names = [name for workload in WORKLOADS for name in PER_LAYER[workload]]
    names += [f"{w}.{m}" for w in LATENCY_WORKLOADS for m in ("item_p50_ms", "item_p90_ms", "items")]
    names += [f"cli.{command}.ms_p50" for command in CLI_COMMANDS]
    names += ["cli.invalid_input.exit1_share"]
    names += [f"{w}.{m}" for w in WORKLOADS for m in RAW]
    names += [f"trace.{w}.{m}" for w in WORKLOADS for m in ("overhead_s", "remainder_s", "spans")]
    return names


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ms", ".ms_p50")):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, refused for fewer than PERCENTILE_MIN_ITEMS samples."""
    if len(values) < PERCENTILE_MIN_ITEMS:
        raise ValueError(f"{len(values)} samples are too few for a percentile (need {PERCENTILE_MIN_ITEMS})")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_worker(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One pass in a fresh interpreter; its process group is killed at ``deadline``."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace)), "--spawned", repr(spawned)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - spawned, 0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} pass still running {RUN_LIMIT_S} s into the run") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, began: float) -> list[dict]:
    passes: list[dict] = []
    while len(passes) < MIN_PASSES or time.monotonic() - began < seconds:
        started = time.monotonic()
        passes.append(run_worker(workload, seed, False, began + RUN_LIMIT_S))
        took = time.monotonic() - started
        if time.monotonic() - began + took > BUDGET_S:
            break
    return passes


def tally(passes: list[dict]) -> tuple[dict, int, int]:
    """The itemised report over passes of one seed, attempted and failed counts.

    Items that reproduce a known defect exactly are itemised and counted in
    ``failed_ratio`` but not in ``failed``; passes of one seed whose inputs
    differ are a failure.
    """
    attempted = sum(len(p["items"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    known = [k for p in passes for k in p["known_defects"]]
    properties = [p["properties"] for p in passes]
    if any(props != properties[0] for props in properties):
        failures.append({"item": "properties", "error": "passes of one seed saw different inputs"})
    report = {
        "passes": len(passes),
        **{f"{name}_passes": [p[name] for p in passes] for name in PASS_FIELDS},
        "failed_ratio": (len(failures) + len(known)) / attempted,
        "known_defect_ratio": len(known) / attempted,
        "failures": failures,
        "known_defects": known,
        "properties": properties[0],
    }
    return report, attempted, len(failures)


def end_to_end(passes: list[dict]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in END_TO_END}


def latencies(items: list, prefix: str) -> dict[str, float]:
    ms = [latency for _, latency, _ in items]
    return {f"{prefix}.item_p50_ms": percentile(ms, 50), f"{prefix}.item_p90_ms": percentile(ms, 90),
            f"{prefix}.items": len(ms)}


def cli_commands(items: list) -> dict[str, float]:
    out = {}
    for command in CLI_COMMANDS:
        ms = [latency for kind, latency, _ in items if kind == command]
        out[f"cli.{command}.ms_p50"] = statistics.median(ms) if ms else 0.0
    invalid = [ok for kind, _, ok in items if kind == "invalid-input"]
    out["cli.invalid_input.exit1_share"] = sum(invalid) / len(invalid)
    return out


def per_layer(seed: int, began: float) -> tuple[dict, dict[str, list[dict]]]:
    metrics: dict[str, float] = {}
    passes = {}
    for workload in WORKLOADS:
        plain = [run_worker(workload, seed, False, began + RUN_LIMIT_S)]
        while workload in LATENCY_WORKLOADS and len(plain) * len(plain[0]["items"]) < PERCENTILE_MIN_ITEMS:
            plain.append(run_worker(workload, seed, False, began + RUN_LIMIT_S))
        traced = run_worker(workload, seed, True, began + RUN_LIMIT_S)
        passes[workload] = plain + [traced]
        layers = traced["layers"]
        items = [item for p in plain for item in p["items"]]
        metrics.update({name: layers.get(name, 0) for name in PER_LAYER[workload]})
        metrics.update({f"{workload}.{name}": statistics.median(p[name] for p in plain) for name in RAW})
        metrics[f"trace.{workload}.overhead_s"] = traced["wall_s"] - metrics[f"{workload}.wall_s"]
        metrics[f"trace.{workload}.remainder_s"] = layers["remainder_s"]
        metrics[f"trace.{workload}.spans"] = layers["spans"]
        if workload in LATENCY_WORKLOADS:
            metrics.update(latencies(items, workload))
        if workload == "cli":
            metrics.update(cli_commands(items))
    return metrics, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()
    if not (ROOT / "src" / "diskcovers" / "__init__.py").is_file():
        print(f"no diskcovers package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, passes = per_layer(args.seed, began)
        else:
            passes = {args.workload: measure(args.workload, args.seed, args.seconds, began)}
            metrics = end_to_end(passes[args.workload])
            if args.workload in LATENCY_WORKLOADS:
                items = [i for p in passes[args.workload] for i in p["items"]]
                print(json.dumps(latencies(items, args.workload)))
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    reports = {workload: tally(runs) for workload, runs in passes.items()}
    attempted = sum(attempted for _, attempted, _ in reports.values())
    failed = sum(failed for _, _, failed in reports.values())
    print(json.dumps({"seed": args.seed, "workloads": {w: report for w, (report, _, _) in reports.items()}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
