"""Time coset enumeration on fixed cases and record its counters.

The cases are the theorem C generators at n = 5 and 6, the Schreier words of
``disk_covering(5)`` and the trivial subgroup on 4 strands, which stops at a
cap of 20,000 cosets.  Each case runs ``ROUNDS`` times; every run's index and
status are checked, and the script exits 1 on a wrong one.  For each case it
records the median seconds, ``defined``, ``index`` and ``peak_live`` (null
on a tree whose ``CosetTable`` has no such counter) in
``BENCH_todd_coxeter.json`` at the root of the checkout.

The numbers go under the label of the tree the script sits in: its git
commit, with ``+`` appended when ``src/`` has uncommitted changes.  Entries
under other labels stay: to set two trees side by side, run the script in
one checkout, copy its JSON file into the other and run it there.  Compare
timings only within one machine and one session.

    python tools/tc_bench.py
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from diskcovers import disk_covering, schreier_generators, stabilizer_index, theorem_c_generators  # noqa: E402
from diskcovers.cosets import Inconclusive, todd_coxeter  # noqa: E402

ROUNDS = 9
CAP = 20_000
OUTPUT = ROOT / "BENCH_todd_coxeter.json"


def label() -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout

    try:
        return git("rev-parse", "--short", "HEAD").strip() + ("+" if git("status", "--porcelain", "--", "src") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unversioned"


def cases() -> dict[str, tuple[int, list, int | None, int | None]]:
    """Name: (strands, words, cap, index expected; None when capped)."""
    schreier = schreier_generators(disk_covering(5))
    return {
        "theorem_c n=5": (5, theorem_c_generators(5), None, 6**4),
        "theorem_c n=6": (6, theorem_c_generators(6), None, 7**5),
        f"schreier disk_covering(5), {len(schreier)} words": (5, schreier, 200_000, stabilizer_index(disk_covering(5))),
        f"trivial subgroup n=4, cap {CAP}": (4, [], CAP, None),
    }


def main() -> int:
    results = {}
    for name, (strands, words, cap, expected) in cases().items():
        seconds = []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            try:
                _, table = todd_coxeter(strands, words, cap)
            except Inconclusive as capped:
                table = capped.table
            seconds.append(time.perf_counter() - start)
            if expected is None:
                ok = table.status == "capped" and table.defined == cap
            else:
                ok = table.status == "complete" and table.index == expected
            if not ok:
                print(f"{name}: {table.status}, index {table.index}, {table.defined} defined", file=sys.stderr)
                return 1
        results[name] = {
            "median_s": round(statistics.median(seconds), 4),
            "defined": table.defined,
            "index": table.index,
            "peak_live": getattr(table, "peak_live", None),
        }
        print(name, json.dumps(results[name]))
    document = json.loads(OUTPUT.read_text(encoding="utf-8")) if OUTPUT.exists() else {}
    document.setdefault("trees", {})[label()] = {
        "python": platform.python_version(),
        "rounds": ROUNDS,
        "cases": results,
    }
    OUTPUT.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
