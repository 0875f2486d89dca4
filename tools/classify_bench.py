"""Time the brute-force classification on fixed cells and check every answer.

``classify_all`` partitions every sequence of one size into classes under
the braid action and sheet renumbering.  The cells are (d, n) = (3, 5),
(4, 4), (4, 5) and (4, 6), from 243 to 46,656 sequences.  Each cell runs
``ROUNDS`` times; the SHA-256 of the ``repr`` of each run's classes is
checked against the digest captured when the cell was written, and the
script exits 1 on a wrong one.  For each cell it records the median seconds,
the class count and the sequences classified in ``BENCH_classify.json`` at
the root of the checkout, under the tree's label, as ``tools/tc_bench.py``
does (see there).  Compare timings only within one machine and one session.

    python tools/classify_bench.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import statistics
import sys
import time

from tc_bench import ROOT, label

from diskcovers.orbit import classify_all  # tc_bench puts src/ on the path

ROUNDS = 9
OUTPUT = ROOT / "BENCH_classify.json"

#: SHA-256 of the ``repr`` of ``classify_all(d, n)``.
DIGESTS = {
    (3, 5): "0324e68b7d31ec89fb8949b3d10682f143a1a5ebad2f184c0685d32e5a371115",
    (4, 4): "49316a65743defc7b95183d4ad9823256fa587a05fe83c0a36fe6325e9947c66",
    (4, 5): "932fe7431318879518c502308b65c031328a15ddae53b8bdbf66da463740b4ea",
    (4, 6): "e2fa9df4842880a88e57ff1a307fa438f61cf11fd3f4eedf3c97190c23fc0ffd",
}


def main() -> int:
    results = {}
    for (degree, length), expected in DIGESTS.items():
        seconds = []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            classes = classify_all(degree, length)
            seconds.append(time.perf_counter() - start)
            digest = hashlib.sha256(repr(classes).encode()).hexdigest()
            if digest != expected:
                print(f"classify_all({degree}, {length}): wrong classes, digest {digest}", file=sys.stderr)
                return 1
        name = f"classify_all({degree}, {length})"
        results[name] = {
            "median_s": round(statistics.median(seconds), 4),
            "classes": len(classes),
            "sequences": sum(c.count for c in classes),
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
