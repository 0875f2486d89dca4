"""Time the kernel calls on fixed inputs and check every answer.

The kernel is what every covering query runs: ``restrict``,
``restricted_total_monodromy``, ``total_monodromy``, ``core._unpack``,
``act`` with a 48-letter word, the index-0 and index-1 catalog curves
(``index0_curve``, ``index1_curve``) and the public and unchecked
``BraidWord`` constructors.  The inputs are fixed: one covering on 6 sheets
with 7 branch points, cut along each of its 254 index sets at each base
point, 20 coverings on 6 sheets acted on by one 48-letter word, and the
whole catalog at n = 7, whose 301 words the constructors build again.  Each
case runs ``ROUNDS`` rounds of ``NUMBER`` batches; the SHA-256 of the
``repr`` of each case's answers is checked against the digest captured when
the case was written, and the script exits 1 on a wrong one.  For each case it records the median
microseconds per call in ``BENCH_kernel.json`` at the root of the checkout,
under the tree's label, as ``tools/tc_bench.py`` does (see there).  A tree
whose record types have no ``_unchecked`` constructor records null for that
case.  Compare timings only within one machine and one session.

    python tools/kernel_bench.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import platform
import random
import statistics
import sys
import time

from tc_bench import ROOT, label

from diskcovers import (  # tc_bench puts src/ on the path
    END,
    START,
    BraidWord,
    MonodromySequence,
    RestrictionSpec,
    act,
    index0_curve,
    index1_curve,
    restrict,
    restricted_total_monodromy,
    total_monodromy,
)
from diskcovers.core import _unpack

ROUNDS = 9
NUMBER = 20
OUTPUT = ROOT / "BENCH_kernel.json"

#: SHA-256 of the ``repr`` of each case's list of answers.  ``_unpack``
#: rebuilds the restrictions, and the total monodromy of a restriction is its
#: restricted total monodromy, so those cases share their digests.
RESTRICTIONS, MONODROMIES, WORDS = (
    "a0ec6c1d6c9bc59e550fcdfb27ae23b71456f5886bb9945899ff2717effd11d2",
    "e3d2156bca7ae6e5d2f2793f506180b00f2af926843dc5c56feb955fae8f4242",
    "89a25c5b9cf1bb9515143883822345c6debcc637ab87ef0f975e129b9698f54a",
)
DIGESTS = {
    "restrict": RESTRICTIONS,
    "restricted_total_monodromy": MONODROMIES,
    "total_monodromy": MONODROMIES,
    "_unpack": RESTRICTIONS,
    "act, 48 letters": "aa5eaafbf9f022e8b23cce52bcab7329ab7a21e3f14f6a10e4657b2a1ed64f34",
    "index0_curve/index1_curve, n=7": "d49272e9002953fd0e7e18e5790aa770ffe5eea9abf50bee6ea4f45ebd39b63f",
    "BraidWord public": WORDS,
    "BraidWord._unchecked": WORDS,
}


def cases() -> dict[str, object]:
    """Name: a call that returns the case's list of answers, or None."""
    rng = random.Random(17)

    def covering() -> MonodromySequence:
        return MonodromySequence.from_pairs(6, [rng.sample(range(1, 7), 2) for _ in range(7)])

    seq = covering()
    specs = [
        RestrictionSpec(indices, base)
        for size in range(1, 8)
        for indices in itertools.combinations(range(1, 8), size)
        for base in (START, END)
    ]
    restricted = [restrict(seq, spec) for spec in specs]
    coverings = [covering() for _ in range(20)]
    word = BraidWord(7, tuple(rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(48)))
    triples = [t for t in itertools.product(range(1, 8), repeat=3) if t[0] != t[1] != t[2]]

    def catalog() -> list:
        return [index0_curve(7, i, j) for i in range(1, 8) for j in range(1, 8)] + [
            index1_curve(7, *t) for t in triples
        ]

    letters = [curve.word.letters for curve in catalog()]
    unchecked = getattr(BraidWord, "_unchecked", None)
    return {
        "restrict": lambda: [restrict(seq, spec) for spec in specs],
        "restricted_total_monodromy": lambda: [restricted_total_monodromy(seq, spec) for spec in specs],
        "total_monodromy": lambda: [total_monodromy(r) for r in restricted],
        "_unpack": lambda: [_unpack(6, r._packed) for r in restricted],
        "act, 48 letters": lambda: [act(c, word) for c in coverings],
        "index0_curve/index1_curve, n=7": catalog,
        "BraidWord public": lambda: [BraidWord(7, w) for w in letters],
        "BraidWord._unchecked": unchecked and (lambda: [unchecked(7, w) for w in letters]),
    }


def main() -> int:
    results = {}
    for name, call in cases().items():
        if call is None:
            results[name] = None
            continue
        seconds = []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            for _ in range(NUMBER):
                answers = call()
            seconds.append(time.perf_counter() - start)
        digest = hashlib.sha256(repr(answers).encode()).hexdigest()
        if digest != DIGESTS[name]:
            print(f"{name}: wrong answers, digest {digest}", file=sys.stderr)
            return 1
        results[name] = {
            "calls": len(answers),
            "median_us_per_call": round(statistics.median(seconds) / NUMBER / len(answers) * 1e6, 3),
        }
        print(name, json.dumps(results[name]))
    document = json.loads(OUTPUT.read_text(encoding="utf-8")) if OUTPUT.exists() else {}
    document.setdefault("trees", {})[label()] = {
        "python": platform.python_version(),
        "rounds": ROUNDS,
        "number": NUMBER,
        "cases": results,
    }
    OUTPUT.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
