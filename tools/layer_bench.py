"""Time four layers of the package on fixed cases and check every answer.

The layers, each written to its own file at the root of the checkout:

- coset enumeration (``BENCH_todd_coxeter.json``): ``todd_coxeter`` on the
  theorem C generators at n = 5 and 6, on the Schreier words of
  ``disk_covering(5)`` and on the trivial subgroup on 4 strands, which stops
  at a cap of 20,000 cosets.  Each run's status and index are checked, or
  for the capped case that it defined exactly the cap.  Each case records
  the median seconds, ``defined``, ``index`` and ``peak_live``.  Two more
  cases run the certifier whole: ``verify_theorem_c(5)``, both indices
  1,296, and ``interval_powers_index(disk_covering(5))``, both indices 1,296
  over 3,889 words.  Each round's report is checked whole, and each case
  records the median seconds and the report's fields.
- the orbit search (``BENCH_orbit.json``): ``stabilizer_index`` of
  ``disk_covering(6)``, index 16,807, ``schreier_generators`` on the (4, 6)
  covering of cycle type (2, 2), index 3,840 and 15,361 words, and
  ``liftable_interval_powers`` of ``disk_covering(5)``, index 1,296 and
  3,889 words.  Each round's index and word count are checked, and each case
  records them with the median seconds.
- the kernel (``BENCH_kernel.json``): ``restrict``,
  ``restricted_total_monodromy``, ``total_monodromy``, ``core._unpack``,
  ``act`` with a 48-letter word, the index-0 and index-1 catalog curves and
  the public and unchecked ``BraidWord`` constructors.  The inputs are one
  covering on 6 sheets with 7 branch points, cut along each of its 254 index
  sets at each base point, 20 coverings on 6 sheets acted on by one
  48-letter word, and the whole catalog at n = 7, whose 301 words the
  constructors build again.  A round runs ``NUMBER`` batches of a case; each
  case records the calls per batch and the median microseconds per call.
- classification (``BENCH_classify.json``): ``classify_all`` on the cells
  (d, n) = (3, 5), (4, 4), (4, 5) and (4, 6), from 243 to 46,656
  sequences.  Each cell records the median seconds, the class count and the
  sequences classified.  The classify stream takes 200 seeded connected
  coverings with d in 3..5 and n in 4..6 through ``canonicalize``, then
  ``canonical_target`` from the cycle type computed beside each covering and
  ``is_equivalent`` of the covering and that target; it records the median
  seconds, the coverings and the moves of all their certificates.

Each case runs ``ROUNDS`` rounds.  For the kernel and classification cases,
the SHA-256 of the ``repr`` of every round's answer is checked against the
digest captured when the case was written.  On a wrong answer the script
names the case and exits 1.

The numbers go under the label of the tree the script sits in: its git
commit, with ``+`` appended when ``src/`` has uncommitted changes.  Entries
under other labels stay: to set two trees side by side, run the script in
one checkout, copy its JSON files into the other and run it there.  Compare
timings only within one machine and one session.

    python tools/layer_bench.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import platform
import random
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from diskcovers import (  # noqa: E402
    END,
    START,
    BraidWord,
    MonodromySequence,
    OrbitClass,
    RestrictionSpec,
    act,
    canonical_target,
    canonicalize,
    disk_covering,
    index0_curve,
    index1_curve,
    is_equivalent,
    liftable_interval_powers,
    restrict,
    restricted_total_monodromy,
    schreier_generators,
    stabilizer_index,
    theorem_c_generators,
    total_monodromy,
)
from diskcovers.core import _unpack  # noqa: E402
from diskcovers.cosets import (  # noqa: E402
    CAPPED,
    COMPLETE,
    CosetTable,
    Inconclusive,
    IntervalGenerationReport,
    TheoremCReport,
    interval_powers_index,
    todd_coxeter,
    verify_theorem_c,
)
from diskcovers.orbit import classify_all  # noqa: E402

ROUNDS = 9
NUMBER = 20
CAP = 20_000


def label() -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout

    try:
        return git("rev-parse", "--short", "HEAD").strip() + ("+" if git("status", "--porcelain", "--", "src") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unversioned"


def digest(answer: object) -> str:
    return hashlib.sha256(repr(answer).encode()).hexdigest()


def enumerate_cosets(strands: int, words: list, cap: int | None) -> CosetTable:
    try:
        return todd_coxeter(strands, words, cap)[1]
    except Inconclusive as capped:
        return capped.table


def coset_answer(answer: CosetTable | TheoremCReport | IntervalGenerationReport) -> object:
    # A finished table is checked by its index, a capped one by its count of
    # cosets defined, and a certifier's report whole.
    if not isinstance(answer, CosetTable):
        return answer
    return answer.status, answer.index if answer.status == COMPLETE else answer.defined


def coset_record(answer: CosetTable | TheoremCReport | IntervalGenerationReport, median: float) -> dict:
    if not isinstance(answer, CosetTable):
        return {"median_s": round(median, 4), **{name: getattr(answer, name) for name in answer.__match_args__}}
    return {
        "median_s": round(median, 4),
        "defined": answer.defined,
        "index": answer.index,
        "peak_live": answer.peak_live,
    }


def coset_cases() -> dict:
    """Name: (call, expected ``coset_answer``)."""
    schreier = schreier_generators(disk_covering(5))
    return {
        "theorem_c n=5": (partial(enumerate_cosets, 5, theorem_c_generators(5), None), (COMPLETE, 6**4)),
        "theorem_c n=6": (partial(enumerate_cosets, 6, theorem_c_generators(6), None), (COMPLETE, 7**5)),
        f"schreier disk_covering(5), {len(schreier)} words": (
            partial(enumerate_cosets, 5, schreier, 200_000),
            (COMPLETE, stabilizer_index(disk_covering(5))),
        ),
        f"trivial subgroup n=4, cap {CAP}": (partial(enumerate_cosets, 4, [], CAP), (CAPPED, CAP)),
        "verify_theorem_c(5)": (
            partial(verify_theorem_c, 5),
            TheoremCReport(
                branch_points=5, generator_count=10, all_liftable=True, orbit_index=6**4, tc_index=6**4, passed=True
            ),
        ),
        "interval_powers_index(disk_covering(5))": (
            partial(interval_powers_index, disk_covering(5)),
            IntervalGenerationReport(orbit_index=6**4, tc_index=6**4, generator_count=3_889, generates=True),
        ),
    }


#: ``_unpack`` rebuilds the restrictions, and the total monodromy of a
#: restriction is its restricted total monodromy, so those cases share their
#: digests.
RESTRICTIONS, MONODROMIES, WORDS = (
    "a0ec6c1d6c9bc59e550fcdfb27ae23b71456f5886bb9945899ff2717effd11d2",
    "e3d2156bca7ae6e5d2f2793f506180b00f2af926843dc5c56feb955fae8f4242",
    "89a25c5b9cf1bb9515143883822345c6debcc637ab87ef0f975e129b9698f54a",
)


def kernel_cases() -> dict:
    """Name: (a call that returns the case's list of answers, its digest)."""
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
    return {
        "restrict": (lambda: [restrict(seq, spec) for spec in specs], RESTRICTIONS),
        "restricted_total_monodromy": (
            lambda: [restricted_total_monodromy(seq, spec) for spec in specs],
            MONODROMIES,
        ),
        "total_monodromy": (lambda: [total_monodromy(r) for r in restricted], MONODROMIES),
        "_unpack": (lambda: [_unpack(6, r._packed) for r in restricted], RESTRICTIONS),
        "act, 48 letters": (
            lambda: [act(c, word) for c in coverings],
            "aa5eaafbf9f022e8b23cce52bcab7329ab7a21e3f14f6a10e4657b2a1ed64f34",
        ),
        "index0_curve/index1_curve, n=7": (
            catalog,
            "d49272e9002953fd0e7e18e5790aa770ffe5eea9abf50bee6ea4f45ebd39b63f",
        ),
        "BraidWord public": (lambda: [BraidWord(7, w) for w in letters], WORDS),
        "BraidWord._unchecked": (lambda: [BraidWord._unchecked(7, w) for w in letters], WORDS),
    }


CLASSIFY_STREAM = 200


def classify_cases() -> dict:
    """Name: (call, SHA-256 of the ``repr`` of its answer)."""
    digests = {
        (3, 5): "0324e68b7d31ec89fb8949b3d10682f143a1a5ebad2f184c0685d32e5a371115",
        (4, 4): "49316a65743defc7b95183d4ad9823256fa587a05fe83c0a36fe6325e9947c66",
        (4, 5): "932fe7431318879518c502308b65c031328a15ddae53b8bdbf66da463740b4ea",
        (4, 6): "e2fa9df4842880a88e57ff1a307fa438f61cf11fd3f4eedf3c97190c23fc0ffd",
    }
    cases = {f"classify_all({d}, {n})": (partial(classify_all, d, n), expected) for (d, n), expected in digests.items()}
    rng = random.Random(25)
    stream = []
    while len(stream) < CLASSIFY_STREAM:
        degree, length = rng.choice((3, 4, 5)), rng.choice((4, 5, 6))
        covering = MonodromySequence.from_pairs(degree, [rng.sample(range(1, degree + 1), 2) for _ in range(length)])
        if covering.is_connected():
            stream.append((covering, total_monodromy(covering).cycle_type().parts))

    def classify_stream() -> list:
        answers = []
        for covering, omega in stream:
            result = canonicalize(covering)
            target = canonical_target(covering.degree, covering.length, omega)
            answers.append((result, target == result.canonical, is_equivalent(covering, target)))
        return answers

    cases[f"classify stream, {CLASSIFY_STREAM} coverings"] = (
        classify_stream,
        "ac523c4a8cad907ac72447ec6f64c30123d9d03323812e9ed31b00d2333342e2",
    )
    return cases


def classify_record(answer: list, median: float) -> dict:
    """A ``classify_all`` cell's classes and sequences, or the stream's
    coverings and certificate moves."""
    if isinstance(answer[0], OrbitClass):
        return {"median_s": round(median, 4), "classes": len(answer), "sequences": sum(c.count for c in answer)}
    return {"median_s": round(median, 4), "coverings": len(answer), "moves": sum(len(r.moves) for r, _, _ in answer)}


def orbit_cases() -> dict:
    """Name: (call, expected ``orbit_answer``)."""
    # The (4, 6) class of cycle type (2, 2) whose Schreier words
    # tests/golden_cli.json pins.
    covering = MonodromySequence.from_pairs(4, [(1, 2), (3, 4), (2, 3), (2, 4), (1, 2), (2, 4)])
    return {
        "stabilizer_index(disk_covering(6))": (partial(stabilizer_index, disk_covering(6)), {"index": 7**5}),
        "schreier_generators, (4, 6) omega=(2, 2)": (
            partial(schreier_generators, covering),
            {"index": 3_840, "words": 15_361},
        ),
        "liftable_interval_powers(disk_covering(5))": (
            partial(liftable_interval_powers, disk_covering(5)),
            {"index": 6**4, "words": 3_889},
        ),
    }


def orbit_answer(answer: int | list) -> dict:
    """An orbit index, or Schreier words or interval powers with the index
    they give: the whole tree gives index * (n - 2) + 1 of either
    (Nielsen-Schreier)."""
    if isinstance(answer, int):
        return {"index": answer}
    return {"index": (len(answer) - 1) // (answer[0].strands - 2), "words": len(answer)}


#: Output file, calls per round, cases, what a round's answer is checked by,
#: and what a case records from its last answer and median seconds per round.
LAYERS = (
    (
        "BENCH_todd_coxeter.json",
        1,
        coset_cases,
        coset_answer,
        coset_record,
    ),
    (
        "BENCH_orbit.json",
        1,
        orbit_cases,
        orbit_answer,
        lambda answer, median: {"median_s": round(median, 4), **orbit_answer(answer)},
    ),
    (
        "BENCH_kernel.json",
        NUMBER,
        kernel_cases,
        digest,
        lambda answers, median: {
            "calls": len(answers),
            "median_us_per_call": round(median / NUMBER / len(answers) * 1e6, 3),
        },
    ),
    (
        "BENCH_classify.json",
        1,
        classify_cases,
        digest,
        classify_record,
    ),
)


def main() -> int:
    tree = label()
    for output, number, cases, check, record in LAYERS:
        results = {}
        for name, (call, expected) in cases().items():
            seconds = []
            for _ in range(ROUNDS):
                start = time.perf_counter()
                for _ in range(number):
                    answer = call()
                seconds.append(time.perf_counter() - start)
                if check(answer) != expected:
                    print(f"{name}: wrong answer {check(answer)}, expected {expected}", file=sys.stderr)
                    return 1
            results[name] = record(answer, statistics.median(seconds))
            print(name, json.dumps(results[name]))
        entry = {"python": platform.python_version(), "rounds": ROUNDS}
        if number > 1:
            entry["number"] = number
        entry["cases"] = results
        path = ROOT / output
        document = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        document.setdefault("trees", {})[tree] = entry
        path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
