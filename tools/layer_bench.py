"""Time four layers of the package on fixed cases and check every answer.

The layers, each written to its own file at the root of the checkout:

- coset enumeration (``BENCH_todd_coxeter.json``): ``todd_coxeter`` on the
  theorem C generators at n = 5 and 6, on the Schreier words of
  ``disk_covering(5)`` and of the (4, 6) covering of cycle type (2, 2) below,
  and on the trivial subgroup on 4 strands, which stops at a cap of 20,000
  cosets.  Each run's status, index and ``defined`` are checked (the
  Schreier words define no coset twice: ``defined`` equals the index), or
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
  records them with the median seconds.  One more case runs ``is_liftable``
  on each of the 15,361 Schreier words of that (4, 6) covering; every round
  must find all of them liftable.
- the kernel (``BENCH_kernel.json``): ``restrict``,
  ``restricted_total_monodromy``, ``total_monodromy``, ``core._unpack``,
  ``act`` with a 48-letter word, ``curve_monodromy`` and ``interval_type``
  of curves and intervals carried by that word, ``interval_braid`` at
  powers 2 and -3, the index-0 and index-1 catalog curves and the public and
  unchecked ``BraidWord`` constructors.  The inputs are one covering on 6
  sheets with 7 branch points, cut along each of its 254 index sets at each
  base point, 20 coverings on 6 sheets acted on by one 48-letter word, at
  each of its 7 curves and 6 intervals, the 105 index-1 intervals at n = 7,
  and the whole catalog at n = 7, whose 301 words the constructors build
  again.  A round runs ``NUMBER`` batches of a case; each case records the
  calls per batch and the median microseconds per call.
- classification (``BENCH_classify.json``): ``classify_all`` on the cells
  (d, n) = (3, 5), (4, 4), (4, 5) and (4, 6), from 243 to 46,656
  sequences.  Each cell records the median seconds, the class count and the
  sequences classified.  The classify stream takes 200 seeded connected
  coverings with d in 3..5 and n in 4..6 through ``canonicalize``, then
  ``canonical_target`` from the cycle type computed beside each covering and
  ``is_equivalent`` of the covering and that target; it records the median
  seconds, the coverings and the moves of all their certificates.

Each case runs ``ROUNDS`` rounds, and records its median seconds to 4
significant digits, so that a sub-millisecond case can show a change.  For
the kernel and classification cases, the SHA-256 of the ``repr`` of every
round's answer is checked against the digest captured when the case was
written.  On a wrong answer the script names the case and exits 1.

The numbers go under the label of the tree the script sits in: its git
commit, with ``+`` appended when ``src/`` has uncommitted changes.  Entries
under other labels stay.  Compare timings only within one machine and one
session.

    python tools/layer_bench.py

Two runs one after the other read the host's drift between them as a
change.  To set two trees side by side, ``--against PATH`` runs every case
in fresh processes, alternately on this tree's package and on the one under
``PATH/src``, ``--alternations`` times each (default 5), this tree first in
even alternations and ``PATH`` first in odd ones.  Each process runs the
case as above, answers checked, but goes on past ``ROUNDS`` rounds until its
rounds add up to at least ``MIN_TIMED_S``, 0.3 s, and reports its median: a
kernel case, whose round takes 3 to 25 ms, then runs 12 to 100 rounds in
each process rather than 9.  More rounds do not take out the drift of a
shared host between processes: over 10 alternations, cases whose code had
not changed still read up to 5-10% away from a ratio of 1.  The script
prints and records, per case, each tree's median over its processes, the
fewest rounds one of its processes ran, and the ratio of this tree's median
to ``PATH``'s in each alternation, with the median ratio.  The records go
under the key ``"alternating"`` of each JSON file, named by both labels,
with ``MIN_TIMED_S`` as ``"min_timed_s"``; the ``"trees"`` entries are left
as they are.

    python tools/layer_bench.py --against ../parent --alternations 10
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# A process of the alternating mode imports the package it is told to time.
sys.path.insert(0, os.environ.get("LAYER_BENCH_SRC") or str(ROOT / "src"))

from diskcovers import (  # noqa: E402
    END,
    START,
    BraidWord,
    CurveRef,
    IntervalRef,
    MonodromySequence,
    OrbitClass,
    RestrictionSpec,
    act,
    canonical_target,
    canonicalize,
    curve_monodromy,
    disk_covering,
    index0_curve,
    index1_curve,
    index1_interval,
    interval_braid,
    interval_type,
    is_equivalent,
    is_liftable,
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
#: A process of the alternating mode runs more rounds than ``ROUNDS`` until
#: they add up to this many seconds.
MIN_TIMED_S = 0.3
NUMBER = 20
CAP = 20_000
#: The (4, 6) class of cycle type (2, 2) whose Schreier words
#: tests/golden_cli.json pins: 15,361 words, index 3,840.
FOUR_SIX = MonodromySequence.from_pairs(4, [(1, 2), (3, 4), (2, 3), (2, 4), (1, 2), (2, 4)])


def label(root: Path = ROOT) -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True, check=True).stdout

    try:
        return git("rev-parse", "--short", "HEAD").strip() + ("+" if git("status", "--porcelain", "--", "src") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unversioned"


def significant(seconds: float) -> float:
    """A median rounded to 4 significant digits, so that a sub-millisecond
    case keeps as many as a long one."""
    return float(f"{seconds:.4g}")


def digest(answer: object) -> str:
    return hashlib.sha256(repr(answer).encode()).hexdigest()


def enumerate_cosets(strands: int, words: list, cap: int | None) -> CosetTable:
    try:
        return todd_coxeter(strands, words, cap)[1]
    except Inconclusive as capped:
        return capped.table


def coset_answer(answer: CosetTable | TheoremCReport | IntervalGenerationReport) -> object:
    # A finished table is checked by its index and its count of cosets
    # defined, a capped one by that count, and a certifier's report whole.
    if not isinstance(answer, CosetTable):
        return answer
    if answer.status == COMPLETE:
        return answer.status, answer.index, answer.defined
    return answer.status, answer.defined


def coset_record(answer: CosetTable | TheoremCReport | IntervalGenerationReport, median: float) -> dict:
    if not isinstance(answer, CosetTable):
        return {"median_s": significant(median), **{name: getattr(answer, name) for name in answer.__match_args__}}
    return {
        "median_s": significant(median),
        "defined": answer.defined,
        "index": answer.index,
        "peak_live": answer.peak_live,
    }


def coset_cases() -> dict:
    """Name: (call, expected ``coset_answer``)."""
    schreier = schreier_generators(disk_covering(5))
    four_six = schreier_generators(FOUR_SIX)
    return {
        "theorem_c n=5": (partial(enumerate_cosets, 5, theorem_c_generators(5), None), (COMPLETE, 6**4, 2_499)),
        "theorem_c n=6": (partial(enumerate_cosets, 6, theorem_c_generators(6), None), (COMPLETE, 7**5, 32_599)),
        f"schreier disk_covering(5), {len(schreier)} words": (
            partial(enumerate_cosets, 5, schreier, 200_000),
            (COMPLETE, 6**4, 6**4),
        ),
        f"schreier (4, 6) omega=(2, 2), {len(four_six)} words": (
            partial(enumerate_cosets, 6, four_six, 200_000),
            (COMPLETE, 3_840, 3_840),
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
    curves = [CurveRef(j, word) for j in range(1, 8)]
    intervals = [IntervalRef(i, word) for i in range(1, 7)]
    # index1_interval is symmetric in its outer indices.
    carried = [index1_interval(7, *t) for t in triples if t[0] < t[2]]
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
        "curve_monodromy, 48 letters": (
            lambda: [curve_monodromy(c, curve) for c in coverings for curve in curves],
            "d40f1f63d0105d55bb9855f0aed4c5fdea6cc63fba9fd06b7cd50772571cee0e",
        ),
        "interval_type, 48 letters": (
            lambda: [interval_type(c, interval) for c in coverings for interval in intervals],
            "13fd28c738896e5365e523fef1ec94197105ec75626623e48023d4ec9425533b",
        ),
        "interval_braid, power 2": (
            lambda: [interval_braid(i, 2) for i in carried],
            "9420818040e3e96d6ef01ed21639cdd17cad9a6f0bb65e5d3f6bc381eed8e178",
        ),
        "interval_braid, power -3": (
            lambda: [interval_braid(i, -3) for i in carried],
            "4a245e5c5ffe9aa8ddcba6730dd29d3eaad3953ee1222d18bba317edd33dd50e",
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
        return {"median_s": significant(median), "classes": len(answer), "sequences": sum(c.count for c in answer)}
    return {"median_s": significant(median), "coverings": len(answer), "moves": sum(len(r.moves) for r, _, _ in answer)}


def orbit_cases() -> dict:
    """Name: (call, expected ``orbit_answer``)."""
    words = schreier_generators(FOUR_SIX)
    return {
        "stabilizer_index(disk_covering(6))": (partial(stabilizer_index, disk_covering(6)), {"index": 7**5}),
        "schreier_generators, (4, 6) omega=(2, 2)": (
            partial(schreier_generators, FOUR_SIX),
            {"index": 3_840, "words": 15_361},
        ),
        "liftable_interval_powers(disk_covering(5))": (
            partial(liftable_interval_powers, disk_covering(5)),
            {"index": 6**4, "words": 3_889},
        ),
        "is_liftable, (4, 6) omega=(2, 2) Schreier words": (
            lambda: [is_liftable(FOUR_SIX, word) for word in words],
            {"words": 15_361, "liftable": 15_361},
        ),
    }


def orbit_answer(answer: int | list) -> dict:
    """An orbit index; Schreier words or interval powers with the index
    they give: the whole tree gives index * (n - 2) + 1 of either
    (Nielsen-Schreier); or ``is_liftable`` answers, counted."""
    if isinstance(answer, int):
        return {"index": answer}
    if isinstance(answer[0], bool):
        return {"words": len(answer), "liftable": sum(answer)}
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
        lambda answer, median: {"median_s": significant(median), **orbit_answer(answer)},
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


def run_case(number: int, call, expected, check, record, min_seconds: float = 0.0) -> tuple[dict, float, int]:
    """A case's record, median seconds and rounds, over at least ``ROUNDS``
    rounds of ``number`` calls and as many more as it takes for the rounds to
    add up to ``min_seconds``; raises ``ValueError`` naming the wrong answer."""
    seconds: list[float] = []
    while len(seconds) < ROUNDS or sum(seconds) < min_seconds:
        start = time.perf_counter()
        for _ in range(number):
            answer = call()
        seconds.append(time.perf_counter() - start)
        if check(answer) != expected:
            raise ValueError(f"wrong answer {check(answer)}, expected {expected}")
    median = statistics.median(seconds)
    return record(answer, median), median, len(seconds)


def entry_head(number: int) -> dict:
    entry = {"python": platform.python_version(), "rounds": ROUNDS}
    if number > 1:
        entry["number"] = number
    return entry


def update(output: str, key: str, name: str, entry: dict) -> None:
    """Set ``document[key][name]`` in the JSON file ``output``, keeping the rest."""
    path = ROOT / output
    document = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    document.setdefault(key, {})[name] = entry
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def one_case(output: str, name: str) -> int:
    """Run one case in this process, for at least ``MIN_TIMED_S``, and print
    its record, median seconds and rounds as JSON."""
    number, cases, check, record = next(layer[1:] for layer in LAYERS if layer[0] == output)
    call, expected = cases()[name]
    try:
        print(json.dumps(run_case(number, call, expected, check, record, MIN_TIMED_S)))
    except ValueError as wrong:
        print(f"{name}: {wrong}", file=sys.stderr)
        return 1
    return 0


def alternate(other: Path, alternations: int) -> int:
    """Every case in fresh processes, alternating this tree and ``other``."""
    sides = {"tree": ROOT / "src", "against": other.resolve() / "src"}
    labels = {"tree": label(), "against": label(other.resolve())}
    for output, number, cases, _, _ in LAYERS:
        results = {}
        for name in cases():
            runs = {side: [] for side in sides}
            for k in range(alternations):
                for side in sorted(sides, reverse=k % 2 == 1):  # "tree" first in even alternations
                    env = {**os.environ, "LAYER_BENCH_SRC": str(sides[side])}
                    argv = [sys.executable, str(Path(__file__).resolve()), "--case", output, name]
                    done = subprocess.run(argv, env=env, capture_output=True, text=True)
                    if done.returncode:
                        print(f"{labels[side]}: {done.stderr.strip()}", file=sys.stderr)
                        return 1
                    runs[side].append(json.loads(done.stdout))
            # Ratios of unrounded seconds, which a record rounds.
            ratios = [t / a for (_, t, _), (_, a, _) in zip(runs["tree"], runs["against"])]
            timing = next(key for key in runs["tree"][0][0] if key.startswith("median"))
            results[name] = {
                side: {
                    **runs[side][-1][0],
                    timing: significant(statistics.median(r[timing] for r, _, _ in runs[side])),
                    "min_rounds": min(rounds for _, _, rounds in runs[side]),
                }
                for side in sides
            }
            results[name]["ratios"] = [round(r, 3) for r in ratios]
            results[name]["median_ratio"] = round(statistics.median(ratios), 3)
            print(name, json.dumps(results[name]))
        entry = {**entry_head(number), "min_timed_s": MIN_TIMED_S, "alternations": alternations, **labels}
        entry["cases"] = results
        update(output, "alternating", f"{labels['tree']} vs {labels['against']}", entry)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Time the package's layers on fixed cases, every answer checked.")
    parser.add_argument("--against", type=Path, metavar="PATH", help="a second checkout, alternated with this one")
    parser.add_argument("--alternations", type=int, default=5, metavar="K", help="processes per tree and case")
    parser.add_argument("--case", nargs=2, metavar=("OUTPUT", "NAME"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.alternations < 1:
        parser.error("--alternations must be at least 1")
    if args.against and not (args.against / "src" / "diskcovers" / "__init__.py").is_file():
        parser.error(f"no diskcovers package under {args.against / 'src'}")
    if args.case:
        return one_case(*args.case)
    if args.against:
        return alternate(args.against, args.alternations)
    tree = label()
    for output, number, cases, check, record in LAYERS:
        results = {}
        for name, (call, expected) in cases().items():
            try:
                results[name] = run_case(number, call, expected, check, record)[0]
            except ValueError as wrong:
                print(f"{name}: {wrong}", file=sys.stderr)
                return 1
            print(name, json.dumps(results[name]))
        update(output, "trees", tree, {**entry_head(number), "cases": results})
    return 0


if __name__ == "__main__":
    sys.exit(main())
