"""Time five layers of the package on fixed cases and check every answer.

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
  ``MonodromySequence.from_pairs`` on each restriction's pairs, larger sheet
  first, ``act`` with a 48-letter word, ``curve_monodromy`` and
  ``interval_type`` of curves and intervals carried by that word,
  ``interval_braid`` at powers 2 and -3, the index-0 and index-1 catalog
  curves, ``index1_interval`` and the public and unchecked ``BraidWord``
  constructors.  The inputs are one covering on 6 sheets with 7 branch
  points, cut along each of its 254 index sets at each base point, 20
  coverings on 6 sheets acted on by one 48-letter word, at each of its 7
  curves and 6 intervals, the 105 index-1 intervals at n = 7, which
  ``interval_braid`` twists and ``index1_interval`` builds again, and the
  whole catalog at n = 7, whose 301 words the constructors build again.  A round runs ``NUMBER`` batches of a
  case; each case records the calls per batch and the median microseconds
  per call.
- classification (``BENCH_classify.json``): ``classify_all`` on the cells
  (d, n) = (3, 5), (4, 4), (4, 5) and (4, 6), from 243 to 46,656
  sequences.  Each cell records the median seconds, the class count and the
  sequences classified.  The classify stream takes 200 seeded connected
  coverings with d in 3..5 and n in 4..6 through ``canonicalize``, then
  ``canonical_target`` from the cycle type computed beside each covering and
  ``is_equivalent`` of the covering and that target; it records the median
  seconds, the coverings and the moves of all their certificates.  Six more
  cases take the same 200 coverings through ``canonicalize`` alone, through
  ``replay_certificate`` alone, of certificates made beforehand, through
  ``omega_class`` alone, through ``is_equivalent`` alone, 400 calls:
  each covering against its target, made beforehand, then against the
  first target of its (d, n) in the stream, 320 of them equivalent, through
  ``is_connected`` alone, all 200 connected, and through ``canonical_target``
  alone, from each covering's cycle type as a tuple of parts.
- the CLI front end (``BENCH_cli.json``): ``cli.main`` in this process, its
  stdout and stderr captured, on fixed command lines: the seven light
  commands of the benchmark's ``cli`` mix (``invariants``, ``canon``,
  ``restrict``, ``curve``, ``lift``, ``interval-type``, ``act``) on a
  covering with 5 sheets and 6 branch points, or on the disk covering of 5
  sheets for ``lift``, each with its flags spelled ``--flag value`` and
  ``--flag=value``; ``act`` with a braid of negative letters after a ``=``;
  and ``lift`` with no ``--braid``, a usage error.  Each round's exit code,
  stdout and stderr are checked by their digest; each case records the exit
  code and the median microseconds per call.  The case times parsing,
  dispatch, the command's work and the report, but not the imports a
  process pays, since this script has loaded ``argparse`` itself.

Each case runs ``ROUNDS`` rounds, and records its median seconds per call to
4 significant digits, so that a sub-millisecond case can show a change.  A
round makes one call, ``NUMBER`` for the kernel cases, or for the short
cases in ``BATCHED`` (``classify_all(3, 5)``, ``verify_theorem_c(5)`` and
the seven cases on the classify stream) the count given there, which the
case records as ``"number"``.  Every
round's answer is checked by the SHA-256 of the ``repr`` of what the case
checks: for the kernel and classification cases the answer's own digest,
captured when the case was written.  On a wrong answer the script names the
case and exits 1.

The numbers go under the label of the tree the script sits in: its git
commit, with ``+`` appended when ``src/`` has uncommitted changes.  Entries
under other labels stay.  Compare timings only within one machine and one
session.

    python tools/layer_bench.py

Two runs one after the other read the host's drift between them as a
change.  To set two trees side by side, ``--against PATH`` imports the
package under ``PATH/src`` into the same process as a second package, and
runs each case's rounds interleaved between the two trees, ``--rounds``
each (default 21), this tree first in even rounds and ``PATH`` first in odd
ones.  Both trees' answers are checked by digest, since records of two
trees never compare equal.  The script prints and records, per case, each
tree's record with its median, the median of the per-round ratios of this
tree's seconds to ``PATH``'s, the rounds in which this tree was faster and
the range of the ratios, under the key ``"alternating"`` of each JSON file,
named by both labels; the ``"trees"`` entries are left as they are.  (Older
``"alternating"`` entries, which carry ``"min_timed_s"``, came from a mode
that ran each case in fresh processes, where the drift of a shared host
between processes read as a change of up to 10%.)

    python tools/layer_bench.py --against ../parent

Both trees share one interpreter, one allocator and one garbage collector,
and each is imported before any case runs.  So this mode does not see a
change to import-time work, to the state a module builds when it loads, or
to memory use and layout; ``perfbench`` stays the judge of end-to-end time
and of peak memory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
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
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import diskcovers  # noqa: E402
from diskcovers.cosets import CAPPED, COMPLETE  # noqa: E402

ROUNDS = 9
NUMBER = 20
CAP = 20_000
CLASSIFY_STREAM = 200
#: Calls per round of the cases that one call times too briefly to resolve a
#: few percent, in place of their layer's count: one ``classify_all(3, 5)``
#: takes about 0.2 ms and one ``verify_theorem_c(5)`` about 5 ms.  The cases
#: on the classify stream take 0.1 to 10 ms a call, and one call a round
#: spread their per-round ratios from x0.63 to x1.39, so each round makes
#: about 20 ms of calls.
BATCHED = {
    "classify_all(3, 5)": 50,
    "verify_theorem_c(5)": 8,
    f"classify stream, {CLASSIFY_STREAM} coverings": 3,
    f"canonicalize, {CLASSIFY_STREAM} coverings": 4,
    f"replay_certificate, {CLASSIFY_STREAM} coverings": 16,
    f"is_equivalent, {CLASSIFY_STREAM} coverings": 8,
    f"omega_class, {CLASSIFY_STREAM} coverings": 50,
    f"is_connected, {CLASSIFY_STREAM} coverings": 50,
    f"canonical_target from a tuple, {CLASSIFY_STREAM} coverings": 50,
}


def four_six(dc: ModuleType):
    """The (4, 6) class of cycle type (2, 2) whose Schreier words
    tests/golden_cli.json pins: 15,361 words, index 3,840."""
    return dc.MonodromySequence.from_pairs(4, [(1, 2), (3, 4), (2, 3), (2, 4), (1, 2), (2, 4)])


def load(root: Path, name: str) -> ModuleType:
    """The package under ``root/src`` imported as the package ``name``."""
    package = root / "src" / "diskcovers"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


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


def kind(answer: object) -> str:
    """The name of an answer's class, alike in both trees."""
    return type(answer).__name__


def enumerate_cosets(dc: ModuleType, strands: int, words: list, cap: int | None):
    try:
        return dc.todd_coxeter(strands, words, cap)[1]
    except dc.Inconclusive as capped:
        return capped.table


def coset_answer(answer) -> object:
    # A finished table is checked by its index and its count of cosets
    # defined, a capped one by that count, and a certifier's report whole.
    if kind(answer) != "CosetTable":
        return answer
    if answer.status == COMPLETE:
        return answer.status, answer.index, answer.defined
    return answer.status, answer.defined


def coset_record(answer, median: float) -> dict:
    if kind(answer) != "CosetTable":
        return {"median_s": significant(median), **{name: getattr(answer, name) for name in answer.__match_args__}}
    return {
        "median_s": significant(median),
        "defined": answer.defined,
        "index": answer.index,
        "peak_live": answer.peak_live,
    }


def coset_cases(dc: ModuleType) -> dict:
    """Name: (call, expected ``coset_answer``)."""
    schreier = dc.schreier_generators(dc.disk_covering(5))
    words = dc.schreier_generators(four_six(dc))
    return {
        "theorem_c n=5": (partial(enumerate_cosets, dc, 5, dc.theorem_c_generators(5), None), (COMPLETE, 6**4, 2_499)),
        "theorem_c n=6": (
            partial(enumerate_cosets, dc, 6, dc.theorem_c_generators(6), None),
            (COMPLETE, 7**5, 32_599),
        ),
        f"schreier disk_covering(5), {len(schreier)} words": (
            partial(enumerate_cosets, dc, 5, schreier, 200_000),
            (COMPLETE, 6**4, 6**4),
        ),
        f"schreier (4, 6) omega=(2, 2), {len(words)} words": (
            partial(enumerate_cosets, dc, 6, words, 200_000),
            (COMPLETE, 3_840, 3_840),
        ),
        f"trivial subgroup n=4, cap {CAP}": (partial(enumerate_cosets, dc, 4, [], CAP), (CAPPED, CAP)),
        "verify_theorem_c(5)": (
            partial(dc.verify_theorem_c, 5),
            dc.TheoremCReport(
                branch_points=5, generator_count=10, all_liftable=True, orbit_index=6**4, tc_index=6**4, passed=True
            ),
        ),
        "interval_powers_index(disk_covering(5))": (
            partial(dc.interval_powers_index, dc.disk_covering(5)),
            dc.IntervalGenerationReport(orbit_index=6**4, tc_index=6**4, generator_count=3_889, generates=True),
        ),
    }


#: ``_unpack`` and ``from_pairs`` rebuild the restrictions, and the total
#: monodromy of a restriction is its restricted total monodromy, so those
#: cases share their digests.
RESTRICTIONS, MONODROMIES, WORDS = (
    "a0ec6c1d6c9bc59e550fcdfb27ae23b71456f5886bb9945899ff2717effd11d2",
    "e3d2156bca7ae6e5d2f2793f506180b00f2af926843dc5c56feb955fae8f4242",
    "89a25c5b9cf1bb9515143883822345c6debcc637ab87ef0f975e129b9698f54a",
)


def kernel_cases(dc: ModuleType) -> dict:
    """Name: (a call that returns the case's list of answers, its digest)."""
    rng = random.Random(17)

    def covering():
        return dc.MonodromySequence.from_pairs(6, [rng.sample(range(1, 7), 2) for _ in range(7)])

    seq = covering()
    specs = [
        dc.RestrictionSpec(indices, base)
        for size in range(1, 8)
        for indices in itertools.combinations(range(1, 8), size)
        for base in (dc.START, dc.END)
    ]
    restricted = [dc.restrict(seq, spec) for spec in specs]
    coverings = [covering() for _ in range(20)]
    word = dc.BraidWord(7, tuple(rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(48)))
    triples = [t for t in itertools.product(range(1, 8), repeat=3) if t[0] != t[1] != t[2]]

    def catalog() -> list:
        return [dc.index0_curve(7, i, j) for i in range(1, 8) for j in range(1, 8)] + [
            dc.index1_curve(7, *t) for t in triples
        ]

    letters = [curve.word.letters for curve in catalog()]
    curves = [dc.CurveRef(j, word) for j in range(1, 8)]
    intervals = [dc.IntervalRef(i, word) for i in range(1, 7)]
    # index1_interval is symmetric in its outer indices.
    outer = [t for t in triples if t[0] < t[2]]
    carried = [dc.index1_interval(7, *t) for t in outer]
    unpack = dc.core._unpack
    # Each restriction's pairs, larger sheet first, as a caller may give them.
    flipped = [[(b, a) for a, b in r.pairs()] for r in restricted]
    return {
        "restrict": (lambda: [dc.restrict(seq, spec) for spec in specs], RESTRICTIONS),
        "restricted_total_monodromy": (
            lambda: [dc.restricted_total_monodromy(seq, spec) for spec in specs],
            MONODROMIES,
        ),
        "total_monodromy": (lambda: [dc.total_monodromy(r) for r in restricted], MONODROMIES),
        "_unpack": (lambda: [unpack(6, r._packed) for r in restricted], RESTRICTIONS),
        "from_pairs": (lambda: [dc.MonodromySequence.from_pairs(6, pairs) for pairs in flipped], RESTRICTIONS),
        "act, 48 letters": (
            lambda: [dc.act(c, word) for c in coverings],
            "aa5eaafbf9f022e8b23cce52bcab7329ab7a21e3f14f6a10e4657b2a1ed64f34",
        ),
        "curve_monodromy, 48 letters": (
            lambda: [dc.curve_monodromy(c, curve) for c in coverings for curve in curves],
            "d40f1f63d0105d55bb9855f0aed4c5fdea6cc63fba9fd06b7cd50772571cee0e",
        ),
        "interval_type, 48 letters": (
            lambda: [dc.interval_type(c, interval) for c in coverings for interval in intervals],
            "13fd28c738896e5365e523fef1ec94197105ec75626623e48023d4ec9425533b",
        ),
        "interval_braid, power 2": (
            lambda: [dc.interval_braid(i, 2) for i in carried],
            "9420818040e3e96d6ef01ed21639cdd17cad9a6f0bb65e5d3f6bc381eed8e178",
        ),
        "interval_braid, power -3": (
            lambda: [dc.interval_braid(i, -3) for i in carried],
            "4a245e5c5ffe9aa8ddcba6730dd29d3eaad3953ee1222d18bba317edd33dd50e",
        ),
        "index0_curve/index1_curve, n=7": (
            catalog,
            "d49272e9002953fd0e7e18e5790aa770ffe5eea9abf50bee6ea4f45ebd39b63f",
        ),
        "index1_interval, n=7": (
            lambda: [dc.index1_interval(7, *t) for t in outer],
            "b3a4b7039f825909b84489f31349dc28a3fc1a8164763091b83eefec4ef8fa32",
        ),
        "BraidWord public": (lambda: [dc.BraidWord(7, w) for w in letters], WORDS),
        "BraidWord._unchecked": (lambda: [dc.BraidWord._unchecked(7, w) for w in letters], WORDS),
    }


def classify_cases(dc: ModuleType) -> dict:
    """Name: (call, SHA-256 of the ``repr`` of its answer)."""
    digests = {
        (3, 5): "0324e68b7d31ec89fb8949b3d10682f143a1a5ebad2f184c0685d32e5a371115",
        (4, 4): "49316a65743defc7b95183d4ad9823256fa587a05fe83c0a36fe6325e9947c66",
        (4, 5): "932fe7431318879518c502308b65c031328a15ddae53b8bdbf66da463740b4ea",
        (4, 6): "e2fa9df4842880a88e57ff1a307fa438f61cf11fd3f4eedf3c97190c23fc0ffd",
    }
    cases = {
        f"classify_all({d}, {n})": (partial(dc.classify_all, d, n), expected) for (d, n), expected in digests.items()
    }
    rng = random.Random(25)
    stream = []
    while len(stream) < CLASSIFY_STREAM:
        degree, length = rng.choice((3, 4, 5)), rng.choice((4, 5, 6))
        covering = dc.MonodromySequence.from_pairs(
            degree, [rng.sample(range(1, degree + 1), 2) for _ in range(length)]
        )
        if covering.is_connected():
            stream.append((covering, dc.total_monodromy(covering).cycle_type().parts))
    certified = [(covering, dc.canonicalize(covering)) for covering, _ in stream]
    targets = [dc.canonical_target(covering.degree, covering.length, omega) for covering, omega in stream]
    coverings = [covering for covering, _ in stream]
    first_of_size = {}
    for covering, target in zip(coverings, targets):
        first_of_size.setdefault((covering.degree, covering.length), target)
    # Each covering against its target, then against the first target of its
    # size in the stream, so that every call compares two cycle types.
    pairs = list(zip(coverings, targets)) + [(c, first_of_size[c.degree, c.length]) for c in coverings]

    def classify_stream() -> list:
        answers = []
        for covering, omega in stream:
            result = dc.canonicalize(covering)
            target = dc.canonical_target(covering.degree, covering.length, omega)
            answers.append((result, target == result.canonical, dc.is_equivalent(covering, target)))
        return answers

    cases[f"classify stream, {CLASSIFY_STREAM} coverings"] = (
        classify_stream,
        "ac523c4a8cad907ac72447ec6f64c30123d9d03323812e9ed31b00d2333342e2",
    )
    cases[f"canonicalize, {CLASSIFY_STREAM} coverings"] = (
        lambda: [dc.canonicalize(covering) for covering, _ in stream],
        "a2716b3a21bc0d13f118aef1e6b859153c95340aa8355d805744b5f1df64c1c3",
    )
    cases[f"replay_certificate, {CLASSIFY_STREAM} coverings"] = (
        lambda: [dc.replay_certificate(covering, result) for covering, result in certified],
        "cbb51b924c9e2df7860bd2fee93f9f639856f4ee1aed2d95910c8abd9a7d0741",
    )
    cases[f"is_equivalent, {CLASSIFY_STREAM} coverings"] = (
        lambda: [dc.is_equivalent(covering, other) for covering, other in pairs],
        "7bd6d00a8a39210e9949bc02433395db10c009f9dcfd16af06e36c5ca85ac90f",
    )
    cases[f"omega_class, {CLASSIFY_STREAM} coverings"] = (
        lambda: [dc.omega_class(covering) for covering in coverings],
        "8b162c716034c570df7905349f9373616ec4e5eec1737ba3002aa0d49410e61c",
    )
    cases[f"is_connected, {CLASSIFY_STREAM} coverings"] = (
        lambda: [covering.is_connected() for covering in coverings],
        "d8a5073c55066a3165bb2bc7f70769e3c16471d4f0252ef778770740d865de87",
    )
    cases[f"canonical_target from a tuple, {CLASSIFY_STREAM} coverings"] = (
        lambda: [dc.canonical_target(covering.degree, covering.length, omega) for covering, omega in stream],
        "cbb51b924c9e2df7860bd2fee93f9f639856f4ee1aed2d95910c8abd9a7d0741",
    )
    return cases


def classify_record(answer: list, median: float) -> dict:
    """A ``classify_all`` cell's classes and sequences, the calls of a case
    that answers yes or no and how many said yes, or the coverings of
    another case on the stream and the moves of their certificates."""
    entry = {"median_s": significant(median)}
    first = kind(answer[0])
    if first == "OrbitClass":
        return {**entry, "classes": len(answer), "sequences": sum(c.count for c in answer)}
    if first == "bool":
        return {**entry, "calls": len(answer), "true": sum(answer)}
    entry["coverings"] = len(answer)
    if first == "tuple":
        entry["moves"] = sum(len(r.moves) for r, _, _ in answer)
    elif first == "CanonicalizationResult":
        entry["moves"] = sum(len(r.moves) for r in answer)
    return entry


def orbit_cases(dc: ModuleType) -> dict:
    """Name: (call, expected ``orbit_answer``)."""
    covering = four_six(dc)
    words = dc.schreier_generators(covering)
    return {
        "stabilizer_index(disk_covering(6))": (partial(dc.stabilizer_index, dc.disk_covering(6)), {"index": 7**5}),
        "schreier_generators, (4, 6) omega=(2, 2)": (
            partial(dc.schreier_generators, covering),
            {"index": 3_840, "words": 15_361},
        ),
        "liftable_interval_powers(disk_covering(5))": (
            partial(dc.liftable_interval_powers, dc.disk_covering(5)),
            {"index": 6**4, "words": 3_889},
        ),
        "is_liftable, (4, 6) omega=(2, 2) Schreier words": (
            lambda: [dc.is_liftable(covering, word) for word in words],
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


#: A connected covering on 5 sheets with 6 branch points, and the disk
#: covering on 5 sheets, as a command line spells them.
CLI_COVERING = '{"degree": 5, "monodromy": [[1, 2], [2, 3], [3, 5], [1, 4], [4, 5], [2, 3]]}'
CLI_DISK = '{"degree": 5, "monodromy": [[1, 2], [2, 3], [3, 4], [4, 5]]}'
#: The light commands of the benchmark's ``cli`` mix: their flags, and the
#: SHA-256 of the ``repr`` of the exit code, stdout and stderr, which the
#: ``--flag value`` and ``--flag=value`` spellings share.
CLI_FLAGS = {
    "invariants": (
        {"--covering": CLI_COVERING},
        "d0d8cee97dad3d99c971a9e64a878ee868517ff77534e397ba28793d2a56a43d",
    ),
    "canon": (
        {"--covering": CLI_COVERING},
        "233d3abb3252f98db43ca7b49b19b74f6b6074f833da3ff5792624d28a58f35d",
    ),
    "restrict": (
        {"--covering": CLI_COVERING, "--indices": "1,3,4", "--base": "end"},
        "9d31231d68a33569371cc7122079d9504f2303fa50e79bacbfd08be6ec427e03",
    ),
    "curve": (
        {"--covering": CLI_COVERING, "--curve": '{"base": 2, "word": [1, -3, 5]}'},
        "4d0e73e87bfd341ce042d6ef213355e146f4c0e4860e5a18fcaf14ad66e8a062",
    ),
    "lift": (
        {"--covering": CLI_DISK, "--braid": "2 1 1 -2"},
        "4d5d4d1faca0ace9ee43f64aab596fb52d31be3e6fe189e558d66f0f98622743",
    ),
    "interval-type": (
        {"--covering": CLI_COVERING, "--interval": '{"base": 1, "word": [2, -4]}'},
        "6427f5a4a5baaedf8758b324ab865a9fe5f528e303814d802adbca1b3dce2f4b",
    ),
    "act": (
        {"--covering": CLI_COVERING, "--braid": "1 -2 3 -4 5"},
        "6f31fe81863be1973298b08ff6805e261235da3609efda535745f2b03a39fbcb",
    ),
}
#: Name: (command line, digest of its answer): each light command in both
#: spellings, a braid of negative letters after a ``=``, and a usage error.
CLI_LINES = {
    **{
        f"{command}, --flag value": ([command, *(token for pair in flags.items() for token in pair)], expected)
        for command, (flags, expected) in CLI_FLAGS.items()
    },
    **{
        f"{command}, --flag=value": ([command, *(f"{flag}={value}" for flag, value in flags.items())], expected)
        for command, (flags, expected) in CLI_FLAGS.items()
    },
    "act, --braid=-1 -2 3 -5": (
        ["act", "--covering", CLI_COVERING, "--braid=-1 -2 3 -5"],
        "767c71a68da70036ee92ab781d7615baddc428535a31be75ba7f450337c7526d",
    ),
    "usage error, lift without --braid": (
        ["lift", "--covering", CLI_DISK],
        "7215284ecfad4fe3eec5bc51801467e57a34212208fd17f53fe12c46e413adda",
    ),
}


def run_main(main, argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``'s exit code, and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_cases(dc: ModuleType) -> dict:
    """Name: (a call of ``cli.main`` on a fixed command line, the digest of
    its ``run_main`` answer)."""
    main = importlib.import_module(f"{dc.__name__}.cli").main
    return {name: (partial(run_main, main, argv), expected) for name, (argv, expected) in CLI_LINES.items()}


#: Output file, calls per round (unless ``BATCHED`` names the case), cases,
#: what a round's answer is checked by, and what a case records from its last
#: answer and the median seconds per call of its rounds.
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
            "median_us_per_call": round(median / len(answers) * 1e6, 3),
        },
    ),
    (
        "BENCH_classify.json",
        1,
        classify_cases,
        digest,
        classify_record,
    ),
    (
        "BENCH_cli.json",
        NUMBER,
        cli_cases,
        digest,
        lambda answer, median: {"exit": answer[0], "median_us_per_call": round(median * 1e6, 3)},
    ),
)


def timed_round(number: int, call, expected, check) -> tuple[float, object]:
    """The seconds of ``number`` calls and the last answer, checked by the
    digest of ``check(answer)``; raises ``ValueError`` naming a wrong one."""
    # Each round starts with no garbage left by the one before, of either tree.
    gc.collect()
    start = time.perf_counter()
    for _ in range(number):
        answer = call()
    seconds = time.perf_counter() - start
    if digest(check(answer)) != digest(expected):
        raise ValueError(f"wrong answer {check(answer)}, expected {expected}")
    return seconds, answer


def batched(calls: int, number: int, entry: dict) -> dict:
    """A case's record, with its calls per round when they are not its layer's."""
    return entry if calls == number else {**entry, "number": calls}


def entry_head(number: int, rounds: int) -> dict:
    entry = {"python": platform.python_version(), "rounds": rounds}
    if number > 1:
        entry["number"] = number
    return entry


def update(output: str, key: str, name: str, entry: dict) -> None:
    """Set ``document[key][name]`` in the JSON file ``output``, keeping the rest."""
    path = ROOT / output
    document = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    document.setdefault(key, {})[name] = entry
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def measure() -> int:
    """Every case on this tree, ``ROUNDS`` rounds each."""
    tree = label()
    for output, number, cases, check, record in LAYERS:
        results = {}
        for name, (call, expected) in cases(diskcovers).items():
            calls = BATCHED.get(name, number)
            try:
                rounds = [timed_round(calls, call, expected, check) for _ in range(ROUNDS)]
            except ValueError as wrong:
                print(f"{name}: {wrong}", file=sys.stderr)
                return 1
            median = statistics.median(seconds for seconds, _ in rounds) / calls
            results[name] = batched(calls, number, record(rounds[-1][1], median))
            print(name, json.dumps(results[name]))
        update(output, "trees", tree, {**entry_head(number, ROUNDS), "cases": results})
    return 0


def interleave(other: Path, rounds: int) -> int:
    """Every case on this tree and on ``other`` in one process, their rounds
    interleaved and the order flipped every round."""
    packages = {"tree": diskcovers, "against": load(other.resolve(), "diskcovers_against")}
    labels = {"tree": label(), "against": label(other.resolve())}
    for output, number, cases, check, record in LAYERS:
        built = {side: cases(dc) for side, dc in packages.items()}
        results = {}
        for name in built["tree"]:
            calls = BATCHED.get(name, number)
            seconds: dict[str, list[float]] = {side: [] for side in packages}
            last = {}
            for k in range(rounds):
                for side in ("tree", "against")[:: 1 if k % 2 == 0 else -1]:
                    call, expected = built[side][name]
                    try:
                        elapsed, last[side] = timed_round(calls, call, expected, check)
                    except ValueError as wrong:
                        print(f"{labels[side]}: {name}: {wrong}", file=sys.stderr)
                        return 1
                    seconds[side].append(elapsed)
            ratios = [t / a for t, a in zip(seconds["tree"], seconds["against"])]
            results[name] = {
                side: batched(calls, number, record(last[side], statistics.median(seconds[side]) / calls))
                for side in packages
            }
            results[name].update(
                median_ratio=round(statistics.median(ratios), 3),
                lower=sum(r < 1 for r in ratios),
                range=[round(min(ratios), 3), round(max(ratios), 3)],
            )
            print(name, json.dumps(results[name]))
        entry = {**entry_head(number, rounds), **labels, "cases": results}
        update(output, "alternating", f"{labels['tree']} vs {labels['against']}", entry)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Time the package's layers on fixed cases, every answer checked.")
    parser.add_argument("--against", type=Path, metavar="PATH", help="a second checkout, interleaved with this one")
    parser.add_argument("--rounds", type=int, default=21, metavar="N", help="rounds per tree and case with --against")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.against is None:
        return measure()
    if not (args.against / "src" / "diskcovers" / "__init__.py").is_file():
        parser.error(f"no diskcovers package under {args.against / 'src'}")
    return interleave(args.against, args.rounds)


if __name__ == "__main__":
    sys.exit(main())
