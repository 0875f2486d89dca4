"""Seeded inputs, items and oracles of the four benchmark workloads.

``plan(workload, seed)`` is the set-up of one pass: it draws the inputs from
the seed, computes every expected answer the oracles need, and returns the
items of the timed phase.  An item is a thunk that raises :class:`Failed` when
an oracle rejects the program's answer and otherwise returns a dict, possibly
empty, of exact counts it observed (orbit and coset indices), which join the
workload's properties.  The program only ever sees the generated inputs.

The oracles are independent of the code under test where the mathematics
allows it: closed forms, the benchmark's own permutation arithmetic, replayed
certificates, the brute-force classifier and identities between two library
functions that compute the same quantity by different routes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable

import diskcovers as dc

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify", "classify", "queries", "cli")


class Failed(Exception):
    """The program gave an answer its oracle rejects."""


class KnownDefect(Failed):
    """The item reproduced a defect listed in :data:`KNOWN_DEFECTS`, exactly
    as described there."""


#: Defects of the program that a workload keeps in its mix on purpose.
KNOWN_DEFECTS = {
    "degree-true": (
        'parse_covering accepts JSON booleans as integers: {"degree": true, "monodromy": []} '
        "is read as degree 1 and exits 0 instead of 1; ROADMAP lists it among the robustness bugs"
    ),
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise Failed(message)


@dataclass
class Item:
    id: str
    kind: str
    run: Callable[[], dict]


@dataclass
class Plan:
    items: list[Item]
    properties: dict
    #: Items run in child processes: peak RSS is that of the largest child,
    #: and no reference chunk runs while a child does (see ``worker.py``).
    in_children: bool = False


# --- the benchmark's own arithmetic (oracles) ------------------------------

def perm_product(degree: int, pairs) -> tuple[int, ...]:
    """Images of sheets 1..d under the left-to-right product of the given
    transpositions, computed by brute force."""
    images = list(range(1, degree + 1))
    for a, b in pairs:
        images = [b if v == a else a if v == b else v for v in images]
    return tuple(images)


def cycle_lengths(images: tuple[int, ...]) -> list[int]:
    seen: set[int] = set()
    lengths = []
    for start in range(1, len(images) + 1):
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            k = images[k - 1]
            length += 1
        if length:
            lengths.append(length)
    return sorted(lengths, reverse=True)


def omega_parts(degree: int, pairs) -> tuple[int, ...]:
    return tuple(c for c in cycle_lengths(perm_product(degree, pairs)) if c > 1)


def component_count(degree: int, pairs) -> int:
    blocks = [{s} for s in range(1, degree + 1)]
    for a, b in pairs:
        ba = next(x for x in blocks if a in x)
        bb = next(x for x in blocks if b in x)
        if ba is not bb:
            blocks.remove(bb)
            ba |= bb
    return len(blocks)


def pair_type(t: tuple[int, int], u: tuple[int, int]) -> int:
    """1 for equal transpositions, 2 for disjoint ones, 3 for one shared sheet."""
    shared = len(set(t) & set(u))
    return 1 if shared == 2 else 2 if shared == 0 else 3


# --- seeded inputs -----------------------------------------------------------

def random_pairs(rng: random.Random, degree: int, length: int) -> list[tuple[int, int]]:
    return [tuple(sorted(rng.sample(range(1, degree + 1), 2))) for _ in range(length)]


def random_connected(rng: random.Random, degree: int, length: int) -> list[tuple[int, int]]:
    """A uniformly drawn connected sequence, by rejection."""
    while True:
        pairs = random_pairs(rng, degree, length)
        if component_count(degree, pairs) == 1:
            return pairs


def random_in_class(rng: random.Random, degree: int, length: int, omega: tuple[int, ...]) -> list[tuple[int, int]]:
    """A uniformly drawn connected sequence with cycle type ``omega``, by rejection."""
    while omega_parts(degree, pairs := random_connected(rng, degree, length)) != omega:
        pass
    return pairs


def random_letters(rng: random.Random, length: int, count: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) * rng.randint(1, length - 1) for _ in range(count))


def cycle_types(degree: int, largest: int | None = None):
    """Every cycle type on ``degree`` sheets, as nontrivial parts descending."""
    largest = degree if largest is None else largest
    if degree < 2 or largest < 2:
        yield ()
        return
    yield ()
    for part in range(min(degree, largest), 1, -1):
        for rest in cycle_types(degree - part, part):
            yield (part,) + rest


def realizable_omegas(degree: int, length: int) -> set[tuple[int, ...]]:
    out = set()
    for parts in set(cycle_types(degree)):
        try:
            dc.canonical_target(degree, length, parts)
        except dc.NotRealizable:
            continue
        out.add(parts)
    return out


def covering(degree: int, pairs) -> dc.MonodromySequence:
    return dc.MonodromySequence.from_pairs(degree, pairs)


def histogram(keys) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(keys).items())}


# --- certify -----------------------------------------------------------------

CERTIFY_THEOREM_C = range(2, 7)
#: Every (d, n) with d in 3..5, n in 4..6 but (5, 6), whose Schreier set of
#: 62,501 words takes longer alone than the rest of the pass together; each
#: with the cycle type omega of its largest orbit.  The orbit size depends only
#: on the class, so fixing it keeps the work of a pass the same for every seed
#: (for (4, 6) the three classes have orbits of 2,880, 3,645 and 3,840).
CERTIFY_SCHREIER = [
    (3, 4, (3,)), (3, 5, (2,)), (3, 6, (3,)), (4, 4, (2, 2)),
    (4, 5, (4,)), (4, 6, (2, 2)), (5, 4, (5,)), (5, 5, (3, 2)),
]


def _theorem_c(n: int) -> dict:
    report = dc.verify_theorem_c(n)
    check(report.all_liftable, f"a generator for n={n} is not liftable")
    check(report.orbit_index == (n + 1) ** (n - 1),
          f"orbit index {report.orbit_index} != (n+1)^(n-1) for n={n}")
    check(report.tc_index == report.orbit_index,
          f"coset index {report.tc_index} != orbit index {report.orbit_index} for n={n}")
    check(report.passed, f"verify_theorem_c({n}) did not pass")
    return {"orbit_index": report.orbit_index, "coset_index": report.tc_index}


def _schreier(degree: int, pairs) -> dict:
    seq = covering(degree, pairs)
    n = len(pairs)
    index = dc.stabilizer_index(seq)
    words = dc.schreier_generators(seq)
    check(all(dc.is_liftable(seq, w) for w in words), "a Schreier word is not liftable")
    cap = 64 * (degree * (degree - 1) // 2) ** n
    cosets, _ = dc.todd_coxeter(n, words, cap)
    check(cosets == index, f"coset index {cosets} != orbit index {index}")
    return {"orbit_index": index, "coset_index": cosets, "schreier_words": len(words)}


def plan_certify(seed: int) -> Plan:
    rng = random.Random(seed)
    items = [Item(f"theorem-c n={n}", "theorem-c", partial(_theorem_c, n)) for n in CERTIFY_THEOREM_C]
    coverings = [(d, random_in_class(rng, d, n, omega)) for d, n, omega in CERTIFY_SCHREIER]
    items += [Item(f"schreier d={d} {pairs}", "schreier", partial(_schreier, d, pairs)) for d, pairs in coverings]
    return Plan(items, {
        "dn": histogram(f"{d},{n}" for d, n, _ in CERTIFY_SCHREIER),
        "entries": histogram(pair for _, pairs in coverings for pair in pairs),
    })


# --- classify ----------------------------------------------------------------

CLASSIFY_GRID = [(d, n) for d in (3, 4, 5) for n in (4, 5, 6)]
CLASSIFY_STREAM = 400
CLASSIFY_ORACLE_GRID = [(3, 4), (3, 5), (4, 4), (4, 5)]


def _canonicalize(degree: int, pairs, omega: tuple[int, ...]) -> dict:
    seq = covering(degree, pairs)
    result = dc.canonicalize(seq)
    check(dc.replay_certificate(seq, result) == result.canonical, "certificate does not replay")
    check(result.canonical == dc.canonical_target(degree, len(pairs), omega),
          f"canonical form is not the target for omega {omega}")
    check(dc.is_equivalent(seq, result.canonical), "input is not equivalent to its canonical form")
    return {}


def _classify_all(degree: int, length: int, omegas: set) -> dict:
    classes = dc.classify_all(degree, length)
    check(sum(c.count for c in classes) == (degree * (degree - 1) // 2) ** length,
          "classes do not partition all sequences")
    connected = [c.omega.parts for c in classes if c.connected]
    check(len(connected) == len(set(connected)), "two connected classes share a cycle type")
    check(set(connected) == omegas, f"connected classes {sorted(connected)} != realizable {sorted(omegas)}")
    for c in classes:
        pairs = c.representative.pairs()
        check(c.omega.parts == omega_parts(degree, pairs), f"wrong cycle type for {pairs}")
        check(c.connected == (component_count(degree, pairs) == 1), f"wrong connectivity for {pairs}")
    return {"classes": len(classes)}


def plan_classify(seed: int) -> Plan:
    """One covering of every realizable (d, n, omega) class of the grid, then
    uniform draws, shuffled; the brute-force oracle runs last."""
    rng = random.Random(seed)
    stream = []
    for d, n in CLASSIFY_GRID:
        stream += [(d, random_in_class(rng, d, n, omega)) for omega in sorted(realizable_omegas(d, n))]
    classes = len(stream)
    while len(stream) < CLASSIFY_STREAM:
        d, n = rng.choice(CLASSIFY_GRID)
        stream.append((d, random_connected(rng, d, n)))
    rng.shuffle(stream)
    items = [
        Item(f"canonicalize d={d} {pairs}", "canonicalize",
             partial(_canonicalize, d, pairs, omega_parts(d, pairs)))
        for d, pairs in stream
    ]
    items += [
        Item(f"classify_all d={d} n={n}", "classify-all", partial(_classify_all, d, n, realizable_omegas(d, n)))
        for d, n in CLASSIFY_ORACLE_GRID
    ]
    seen: set = set()
    first_seen = 0
    for d, pairs in stream:
        key = (d, len(pairs), omega_parts(d, pairs))
        first_seen += key not in seen
        seen.add(key)
    return Plan(items, {
        "dn": histogram(f"{d},{len(pairs)}" for d, pairs in stream),
        "stream": len(stream),
        "classes": classes,
        "first_seen": first_seen,
    })


# --- queries -----------------------------------------------------------------

QUERIES_GRID = [(d, n) for d in range(3, 7) for n in range(4, 8)]
QUERIES_PER_CELL = 10
ACT_LETTERS = 48
CATALOG_SAMPLE = 6


def restriction_specs(length: int) -> list[dc.RestrictionSpec]:
    return [
        dc.RestrictionSpec(indices, base)
        for k in range(1, length + 1)
        for indices in combinations(range(1, length + 1), k)
        for base in (dc.START, dc.END)
    ]


def _query_batch(degree, pairs, word, specs, catalog, expected) -> dict:
    total, boundary, component_total = expected
    seq = covering(degree, pairs)
    n = len(pairs)
    invariants = dc.surface_invariants(seq)
    check(invariants.euler == degree - n and invariants.boundary == boundary, "wrong surface invariants")
    check(dc.components(seq).count == component_total, "wrong component count")
    for spec in specs:
        restricted = dc.restrict(seq, spec)
        check(restricted.length == n - len(spec.indices), f"restriction {spec} has the wrong length")
        check(dc.total_monodromy(restricted) == dc.restricted_total_monodromy(seq, spec),
              f"restriction identity fails for {spec}")
    braid = dc.BraidWord(n, word)
    check(dc.total_monodromy(dc.act(seq, braid)).images == total, "act changed the total monodromy")
    monodromies = [
        dc.curve_monodromy(seq, dc.transport_curve(dc.standard_curve(n, j), braid)).sheets
        for j in range(1, n + 1)
    ]
    check(perm_product(degree, monodromies) == total, "carried curves do not multiply to the total monodromy")
    for i in range(1, n):
        kind = dc.interval_type(seq, dc.transport_interval(dc.standard_interval(n, i), braid))
        check(kind == pair_type(monodromies[i - 1], monodromies[i]), f"wrong type for carried interval {i}")
    disk = dc.disk_covering(n)
    for ijk in catalog:
        curve = dc.index0_curve(n, *ijk) if len(ijk) == 2 else dc.index1_curve(n, *ijk)
        check(dc.curve_monodromy(disk, curve) == dc.reference_alpha_monodromy(n, *ijk),
              f"catalog curve {ijk} disagrees with the closed form")
    return {}


def plan_queries(seed: int) -> Plan:
    rng = random.Random(seed)
    specs = {n: restriction_specs(n) for n in range(4, 8)}
    items = []
    component_counts = []
    for d, n in QUERIES_GRID:
        index0 = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        index1 = [
            (i, j, k)
            for i in range(1, n + 1) for j in range(1, n + 1) for k in range(1, n + 1)
            if i != j and j != k
        ]
        for _ in range(QUERIES_PER_CELL):
            pairs = random_pairs(rng, d, n)
            word = random_letters(rng, n, ACT_LETTERS)
            catalog = rng.sample(index0, CATALOG_SAMPLE) + rng.sample(index1, CATALOG_SAMPLE)
            total = perm_product(d, pairs)
            component_counts.append(component_count(d, pairs))
            expected = (total, len(cycle_lengths(total)), component_counts[-1])
            items.append(Item(f"batch d={d} {pairs}", "batch",
                              partial(_query_batch, d, pairs, word, specs[n], catalog, expected)))
    return Plan(items, {
        "dn": histogram(f"{d},{n}" for d, n in QUERIES_GRID for _ in range(QUERIES_PER_CELL)),
        "restrictions_per_item": histogram(len(specs[n]) for _, n in QUERIES_GRID for _ in range(QUERIES_PER_CELL)),
        "components": histogram(component_counts),
    })


# --- cli ---------------------------------------------------------------------

CLI_LIGHT = ("invariants", "canon", "restrict", "curve", "lift", "interval-type", "act")
CLI_LIGHT_PER_PASS = 40
CLI_HEAVY = [("verify-theorem-c", 4)] * 2 + [("verify-theorem-c", 5)] + [("orbit", None)] * 2
CLI_MALFORMED_PER_PASS = 5

_P3 = '{"degree": 4, "monodromy": [[1, 2], [2, 3], [3, 4]]}'
#: Malformed invocations; each must exit 1.  ``degree-true`` is in every pass.
MALFORMED = {
    "degree-true": ["invariants", "--covering", '{"degree": true, "monodromy": []}'],
    "degree-string": ["invariants", "--covering", '{"degree": "3", "monodromy": [[1, 2]]}'],
    "degree-zero": ["invariants", "--covering", '{"degree": 0, "monodromy": []}'],
    "not-json": ["canon", "--covering", "{degree: 3"],
    "missing-key": ["canon", "--covering", '{"degree": 3}'],
    "degenerate-pair": ["invariants", "--covering", '{"degree": 3, "monodromy": [[2, 2]]}'],
    "pair-out-of-range": ["restrict", "--covering", '{"degree": 3, "monodromy": [[1, 4], [1, 2]]}', "--indices", "1"],
    "float-sheet": ["act", "--covering", '{"degree": 3, "monodromy": [[1, 2.5], [1, 2]]}', "--braid", "1"],
    "letter-out-of-range": ["act", "--covering", _P3, "--braid", "1 5"],
    "indices-unsorted": ["restrict", "--covering", _P3, "--indices", "2,1"],
    "curve-missing-word": ["curve", "--covering", _P3, "--curve", '{"base": 1}'],
    "unknown-base": ["restrict", "--covering", _P3, "--indices", "1", "--base", "middle"],
}
#: What the program answers when it reproduces a known defect.
KNOWN_DEFECT_ANSWERS = {
    "degree-true": {"chi": 1, "boundary": 1, "omega": [], "components": 1, "disk": True},
}


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """One ``diskcovers`` process, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "diskcovers.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env, cwd=ROOT,
    )


def _cli_ok(argv: list[str], expected: dict) -> dict:
    proc = run_cli(argv)
    check(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    report = json.loads(proc.stdout)
    check(report.get("status") == "ok", f"status {report.get('status')!r}")
    check(report.get("result") == expected, f"result {report.get('result')} != {expected}")
    return {}


def _cli_invalid(name: str, argv: list[str]) -> dict:
    proc = run_cli(argv)
    if proc.returncode == 0 and name in KNOWN_DEFECT_ANSWERS:
        if json.loads(proc.stdout).get("result") == KNOWN_DEFECT_ANSWERS[name]:
            raise KnownDefect(KNOWN_DEFECTS[name])
    check(proc.returncode == 1, f"exit {proc.returncode} on malformed input, expected 1")
    check("Traceback" not in proc.stderr, "traceback on malformed input")
    return {}


def document(seq: dc.MonodromySequence) -> dict:
    return {"degree": seq.degree, "monodromy": [list(t.sheets) for t in seq.entries]}


def cli_case(rng: random.Random, command: str, arg=None) -> tuple[list[str], dict]:
    """Seeded arguments of one CLI invocation and the library's answer."""
    if command == "verify-theorem-c":
        report = dc.verify_theorem_c(arg)
        return [command, "--n", str(arg)], {
            "orbit_index": report.orbit_index, "tc_index": report.tc_index,
            "liftable": report.all_liftable, "pass": report.passed,
        }
    if command == "lift":
        n = rng.randint(3, 6)
        seq = dc.disk_covering(n)
        if rng.random() < 0.5:
            word = rng.choice(dc.theorem_c_generators(n)).letters
        else:
            word = random_letters(rng, n, 6)
        braid = dc.BraidWord(n, word)
        return ([command, "--covering", json.dumps(document(seq)), "--braid=" + " ".join(map(str, word))],
                {"liftable": dc.is_liftable(seq, braid)})
    if command in ("canon", "orbit"):
        d = rng.randint(3, 4)
        n = rng.randint(d - 1, 5 if command == "canon" else 4)
        seq = covering(d, random_connected(rng, d, n))
    else:
        d, n = rng.randint(3, 6), rng.randint(3, 7)
        seq = covering(d, random_pairs(rng, d, n))
    argv = [command, "--covering", json.dumps(document(seq))]
    if command == "invariants":
        invariants = dc.surface_invariants(seq)
        count = dc.components(seq).count
        return argv, {
            "chi": invariants.euler, "boundary": invariants.boundary,
            "omega": list(dc.omega_class(seq).parts), "components": count,
            "disk": count == 1 and d == n + 1,
        }
    if command == "canon":
        result = dc.canonicalize(seq)
        return argv, {
            "relabel": list(result.relabel.images),
            "moves": [[position, direction] for position, direction in result.moves],
            "canonical": document(result.canonical),
        }
    if command == "orbit":
        return argv, {"size": dc.stabilizer_index(seq), "bound": (d * (d - 1) // 2) ** n}
    if command == "restrict":
        indices = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        spec = dc.RestrictionSpec(indices, rng.choice((dc.START, dc.END)))
        signature = dc.restriction_signature(seq, spec)
        return argv + ["--indices", ",".join(map(str, indices)), "--base", spec.base], {
            "covering": document(dc.restrict(seq, spec)),
            "components": [{"sheets": list(s), "branch_points": c} for s, c in signature.blocks],
            "total_monodromy": list(dc.restricted_total_monodromy(seq, spec).images),
        }
    word = random_letters(rng, n, 12 if command == "act" else 8)
    braid = dc.BraidWord(n, word)
    if command == "act":
        return argv + ["--braid=" + " ".join(map(str, word))], {"covering": document(dc.act(seq, braid))}
    if command == "curve":
        base = rng.randint(1, n)
        answer = dc.curve_monodromy(seq, dc.CurveRef(base, braid))
        return argv + ["--curve", json.dumps({"base": base, "word": list(word)})], {"monodromy": list(answer.sheets)}
    if command == "interval-type":
        base = rng.randint(1, n - 1)
        answer = dc.interval_type(seq, dc.IntervalRef(base, braid))
        return argv + ["--interval", json.dumps({"base": base, "word": list(word)})], {"type": answer}
    raise ValueError(f"unknown command {command!r}")


def plan_cli(seed: int) -> Plan:
    rng = random.Random(seed)
    cases = [(command, cli_case(rng, command, arg)) for command, arg in CLI_HEAVY]
    cases += [(command, cli_case(rng, command)) for command in
              (rng.choice(CLI_LIGHT) for _ in range(CLI_LIGHT_PER_PASS))]
    items = [Item(f"{command} {argv[1:]}", command, partial(_cli_ok, argv, expected))
             for command, (argv, expected) in cases]
    others = sorted(name for name in MALFORMED if name != "degree-true")
    malformed = ["degree-true"] + rng.sample(others, CLI_MALFORMED_PER_PASS - 1)
    items += [Item(f"malformed {name}", "invalid-input", partial(_cli_invalid, name, MALFORMED[name]))
              for name in malformed]
    rng.shuffle(items)
    return Plan(items, {"commands": histogram(item.kind for item in items), "malformed": histogram(malformed)},
                in_children=True)


PLANS = {"certify": plan_certify, "classify": plan_classify, "queries": plan_queries, "cli": plan_cli}


def plan(workload: str, seed: int) -> Plan:
    return PLANS[workload](seed)
