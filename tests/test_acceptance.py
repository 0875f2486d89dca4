"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Everything here is exact; there are no tolerances to tune.
"""

import itertools
import random
import time

from diskcovers.core import (
    canonical_target,
    components,
    disk_covering,
    is_disk,
    omega_class,
    total_monodromy,
)
from diskcovers.cosets import todd_coxeter, verify_theorem_c
from diskcovers.hurwitz import (
    FORWARD,
    INVERSE,
    BraidWord,
    act,
    canonicalize,
    elementary_move,
    replay_certificate,
)
from diskcovers.lift import (
    IntervalRef,
    curve_monodromy,
    index0_curve,
    index0_interval,
    index1_curve,
    index1_interval,
    interval_type,
    is_liftable,
    is_regular_curve,
    reference_alpha_monodromy,
    standard_interval,
    systems_liftable_equivalent,
    transport_curve,
    twisted_interval,
)
from diskcovers.orbit import (
    all_sequences,
    classify_all,
    enumeration_bound,
    schreier_generators,
    stabilizer_index,
)
from diskcovers.restrict import END, START, RestrictionSpec, restrict, restricted_total_monodromy

GRID = [
    (degree, length)
    for degree in range(1, 5)
    for length in range(0, 6)
    if enumeration_bound(degree, length) <= 10**6
]


def report(number, label, start):
    print(f"criterion {number} ({label}): PASS ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_curve_monodromy_tables():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 6):
        pn = disk_covering(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert curve_monodromy(pn, index0_curve(n, i, j)) == reference_alpha_monodromy(n, i, j)
                checked += 1
        for i, j, k in itertools.product(range(1, n + 1), repeat=3):
            if i == j or j == k:
                continue
            assert curve_monodromy(pn, index1_curve(n, i, j, k)) == reference_alpha_monodromy(n, i, j, k)
            checked += 1
    assert checked == 184  # 54 pair rows + 130 triple rows over n = 2..5
    assert time.perf_counter() - start < 1.0
    report(1, "curve monodromy tables", start)


def test_criterion_2_interval_types():
    start = time.perf_counter()
    for n in range(2, 6):
        pn = disk_covering(n)
        for i in range(1, n):
            assert interval_type(pn, standard_interval(n, i)) == 3
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                if abs(i - j) > 1:
                    assert interval_type(pn, twisted_interval(n, i, j)) == 2
                assert interval_type(pn, index0_interval(n, i, j)) == 3
        for i, j, k in itertools.product(range(1, n + 1), repeat=3):
            if i == j or j == k or i == k:
                continue
            assert interval_type(pn, index1_interval(n, i, j, k)) == 2
        letters = [s * i for i in range(1, n) for s in (1, -1)]
        for base in range(1, n):
            for length in range(0, 4):
                for combo in itertools.product(letters, repeat=length):
                    ref = IntervalRef(base, BraidWord(n, combo))
                    assert interval_type(pn, ref) != 1
    report(2, "interval types", start)


def test_criterion_3_generator_set_certification():
    start = time.perf_counter()
    # The disk covering with n branch points has (n + 1)^(n - 1) liftable-braid cosets.
    for n, expected in ((2, 3), (3, 16), (4, 125), (5, 1_296), (6, 16_807)):
        result = verify_theorem_c(n)
        assert result.all_liftable and result.passed
        assert result.orbit_index == result.tc_index == expected == (n + 1) ** (n - 1)
    report(3, "generator sets certified", start)


def test_criterion_4_classification_and_canonicalization():
    start = time.perf_counter()
    for degree, length in GRID:
        classes = classify_all(degree, length)
        connected_classes = [c for c in classes if c.connected]
        assert len({c.omega for c in connected_classes}) == len(connected_classes)
        for seq in all_sequences(degree, length):
            if not seq.is_connected():
                continue
            result = canonicalize(seq)
            assert result.canonical == canonical_target(degree, length, omega_class(seq))
            assert replay_certificate(seq, result) == result.canonical
            # Freely reduced: no move is undone by the next one.
            moves = result.moves
            assert all(m[0] != n[0] or m[1] == n[1] for m, n in zip(moves, moves[1:])), seq.pairs()
    assert time.perf_counter() - start < 300
    report(4, "classification oracle and certificates", start)


def test_criterion_5_index_bound():
    start = time.perf_counter()
    for degree, length in GRID:
        bound = enumeration_bound(degree, length)
        sequences = all_sequences(degree, length)
        ids = {seq: i for i, seq in enumerate(sequences)}
        parent = list(range(len(sequences)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for seq, i in ids.items():
            for g in range(1, length):
                j = ids[act(seq, BraidWord(length, (g,)))]
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
        orbit_sizes = {}
        for i in range(len(sequences)):
            orbit_sizes[find(i)] = orbit_sizes.get(find(i), 0) + 1
        assert all(size <= bound for size in orbit_sizes.values())
        # tie the partition sizes back to the public operation on a sample
        for seq in sequences[:: max(1, len(sequences) // 7)]:
            assert stabilizer_index(seq) == orbit_sizes[find(ids[seq])]
    report(5, "index bound", start)


def test_criterion_6_restriction_identities():
    start = time.perf_counter()
    for degree, length in GRID:
        if length == 0:
            continue
        subsets = [
            indices
            for size in range(1, length + 1)
            for indices in itertools.combinations(range(1, length + 1), size)
        ]
        specs = [RestrictionSpec(indices, base) for indices in subsets for base in (START, END)]
        for seq in all_sequences(degree, length):
            for spec in specs:
                assert total_monodromy(restrict(seq, spec)) == restricted_total_monodromy(seq, spec)
    assert time.perf_counter() - start < 60
    report(6, "restriction identities", start)


def test_criterion_7_disk_detection_by_restrictions():
    start = time.perf_counter()
    for degree, length in GRID:
        if length == 0:
            continue
        specs = [
            RestrictionSpec((j,), base)
            for j in range(1, length + 1)
            for base in (START, END)
        ]
        for seq in all_sequences(degree, length):
            if not seq.is_connected():
                continue
            always_disconnects = all(
                components(restrict(seq, spec)).count > 1 for spec in specs
            )
            assert is_disk(seq) == always_disconnects
    report(7, "disk detection by restrictions", start)


def test_criterion_8_regular_curves_and_rotation():
    start = time.perf_counter()
    for n in (2, 3, 4):
        pn = disk_covering(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected = i == j or (i, j) in ((1, n), (n, 1))
                assert is_regular_curve(pn, index0_curve(n, i, j)) == expected
    for n in (3, 4):
        pn = disk_covering(n)
        assert systems_liftable_equivalent(pn, [index0_curve(n, 1, n)], [index0_curve(n, n, 1)])
    for n in range(2, 7):
        pn = disk_covering(n)
        rotation = BraidWord(n, tuple(range(1, n)) * (n + 1))
        assert is_liftable(pn, rotation)
        if n >= 3:
            carried = transport_curve(index0_curve(n, 1, n), rotation)
            assert curve_monodromy(pn, carried) == curve_monodromy(pn, index0_curve(n, n, 1))
    report(8, "regular curves and boundary rotation", start)


def test_criterion_9_property_suites():
    start = time.perf_counter()
    rng = random.Random(97)

    # Entry product is preserved by the action.
    for _ in range(300):
        degree = rng.randint(2, 5)
        length = rng.randint(2, 6)
        pairs = [tuple(rng.sample(range(1, degree + 1), 2)) for _ in range(length)]
        seq = type(disk_covering(1)).from_pairs(degree, pairs)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, length - 1) for _ in range(rng.randint(0, 8))
        )
        assert total_monodromy(act(seq, BraidWord(length, letters))) == total_monodromy(seq)

    # The elementary move realises the inverse generator, and braid relations hold.
    for seq in all_sequences(3, 4):
        for i in (1, 2, 3):
            assert elementary_move(seq, i, FORWARD) == act(seq, BraidWord(4, (-i,)))
            assert elementary_move(seq, i, INVERSE) == act(seq, BraidWord(4, (i,)))
        assert act(seq, BraidWord(4, (1, 3))) == act(seq, BraidWord(4, (3, 1)))
        assert act(seq, BraidWord(4, (1, 2, 1))) == act(seq, BraidWord(4, (2, 1, 2)))

    # Schreier generators are liftable and enumerate back to the orbit index.
    cases = []
    while len(cases) < 5:
        degree = rng.randint(2, 4)
        length = rng.randint(2, 4)
        pairs = [tuple(rng.sample(range(1, degree + 1), 2)) for _ in range(length)]
        seq = type(disk_covering(1)).from_pairs(degree, pairs)
        if seq.is_connected():
            cases.append(seq)
    for seq in cases:
        generators = schreier_generators(seq)
        assert all(is_liftable(seq, w) for w in generators)
        index, _ = todd_coxeter(seq.length, generators, max_cosets=200_000)
        assert index == stabilizer_index(seq)
    report(9, "property suites", start)
