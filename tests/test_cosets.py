"""Coset enumeration and the generator-set verifier."""

import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import diskcovers
from diskcovers import orbit
from diskcovers.core import MonodromySequence, disk_covering, omega_class
from diskcovers.cosets import (
    Inconclusive,
    braid_presentation,
    interval_powers_index,
    todd_coxeter,
    verify_theorem_c,
)
from diskcovers.hurwitz import BraidWord
from diskcovers.lift import is_liftable, liftable_interval_powers, theorem_c_generators
from diskcovers.orbit import classify_all, schreier_generators, stabilizer_index


def word(strands, *letters):
    return BraidWord(strands, letters)


def test_presentation_shape():
    p = braid_presentation(4)
    assert p.generators == 3
    assert (1, 2, 1, -2, -1, -2) in p.relators
    assert (1, 3, -1, -3) in p.relators
    assert braid_presentation(2).relators == ()
    assert braid_presentation(1).relators == ()


def test_cubed_generator_has_index_three():
    index, table = todd_coxeter(2, [word(2, 1, 1, 1)])
    assert index == 3
    assert table.status == "complete"
    assert len(table.rows) == 3


def test_whole_group_has_index_one():
    index, _ = todd_coxeter(2, [word(2, 1)])
    assert index == 1
    for n in (2, 3, 4):
        index, _ = todd_coxeter(n, [word(n, i) for i in range(1, n)])
        assert index == 1


def test_trivial_subgroup_is_inconclusive():
    for n in (2, 3):
        with pytest.raises(Inconclusive) as info:
            todd_coxeter(n, [], max_cosets=2000)
        assert info.value.cap == 2000
        assert info.value.table is not None and info.value.table.status == "capped"


def test_inconclusive_is_the_cap_error():
    # Callers, the CLI among them, catch CapExceeded alone.
    assert issubclass(Inconclusive, orbit.CapExceeded)


@pytest.mark.parametrize("strands", [4, 6])
def test_capped_enumeration_makes_no_copy(strands):
    # The partial table is the enumeration's own lists, so the traced peak
    # stays near their size: no relabelled copy of the rows is built.
    cap = 20_000
    tracemalloc.start()
    try:
        with pytest.raises(Inconclusive) as info:
            todd_coxeter(strands, [], max_cosets=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries = cap * 2 * (strands - 1)
    assert peak / entries < 20, peak / entries
    table = info.value.table
    assert table.status == "capped" and table.defined == cap
    rows = table.rows
    assert table.rows is rows and len(rows) == table.index
    assert all(-1 <= image < table.index for row in rows for image in row)


def braid_relators(strands):
    """The braid relators, written out independently of the enumerator."""
    relators = []
    for i in range(1, strands - 1):
        relators.append((i, i + 1, i, -(i + 1), -i, -(i + 1)))
    for i in range(1, strands):
        relators.extend((i, j, -i, -j) for j in range(i + 2, strands))
    return relators


def assert_closed_action(table, subgroup_words):
    """The coset table is a permutation action of the braid group in which
    every subgroup word fixes coset 0."""
    size = len(table.rows)

    def trace(c, letters):
        for e in letters:
            c = table.rows[c][2 * (abs(e) - 1) + (0 if e > 0 else 1)]
        return c

    for c, row in enumerate(table.rows):
        assert len(row) == 2 * (table.strands - 1)
        assert all(0 <= image < size for image in row), (c, row)
        for g in range(table.strands - 1):
            assert table.rows[row[2 * g]][2 * g + 1] == c
            assert table.rows[row[2 * g + 1]][2 * g] == c
        for relator in braid_relators(table.strands):
            assert trace(c, relator) == c, (c, relator)
    for w in subgroup_words:
        assert trace(0, w.letters) == 0, w.letters


def schreier_cases():
    rng = random.Random(41)
    cases = [disk_covering(2), disk_covering(3)]
    for _ in range(6):
        degree = rng.randint(2, 4)
        length = rng.randint(2, 4)
        while True:
            pairs = [tuple(rng.sample(range(1, degree + 1), 2)) for _ in range(length)]
            s = MonodromySequence.from_pairs(degree, pairs)
            if s.is_connected():
                break
        cases.append(s)
    return cases


def test_table_is_a_permutation_action():
    subgroups = [(n, theorem_c_generators(n)) for n in (2, 3, 4, 5)]
    subgroups += [(s.length, schreier_generators(s)) for s in schreier_cases()]
    for strands, generators in subgroups:
        _, table = todd_coxeter(strands, generators, max_cosets=200_000)
        assert table.status == "complete" and table.strands == strands
        assert_closed_action(table, generators)


def test_generator_set_indexes():
    index, _ = todd_coxeter(3, theorem_c_generators(3))
    assert index == 16
    index, _ = todd_coxeter(4, theorem_c_generators(4))
    assert index == 125
    index, table = todd_coxeter(5, theorem_c_generators(5))
    assert index == 1296 and table.defined == 2499


def test_verify_theorem_c_small():
    report = verify_theorem_c(1)
    assert report.passed and report.orbit_index == 1 and report.tc_index == 1
    report = verify_theorem_c(2)
    assert report.passed and report.orbit_index == 3 and report.tc_index == 3
    report = verify_theorem_c(3)
    assert report.passed and report.orbit_index == 16 and report.tc_index == 16
    assert report.all_liftable


@pytest.mark.slow
def test_verify_theorem_c_at_seven_branch_points():
    report = verify_theorem_c(7)
    assert report.all_liftable and report.passed
    assert report.orbit_index == report.tc_index == 262_144


@pytest.mark.slow
def test_verify_theorem_c_at_seven_branch_points_peaks_under_100_mb():
    # In a process of its own, so that the peak RSS is this run's alone.  The
    # child reads its peak off /proc (Linux), not ru_maxrss: a child keeps the
    # RSS its parent had when it was spawned as a floor of its ru_maxrss.
    code = (
        "from diskcovers.cosets import verify_theorem_c\n"
        "assert verify_theorem_c(7).passed\n"
        "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(diskcovers.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    peak_mb = int(child.stdout) / 1024  # VmHWM counts kB
    assert peak_mb < 100, peak_mb


def test_verify_theorem_c_inconclusive_cap():
    with pytest.raises(Inconclusive):
        verify_theorem_c(3, max_cosets=4)


def test_interval_powers_exploration():
    # No completeness claim beyond disk coverings, but short words already
    # recover the whole liftable group in these cases.
    for s in (
        disk_covering(2),
        disk_covering(3),
        MonodromySequence.from_pairs(3, [(1, 2), (1, 2), (2, 3)]),
        MonodromySequence.from_pairs(2, [(1, 2), (1, 2)]),
    ):
        result = interval_powers_index(s, max_word_length=2)
        assert result.tc_index == result.orbit_index
        assert result.generates


#: Connected classes of ``classify_all`` per (degree, length): 26 in all.
CONNECTED_CLASSES = {
    (2, 2): 1, (2, 3): 1, (2, 4): 1, (2, 5): 1, (2, 6): 1,
    (3, 2): 1, (3, 3): 1, (3, 4): 2, (3, 5): 1, (3, 6): 2,
    (4, 2): 0, (4, 3): 1, (4, 4): 2, (4, 5): 2, (4, 6): 3,
    (5, 2): 0, (5, 3): 0, (5, 4): 1, (5, 5): 2, (5, 6): 3,
}


@pytest.mark.parametrize(
    "degree, length",
    [
        pytest.param(*cell, marks=[pytest.mark.slow] if cell in {(4, 6), (5, 6)} else [])
        for cell in CONNECTED_CLASSES
    ],
)
def test_interval_powers_certify_every_class(monkeypatch, degree, length):
    # The whole tree's words generate the liftable group of every class, and
    # number exactly the Nielsen-Schreier rank (see liftable_interval_powers).
    searches = []
    search = orbit.OrbitTable.__init__

    def counted_search(table, *args):
        searches.append(table)
        search(table, *args)

    monkeypatch.setattr(orbit.OrbitTable, "__init__", counted_search)
    classes = [c for c in classify_all(degree, length) if c.connected]
    assert len(classes) == CONNECTED_CLASSES[degree, length]
    for c in classes:
        s = c.representative
        searches.clear()
        report = interval_powers_index(s)
        assert len(searches) == 1, c  # one orbit search gives words and index
        assert report.generates and report.tc_index == report.orbit_index, (c, report)
        words = liftable_interval_powers(s)
        assert len(words) == report.generator_count == report.orbit_index * (length - 2) + 1, c
        assert all(is_liftable(s, w) for w in words), c


def test_schreier_generators_reproduce_index():
    for s in schreier_cases():
        index = stabilizer_index(s)
        generators = schreier_generators(s)
        tc_index, table = todd_coxeter(s.length, generators, max_cosets=200_000)
        assert tc_index == index, (s.pairs(), index, tc_index)
        assert table.defined == index, (s.pairs(), index, table.defined)


#: Orbit index of each class of connected coverings with d = 5, n = 6.
FIVE_SIX = {(5,): 15_625, (3,): 9_720, (2, 2): 11_520}


def certify_schreier_words(degree, length, omega, seed):
    """Certify the Schreier words of one seeded covering of the class: every
    word liftable, coset index equal to orbit index."""
    rng = random.Random(seed)
    while True:
        s = MonodromySequence.from_pairs(degree, [rng.sample(range(1, degree + 1), 2) for _ in range(length)])
        if s.is_connected() and omega_class(s).parts == omega:
            break
    index = stabilizer_index(s)
    generators = schreier_generators(s)
    assert all(is_liftable(s, w) for w in generators)
    tc_index, _ = todd_coxeter(length, generators, max_cosets=200_000)
    assert tc_index == index, (s.pairs(), index, tc_index)
    return index


def test_schreier_words_certify_a_five_six_class():
    assert certify_schreier_words(5, 6, (3,), seed=11) == FIVE_SIX[(3,)]


@pytest.mark.slow
@pytest.mark.parametrize("omega", list(FIVE_SIX))
def test_schreier_words_certify_every_five_six_class(omega):
    assert certify_schreier_words(5, 6, omega, seed=11) == FIVE_SIX[omega]
