"""Coset enumeration and the generator-set verifier."""

import random

import pytest

from diskcovers.core import MonodromySequence, disk_covering
from diskcovers.cosets import (
    Inconclusive,
    braid_presentation,
    interval_powers_index,
    todd_coxeter,
    verify_theorem_c,
)
from diskcovers.hurwitz import BraidWord
from diskcovers.lift import theorem_c_generators
from diskcovers.orbit import schreier_generators, stabilizer_index


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


def test_schreier_generators_reproduce_index():
    for s in schreier_cases():
        index = stabilizer_index(s)
        generators = schreier_generators(s)
        tc_index, table = todd_coxeter(s.length, generators, max_cosets=200_000)
        assert tc_index == index, (s.pairs(), index, tc_index)
        assert table.defined == index, (s.pairs(), index, table.defined)
