"""Restriction coverings: monodromy formulas, base points, consistency."""

import itertools
import random

import pytest

from diskcovers.core import (
    MonodromySequence,
    _tables,
    _unpack,
    components,
    disk_covering,
    is_disk,
    total_monodromy,
)
from diskcovers.orbit import all_sequences
from diskcovers.restrict import (
    END,
    START,
    RestrictionSpec,
    restrict,
    restricted_total_monodromy,
    restriction_signature,
)


def seq(degree, *pairs):
    return MonodromySequence.from_pairs(degree, pairs)


def nonempty_subsets(n):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def reference_restrict(seq, spec):
    """``restrict`` as it was written before it marked the removed positions:
    a membership test against ``spec.indices`` at every position."""
    spec.validate_for(seq)
    tables = _tables(seq.degree)
    packed = seq._packed
    image = list(range(seq.degree + 1))
    positions = range(seq.length) if spec.base == START else range(seq.length - 1, -1, -1)
    kept = []
    for j in positions:
        a, b = tables.pairs[packed[j]]
        if j + 1 in spec.indices:
            image[a], image[b] = image[b], image[a]
        else:
            kept.append(tables.index(image[a], image[b]))
    if spec.base == END:
        kept.reverse()
    return _unpack(seq.degree, tuple(kept))


def assert_restrictions_match_the_reference(s, specs):
    for spec in specs:
        restricted, expected = restrict(s, spec), reference_restrict(s, spec)
        assert restricted == expected and restricted._packed == expected._packed, (s, spec)


def test_restrict_matches_the_reference_exhaustive():
    for length in range(1, 6):
        specs = [RestrictionSpec(indices, base) for indices in nonempty_subsets(length) for base in (START, END)]
        for degree in (2, 3, 4):
            for s in all_sequences(degree, length):
                assert_restrictions_match_the_reference(s, specs)


def test_restrict_matches_the_reference_on_lazy_tables():
    # Degrees above 16 fill their tables one entry at a time.
    rng = random.Random(47)
    for degree in (17, 18, 19, 20):
        for _ in range(5):
            length = rng.randint(1, 8)
            s = MonodromySequence.from_pairs(degree, [rng.sample(range(1, degree + 1), 2) for _ in range(length)])
            specs = [RestrictionSpec(indices, base) for indices in nonempty_subsets(length) for base in (START, END)]
            assert_restrictions_match_the_reference(s, specs)


def test_restriction_spec_validation():
    with pytest.raises(ValueError):
        RestrictionSpec((), START)
    with pytest.raises(ValueError):
        RestrictionSpec((2, 1), START)
    with pytest.raises(ValueError):
        RestrictionSpec((1,), "middle")
    with pytest.raises(ValueError):
        restrict(disk_covering(2), RestrictionSpec((3,), START))


def test_restriction_past_the_last_branch_point_names_the_index():
    for n in range(1, 5):
        s = disk_covering(n)
        for indices in ((n + 1,), (1, n + 2)):
            for base in (START, END):
                spec = RestrictionSpec(indices, base)
                message = f"^index {indices[-1]} out of range for {n} branch points$"
                with pytest.raises(ValueError, match=message):
                    spec.validate_for(s)
                for kernel in (restrict, restricted_total_monodromy, restriction_signature):
                    with pytest.raises(ValueError, match=message):
                        kernel(s, spec)


def test_restrict_examples():
    p3 = disk_covering(3)
    assert restrict(p3, RestrictionSpec((3,), START)).pairs() == ((1, 2), (2, 3))
    assert restrict(p3, RestrictionSpec((3,), END)).pairs() == ((1, 2), (2, 4))
    for base in (START, END):
        full = restrict(p3, RestrictionSpec((1, 2, 3), base))
        assert full.pairs() == ()
        assert full.degree == 4


def test_restrict_keeps_all_sheets():
    p2 = disk_covering(2)
    restricted = restrict(p2, RestrictionSpec((1,), START))
    assert restricted.degree == 3
    assert restricted.length == 1


def test_restricted_total_monodromy_examples():
    p3 = disk_covering(3)
    start = restricted_total_monodromy(p3, RestrictionSpec((3,), START))
    assert start.images == (3, 1, 2, 4)
    single = restricted_total_monodromy(seq(2, (1, 2)), RestrictionSpec((1,), START))
    assert single.is_identity()


def test_start_base_leaves_trivial_sheet_above_cut():
    # Cutting the canonical disk covering along curve i isolates sheet i + 1
    # at the start base point and sheet i at the end base point.
    for n in (2, 3, 4):
        pn = disk_covering(n)
        for i in range(1, n + 1):
            start_sig = restriction_signature(pn, RestrictionSpec((i,), START))
            end_sig = restriction_signature(pn, RestrictionSpec((i,), END))
            assert start_sig.singleton_sheets() == (i + 1,)
            assert end_sig.singleton_sheets() == (i,)


def test_restriction_signature_examples():
    p3 = disk_covering(3)
    sig = restriction_signature(p3, RestrictionSpec((3,), START))
    assert sig.blocks == (((1, 2, 3), 2), ((4,), 0))
    sig = restriction_signature(p3, RestrictionSpec((1,), START))
    assert sig.blocks == (((1, 3, 4), 2), ((2,), 0))
    p2 = disk_covering(2)
    sig = restriction_signature(p2, RestrictionSpec((1,), START))
    assert sig.blocks == (((1, 3), 1), ((2,), 0))


def test_total_monodromy_identity_exhaustive():
    for degree in (2, 3):
        for length in range(1, 5):
            for s in all_sequences(degree, length):
                for indices in nonempty_subsets(length):
                    for base in (START, END):
                        spec = RestrictionSpec(indices, base)
                        assert total_monodromy(restrict(s, spec)) == restricted_total_monodromy(s, spec)


def test_total_monodromy_identity_randomized_degree_four():
    rng = random.Random(29)
    for _ in range(300):
        length = rng.randint(1, 6)
        pairs = [tuple(rng.sample(range(1, 5), 2)) for _ in range(length)]
        s = MonodromySequence.from_pairs(4, pairs)
        size = rng.randint(1, length)
        indices = tuple(sorted(rng.sample(range(1, length + 1), size)))
        for base in (START, END):
            spec = RestrictionSpec(indices, base)
            assert total_monodromy(restrict(s, spec)) == restricted_total_monodromy(s, spec)


def test_restricted_total_monodromy_is_the_concatenated_product():
    # The docstring's formula, spelled out: the sequence then its removed
    # entries in descending order at the start base point, the other way
    # round at the end one, multiplied by total_monodromy.
    rng = random.Random(41)
    checked = 0
    for degree in range(2, 7):
        for length in range(1, 8):
            specs = [RestrictionSpec(indices, base) for indices in nonempty_subsets(length) for base in (START, END)]
            for _ in range(3):
                pairs = [tuple(rng.sample(range(1, degree + 1), 2)) for _ in range(length)]
                s = MonodromySequence.from_pairs(degree, pairs)
                for spec in specs:
                    removed = [pairs[i - 1] for i in reversed(spec.indices)]
                    concatenated = pairs + removed if spec.base == START else removed + pairs
                    expected = total_monodromy(MonodromySequence.from_pairs(degree, concatenated))
                    assert restricted_total_monodromy(s, spec) == expected, (pairs, spec)
                    checked += 1
    assert checked == 5 * 3 * sum(2 ** (length + 1) - 2 for length in range(1, 8))


def test_component_count_bounds():
    for s in all_sequences(3, 4):
        c = components(s).count
        for indices in nonempty_subsets(4):
            for base in (START, END):
                c_restricted = components(restrict(s, RestrictionSpec(indices, base))).count
                assert c <= c_restricted <= c + len(indices)


def reindex_after_removal(indices, removed):
    removed = sorted(removed)
    return tuple(
        sorted(i - sum(1 for r in removed if r < i) for i in indices)
    )


def test_iterated_restriction_consistency():
    # Cutting the lowest curves first (end base) or the highest first (start
    # base) and then the re-indexed rest agrees with cutting everything at once.
    rng = random.Random(31)
    for _ in range(200):
        degree = rng.randint(2, 4)
        length = rng.randint(2, 6)
        pairs = [tuple(rng.sample(range(1, degree + 1), 2)) for _ in range(length)]
        s = MonodromySequence.from_pairs(degree, pairs)
        size = rng.randint(2, length)
        indices = sorted(rng.sample(range(1, length + 1), size))
        split = rng.randint(1, size - 1)
        head, tail = tuple(indices[:split]), tuple(indices[split:])

        whole_end = restrict(s, RestrictionSpec(tuple(indices), END))
        first = restrict(s, RestrictionSpec(head, END))
        second = restrict(first, RestrictionSpec(reindex_after_removal(tail, head), END))
        assert second == whole_end

        whole_start = restrict(s, RestrictionSpec(tuple(indices), START))
        first = restrict(s, RestrictionSpec(tail, START))
        second = restrict(first, RestrictionSpec(reindex_after_removal(head, tail), START))
        assert second == whole_start


def test_disk_iff_every_single_restriction_disconnects():
    for degree in (2, 3, 4):
        for length in range(1, 5):
            for s in all_sequences(degree, length):
                if not s.is_connected():
                    continue
                always_disconnects = all(
                    components(restrict(s, RestrictionSpec((j,), base))).count > 1
                    for j in range(1, length + 1)
                    for base in (START, END)
                )
                assert is_disk(s) == always_disconnects
