"""Invariants, equivalence and canonical targets."""

import itertools
import random
from collections import Counter

import pytest

from diskcovers.core import (
    CycleType,
    DisconnectedCoveringError,
    MonodromySequence,
    NotRealizable,
    Permutation,
    Transposition,
    canonical_target,
    components,
    conjugating_permutation,
    disk_covering,
    is_disk,
    is_equivalent,
    omega_class,
    surface_invariants,
    total_monodromy,
)
from diskcovers.orbit import all_sequences


def seq(degree, *pairs):
    return MonodromySequence.from_pairs(degree, pairs)


def test_permutation_composes_left_to_right():
    s = Transposition(1, 2).as_permutation(3)
    t = Transposition(2, 3).as_permutation(3)
    product = s * t
    assert [product(k) for k in (1, 2, 3)] == [3, 1, 2]


def test_permutation_inverse_and_cycles():
    p = Permutation((4, 1, 2, 3))
    assert (p * p.inverse()).is_identity()
    assert p.cycles() == ((1, 4, 3, 2),)
    assert p.cycle_type() == CycleType((4,), 4)
    assert p.orbit_count() == 1


def test_transposition_normalizes_and_rejects_degenerate():
    assert Transposition(3, 1).sheets == (1, 3)
    with pytest.raises(ValueError):
        Transposition(2, 2)
    with pytest.raises(ValueError):
        Transposition(0, 1)


def test_transposition_conjugation():
    assert Transposition(1, 2).image_under(Transposition(2, 3)) == Transposition(1, 3)
    assert Transposition(1, 2).image_under(Transposition(3, 4)) == Transposition(1, 2)


def test_sequence_validation():
    with pytest.raises(ValueError):
        seq(2, (2, 3))
    with pytest.raises(ValueError):
        MonodromySequence(0, ())


#: Inputs that ``from_pairs`` rejects, with the error type and message it
#: gave when it built a ``Transposition`` per pair and then the sequence:
#: every pair is checked first, then the degree, then the first pair past it.
BAD_PAIRS = [
    (3, [(2, 2)], ValueError, "degenerate transposition (2 2)"),
    (3, [(1, 2), (0, 2)], ValueError, "sheet indices start at 1: (0 2)"),
    (3, [(2, 0)], ValueError, "sheet indices start at 1: (0 2)"),
    (3, [(-1, 2)], ValueError, "sheet indices start at 1: (-1 2)"),
    (3, [(1, 4)], ValueError, "entry (1 4) exceeds degree 3"),
    (3, [(4, 1)], ValueError, "entry (1 4) exceeds degree 3"),
    (1, [(1, 2)], ValueError, "entry (1 2) exceeds degree 1"),
    (0, [], ValueError, "degree must be at least 1, got 0"),
    (-2, [(1, 2)], ValueError, "degree must be at least 1, got -2"),
    (0, [(2, 2)], ValueError, "degenerate transposition (2 2)"),
    (0, [(0, 1)], ValueError, "sheet indices start at 1: (0 1)"),
    (0, [(1, 5)], ValueError, "degree must be at least 1, got 0"),
    (3, [(1, 5), (2, 2)], ValueError, "degenerate transposition (2 2)"),
    (3, [(1, 5), (0, 1)], ValueError, "sheet indices start at 1: (0 1)"),
    (3, [(1, 4), (5, 1)], ValueError, "entry (1 4) exceeds degree 3"),
    (3, [(2, 2), (0, 1)], ValueError, "degenerate transposition (2 2)"),
    (3, [(0, 0)], ValueError, "degenerate transposition (0 0)"),
    (3, [(1, "2")], TypeError, "'>' not supported between instances of 'int' and 'str'"),
]


@pytest.mark.parametrize("degree, pairs, error, message", BAD_PAIRS)
def test_from_pairs_errors_and_their_precedence(degree, pairs, error, message):
    with pytest.raises(error) as raised:
        MonodromySequence.from_pairs(degree, iter(pairs))
    assert type(raised.value) is error and str(raised.value) == message
    try:
        entries = tuple(Transposition(a, b) for a, b in pairs)
    except (TypeError, ValueError):
        return
    with pytest.raises(error) as raised:
        MonodromySequence(degree, entries)
    assert type(raised.value) is error and str(raised.value) == message


def test_total_monodromy_examples():
    assert total_monodromy(seq(3, (1, 2), (2, 3))).images == (3, 1, 2)
    assert total_monodromy(MonodromySequence(5, ())).is_identity()
    assert total_monodromy(seq(4, (1, 2), (2, 3), (3, 4))).images == (4, 1, 2, 3)


def test_omega_class_examples():
    assert omega_class(seq(4, (1, 2), (2, 3), (3, 4))).parts == (4,)
    assert omega_class(seq(2, (1, 2), (1, 2))).parts == ()
    assert omega_class(seq(3, (1, 2), (2, 3))).parts == (3,)


def test_components_examples():
    assert components(seq(4, (1, 2), (2, 3), (3, 4))).blocks == (((1, 2, 3, 4), 3),)
    assert components(MonodromySequence(3, ())).blocks == (((1,), 0), ((2,), 0), ((3,), 0))
    assert components(seq(4, (1, 2), (2, 3))).blocks == (((1, 2, 3), 2), ((4,), 0))


def test_components_partition_and_branch_counts():
    for degree in (2, 3):
        for s in all_sequences(degree, 3):
            sig = components(s)
            sheets = sorted(x for block, _ in sig.blocks for x in block)
            assert sheets == list(range(1, degree + 1))
            assert sum(count for _, count in sig.blocks) == s.length


def test_surface_invariants_examples():
    disk = surface_invariants(disk_covering(3))
    assert (disk.euler, disk.boundary) == (1, 1)
    assert disk.per_component[0].genus == 0

    annulus = surface_invariants(seq(2, (1, 2), (1, 2)))
    assert (annulus.euler, annulus.boundary) == (0, 2)
    assert annulus.per_component[0].genus == 0

    torus_piece = surface_invariants(seq(2, (1, 2), (1, 2), (1, 2), (1, 2)))
    assert (torus_piece.euler, torus_piece.boundary) == (-2, 2)
    assert torus_piece.per_component[0].genus == 1


def test_euler_always_degree_minus_length():
    for degree, length in ((2, 3), (3, 2), (4, 4)):
        for s in all_sequences(degree, length):
            assert surface_invariants(s).euler == degree - length


def test_connected_single_boundary_means_full_cycle():
    for s in all_sequences(4, 4):
        if not s.is_connected():
            continue
        inv = surface_invariants(s)
        if inv.boundary == 1:
            assert omega_class(s).parts == (4,)


def test_is_equivalent_examples():
    a = seq(4, (1, 2), (2, 3), (3, 4))
    b = seq(4, (2, 3), (1, 3), (3, 4))
    assert is_equivalent(a, b)
    assert is_equivalent(a, a)
    assert not is_equivalent(seq(3, (1, 2), (2, 3)), seq(2, (1, 2), (1, 2)))


def test_is_equivalent_rejects_disconnected():
    disconnected = seq(4, (1, 2), (1, 2))
    with pytest.raises(DisconnectedCoveringError):
        is_equivalent(disconnected, disconnected)


def test_is_equivalent_matches_invariant_partition():
    pool = [s for s in all_sequences(3, 3) if s.is_connected()]
    for a, b in itertools.product(pool, repeat=2):
        assert is_equivalent(a, b) == (omega_class(a) == omega_class(b))


def test_is_equivalent_is_an_equivalence_relation():
    rng = random.Random(43)
    pool = [s for s in all_sequences(4, 4) if s.is_connected()]
    sample = rng.sample(pool, 60)
    for a in sample:
        assert is_equivalent(a, a)
    for _ in range(400):
        a, b, c = rng.choice(sample), rng.choice(sample), rng.choice(sample)
        assert is_equivalent(a, b) == is_equivalent(b, a)
        if is_equivalent(a, b) and is_equivalent(b, c):
            assert is_equivalent(a, c)


def test_is_disk_examples():
    assert is_disk(disk_covering(3))
    assert not is_disk(seq(2, (1, 2), (1, 2)))
    assert is_disk(seq(2, (1, 2)))
    with pytest.raises(DisconnectedCoveringError):
        is_disk(seq(3, (1, 2), (1, 2)))


def test_canonical_target_examples():
    assert canonical_target(4, 3, [4]).pairs() == ((1, 2), (2, 3), (3, 4))
    assert canonical_target(3, 4, [3]).pairs() == ((1, 2), (2, 3), (2, 3), (2, 3))
    with pytest.raises(NotRealizable):
        canonical_target(3, 2, [2])


def test_canonical_target_identity_convention():
    assert canonical_target(3, 4, []).pairs() == ((1, 2), (1, 2), (2, 3), (2, 3))
    assert canonical_target(1, 0, []).pairs() == ()
    with pytest.raises(NotRealizable):
        canonical_target(2, 0, [])
    with pytest.raises(NotRealizable):
        canonical_target(1, 2, [])


def test_canonical_target_rejects_bad_cycle_type():
    with pytest.raises(ValueError):
        canonical_target(3, 3, [4])
    with pytest.raises(ValueError):
        canonical_target(4, 3, [1])


def test_canonical_target_is_built_once_for_every_spelling_of_a_class():
    target = canonical_target(5, 5, (3, 2))
    assert target.pairs() == ((1, 2), (2, 3), (3, 4), (3, 4), (4, 5))
    spellings = [(3, 2), [3, 2], (p for p in (2, 3)), [2, 3], CycleType((3, 2), 5)]
    assert all(canonical_target(5, 5, omega) is target for omega in spellings)


@pytest.mark.parametrize(
    "degree, length, omega, error, message",
    [
        (3, 2, (3.0,), TypeError, "can't multiply sequence by non-int of type 'float'"),
        (3.0, 2, (3,), TypeError, "can't multiply sequence by non-int of type 'float'"),
        (3, 2, CycleType((3,), 4), ValueError, "cycle type degree 4 != covering degree 3"),
        (3, 3, (3,), NotRealizable, "parity mismatch: no product of 3 transpositions has cycle type (3,)"),
        (3, 3, [3.0], NotRealizable, "parity mismatch: no product of 3 transpositions has cycle type (3.0,)"),
        (3, 2, (3, "3"), TypeError, "'<' not supported between instances of 'int' and 'str'"),
    ],
    ids=["float-part", "float-degree", "cycle-type-degree", "parity", "float-parity", "str-part"],
)
def test_canonical_target_rejects_as_it_always_has_with_the_class_in_the_memo(degree, length, omega, error, message):
    # (3, 2, (3,)) is the target whose key each bad input equals, or would.
    assert canonical_target(3, 2, (3,)).pairs() == ((1, 2), (2, 3))
    for _ in range(2):
        with pytest.raises(error) as raised:
            canonical_target(degree, length, omega)
        assert str(raised.value) == message


def test_canonical_target_memo_stays_within_its_bound():
    from diskcovers.core import _target

    bound = _target.cache_info().maxsize
    built = 0
    for degree in range(2, 12):
        for length in range(degree - 1, degree + 12):
            for parts in all_cycle_types(degree)[:4]:
                try:
                    target = canonical_target(degree, length, parts)
                except NotRealizable:
                    continue
                built += 1
                assert target.length == length and omega_class(target).parts == parts
                assert _target.cache_info().currsize <= bound
    assert built > bound and _target.cache_info().currsize == bound


def all_cycle_types(degree):
    """All descending-part cycle types with parts >= 2 summing to <= degree."""
    found = {()}
    def extend(prefix, remaining, largest):
        for part in range(2, min(remaining, largest) + 1):
            parts = prefix + (part,)
            found.add(tuple(sorted(parts, reverse=True)))
            extend(parts, remaining - part, part)
    extend((), degree, degree)
    return sorted(found)


def test_canonical_target_product_and_connectivity():
    for degree in range(1, 6):
        for length in range(0, 7):
            for parts in all_cycle_types(degree):
                try:
                    target = canonical_target(degree, length, parts)
                except NotRealizable:
                    continue
                assert target.length == length
                assert target.is_connected()
                assert omega_class(target).parts == parts


def test_canonical_target_realizability_matches_brute_force():
    for degree in range(1, 5):
        for length in range(0, 6):
            realizable = {
                omega_class(s).parts
                for s in all_sequences(degree, length)
                if s.is_connected()
            }
            for parts in all_cycle_types(degree):
                succeeded = True
                try:
                    canonical_target(degree, length, parts)
                except NotRealizable:
                    succeeded = False
                assert succeeded == (parts in realizable), (degree, length, parts)


def test_conjugating_permutation():
    p = total_monodromy(seq(4, (1, 3), (3, 4), (2, 4)))
    q = total_monodromy(disk_covering(3))
    r = conjugating_permutation(p, q)
    assert r.inverse() * p * r == q
    with pytest.raises(ValueError):
        conjugating_permutation(Permutation.identity(3), Transposition(1, 2).as_permutation(3))


def test_renumber_sheets_conjugates_total_monodromy():
    s = seq(4, (1, 2), (2, 3), (2, 4))
    r = Permutation((2, 3, 4, 1))
    assert total_monodromy(s.renumber_sheets(r)) == r.inverse() * total_monodromy(s) * r


def test_dense_tables_match_the_closed_form_and_the_lazy_tables():
    # Degrees up to 16 get whole tuple tables, 17 (one past) the lazy form.
    from diskcovers.core import _Lazy, _Tables

    for degree in range(1, 18):
        tables = _Tables(degree)
        assert isinstance(tables.conj, tuple) == (degree <= 16)
        pairs, pairs0, interned, conj, index_of = tables._lazy()
        closed = list(itertools.combinations(range(1, degree + 1), 2))
        assert tables.identity == tuple(range(1, degree + 1))
        for t, (a, b) in enumerate(closed):
            assert tables.pairs[t] == pairs[t] == (a, b)
            assert tables.pairs0[t] == pairs0[t] == (a - 1, b - 1)
            assert tables.index_of[a][b] == tables.index_of[b][a] == index_of[a][b] == index_of[b][a] == t
            assert tables.interned[t] == interned[t] == Transposition(a, b)
            for u, (c, e) in enumerate(closed):
                image = Transposition(a, b).image_under(Transposition(c, e))
                assert tables.conj[t][u] == conj[t][u] == tables.index(image.a, image.b)
        if degree <= 16:
            assert len(tables.conj) == len(tables.pairs) == len(tables.pairs0) == len(closed)
            assert all(len(row) == len(closed) for row in tables.conj)
        else:
            assert isinstance(tables.conj, _Lazy) and isinstance(tables.pairs0, _Lazy)


# --- the classification kernel against references written here ---------------


def reference_is_connected(s):
    """A breadth-first search over the sheets, along the entries."""
    neighbours = {k: set() for k in range(1, s.degree + 1)}
    for a, b in s.pairs():
        neighbours[a].add(b)
        neighbours[b].add(a)
    reached = [1]
    for k in reached:  # grows as it is read
        reached += sorted(neighbours[k] - set(reached))
    return len(reached) == s.degree


def reference_cycles(images):
    """The cycle decomposition of an image list, fixed points included, each
    cycle from its least sheet and the cycles by that sheet."""
    left = list(range(1, len(images) + 1))
    out = []
    while left:
        cycle = [left[0]]
        while images[cycle[-1] - 1] != cycle[0]:
            cycle.append(images[cycle[-1] - 1])
        out.append(tuple(cycle))
        left = [k for k in left if k not in cycle]
    return out


def reference_components(s):
    """A plain union-find on a dict of parents: the sorted blocks, each with
    the entries inside it."""
    parent = {k: k for k in range(1, s.degree + 1)}

    def root(k):
        while parent[k] != k:
            k = parent[k]
        return k

    for a, b in s.pairs():
        parent[root(a)] = root(b)
    blocks = {}
    for k in range(1, s.degree + 1):
        blocks.setdefault(root(k), []).append(k)
    return tuple(
        (tuple(sheets), sum(root(a) == r for a, _ in s.pairs()))
        for r, sheets in sorted(blocks.items(), key=lambda block: block[1][0])
    )


def kernel_sequences():
    """Every sequence with d <= 4 and n <= 5 (degree 1 and n = 0 among them),
    then seeded ones on 17 and 18 sheets, where the tables are lazy."""
    for degree in range(1, 5):
        for length in range(6):
            yield from all_sequences(degree, length)
    rng = random.Random(25)
    for degree in (17, 18):
        for length in (0, 1, 16, 24, 40, 60):
            for _ in range(15):
                yield seq(degree, *(rng.sample(range(1, degree + 1), 2) for _ in range(length)))


def test_classification_kernel_matches_the_references():
    seen = set()
    for s in kernel_sequences():
        connected = reference_is_connected(s)
        assert s.is_connected() == connected, s
        assert components(s).blocks == reference_components(s), s
        p = total_monodromy(s)
        cycles = reference_cycles(list(p.images))
        assert p.cycles(include_fixed=True) == tuple(cycles), s
        assert p.cycles() == tuple(c for c in cycles if len(c) > 1), s
        parts = sorted((len(c) for c in cycles if len(c) > 1), reverse=True)
        # Equal to the validated construction, so the parts are a tuple.
        assert p.cycle_type() == CycleType(tuple(parts), p.degree), s
        assert p.orbit_count() == len(cycles), s
        seen.add((s.degree > 16, connected))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_packed_results_equal_their_validated_constructions():
    # == compares _packed too; the packed tuples are also compared on their own,
    # and their type is checked.
    for degree in range(1, 8):
        for length in range(9):
            for parts in all_cycle_types(degree):
                try:
                    target = canonical_target(degree, length, parts)
                except NotRealizable:
                    continue
                rebuilt = MonodromySequence.from_pairs(degree, target.pairs())
                assert target._packed == rebuilt._packed, (degree, length, parts)
                assert type(target._packed) is tuple
                assert target == rebuilt
                omega = total_monodromy(target)
                assert omega.cycle_type() == CycleType(parts, degree)
                # Conjugate the target's monodromy by a seeded renumbering.
                relabel = Permutation(tuple(random.Random(length).sample(range(1, degree + 1), degree)))
                source = relabel.inverse() * omega * relabel
                r = conjugating_permutation(source, omega)
                assert r == Permutation(tuple(r.images))
                assert r.inverse() * source * r == omega


# --- the cycle walk against its definitions ----------------------------------


def walk_sequences():
    """Every sequence with d <= 4 and n <= 5, then 300 seeded ones with d in
    5..8 and n in 4..10."""
    for degree in range(1, 5):
        for length in range(6):
            yield from all_sequences(degree, length)
    rng = random.Random(34)
    for _ in range(300):
        degree, length = rng.randint(5, 8), rng.randint(4, 10)
        yield seq(degree, *(rng.sample(range(1, degree + 1), 2) for _ in range(length)))


def reference_relabel(source, target):
    """The relabel matching the cycles of two permutations, each ordered
    longest first and ties by least sheet, fixed points included."""
    def ordered(p):
        return sorted(reference_cycles(list(p.images)), key=lambda c: (-len(c), c[0]))

    images = [0] * source.degree
    for src, dst in zip(ordered(source), ordered(target)):
        for a, b in zip(src, dst):
            images[a - 1] = b
    return tuple(images)


def test_the_cycle_walk_matches_its_definitions():
    from diskcovers.hurwitz import canonicalize

    pool, seen = [], set()
    for s in walk_sequences():
        p = total_monodromy(s)
        cycles = reference_cycles(list(p.images))
        parts = tuple(sorted((len(c) for c in cycles if len(c) > 1), reverse=True))
        assert omega_class(s) == p.cycle_type() == CycleType(parts, s.degree), s
        assert p.cycles(include_fixed=True) == tuple(cycles), s
        assert p.cycles() == tuple(c for c in cycles if len(c) > 1), s
        assert p.orbit_count() == len(cycles), s
        # Each circle lies in one component: count it there.
        blocks = reference_components(s)
        per_component = []
        for sheets, branch_count in blocks:
            boundary = sum(c[0] in sheets for c in cycles)
            assert all(set(c) <= set(sheets) for c in cycles if c[0] in sheets), s
            genus = (2 - boundary - len(sheets) + branch_count) // 2
            per_component.append((sheets, len(sheets) - branch_count, boundary, genus))
        inv = surface_invariants(s)
        assert (inv.euler, inv.boundary) == (s.degree - s.length, len(cycles)), s
        assert [(c.sheets, c.euler, c.boundary, c.genus) for c in inv.per_component] == per_component, s
        if len(blocks) == 1:
            result = canonicalize(s)
            assert result.relabel.images == reference_relabel(p, total_monodromy(result.canonical)), s
            pool.append((s, parts))
        seen.add((s.degree > 4, len(blocks) == 1, any(len(c) == 1 for c in cycles)))
    assert len(seen) == 8

    by_size = {}
    for s, parts in pool:
        by_size.setdefault((s.degree, s.length), []).append((s, parts))
    rng = random.Random(35)
    outcomes = Counter()
    for _ in range(3000):
        (a, parts_a), (b, parts_b) = rng.sample(pool, 2)
        if rng.random() < 0.5:  # half the pairs of one size, so that both outcomes occur
            b, parts_b = rng.choice(by_size[a.degree, a.length])
        expected = (a.degree, a.length, parts_a) == (b.degree, b.length, parts_b)
        assert is_equivalent(a, b) == is_equivalent(b, a) == expected, (a, b)
        outcomes[expected] += 1
    assert min(outcomes.values()) > 300, outcomes


@pytest.mark.parametrize(
    "first, second",
    [
        (seq(3, (1, 2), (2, 3)), seq(3, (1, 2), (1, 2))),
        (seq(3, (1, 2), (1, 2)), seq(3, (1, 2), (2, 3))),
        (seq(4, (1, 2), (3, 4)), seq(3, (1, 2), (2, 3))),
        (seq(3, (1, 2), (2, 3)), seq(4, (1, 2), (3, 4))),
    ],
    ids=["connected-disconnected", "disconnected-connected", "disconnected-of-another-degree-first", "disconnected-of-another-degree-second"],
)
def test_is_equivalent_checks_connectivity_before_comparing(first, second):
    # Both arguments are checked to be connected before degree, length and
    # cycle type are compared, so a degree mismatch does not mask the error.
    with pytest.raises(DisconnectedCoveringError) as error:
        is_equivalent(first, second)
    assert type(error.value) is DisconnectedCoveringError
    assert str(error.value) == "equivalence is only defined for connected coverings"
