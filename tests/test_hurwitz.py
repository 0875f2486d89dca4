"""The braid action, elementary moves, and canonicalization certificates."""

import itertools
import random
import time
import tracemalloc

import pytest

from diskcovers import hurwitz
from diskcovers.core import (
    DisconnectedCoveringError,
    MonodromySequence,
    NotRealizable,
    _tables,
    canonical_target,
    disk_covering,
    omega_class,
    total_monodromy,
)
from diskcovers.hurwitz import (
    FORWARD,
    INVERSE,
    BraidWord,
    act,
    apply_moves,
    canonicalize,
    elementary_move,
    replay_certificate,
)
from diskcovers.orbit import all_sequences, hurwitz_orbit


def seq(degree, *pairs):
    return MonodromySequence.from_pairs(degree, pairs)


def word(strands, *letters):
    return BraidWord(strands, letters)


def all_words(strands, max_length):
    letters = [s * i for i in range(1, strands) for s in (1, -1)]
    for length in range(max_length + 1):
        for combo in itertools.product(letters, repeat=length):
            yield BraidWord(strands, combo)


def test_act_examples():
    p3 = disk_covering(3)
    assert act(p3, word(3, 1)).pairs() == ((2, 3), (1, 3), (3, 4))
    assert act(p3, word(3)) == p3
    assert act(p3, word(3, -2)).pairs() == ((1, 2), (2, 4), (2, 3))


def test_act_validates_strand_count():
    with pytest.raises(ValueError):
        act(disk_covering(3), word(4, 1))
    with pytest.raises(ValueError):
        word(3, 5)
    with pytest.raises(ValueError):
        word(3, 0)


def test_word_algebra_examples():
    assert (word(2, 1) * word(2, -1)).reduced().letters == ()
    assert word(3, 2, 1).inverse().letters == (-1, -2)
    assert (word(3, 2) * word(3, 1, 1)).letters == (2, 1, 1)


def test_word_algebra_rejects_mismatched_strands():
    with pytest.raises(ValueError):
        word(2, 1) * word(3, 1)


def test_word_power_and_reduction():
    w = word(3, 1, -2)
    assert (w ** 2).letters == (1, -2, 1, -2)
    assert (w ** -1).letters == (2, -1)
    assert (w * w.inverse()).reduced().letters == ()
    assert word(3, 1, -1, 2, -2, 1).reduced().letters == (1,)


def test_product_preservation_exhaustive():
    for degree in (2, 3):
        for length in (2, 3):
            words = list(all_words(length, 4))
            for s in all_sequences(degree, length):
                for w in words:
                    assert total_monodromy(act(s, w)) == total_monodromy(s)


def test_product_preservation_randomized():
    rng = random.Random(7)
    for _ in range(200):
        degree = rng.randint(2, 5)
        length = rng.randint(2, 6)
        pairs = [
            tuple(rng.sample(range(1, degree + 1), 2)) for _ in range(length)
        ]
        s = MonodromySequence.from_pairs(degree, pairs)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, length - 1) for _ in range(rng.randint(0, 10))
        )
        w = BraidWord(length, letters)
        assert total_monodromy(act(s, w)) == total_monodromy(s)


def test_action_axioms():
    rng = random.Random(11)
    s = disk_covering(4)
    for _ in range(100):
        u = BraidWord(4, tuple(rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(0, 6))))
        v = BraidWord(4, tuple(rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(0, 6))))
        assert act(s, u * v) == act(act(s, u), v)
    assert act(s, word(4)) == s
    for i in (1, 2, 3):
        assert act(act(s, word(4, i)), word(4, -i)) == s


def test_braid_relations_in_action():
    for s in all_sequences(3, 4):
        assert act(s, word(4, 1, 3)) == act(s, word(4, 3, 1))
        assert act(s, word(4, 1, 2, 1)) == act(s, word(4, 2, 1, 2))
        assert act(s, word(4, 2, 3, 2)) == act(s, word(4, 3, 2, 3))


def test_elementary_move_examples():
    assert elementary_move(seq(3, (1, 2), (2, 3)), 1).pairs() == ((1, 3), (1, 2))
    assert elementary_move(seq(4, (1, 2), (3, 4)), 1).pairs() == ((3, 4), (1, 2))
    assert elementary_move(seq(2, (1, 2), (1, 2)), 1).pairs() == ((1, 2), (1, 2))


def test_elementary_move_validation():
    with pytest.raises(ValueError):
        elementary_move(seq(3, (1, 2), (2, 3)), 2)
    with pytest.raises(ValueError):
        elementary_move(seq(3, (1, 2), (2, 3)), 1, "sideways")


def graph_move(s, i, direction):
    """The elementary move O_i by its own rule on the edge-ordered graph:
    equal or disjoint entries swap; forward, (a b), (b c) become (a c), (a b);
    inverse, (a c), (a b) become (a b), (b c)."""
    pairs = list(s.pairs())
    t, u = pairs[i - 1], pairs[i]
    shared = set(t) & set(u)
    if t == u or not shared:
        pairs[i - 1], pairs[i] = u, t
    elif direction == FORWARD:
        (a,), (c,) = set(t) - shared, set(u) - shared
        pairs[i - 1], pairs[i] = (a, c), t
    else:
        (c,), (b,) = set(t) - shared, set(u) - shared
        pairs[i - 1], pairs[i] = u, (b, c)
    return MonodromySequence.from_pairs(s.degree, pairs)


def test_elementary_move_equals_inverse_generator_action():
    for degree in (2, 3, 4):
        for s in all_sequences(degree, 4):
            for i in (1, 2, 3):
                for direction, letter in ((FORWARD, -i), (INVERSE, i)):
                    expected = graph_move(s, i, direction)
                    assert elementary_move(s, i, direction) == expected
                    assert act(s, word(4, letter)) == expected


def test_elementary_moves_invert_each_other():
    for s in all_sequences(4, 3):
        for i in (1, 2):
            assert elementary_move(elementary_move(s, i, FORWARD), i, INVERSE) == s
            assert elementary_move(elementary_move(s, i, INVERSE), i, FORWARD) == s


def test_omega_invariant_under_moves():
    rng = random.Random(3)
    for s in all_sequences(3, 4):
        current = s
        for _ in range(6):
            current = elementary_move(
                current, rng.randint(1, 3), rng.choice([FORWARD, INVERSE])
            )
        assert omega_class(current) == omega_class(s)


def test_canonicalize_fixed_point():
    p3 = disk_covering(3)
    result = canonicalize(p3)
    assert result.relabel.is_identity()
    assert result.moves == ()
    assert result.canonical == p3


def test_canonicalize_one_move_example():
    s = seq(4, (2, 3), (1, 3), (3, 4))
    result = canonicalize(s)
    assert result.canonical == disk_covering(3)
    assert replay_certificate(s, result) == result.canonical


def test_canonicalize_identity_cycle_type_example():
    s = seq(3, (1, 2), (1, 2), (2, 3), (2, 3))
    result = canonicalize(s)
    assert result.canonical == canonical_target(3, 4, [])
    assert result.canonical == s
    assert result.relabel.is_identity()
    assert result.moves == ()


def test_canonicalize_rejects_disconnected():
    with pytest.raises(DisconnectedCoveringError):
        canonicalize(seq(4, (1, 2), (1, 2)))


def test_canonicalize_soundness_small():
    for degree in (2, 3):
        for length in range(1, 5):
            for s in all_sequences(degree, length):
                if not s.is_connected():
                    continue
                result = canonicalize(s)
                assert result.canonical == canonical_target(
                    degree, length, omega_class(s)
                )
                assert replay_certificate(s, result) == result.canonical


def seeded_connected(degree, length, count, seed):
    """Uniformly drawn connected sequences of the given size."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = MonodromySequence.from_pairs(degree, [rng.sample(range(1, degree + 1), 2) for _ in range(length)])
        if s.is_connected():
            out.append(s)
    return out


@pytest.mark.parametrize("degree, length", [(5, 6), (6, 7), (5, 8), (8, 14)])
def test_canonicalize_replays_seeded_samples(degree, length):
    for s in seeded_connected(degree, length, 50, seed=100 * degree + length):
        result = canonicalize(s)
        assert result.canonical == canonical_target(degree, length, omega_class(s))
        assert replay_certificate(s, result) == result.canonical, s.pairs()


def cycle_types(degree):
    """Every cycle type on ``degree`` sheets: parts of at least 2, descending,
    summing to at most the degree."""

    def parts(total, largest):
        yield ()
        for p in range(min(total, largest), 1, -1):
            for rest in parts(total - p, p):
                yield (p,) + rest

    return list(parts(degree, degree))


def test_canonical_targets_get_empty_certificates():
    realizable = 0
    for degree in range(1, 9):
        for length in range(15):
            for parts in cycle_types(degree):
                try:
                    target = canonical_target(degree, length, parts)
                except NotRealizable:
                    continue
                realizable += 1
                result = canonicalize(target)
                assert result.relabel.is_identity() and result.moves == (), (degree, length, parts)
    assert realizable == 256


def test_canonicalize_memory_is_bounded():
    (s,) = seeded_connected(5, 8, 1, seed=58)
    tracemalloc.start()
    try:
        canonicalize(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_canonicalize_is_fast_at_eight_sheets():
    sample = seeded_connected(8, 14, 20, seed=814)
    start = time.perf_counter()
    for s in sample:
        canonicalize(s)
    assert time.perf_counter() - start < 1.0


def test_hurwitz_keeps_no_module_level_cache():
    # core's per-degree tables, bounded and imported here, are core's cache.
    caches = [
        name
        for name, value in vars(hurwitz).items()
        if hasattr(value, "cache_info") and value.__module__ == hurwitz.__name__
    ]
    assert caches == []


def test_relabelled_input_lies_in_the_target_orbit():
    # The orbit search as an independent oracle: the sheet renumbering alone
    # must bring the input into the orbit of its canonical target.
    orbits = {}
    for degree in (2, 3, 4):
        for length in range(1, 5):
            for s in all_sequences(degree, length):
                if not s.is_connected():
                    continue
                result = canonicalize(s)
                if result.canonical not in orbits:
                    orbits[result.canonical] = hurwitz_orbit(result.canonical)
                assert s.renumber_sheets(result.relabel) in orbits[result.canonical], s.pairs()


def test_apply_moves_replays_sequences():
    s = seq(4, (1, 2), (2, 3), (3, 4))
    moves = ((1, FORWARD), (2, INVERSE), (1, FORWARD))
    replayed = apply_moves(s, moves)
    undone = apply_moves(replayed, ((1, INVERSE), (2, FORWARD), (1, INVERSE)))
    assert undone == s


def crossing_word(i, right, conjugate):
    """The letters of the pair at 0-based positions i, i + 1 crossing its
    neighbour: ``x_i x_(i+1)`` leftward and ``x_(i+2)^-1 x_(i+1)^-1``
    rightward, each letter inverted to conjugate the pair."""
    word = (-(i + 2), -(i + 1)) if right else (i, i + 1)
    return tuple(-e for e in word) if conjugate else word


def test_crossing_in_closed_form_matches_the_action():
    # _peel's crossings skip _act; every ordered pair (t, u) of packed
    # transpositions up to degree 5, t, t crossing u from each side, plain
    # and conjugated, with the pair at two offsets and a letter already
    # emitted, writes what _act makes of the crossing's letters.
    crossings = 0
    for degree in range(2, 6):
        conj = _tables(degree).conj
        for t, u in itertools.product(range(len(conj)), repeat=2):
            for right, conjugate, pad in itertools.product((False, True), (False, True), (0, 2)):
                entries = [0] * pad + ([t, t, u] if right else [u, t, t]) + [0]
                i = pad if right else pad + 1
                word = crossing_word(i, right, conjugate)
                expected = list(entries)
                hurwitz._act(conj, expected, word)
                letters = [7]
                hurwitz._cross(conj, entries, letters, right, i, conjugate)
                assert (entries, letters) == (expected, [7, *word]), (degree, t, u, right, conjugate, pad)
                crossings += 1
    assert crossings == 8 * (1 + 3**2 + 6**2 + 10**2)
