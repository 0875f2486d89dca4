"""Orbit enumeration, Schreier generators, and the classification oracle."""

import itertools
import random
from collections import Counter

import pytest

from diskcovers import orbit
from diskcovers.cli import main
from diskcovers.core import MonodromySequence, Permutation, Transposition, disk_covering, is_equivalent, omega_class
from diskcovers.cosets import Inconclusive, interval_powers_index, todd_coxeter, verify_theorem_c
from diskcovers.hurwitz import BraidWord, act, canonicalize, replay_certificate
from diskcovers.lift import is_liftable
from diskcovers.orbit import (
    DEFAULT_CAP,
    CapExceeded,
    all_sequences,
    classify_all,
    enumeration_bound,
    hurwitz_orbit,
    schreier_generators,
    stabilizer_index,
)


def seq(degree, *pairs):
    return MonodromySequence.from_pairs(degree, pairs)


def test_orbit_of_two_branch_points():
    table = hurwitz_orbit(disk_covering(2))
    assert len(table) == 3
    assert {s.pairs() for s in table} == {
        ((1, 2), (2, 3)),
        ((2, 3), (1, 3)),
        ((1, 3), (1, 2)),
    }


def test_orbit_trivial_for_one_branch_point():
    s = seq(2, (1, 2))
    table = hurwitz_orbit(s)
    assert len(table) == 1 and table.root == s


def test_orbit_size_of_disk_coverings():
    assert stabilizer_index(disk_covering(3)) == 16
    assert stabilizer_index(disk_covering(4)) == 125


def test_orbit_cap():
    # Every cap from 1 to the orbit size: the search stops exactly when one
    # more element would pass the cap.  The last element of these orbits
    # comes by a forward letter in some and by an inverse in others, so the
    # check on each of the search's two branches is pinned.
    coverings = [disk_covering(3), disk_covering(4), seq(18, (17, 18), (16, 17), (16, 18), *[(1, 2)] * 6)]
    rng = random.Random(21)
    while len(coverings) < 5:
        s = seq(4, *(rng.sample(range(1, 5), 2) for _ in range(5)))
        if s.is_connected():
            coverings.append(s)
    for s in coverings:
        full = hurwitz_orbit(s)
        for cap in range(1, len(full)):
            with pytest.raises(CapExceeded) as info:
                hurwitz_orbit(s, cap)
            assert info.value.cap == cap, (s.pairs(), cap)
        assert list(hurwitz_orbit(s, len(full))) == list(full)


def test_orbit_tree_words_transport_root():
    table = hurwitz_orbit(disk_covering(3))
    for element in table:
        assert act(table.root, table.word_to(element)) == element


def test_coset_soundness():
    table = hurwitz_orbit(disk_covering(3))
    elements = list(table)
    for u in elements:
        for v in elements:
            quotient = table.word_to(u) * table.word_to(v).inverse()
            fixes = act(table.root, quotient) == table.root
            assert fixes == (u == v)


def oracle_orbit(root):
    """A plain breadth-first search over the public ``act``, one letter at a
    time: the elements in discovery order and each element's tree word."""
    elements, words = [root], {root: ()}
    for current in elements:  # grows as it is read
        for e in BraidWord.generator_letters(root.length):
            image = act(current, BraidWord(root.length, (e,)))
            if image not in words:
                words[image] = words[current] + (e,)
                elements.append(image)
    return elements, words


def oracle_layer_sizes(words):
    depths = Counter(len(w) for w in words.values())
    return tuple(depths[k] for k in range(len(depths)))


def fixed_and_order_two_coverings():
    """Coverings whose orbits hold equal adjacent entries, which ``x_i``
    fixes, and disjoint ones, on which ``x_i`` has order 2, as well as
    entries that share a sheet.  Degrees up to 8 read a step table built
    whole, 9 to 16 one filled on first lookup.  The entries stay on the top
    four sheets, so the orbits stay small and the ranks' digits large."""
    rng = random.Random(76)
    coverings = []
    for degree in (4, 6, 8, 9, 12, 16):
        a, b, c, d = range(degree - 3, degree + 1)
        coverings.append(seq(degree, (a, b), (a, b), (c, d), (b, c), (c, d)))
        coverings.append(seq(degree, *(rng.sample((a, b, c, d), 2) for _ in range(4))))
    return coverings


def assert_meets_fixed_and_order_two_steps(coverings):
    """Fixed, order-2 and order-3 steps occur on both forms of the step
    table."""
    kinds = set()
    for s in coverings:
        for u in hurwitz_orbit(s):
            for t, v in zip(u.entries, u.entries[1:]):
                kinds.add((s.degree <= 8, "fixed" if t == v else "order 2" if t.is_disjoint_from(v) else "order 3"))
    assert kinds == {(whole, kind) for whole in (True, False) for kind in ("fixed", "order 2", "order 3")}


def test_orbit_table_matches_a_plain_search_over_act():
    coverings = [
        seq(2, (1, 2), (1, 2), (1, 2)),  # base C(2, 2) = 1: every rank is 0
        # Lazy tables (d > 16); the ranks run past 2^64, over several digits.
        seq(18, (17, 18), (16, 17), (16, 18), *[(1, 2)] * 6),
        MonodromySequence(3, ()),
        seq(3, (1, 3)),
        disk_covering(4),
    ]
    rng = random.Random(74)
    while len(coverings) < 25:
        degree, length = rng.randint(3, 5), rng.randint(4, 5)
        s = seq(degree, *(rng.sample(range(1, degree + 1), 2) for _ in range(length)))
        if s.is_connected():
            coverings.append(s)
    fixed_and_order_two = fixed_and_order_two_coverings()
    assert_meets_fixed_and_order_two_steps(fixed_and_order_two)
    coverings += fixed_and_order_two
    for s in coverings:
        table = hurwitz_orbit(s)
        elements, words = oracle_orbit(s)
        assert list(table) == elements, s.pairs()
        assert [table.word_to(u).letters for u in elements] == [words[u] for u in elements]
        assert table.layer_sizes == oracle_layer_sizes(words)


def test_layer_sizes_of_a_disk_covering():
    table = hurwitz_orbit(disk_covering(3))
    assert sum(table.layer_sizes) == 16
    assert table.layer_sizes == oracle_layer_sizes(oracle_orbit(disk_covering(3))[1])


def test_a_sequence_of_another_length_is_not_in_the_orbit():
    # Both share the root's rank: (1 2) packs to 0, so leading (1 2) entries add nothing.
    table = hurwitz_orbit(seq(3, (1, 2), (1, 3)))
    for other in (seq(3, (1, 3)), seq(3, (1, 2), (1, 2), (1, 3))):
        assert other not in table
        with pytest.raises(KeyError):
            table.word_to(other)
    table = hurwitz_orbit(seq(3, (1, 2), (1, 2), (1, 2)))
    assert seq(3, (1, 2), (1, 2)) not in table


@pytest.mark.slow
def test_orbit_search_at_seven_branch_points_peaks_under_80_mb(peak_rss_mb):
    peak_mb = peak_rss_mb(
        "from diskcovers.core import disk_covering\n"
        "from diskcovers.orbit import stabilizer_index\n"
        "assert stabilizer_index(disk_covering(7)) == 262_144\n"
    )
    assert peak_mb < 80, peak_mb


@pytest.mark.slow
def test_schreier_words_of_the_largest_five_six_class_peak_under_41_mb(peak_rss_mb):
    # Index 15,625, so 15,625 * 4 + 1 = 62,501 BraidWords at once.  The bound
    # holds while a record is one slotted object: 38.7 MB, against 42.4 MB
    # with a per-instance dict.
    peak_mb = peak_rss_mb(
        "from diskcovers.core import canonical_target\n"
        "from diskcovers.orbit import schreier_generators\n"
        "assert len(schreier_generators(canonical_target(5, 6, (5,)))) == 62_501\n"
    )
    assert peak_mb < 41, peak_mb


def test_index_bound():
    assert enumeration_bound(3, 2) == 9
    assert enumeration_bound(4, 3) == 216
    rng = random.Random(37)
    for _ in range(30):
        degree = rng.randint(2, 4)
        length = rng.randint(1, 4)
        pairs = [tuple(rng.sample(range(1, degree + 1), 2)) for _ in range(length)]
        s = MonodromySequence.from_pairs(degree, pairs)
        assert stabilizer_index(s) <= enumeration_bound(degree, length)


def test_schreier_generators_examples():
    assert [w.letters for w in schreier_generators(disk_covering(2))] == [(1, 1, 1)]
    assert schreier_generators(seq(2, (1, 2))) == []


def test_schreier_generators_are_liftable():
    for s in (disk_covering(3), seq(3, (1, 2), (1, 2), (2, 3)), seq(4, (1, 2), (3, 4), (1, 3))):
        for w in schreier_generators(s):
            assert is_liftable(s, w)


def reduce_and_dedup_schreier(s):
    """The Schreier words built candidate by candidate, as an oracle: for every
    element ``u`` and letter ``e``, the word ``t_u e t_(u e)^-1`` freely
    reduced; trivial words dropped; a word and its inverse identified by the
    form with fewer negative letters, the first candidate met kept."""
    table = hurwitz_orbit(s)
    words = {}
    for u in table:
        for e in BraidWord.generator_letters(s.length):
            letter = BraidWord(s.length, (e,))
            candidate = (table.word_to(u) * letter * table.word_to(act(u, letter)).inverse()).reduced().letters
            if candidate:
                inverse = tuple(-x for x in reversed(candidate))
                key = min((sum(x < 0 for x in w), w) for w in (candidate, inverse))
                words.setdefault(key, candidate)
    return list(words.values())


def seeded_coverings(count, seed):
    """Random sequences with d <= 5 and n <= 5, connected or not."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degree, length = rng.randint(2, 5), rng.randint(1, 5)
        out.append(seq(degree, *(rng.sample(range(1, degree + 1), 2) for _ in range(length))))
    return out


def test_schreier_words_match_the_reduce_and_dedup_oracle():
    coverings = seeded_coverings(60, seed=71)
    assert sum(not s.is_connected() for s in coverings) >= 10
    coverings += fixed_and_order_two_coverings()
    for s in coverings:
        words = schreier_generators(s)
        assert [w.letters for w in words] == reduce_and_dedup_schreier(s), s.pairs()


def test_schreier_words_are_a_free_basis():
    for s in seeded_coverings(60, seed=72) + [disk_covering(n) for n in range(1, 5)]:
        index = stabilizer_index(s)
        words = [w.letters for w in schreier_generators(s)]
        # Nielsen-Schreier: a subgroup of index i in the free group of rank
        # n - 1 is free of rank i (n - 2) + 1.
        assert len(words) == index * (s.length - 2) + 1, s.pairs()
        assert all(w and w == BraidWord(s.length, w).reduced().letters for w in words)
        assert all(is_liftable(s, BraidWord(s.length, w)) for w in words)
        inverses = {tuple(-x for x in reversed(w)) for w in words}
        assert len(set(words)) == len(words) and not inverses & set(words), s.pairs()


def test_one_search_gives_the_index_and_the_schreier_words():
    for s in seeded_coverings(20, seed=73) + [disk_covering(4)]:
        table = hurwitz_orbit(s)
        assert len(table) == stabilizer_index(s)
        assert table.schreier_words() == schreier_generators(s)


def test_the_rank_code_is_built_once_per_table(monkeypatch):
    calls = []
    rank_code = orbit._rank_code
    monkeypatch.setattr(orbit, "_rank_code", lambda *size: calls.append(size) or rank_code(*size))
    table = hurwitz_orbit(disk_covering(4))
    table.schreier_words()
    table.interval_powers()
    assert calls == [(5, 4)]


def test_whole_and_lazy_step_tables_agree():
    # Degrees up to 8 read a whole tuple, larger ones a lazily filled dict.
    # Both give, on every window of two digits t, u, the rank step of one
    # braid letter acting on the two-entry sequence (t, u).
    from diskcovers.core import _Lazy, _Tables, _unpack

    for degree in range(2, 7):
        tables = _Tables(degree)
        base, lazy = tables.size, _Lazy(tables._step)
        assert isinstance(tables.steps, tuple) and len(tables.steps) == base * base
        for t, u in itertools.product(range(base), repeat=2):
            window = t * base + u
            assert tables.steps[window] == lazy[window]
            for step, letter in zip(lazy[window], (1, -1)):
                image = act(_unpack(degree, (t, u)), BraidWord(2, (letter,)))._packed
                assert window + step == image[0] * base + image[1]
    assert isinstance(_Tables(8).steps, tuple) and isinstance(_Tables(9).steps, _Lazy)


def test_schreier_word_counts():
    assert len(schreier_generators(disk_covering(5))) == 3_889
    s = seq(5, (4, 5), (2, 4), (2, 4), (2, 5), (1, 4), (2, 3))
    assert omega_class(s).parts == (5,)
    assert len(schreier_generators(s)) == 62_501 == 15_625 * 4 + 1


def test_default_cap_is_shared(monkeypatch, capsys):
    assert DEFAULT_CAP == 10**6
    for enumerate_ in (classify_all, all_sequences):
        with pytest.raises(CapExceeded) as info:
            enumerate_(5, 7)  # 10^7 sequences, refused before enumerating
        assert info.value.cap == DEFAULT_CAP
    assert main(["classify", "--degree", "5", "--n", "7"]) == 2
    assert '"cap": 1000000' in capsys.readouterr().out
    monkeypatch.setattr(orbit, "DEFAULT_CAP", 5)
    for enumerate_ in (hurwitz_orbit, stabilizer_index, schreier_generators):
        with pytest.raises(CapExceeded) as info:
            enumerate_(disk_covering(3))
        assert info.value.cap == 5
    for enumerate_ in (classify_all, all_sequences):
        with pytest.raises(CapExceeded) as info:
            enumerate_(3, 2)
        assert info.value.cap == 5
    for command in ("orbit", "schreier"):
        assert main([command, "--covering", '{"degree": 4, "monodromy": [[1, 2], [2, 3], [3, 4]]}']) == 2
        out = capsys.readouterr().out
        assert '"cap": 5' in out and "exceeds cap 5" in out
    for certify in (lambda: todd_coxeter(3, []), lambda: verify_theorem_c(3)):
        with pytest.raises((CapExceeded, Inconclusive)) as info:
            certify()
        assert info.value.cap == 5
    assert main(["todd-coxeter", "--n", "3", "--words", ""]) == 2
    out = capsys.readouterr().out
    assert '"cap": 5' in out and "within 5 cosets" in out
    # A caller's cap bounds the orbit search as well as the enumeration.
    monkeypatch.setattr(orbit, "DEFAULT_CAP", 20)
    assert verify_theorem_c(4, max_cosets=10**6).passed
    assert interval_powers_index(disk_covering(3), max_word_length=2, max_cosets=10**6).generates
    with pytest.raises((CapExceeded, Inconclusive)) as info:
        verify_theorem_c(4, max_cosets=50)
    assert info.value.cap == 50
    assert main(["verify-theorem-c", "--n", "4", "--cap", "50"]) == 2
    assert '"cap": 50' in capsys.readouterr().out


@pytest.mark.parametrize("cap", [0, -5])
def test_nonpositive_cap_is_invalid_input(cap, capsys):
    p3 = disk_covering(3)
    enumerations = (
        lambda: hurwitz_orbit(p3, cap),
        lambda: stabilizer_index(p3, cap),
        lambda: schreier_generators(p3, cap),
        lambda: classify_all(3, 2, cap),
        lambda: todd_coxeter(3, [], cap),
        lambda: verify_theorem_c(3, cap),
        lambda: interval_powers_index(p3, max_word_length=1, max_cosets=cap),
    )
    for enumerate_ in enumerations:
        with pytest.raises(ValueError):
            enumerate_()
    covering = '{"degree": 4, "monodromy": [[1, 2], [2, 3], [3, 4]]}'
    for argv in (
        ["orbit", "--covering", covering],
        ["schreier", "--covering", covering],
        ["classify", "--degree", "3", "--n", "2"],
        ["todd-coxeter", "--n", "3", "--words", ""],
        ["verify-theorem-c", "--n", "3"],
    ):
        assert main(argv + ["--cap", str(cap)]) == 1, argv
        assert '"status": "invalid-input"' in capsys.readouterr().out


def test_classify_examples():
    classes = classify_all(4, 3)
    connected = [c for c in classes if c.connected]
    assert len(connected) == 1
    assert connected[0].count == 96
    assert connected[0].omega.parts == (4,)
    assert is_equivalent(connected[0].representative, disk_covering(3))

    classes = classify_all(2, 2)
    assert len(classes) == 1
    assert classes[0].count == 1
    assert classes[0].omega.parts == ()

    classes = classify_all(3, 3)
    connected = [c for c in classes if c.connected]
    omegas = {c.omega for c in connected}
    assert len(connected) == len(omegas)


def test_classify_cap():
    with pytest.raises(CapExceeded):
        classify_all(4, 5, cap=100)


def test_classify_counts_cover_everything():
    for degree, length in ((2, 3), (3, 2), (3, 3)):
        classes = classify_all(degree, length)
        assert sum(c.count for c in classes) == enumeration_bound(degree, length)


def test_classes_match_invariants_small():
    for degree, length in ((2, 3), (3, 3), (3, 4), (4, 3)):
        classes = classify_all(degree, length)
        connected = [c for c in classes if c.connected]
        assert len({c.omega for c in connected}) == len(connected)
        for c in connected:
            result = canonicalize(c.representative)
            assert replay_certificate(c.representative, result) == result.canonical


def test_all_sequences_counts():
    assert len(all_sequences(3, 2)) == 9
    assert len(all_sequences(2, 0)) == 1
    assert len(all_sequences(1, 1)) == 0
    # Degree 0 is refused, not counted: C(0, 2) ** 2 = 0 would pass as an empty answer.
    for call in (lambda: all_sequences(0, 2), lambda: classify_all(0, 3), lambda: classify_all(-1, 0)):
        with pytest.raises(ValueError, match="degree must be at least 1, got"):
            call()


def classify_oracle(degree, length):
    """Classes by a union-find of its own over ``all_sequences``, joined by
    the public ``act`` of each generator and ``renumber_sheets`` by each
    adjacent sheet swap: (least member, size) per class."""
    sequences = all_sequences(degree, length)
    position = {s: k for k, s in enumerate(sequences)}
    parent = list(range(len(sequences)))

    def find(k):
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]  # path halving
        return k

    swaps = [Transposition(k, k + 1).as_permutation(degree) for k in range(1, degree)]
    for k, s in enumerate(sequences):
        neighbours = [act(s, BraidWord(length, (g,))) for g in range(1, length)]
        neighbours += [s.renumber_sheets(swap) for swap in swaps]
        for other in neighbours:
            a, b = find(k), find(position[other])
            if a != b:
                parent[max(a, b)] = min(a, b)
    classes = {}
    for k, s in enumerate(sequences):
        classes.setdefault(find(k), []).append(s)
    return sorted((min(members), len(members)) for members in classes.values())


def test_classify_all_matches_an_independent_union_find():
    # Pins the braid orbits classify_all sweeps on ranks with forward letters
    # only, and their joining by renumbering one member each: (4, 5) joins 42
    # braid orbits into 6 classes, (5, 4) 214 into 10, (3, 6) 6 into 3.
    cells = [(degree, length) for degree in range(1, 5) for length in range(0, 5)] + [(4, 5), (5, 4), (3, 6)]
    for degree, length in cells:
        classes = classify_all(degree, length)
        assert [(c.representative, c.count) for c in classes] == classify_oracle(degree, length)
        for c in classes:
            assert c.omega == omega_class(c.representative)
            assert c.connected == c.representative.is_connected()


def test_renumbering_commutes_with_the_braid_action():
    # classify_all joins whole braid orbits through one member each, which
    # holds only if renumbering sheets commutes with every braid word.
    rng = random.Random(18)
    for _ in range(60):
        degree, length = rng.randint(2, 7), rng.randint(2, 7)
        s = seq(degree, *(rng.sample(range(1, degree + 1), 2) for _ in range(length)))
        letters = BraidWord.generator_letters(length)
        word = BraidWord(length, tuple(rng.choice(letters) for _ in range(rng.randint(0, 12))))
        relabels = [Transposition(k, k + 1).as_permutation(degree) for k in range(1, degree)]
        relabels += [Permutation(tuple(rng.sample(range(1, degree + 1), degree))) for _ in range(3)]
        for p in relabels:
            assert act(s.renumber_sheets(p), word) == act(s, word).renumber_sheets(p), (s.pairs(), word, p)


@pytest.mark.slow
def test_classify_all_at_the_cap_peaks_under_40_mb(peak_rss_mb):
    # (5, 6) has exactly DEFAULT_CAP = 10^6 sequences.
    peak_mb = peak_rss_mb(
        "from diskcovers.orbit import classify_all\n"
        "classes = classify_all(5, 6)\n"
        "assert len(classes) == 17 and sum(c.count for c in classes) == 10**6\n"
    )
    assert peak_mb < 40, peak_mb


@pytest.mark.parametrize("degree, length", [(9, 2), (10, 2), (9, 3)])
def test_classify_all_above_eight_sheets_matches_the_oracle(degree, length):
    # Above 8 sheets the braid step table is filled on first lookup, and
    # classify_all reads every window of it once per call.
    from diskcovers.core import _Lazy, _tables

    classes = classify_all(degree, length)
    assert isinstance(_tables(degree).steps, _Lazy)
    assert [(c.representative, c.count) for c in classes] == classify_oracle(degree, length)
    for c in classes:
        assert c.omega == omega_class(c.representative)
        assert c.connected == c.representative.is_connected()
