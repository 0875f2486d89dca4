"""Coset enumeration and the generator-set verifier."""

import random
import tracemalloc

import pytest

from diskcovers import cosets, orbit
from diskcovers.core import MonodromySequence, disk_covering, omega_class
from diskcovers.cosets import (
    Inconclusive,
    TheoremCReport,
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
        table = info.value.table
        assert table.status == "capped" and table.defined == 2000
        assert all(-1 <= image < table.index for row in table.rows for image in row)


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


def reference_todd_coxeter(strands, subgroup_words, max_cosets):
    """The enumerator as it was before the column lists, kept as the oracle:
    one flat table indexed ``coset * columns + column``, a lazy union-find
    walk after every scan step, and a stack ``merge`` that leaves entries
    naming dead cosets in live rows.  Returns ``(status, defined, index,
    rows)``, with the live cosets numbered in order in ``rows``."""
    cols = 2 * (strands - 1)
    column = {e: d for d, e in enumerate(BraidWord.generator_letters(strands))}.__getitem__
    relators = [tuple(map(column, relator)) for relator in braid_presentation(strands).relators]
    words = [tuple(map(column, w.letters)) for w in subgroup_words]

    blank = [-1] * cols
    parent = [0]
    table = blank[:]

    class Capped(Exception):
        pass

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(c, d):
        if len(parent) >= max_cosets:
            raise Capped
        v = len(parent)
        parent.append(v)
        table.extend(blank)
        table[c * cols + d] = v
        table[v * cols + (d ^ 1)] = c

    def merge(a, b):
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            parent[b] = a
            ra, rb = a * cols, b * cols
            for d in range(cols):
                nb = table[rb + d]
                if nb == -1:
                    continue
                na = table[ra + d]
                if na == -1:
                    table[ra + d] = nb
                else:
                    stack.append((na, nb))

    def scan_and_fill(c, word):
        f = b = find(c)
        i, j = 0, len(word) - 1
        while True:
            while i <= j:
                x = table[f * cols + word[i]]
                if x == -1:
                    break
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                f = x
                i += 1
            while j >= i:
                x = table[b * cols + (word[j] ^ 1)]
                if x == -1:
                    break
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                b = x
                j -= 1
            if j < i:
                if f != b:
                    merge(f, b)
                return
            if i == j:
                table[f * cols + word[i]] = b
                table[b * cols + (word[i] ^ 1)] = f
                return
            define(f, word[i])

    status = "complete"
    try:
        for w in words:
            scan_and_fill(0, w)
        scan = 0
        while scan < len(parent):
            if parent[scan] == scan:
                for relator in relators:
                    scan_and_fill(scan, relator)
                if parent[scan] == scan:
                    for d in range(cols):
                        if table[scan * cols + d] == -1:
                            define(scan, d)
            scan += 1
    except Capped:
        status = "capped"
    # parent[c] <= c, so c's live coset is labelled before c.
    label, live_cosets = [], []
    for c, p in enumerate(parent):
        if p == c:
            label.append(len(live_cosets))
            live_cosets.append(c)
        else:
            label.append(label[p])
    label.append(-1)
    rows = tuple(tuple(label[x] for x in table[c * cols : (c + 1) * cols]) for c in live_cosets)
    return status, len(parent), len(live_cosets), rows


def random_subgroups(count):
    """Seeded random subgroups on 2 to 5 strands, each with a cap of 50, 500
    or 3,000 cosets; many have infinite index and hit the cap."""
    cases = []
    for seed in range(count):
        rng = random.Random(seed)
        strands = 2 + seed % 4
        letters = BraidWord.generator_letters(strands)
        words = [
            BraidWord(strands, tuple(rng.choice(letters) for _ in range(rng.randint(1, 8))))
            for _ in range(rng.randint(1, 4))
        ]
        cases.append((strands, words, (50, 500, 3000)[seed % 3]))
    return cases


def finished_or_capped(strands, words, cap):
    """The enumerator's table, finished or capped."""
    try:
        return todd_coxeter(strands, words, cap)[1]
    except Inconclusive as capped:
        return capped.table


def assert_no_dead_entries(table):
    """No live row names a dead coset, and every entry's inverse entry
    points back."""
    parent, columns = table._parent, table._columns
    live = [c for c, p in enumerate(parent) if p == c]
    for d, column in enumerate(columns):
        inverse = columns[d ^ 1]
        for c in live:
            x = column[c]
            assert x == -1 or (parent[x] == x and inverse[x] == c), (c, d, x)


def test_enumerator_matches_the_reference():
    cases = [(n, theorem_c_generators(n), 200_000) for n in range(1, 7)]
    # Theorem C stopped mid-run, after coincidences: the first cap of each
    # size stops a definition of the fill loop, the second one of a scan.
    midway = [(5, theorem_c_generators(5), cap) for cap in (1_000, 2_400)]
    midway += [(6, theorem_c_generators(6), cap) for cap in (5_000, 20_000)]
    cases += midway
    # Stopped while the subgroup words are closed: the Schreier words of the
    # (4, 6) class that tools/layer_bench.py pins reach a cap of 100 at the
    # 150th of their 15,361 words and one of 2,000 at the 5,526th.
    four_six = schreier_generators(MonodromySequence.from_pairs(4, [(1, 2), (3, 4), (2, 3), (2, 4), (1, 2), (2, 4)]))
    in_words = [(6, four_six, cap) for cap in (100, 2_000)]
    cases += in_words
    cases += [(s.length, schreier_generators(s), 200_000) for s in schreier_cases()]
    cases += random_subgroups(240)
    statuses = set()
    for strands, words, cap in cases:
        table = finished_or_capped(strands, words, cap)
        assert_no_dead_entries(table)
        got = (table.status, table.defined, table.index, table.rows)
        assert got == reference_todd_coxeter(strands, words, cap), (strands, [w.letters for w in words], cap)
        statuses.add(table.status)
        if (strands, words, cap) in midway:
            assert table.status == "capped" and table.index < table.defined, (strands, cap)
    for strands, words, cap in in_words:
        unread = iter(words)
        table = finished_or_capped(strands, unread, cap)
        assert table.status == "capped" and table.defined == cap, cap
        assert next(unread, None) is not None, cap  # some words were never read
    assert statuses == {"complete", "capped"}


def test_peak_live_counts_cosets_live_at_once():
    for strands, words, cap in [(5, theorem_c_generators(5), 10_000), *random_subgroups(12)]:
        first, second = (finished_or_capped(strands, words, cap) for _ in range(2))
        assert first.index <= first.peak_live <= first.defined
        assert first.peak_live == second.peak_live
    # Schreier words define no coset that is later merged away.
    for s in schreier_cases():
        _, table = todd_coxeter(s.length, schreier_generators(s), max_cosets=200_000)
        assert table.defined == table.index == table.peak_live


def test_todd_coxeter_reads_any_iterable_once():
    # A generator of the words gives the table a list of them gives.
    cases = [(5, theorem_c_generators(5), 10_000), *random_subgroups(12)]
    cases += [(s.length, schreier_generators(s), 200_000) for s in schreier_cases()]
    for strands, words, cap in cases:
        listed = finished_or_capped(strands, words, cap)
        streamed = finished_or_capped(strands, (w for w in words), cap)
        got = (streamed.status, streamed.index, streamed.defined, streamed.peak_live, streamed.rows)
        assert got == (listed.status, listed.index, listed.defined, listed.peak_live, listed.rows), strands


@pytest.mark.parametrize("position", [0, 3, 6])
@pytest.mark.parametrize("strands", [3, 5])
def test_todd_coxeter_rejects_a_word_on_other_strands_anywhere(position, strands):
    words = theorem_c_generators(4)  # six words on four strands
    words.insert(position, word(strands, 1))
    with pytest.raises(ValueError, match="^subgroup word strand count mismatch$"):
        todd_coxeter(4, (w for w in words))


def test_generator_set_indexes():
    index, _ = todd_coxeter(3, theorem_c_generators(3))
    assert index == 16
    index, _ = todd_coxeter(4, theorem_c_generators(4))
    assert index == 125
    index, table = todd_coxeter(5, theorem_c_generators(5))
    # 1,349: counted independently, as live cosets after each definition and
    # merge of the reference enumerator.
    assert index == 1296 and table.defined == 2499 and table.peak_live == 1349
    # n = 6, the largest size the benchmark certifies.
    index, table = todd_coxeter(6, theorem_c_generators(6))
    assert index == 16_807 and table.defined == 32_599 and table.peak_live == 17_005


def test_verify_theorem_c_small():
    for n in range(1, 6):
        # n - 1 cubes of adjacent half-twists and C(n - 1, 2) squares of the
        # others; the index is (n + 1)^(n - 1).
        words, index = n - 1 + (n - 1) * (n - 2) // 2, (n + 1) ** (n - 1)
        assert verify_theorem_c(n) == TheoremCReport(n, words, True, index, index, True)


def count_searches(monkeypatch) -> tuple[list, list]:
    """Record every orbit search (``OrbitTable`` built) and every
    ``todd_coxeter`` call that the certifier makes, in two lists."""
    searches, enumerations = [], []
    search, enumerate_cosets = orbit.OrbitTable.__init__, cosets.todd_coxeter

    def counted_search(table, *args):
        searches.append(table)
        search(table, *args)

    monkeypatch.setattr(orbit.OrbitTable, "__init__", counted_search)
    monkeypatch.setattr(
        cosets, "todd_coxeter", lambda *args, **kw: enumerations.append(args) or enumerate_cosets(*args, **kw)
    )
    return searches, enumerations


def test_verify_theorem_c_fails_fast_on_a_word_that_does_not_lift(monkeypatch):
    generators = cosets.theorem_c_generators
    monkeypatch.setattr(cosets, "theorem_c_generators", lambda n: [*generators(n), BraidWord(n, (1,))])
    searches, enumerations = count_searches(monkeypatch)
    assert verify_theorem_c(4) == TheoremCReport(4, 7, False, -1, -1, False)
    assert searches == [] and enumerations == []


def test_interval_powers_fail_fast_on_a_word_that_does_not_lift(monkeypatch):
    # The certifier reads the words off the table's generator, never the list.
    powers = orbit.OrbitTable._interval_powers
    listed = []
    monkeypatch.setattr(
        orbit.OrbitTable,
        "_interval_powers",
        lambda table, *args: iter([*powers(table, *args), BraidWord(table.root.length, (1,))]),
    )
    monkeypatch.setattr(orbit.OrbitTable, "interval_powers", lambda table, *args: listed.append(args))
    searches, enumerations = count_searches(monkeypatch)
    report = interval_powers_index(disk_covering(4))
    assert not report.generates and report.orbit_index == report.tc_index == -1, report
    assert report.generator_count == 125 * 2 + 1 + 1, report  # every word counted, the appended one too
    assert len(searches) == 1 and enumerations == []  # the one search gives the words
    assert listed == []


@pytest.mark.slow
def test_verify_theorem_c_at_seven_branch_points_peaks_under_100_mb(peak_rss_mb):
    # The certifier's enumeration is pinned too, as test_generator_set_indexes
    # pins it up to n = 6: index, cosets defined and peak live cosets.  Only
    # the counts are kept, so the table is freed before the orbit search.
    peak_mb = peak_rss_mb(
        "from diskcovers import cosets\n"
        "counts = []\n"
        "enumerate_cosets = cosets.todd_coxeter\n"
        "def counted(*args, **kw):\n"
        "    index, table = enumerate_cosets(*args, **kw)\n"
        "    counts.append((index, table.defined, table.peak_live))\n"
        "    return index, table\n"
        "cosets.todd_coxeter = counted\n"
        "report = cosets.verify_theorem_c(7)\n"
        "assert report.all_liftable and report.passed\n"
        "assert report.orbit_index == report.tc_index == 262_144\n"
        "assert counts == [(262_144, 530_706, 263_243)], counts\n"
    )
    assert peak_mb < 100, peak_mb


@pytest.mark.slow
def test_interval_powers_of_a_five_seven_class_peak_under_200_mb(peak_rss_mb):
    # 504,001 words, 13.0 M letters: the bound holds only while the certifier
    # keeps no list of them.
    peak_mb = peak_rss_mb(
        "from diskcovers.core import canonical_target\n"
        "from diskcovers.cosets import interval_powers_index\n"
        "report = interval_powers_index(canonical_target(5, 7, (2,)))\n"
        "assert report.orbit_index == report.tc_index == 100_800, report\n"
        "assert report.generator_count == 504_001 and report.generates, report\n"
    )
    assert peak_mb < 200, peak_mb


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
    searches, _ = count_searches(monkeypatch)
    tree_words, trees = orbit.OrbitTable._tree_words, []
    monkeypatch.setattr(orbit.OrbitTable, "_tree_words", lambda table: trees.append(table) or tree_words(table))
    classes = [c for c in classify_all(degree, length) if c.connected]
    assert len(classes) == CONNECTED_CLASSES[degree, length]
    for c in classes:
        s = c.representative
        searches.clear()
        trees.clear()
        report = interval_powers_index(s)
        assert len(searches) == 1, c  # one orbit search gives words and index
        assert len(trees) == 1, c  # and one build of its tree words serves both passes
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


#: Draws ``certify_schreier_words`` makes before it gives up.  Each (5, 6)
#: class takes at least 17% of uniform draws, so 100 draws all miss a class
#: with odds below 1e-8; seed 11 finds every class within 5.
DRAWS = 100


def certify_schreier_words(degree, length, omega, seed):
    """Certify the Schreier words of one seeded covering of the class: every
    word liftable, coset index equal to orbit index.  Fails, naming the
    class, when ``DRAWS`` draws find no covering of it."""
    rng = random.Random(seed)
    for _ in range(DRAWS):
        s = MonodromySequence.from_pairs(degree, [rng.sample(range(1, degree + 1), 2) for _ in range(length)])
        if s.is_connected() and omega_class(s).parts == omega:
            break
    else:
        pytest.fail(f"no connected ({degree}, {length}) covering of cycle type {omega} in {DRAWS} draws of seed {seed}")
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
