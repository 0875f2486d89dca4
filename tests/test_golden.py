"""Golden outputs and the public/unchecked constructor contract.

``golden_cli.json`` holds exact CLI reports captured before the braid action,
orbit search and classifier moved to the packed encoding: Schreier words,
canonicalization certificates, orbit sizes and the classification all depend
on search and enumeration order, so any reordering shows up as a byte
difference here.  Its Todd-Coxeter cases (two CLI reports and the coset table
of the theorem-C generators on four strands) were captured before the
enumerator lost its post-scan sweep, and the tables of the theorem-C
generators on five strands and of the Schreier words of ``disk_covering(2)``
before it moved from forward tracing to scan-and-fill; the coset numbering
depends on the order in which cosets are defined and merged.  Its Schreier
cases (the SHA-256 of the word list of each ``schreier_cases()`` covering
and of one seeded covering of each Schreier class of the benchmark's
certify workload) were captured from the construction that reduced every
candidate word and deduplicated up to inversion, before it read the words
off the non-tree edges.  Its ``canon`` cases were captured from the
constructive reduction (``hurwitz._peel``) when it replaced the search of the
canonical target's orbit; the move word depends on the reduction's order.
Cases 3, 4 and 6 (all ``canon``) were captured again when the reduction began
to emit freely reduced words and to open each reduce step with ``x_i^-1`` in
place of ``x_i x_i``; their certificates shrank from 18, 14 and 23 moves to
15, 11 and 16.  Its ``certificates`` cases pin the whole certificate, relabel,
moves and packed target, of every connected sequence with d <= 4 and n <= 5
and of 300 seeded larger coverings, by count and SHA-256; they were captured
before the relabel was read off the target's layout.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
from functools import cache
from pathlib import Path

import pytest

from diskcovers.cli import main
from diskcovers.core import (
    MonodromySequence,
    Permutation,
    Transposition,
    _Lazy,
    _Tables,
    _tables,
    canonical_target,
    conjugating_permutation,
    disk_covering,
    surface_invariants,
    total_monodromy,
)
from diskcovers.cosets import todd_coxeter
from diskcovers.hurwitz import BraidWord, act, canonicalize
from diskcovers.lift import is_liftable, theorem_c_generators
from diskcovers.orbit import all_sequences, classify_all, hurwitz_orbit, schreier_generators, stabilizer_index
from diskcovers.restrict import START, RestrictionSpec, restrict

DOCUMENT = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))
GOLDEN = DOCUMENT["cli"]


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{case['argv'][0]}-{k}" for k, case in enumerate(GOLDEN)])
def test_cli_output_is_byte_identical(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(case["argv"])
    assert code == 0
    assert out.getvalue() == case["stdout"]


SUBGROUPS = {
    "theorem_c_generators(4)": lambda: theorem_c_generators(4),
    "theorem_c_generators(5)": lambda: theorem_c_generators(5),
    "schreier_generators(disk_covering(2))": lambda: schreier_generators(disk_covering(2)),
}


def test_coset_table_is_identical():
    cases = DOCUMENT["coset_tables"]
    assert [case["subgroup"] for case in cases] == list(SUBGROUPS)
    for case in cases:
        index, table = todd_coxeter(case["strands"], SUBGROUPS[case["subgroup"]]())
        assert table.status == "complete" and index == len(case["rows"])
        assert [list(row) for row in table.rows] == case["rows"], case["subgroup"]


@pytest.mark.parametrize(
    "case", DOCUMENT["schreier_words"], ids=[case["covering"] for case in DOCUMENT["schreier_words"]]
)
def test_schreier_words_are_identical(case):
    seq = MonodromySequence.from_pairs(case["degree"], case["pairs"])
    words = [list(w.letters) for w in schreier_generators(seq)]
    assert len(words) == case["words"]
    assert hashlib.sha256(json.dumps(words).encode()).hexdigest() == case["sha256"]


def certified_sequences(name: str) -> list[MonodromySequence]:
    """The connected sequences of one ``certificates`` case."""
    if name == "grid":
        # The sequences of criterion 4.
        return [s for d in range(1, 5) for n in range(6) for s in all_sequences(d, n) if s.is_connected()]
    rng = random.Random(31)
    out = []
    while len(out) < 300:
        degree, length = rng.randint(5, 8), rng.randint(4, 10)
        s = MonodromySequence.from_pairs(degree, [rng.sample(range(1, degree + 1), 2) for _ in range(length)])
        if s.is_connected():
            out.append(s)
    return out


@cache
def certified(name: str) -> list:
    return [(s, canonicalize(s)) for s in certified_sequences(name)]


@pytest.mark.parametrize("case", DOCUMENT["certificates"], ids=[case["sequences"] for case in DOCUMENT["certificates"]])
def test_certificates_are_identical(case):
    records = [
        [list(r.relabel.images), [list(move) for move in r.moves], list(r.canonical._packed)]
        for _, r in certified(case["sequences"])
    ]
    assert len(records) == case["count"]
    assert sum(len(moves) for _, moves, _ in records) == case["moves"]
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == case["sha256"]


@pytest.mark.parametrize("name", ["grid", "seeded"])
def test_relabel_is_the_conjugating_permutation(name):
    # The general construction as the oracle of the relabel read off the
    # target's layout.
    for s, result in certified(name):
        target = canonical_target(s.degree, s.length, total_monodromy(s).cycle_type())
        assert result.canonical == target
        assert result.relabel == conjugating_permutation(total_monodromy(s), total_monodromy(target)), s.pairs()


def test_public_constructors_reject_bad_input():
    with pytest.raises(ValueError):
        Transposition(2, 2)
    with pytest.raises(ValueError):
        Transposition(0, 1)
    with pytest.raises(ValueError):
        MonodromySequence.from_pairs(3, [(1, 4)])
    with pytest.raises(ValueError):
        MonodromySequence(0, ())
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((2, 3))


def test_unchecked_objects_equal_public_ones():
    table = hurwitz_orbit(disk_covering(3))
    for element in table.elements:
        public = MonodromySequence.from_pairs(element.degree, element.pairs())
        assert element == public and hash(element) == hash(public)
        assert element._packed == public._packed
        assert element in table and public in table
        assert table.word_to(public) == table.word_to(element)
        assert all(a == b and hash(a) == hash(b) for a, b in zip(element.entries, public.entries))
    s = disk_covering(4)
    acted = act(s, BraidWord(4, (1, -3, 2)))
    assert acted == MonodromySequence.from_pairs(5, acted.pairs())
    assert acted._packed == MonodromySequence.from_pairs(5, acted.pairs())._packed
    omega = total_monodromy(acted)
    assert omega == Permutation(omega.images) and hash(omega) == hash(Permutation(omega.images))
    restricted = restrict(s, RestrictionSpec((2,), START))
    assert restricted == MonodromySequence.from_pairs(5, restricted.pairs())
    assert restricted._packed == MonodromySequence.from_pairs(5, restricted.pairs())._packed
    result = canonicalize(acted)
    assert result.relabel == Permutation(result.relabel.images)
    representatives = [c.representative for c in classify_all(3, 3)]
    assert all(r == MonodromySequence.from_pairs(3, r.pairs()) for r in representatives)
    assert all(r._packed == MonodromySequence.from_pairs(3, r.pairs())._packed for r in representatives)
    assert all_sequences(3, 2)[4] == MonodromySequence.from_pairs(3, [(1, 3), (1, 3)])
    relabelled = s.renumber_sheets(Permutation((5, 4, 3, 2, 1)))
    assert relabelled._packed == MonodromySequence.from_pairs(5, relabelled.pairs())._packed
    w = BraidWord(4, (1, -3, 3, 2))
    for built in (w * w, w ** 3, w ** -2, w.inverse(), w.reduced()):
        public = BraidWord(4, built.letters)
        assert built == public and hash(built) == hash(public) and repr(built) == repr(public)


def test_packed_form_stays_out_of_repr_equality_and_order():
    assert repr(disk_covering(2)) == (
        "MonodromySequence(degree=3, entries=(Transposition(a=1, b=2), Transposition(a=2, b=3)))"
    )
    ordered = all_sequences(3, 3)
    shuffled = ordered[:]
    random.Random(6).shuffle(shuffled)
    assert shuffled != ordered and sorted(shuffled) == ordered


def test_is_liftable_packs_nothing(monkeypatch):
    seq = disk_covering(4)
    word = BraidWord(4, (1, 1, 1, 2, -3))
    assert not is_liftable(seq, word)  # fills the conjugation entries met
    calls = []
    index = _Tables.index
    monkeypatch.setattr(_Tables, "index", lambda self, a, b: calls.append((a, b)) or index(self, a, b))
    for _ in range(1000):
        is_liftable(seq, word)
    assert calls == []


def test_orbit_table_membership_respects_degree():
    table = hurwitz_orbit(disk_covering(2))
    # Packs to the same indices as an element of the orbit, on another degree.
    other = MonodromySequence.from_pairs(4, [(1, 2), (1, 4)])
    assert other not in table
    with pytest.raises(KeyError):
        table.word_to(other)


def test_packed_index_is_lexicographic_pair_order():
    for degree in range(1, 12):
        tables = _tables(degree)
        pairs = list(itertools.combinations(range(1, degree + 1), 2))
        assert [tables.pairs[t] for t in range(len(pairs))] == pairs
        assert [tables.index(b, a) for a, b in pairs] == list(range(len(pairs)))


def test_packed_tables_grow_with_the_entries_not_the_degree():
    degree = 5000
    _tables.cache_clear()
    seq = MonodromySequence.from_pairs(degree, [(1, degree), (1, 2), (2, degree), (7, 9)])
    document = json.dumps({"degree": degree, "monodromy": [list(p) for p in seq.pairs()]})
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["invariants", "--covering", document]) == 0
    assert surface_invariants(seq).boundary == degree - 2
    assert restrict(seq, RestrictionSpec((2,), START)).pairs() == ((1, degree), (1, degree), (7, 9))
    assert act(seq, BraidWord(4, (1, -3, 2))).degree == degree
    assert not is_liftable(seq, BraidWord(4, (1,)))
    assert stabilizer_index(seq) == 32
    reverse = Permutation(tuple(range(degree, 0, -1)))
    assert seq.renumber_sheets(reverse).pairs()[0] == (1, degree)
    tables = _tables(degree)
    touched = [tables.pairs, tables.interned, tables.conj, *tables.conj.values()]
    assert max(len(table) for table in touched) <= 10
    # The orbit search stepped through the lazy step table: at most one
    # window per element and letter position of the 32-element orbit.
    assert isinstance(tables.steps, _Lazy) and 0 < len(tables.steps) <= 32 * 3
