"""Golden outputs and the public/trusted constructor contract.

``golden_cli.json`` holds exact CLI reports captured before the braid action,
orbit search and classifier moved to the packed encoding: Schreier words,
canonicalization certificates, orbit sizes and the classification all depend
on search and enumeration order, so any reordering shows up as a byte
difference here.  Its Todd-Coxeter cases (two CLI reports and the coset table
of the theorem-C generators on four strands) were captured before the
enumerator lost its post-scan sweep; the coset numbering depends on the order
in which cosets are defined and merged.
"""

import contextlib
import io
import itertools
import json
from pathlib import Path

import pytest

from diskcovers.cli import main
from diskcovers.core import (
    MonodromySequence,
    Permutation,
    Transposition,
    _tables,
    disk_covering,
    surface_invariants,
    total_monodromy,
)
from diskcovers.cosets import todd_coxeter
from diskcovers.hurwitz import BraidWord, act, canonicalize
from diskcovers.lift import is_liftable, theorem_c_generators
from diskcovers.orbit import all_sequences, classify_all, hurwitz_orbit, stabilizer_index
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


def test_coset_table_is_identical():
    (case,) = DOCUMENT["coset_tables"]
    assert case["subgroup"] == "theorem_c_generators(4)"
    index, table = todd_coxeter(case["strands"], theorem_c_generators(case["strands"]))
    assert table.status == "complete" and index == len(case["rows"])
    assert [list(row) for row in table.rows] == case["rows"]


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


def test_trusted_objects_equal_public_ones():
    table = hurwitz_orbit(disk_covering(3))
    for element in table.elements:
        public = MonodromySequence.from_pairs(element.degree, element.pairs())
        assert element == public and hash(element) == hash(public)
        assert element in table and public in table
        assert table.word_to(public) == table.word_to(element)
        assert all(a == b and hash(a) == hash(b) for a, b in zip(element.entries, public.entries))
    s = disk_covering(4)
    acted = act(s, BraidWord(4, (1, -3, 2)))
    assert acted == MonodromySequence.from_pairs(5, acted.pairs())
    omega = total_monodromy(acted)
    assert omega == Permutation(omega.images) and hash(omega) == hash(Permutation(omega.images))
    restricted = restrict(s, RestrictionSpec((2,), START))
    assert restricted == MonodromySequence.from_pairs(5, restricted.pairs())
    result = canonicalize(acted)
    assert result.relabel == Permutation(result.relabel.images)
    representatives = [c.representative for c in classify_all(3, 3)]
    assert all(r == MonodromySequence.from_pairs(3, r.pairs()) for r in representatives)
    assert all_sequences(3, 2)[4] == MonodromySequence.from_pairs(3, [(1, 3), (1, 3)])


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
