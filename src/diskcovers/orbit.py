"""Orbit enumeration for the braid action on monodromy sequences.

The orbit of a sequence is finite: there are at most ``(d(d-1)/2)^n``
sequences altogether, and the stabilizer of a sequence is exactly its group
of liftable braids, so the orbit size equals that subgroup's index in the
braid group.  A breadth-first spanning tree provides coset representative
words, and the classical Schreier construction turns it into a generating set
for the stabilizer.

``classify_all`` is the brute-force classification oracle: it partitions all
sequences of a given size into classes under the action together with
simultaneous sheet renumbering.

Both run on packed sequences (see :mod:`diskcovers.core`).  ``classify_all``
enumerates them in lexicographic pair order, which is the order of the
sequences they encode, so a class's first member is its least.  Public objects
are built on the way out only, with core's trusted constructor;
:class:`OrbitTable` builds its elements on first access, so
``stabilizer_index`` builds none.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .core import CycleType, MonodromySequence, _pack, _tables, _trusted, _union_find, _unpack, omega_class
from .hurwitz import BraidWord, CapExceeded, _act_packed, _free_reduce, _orbit_search, _tree_path


def enumeration_bound(degree: int, length: int) -> int:
    """Total number of length-``n`` transposition sequences on ``d`` sheets:
    the a priori bound on every orbit size and stabilizer index."""
    return (degree * (degree - 1) // 2) ** length


class OrbitTable:
    """A breadth-first orbit with its spanning tree.

    ``elements`` lists the orbit in discovery order starting at ``root``,
    built from the packed search on first access; ``word_to`` reads the
    spanning-tree word of an element off the search's parents.
    """

    def __init__(self, root: MonodromySequence, cap: int, packed, position, parents) -> None:
        """``packed, position, parents`` are ``hurwitz._orbit_search`` of the root."""
        self.root, self.cap = root, cap
        self._packed, self._position, self._parents = packed, position, parents

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, seq: MonodromySequence) -> bool:
        return seq.degree == self.root.degree and _pack(seq) in self._position

    @cached_property
    def elements(self) -> tuple[MonodromySequence, ...]:
        degree = self.root.degree
        return (self.root,) + tuple(_unpack(degree, p) for p in self._packed[1:])

    def word_to(self, element: MonodromySequence) -> BraidWord:
        """The spanning-tree word transporting the root to ``element``."""
        if element not in self:
            raise KeyError(element)
        letters = tuple(_tree_path(self._parents, self._position[_pack(element)]))
        return BraidWord(self.root.length, letters[::-1])


def hurwitz_orbit(seq: MonodromySequence, cap: int | None = None) -> OrbitTable:
    """Breadth-first closure of a sequence under the braid action.

    Generators are tried in ascending index order, the inverse right after
    the forward letter, so the spanning tree is deterministic.  Raises
    :class:`CapExceeded` if more than ``cap`` elements appear (default: the
    a priori bound).
    """
    if cap is None:
        cap = enumeration_bound(seq.degree, seq.length)
    if cap < 1:
        raise ValueError("cap must be at least 1")
    return OrbitTable(seq, cap, *_orbit_search(seq.degree, _pack(seq), cap))


def stabilizer_index(seq: MonodromySequence, cap: int | None = None) -> int:
    """Index of the liftable-braid subgroup in the braid group: the orbit size."""
    return len(hurwitz_orbit(seq, cap))


def _dedup_key(letters: tuple[int, ...]) -> tuple:
    """Identify a word with its inverse, preferring the fewer-negatives form."""
    inverse = tuple(-e for e in reversed(letters))
    return min((sum(e < 0 for e in letters), letters), (sum(e < 0 for e in inverse), inverse))


def schreier_generators(seq: MonodromySequence, cap: int | None = None) -> list[BraidWord]:
    """Generators of the liftable-braid group from the orbit spanning tree.

    For each orbit element ``u`` with tree word ``t_u`` and each generator
    ``g``, the word ``t_u g t_{(u)g}^-1`` fixes the root, and together these
    words generate its stabilizer.  Words are freely reduced, trivial ones
    dropped, and the set deduplicated up to inversion.
    """
    table = hurwitz_orbit(seq, cap)
    n = seq.length
    conj = _tables(seq.degree).conj
    position = table._position
    tree_words: list[tuple[int, ...]] = [()]
    for parent, letter in table._parents[1:]:
        tree_words.append(tree_words[parent] + (letter,))
    inverses = [tuple(-e for e in reversed(word)) for word in tree_words]
    words: dict[tuple, tuple[int, ...]] = {}
    for k, element in enumerate(table._packed):
        for e in BraidWord.generator_letters(n):
            image = position[_act_packed(conj, element, (e,))]
            candidate = _free_reduce(tree_words[k] + (e,) + inverses[image])
            if candidate:
                words.setdefault(_dedup_key(candidate), candidate)
    return [_trusted(BraidWord, strands=n, letters=letters) for letters in words.values()]


@dataclass(frozen=True)
class OrbitClass:
    """One class of sequences under the action plus sheet renumbering."""

    representative: MonodromySequence
    count: int
    omega: CycleType
    connected: bool


def _packed_sequences(degree: int, length: int) -> list[tuple[int, ...]]:
    """Every packed sequence of the given size, in lexicographic order."""
    return list(itertools.product(range(degree * (degree - 1) // 2), repeat=length))


def all_sequences(degree: int, length: int) -> list[MonodromySequence]:
    """Every length-``n`` transposition sequence on ``d`` sheets, in
    lexicographic order."""
    return [_unpack(degree, p) for p in _packed_sequences(degree, length)]


def classify_all(degree: int, length: int, cap: int | None = None) -> list[OrbitClass]:
    """Partition all sequences of the given size into classes under the braid
    action combined with simultaneous sheet renumbering.

    Renumbering is generated by the adjacent sheet swaps, so the classes are
    exactly the equivalence classes of coverings.  Classes are reported with
    their least member as representative, sorted by representative.
    """
    if cap is None:
        cap = 10**6
    total = enumeration_bound(degree, length)
    if total > cap:
        raise CapExceeded(f"{total} sequences exceed cap {cap}", cap)
    sequences = _packed_sequences(degree, length)
    if not sequences:  # no pairs to choose from: fewer than two sheets
        return []
    ids = {p: i for i, p in enumerate(sequences)}
    tables = _tables(degree)
    conj = tables.conj
    # Renumbering by the swap (k k+1) is conjugation by that transposition.
    swaps = [tables.index(k, k + 1) for k in range(1, degree)]

    def edges():
        for i, p in enumerate(sequences):
            for g in range(1, length):
                yield i, ids[_act_packed(conj, p, (g,))]
            for swap in swaps:
                yield i, ids[tuple([conj[t][swap] for t in p])]

    # Each class is named by its least position, which holds its least member.
    counts = Counter(_union_find(len(sequences), edges()))
    classes = []
    for root in sorted(counts):
        representative = _unpack(degree, sequences[root])
        classes.append(
            OrbitClass(
                representative=representative,
                count=counts[root],
                omega=omega_class(representative),
                connected=representative.is_connected(),
            )
        )
    return classes
