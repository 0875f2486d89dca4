"""Orbit enumeration for the braid action on monodromy sequences.

The orbit of a sequence is finite: there are at most ``(d(d-1)/2)^n``
sequences altogether, and the stabilizer of a sequence is exactly its group
of liftable braids, so the orbit size equals that subgroup's index in the
braid group.  :class:`OrbitTable` runs the package's one breadth-first orbit
search.  Its spanning tree, one ``(parent position, letter)`` pair per
element, provides coset representative words, built once by
``OrbitTable._tree_words``, which has two readers.  Schreier's construction
reads a free basis of the stabilizer off the edges outside the tree, with no
reduction and no deduplication, and
:func:`~diskcovers.lift.liftable_interval_powers` conjugates the liftable
half-twist powers by the tree words.

``classify_all`` is the brute-force classification oracle: it partitions all
sequences of a given size into classes under the action together with
simultaneous sheet renumbering.  Both stop with :class:`CapExceeded` past
their cap, ``DEFAULT_CAP`` unless the caller gives one; ``all_sequences``
refuses more than ``DEFAULT_CAP`` sequences the same way.

Both run on packed sequences (see :mod:`diskcovers.core`).  ``classify_all``
enumerates them in lexicographic pair order, which is the order of the
sequences they encode, so a class's first member is its least.  It stores no
sequence: it names each by its rank in that order, the packed tuple read in
base C(d, 2), and runs the package's one union-find on the ranks.  Public
objects are built on the way out only, with core's trusted constructor;
:class:`OrbitTable` builds its elements on first access, so
``stabilizer_index`` builds none.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .core import CycleType, MonodromySequence, _tables, _trusted, _union_find, _unpack, omega_class
from .hurwitz import BraidWord, _act_packed

#: The default cap: orbit elements searched, sequences classified or listed,
#: or cosets defined by :func:`diskcovers.cosets.todd_coxeter`.
DEFAULT_CAP = 10**6


def enumeration_bound(degree: int, length: int) -> int:
    """Total number of length-``n`` transposition sequences on ``d`` sheets:
    the a priori bound on every orbit size and stabilizer index."""
    return (degree * (degree - 1) // 2) ** length


class CapExceeded(RuntimeError):
    """An enumeration grew past the caller's cap."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


def _resolve_cap(cap: int | None) -> int:
    """The caller's cap, or ``DEFAULT_CAP`` as it reads at call time."""
    cap = DEFAULT_CAP if cap is None else cap
    if cap < 1:
        raise ValueError("cap must be at least 1")
    return cap


class OrbitTable:
    """A breadth-first orbit with its spanning tree.

    ``elements`` lists the orbit in discovery order starting at ``root``,
    built from the packed search on first access; ``word_to`` reads the
    spanning-tree word of an element off the search's parents.
    """

    def __init__(self, root: MonodromySequence, cap: int) -> None:
        """Search the orbit; ``_parents[k]`` is (parent position, letter to k)."""
        conj = _tables(root.degree).conj
        letters = [(e,) for e in BraidWord.generator_letters(root.length)]
        self.root = root
        self._packed = elements = [root._packed]
        self._position = position = {root._packed: 0}
        self._parents = parents = [(0, 0)]  # the root has no parent; keeps positions aligned
        for cursor, current in enumerate(elements):  # grows as it is read
            for letter in letters:
                image = _act_packed(conj, current, letter)
                if image in position:
                    continue
                if len(elements) >= cap:
                    raise CapExceeded(f"orbit exceeds cap {cap}", cap)
                position[image] = len(elements)
                elements.append(image)
                parents.append((cursor, letter[0]))

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, seq: MonodromySequence) -> bool:
        return seq.degree == self.root.degree and seq._packed in self._position

    @cached_property
    def elements(self) -> tuple[MonodromySequence, ...]:
        degree = self.root.degree
        return (self.root,) + tuple(_unpack(degree, p) for p in self._packed[1:])

    def word_to(self, element: MonodromySequence) -> BraidWord:
        """The spanning-tree word transporting the root to ``element``."""
        if element not in self:
            raise KeyError(element)
        k, letters = self._position[element._packed], []
        while k:  # walk the parents back to the root, last letter first
            k, letter = self._parents[k]
            letters.append(letter)
        return BraidWord(self.root.length, tuple(reversed(letters)))

    def _tree_words(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """The letters of every element's tree word, in discovery order, and
        of its inverse.  Discovery order is breadth-first, so the words never
        get shorter along the list."""
        words, inverses = [()], [()]
        for parent, letter in self._parents[1:]:
            words.append(words[parent] + (letter,))
            inverses.append((-letter,) + inverses[parent])
        return words, inverses


def hurwitz_orbit(seq: MonodromySequence, cap: int | None = None) -> OrbitTable:
    """Breadth-first closure of a sequence under the braid action.

    Generators are tried in ascending index order, the inverse right after
    the forward letter, so the spanning tree is deterministic.  Raises
    :class:`CapExceeded` if more than ``cap`` elements appear (default:
    ``DEFAULT_CAP``), and ``ValueError`` for a cap below 1.
    """
    return OrbitTable(seq, _resolve_cap(cap))


def stabilizer_index(seq: MonodromySequence, cap: int | None = None) -> int:
    """Index of the liftable-braid subgroup in the braid group: the orbit size."""
    return len(hurwitz_orbit(seq, cap))


def schreier_generators(seq: MonodromySequence, cap: int | None = None) -> list[BraidWord]:
    """Generators of the liftable-braid group from the orbit spanning tree.

    An edge ``k -> v`` of letter ``e`` gives the word ``t_k e t_v^-1``, with
    ``t_k`` the tree word of element ``k``; its reverse gives the inverse, so
    only the edge met first in (element, letter) order is kept: ``k < v``, or
    ``e > 0`` on a loop.  A parent precedes its child, so the tree edges left
    run from a parent to its child; their words are trivial and are dropped.
    Tree words are reduced and a letter cancels at a junction only on a tree
    edge, so no word needs reducing.  By Nielsen-Schreier the words are a free
    basis of the stabilizer in the free group on ``n - 1`` generators, of
    ``index * (n - 2) + 1`` words.  ``cap`` is as in :func:`hurwitz_orbit`.
    """
    table = hurwitz_orbit(seq, cap)
    conj = _tables(seq.degree).conj
    position, parents = table._position, table._parents
    tree_words, inverses = table._tree_words()
    letters = BraidWord.generator_letters(seq.length)
    words = []
    for k, element in enumerate(table._packed):
        for e in letters:
            v = position[_act_packed(conj, element, (e,))]
            if v < k or (v == k and e < 0) or parents[v] == (k, e):
                continue
            words.append(_trusted(BraidWord, strands=seq.length, letters=tree_words[k] + (e,) + inverses[v]))
    return words


@dataclass(frozen=True)
class OrbitClass:
    """One class of sequences under the action plus sheet renumbering."""

    representative: MonodromySequence
    count: int
    omega: CycleType
    connected: bool


def _packed_sequences(degree: int, length: int) -> Iterator[tuple[int, ...]]:
    """Every packed sequence of the given size, in lexicographic order."""
    return itertools.product(range(degree * (degree - 1) // 2), repeat=length)


def _sequence_count(degree: int, length: int, cap: int | None = None) -> int:
    """The number of sequences of the given size, refused past the cap
    (``DEFAULT_CAP`` as it reads at call time) before any is built."""
    if length < 0:
        raise ValueError(f"branch point count n must be nonnegative, got {length}")
    cap = _resolve_cap(cap)
    total = enumeration_bound(degree, length)
    if total > cap:
        raise CapExceeded(f"{total} sequences exceed cap {cap}", cap)
    return total


def all_sequences(degree: int, length: int) -> list[MonodromySequence]:
    """Every length-``n`` transposition sequence on ``d`` sheets, in
    lexicographic order.  Raises :class:`CapExceeded` when they number more
    than ``DEFAULT_CAP``."""
    _sequence_count(degree, length)
    return [_unpack(degree, p) for p in _packed_sequences(degree, length)]


def classify_all(degree: int, length: int, cap: int | None = None) -> list[OrbitClass]:
    """Partition all sequences of the given size into classes under the braid
    action combined with simultaneous sheet renumbering.

    Renumbering is generated by the adjacent sheet swaps, so the classes are
    exactly the equivalence classes of coverings.  Classes are reported with
    their least member as representative, sorted by representative.

    No list of the sequences is kept.  A packed sequence's position in
    lexicographic order, its rank, is the packed tuple read as a number in
    base C(d, 2), and the union-find runs on ranks: the sequences are read
    once, in order, and each edge names the rank of its far end.
    """
    total = _sequence_count(degree, length, cap)
    if not total:  # no pairs to choose from: fewer than two sheets
        return []
    tables = _tables(degree)
    conj = tables.conj
    base = degree * (degree - 1) // 2
    weight = [base ** (length - 1 - j) for j in range(length)]  # of the digit at 0-based position j
    # Renumbering by the swap (k k+1) is conjugation by that transposition.
    swaps = [tables.index(k, k + 1) for k in range(1, degree)]

    def edges():
        for i, p in enumerate(_packed_sequences(degree, length)):
            for g in range(1, length):
                # x_g by the rule of _act_packed, inline on the rank: the digits
                # t, u at 0-based positions g - 1, g become u, conj[t][u].
                t, u = p[g - 1], p[g]
                yield i, i + (u - t) * weight[g - 1] + (conj[t][u] - u) * weight[g]
            for swap in swaps:  # the rank of p renumbered by the swap
                r = 0
                for t in p:
                    r = r * base + conj[t][swap]
                yield i, r

    # Each class is named by its least rank, which is its least member.
    counts = Counter(_union_find(total, edges()))
    classes = []
    for root in sorted(counts):
        representative = _unpack(degree, tuple(root // w % base for w in weight))
        classes.append(
            OrbitClass(
                representative=representative,
                count=counts[root],
                omega=omega_class(representative),
                connected=representative.is_connected(),
            )
        )
    return classes
