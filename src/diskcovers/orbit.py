"""Orbit enumeration for the braid action on monodromy sequences.

The orbit of a sequence is finite: there are at most ``(d(d-1)/2)^n``
sequences altogether, and the stabilizer of a sequence is exactly its group
of liftable braids, so the orbit size equals that subgroup's index in the
braid group.  :class:`OrbitTable` runs the package's one breadth-first orbit
search.  Its spanning tree, one ``(parent position, letter)`` pair per
element, gives coset representative words (``OrbitTable._tree_words``) with
two readers, both its methods: :meth:`OrbitTable.schreier_words` reads a
free basis of the stabilizer off the edges outside the tree, with no
reduction and no deduplication, and :meth:`OrbitTable.interval_powers`
conjugates the liftable half-twist powers, read off the action, by the tree
words, each word once.

``classify_all`` is the brute-force classification oracle: it partitions all
sequences of a given size into classes under the action together with
simultaneous sheet renumbering.  It labels the braid orbits in one sweep,
then joins them by renumbering one member of each.  Both stop with
:class:`CapExceeded` past their cap, ``DEFAULT_CAP`` unless the caller gives
one; ``all_sequences`` refuses more than ``DEFAULT_CAP`` sequences the same
way.

Both run on ranks, packed tuples (see :mod:`diskcovers.core`) read in base
C(d, 2), which number the sequences in lexicographic order.  The braid
step on ranks is written once, as ``core._Tables.steps`` (a whole tuple for
d <= 8, filled on first lookup above), and each reader steps straight off
it: one lookup per element and generator ``x_i`` gives the images under
``x_i`` and its inverse.  A step of ``(0, 0)`` means ``x_i`` fixes the rank,
so the search looks nothing up and the Schreier reader's loop word needs no
position; equal steps mean ``x_i`` has order 2 there, so both images are one
rank and one lookup.  ``classify_all``, which steps by ``x_i`` alone,
first reads each letter's forward step at every window, times its weight,
into one list per letter, so a step in its sweep is one index and one add.
:class:`OrbitTable` decodes its elements on first access only, so
``stabilizer_index`` builds none.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property

from .core import (
    CapExceeded, CycleType, MonodromySequence, _Record, _tables, _union_find, _unpack, omega_class
)
from .hurwitz import BraidWord

#: The default cap: orbit elements searched, sequences classified or listed,
#: or cosets defined by :func:`diskcovers.cosets.todd_coxeter`.
DEFAULT_CAP = 10**6


def enumeration_bound(degree: int, length: int) -> int:
    """Total number of length-``n`` transposition sequences on ``d`` sheets:
    the a priori bound on every orbit size and stabilizer index."""
    return (degree * (degree - 1) // 2) ** length


def _resolve_cap(cap: int | None) -> int:
    """The caller's cap, or ``DEFAULT_CAP`` as it reads at call time."""
    cap = DEFAULT_CAP if cap is None else cap
    if cap < 1:
        raise ValueError("cap must be at least 1")
    return cap


def _rank_code(degree: int, length: int):
    """Base, digit weights, braid step, letter columns and window of the
    ranks of one size.  ``columns`` pairs each letter i with the weight w of
    position i, and ``steps[rank // w % window]``, from
    ``core._Tables.steps``, is what ``x_i`` and its inverse add to ``rank``,
    in units of w."""
    base = degree * (degree - 1) // 2
    weights = [base ** (length - 1 - j) for j in range(length)]
    return base, weights, _tables(degree).steps, list(zip(range(1, length), weights[1:])), base * base


class OrbitTable:
    """A breadth-first orbit with its spanning tree, searched on ranks.

    ``_parents[k]`` is (parent position, letter to k).  ``_steps``,
    ``_columns`` and ``_window``, from the table's one ``_rank_code`` call,
    serve the search and both tree-word readers.  ``elements``, decoded on
    first access, lists the orbit in discovery order from ``root``.
    """

    def __init__(self, root: MonodromySequence, cap: int) -> None:
        self.root = root
        self._base, self._weights, steps, columns, window = _rank_code(root.degree, root.length)
        self._steps, self._columns, self._window = steps, columns, window
        self._ranks = ranks = [self._rank(root)]
        self._position = position = {ranks[0]: 0}
        self._parents = parents = [(0, 0)]  # the root has no parent; keeps positions aligned
        for cursor, rank in enumerate(ranks):  # grows as it is read
            for i, w in columns:  # x_i, then its inverse
                forward, inverse = steps[rank // w % window]
                if not forward:  # x_i fixes the rank
                    continue
                image = rank + forward * w
                if image not in position:
                    if len(ranks) >= cap:
                        raise CapExceeded(f"orbit exceeds cap {cap}", cap)
                    position[image] = len(ranks)
                    ranks.append(image)
                    parents.append((cursor, i))
                if inverse == forward:  # x_i has order 2 here: the same image
                    continue
                image = rank + inverse * w
                if image not in position:
                    if len(ranks) >= cap:
                        raise CapExceeded(f"orbit exceeds cap {cap}", cap)
                    position[image] = len(ranks)
                    ranks.append(image)
                    parents.append((cursor, -i))

    def __len__(self) -> int:
        return len(self._ranks)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, seq: MonodromySequence) -> bool:
        # A rank does not encode its length: (0, 0) and (0, 0, 0) share rank 0.
        return (seq.degree, seq.length) == (self.root.degree, self.root.length) and self._rank(seq) in self._position

    def _rank(self, seq: MonodromySequence) -> int:
        return sum(t * w for t, w in zip(seq._packed, self._weights))

    @cached_property
    def elements(self) -> tuple[MonodromySequence, ...]:
        degree, base, weights = self.root.degree, self._base, self._weights
        return (self.root,) + tuple(_unpack(degree, tuple(r // w % base for w in weights)) for r in self._ranks[1:])

    @cached_property
    def layer_sizes(self) -> tuple[int, ...]:
        """The number of elements at each distance from the root, nearest first."""
        depth = [0]
        for parent, _ in self._parents[1:]:
            depth.append(depth[parent] + 1)
        return tuple(Counter(depth).values())  # breadth-first: the depths never fall

    def word_to(self, element: MonodromySequence) -> BraidWord:
        """The spanning-tree word transporting the root to ``element``."""
        if element not in self:
            raise KeyError(element)
        k, letters = self._position[self._rank(element)], []
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

    def schreier_words(self) -> list[BraidWord]:
        """Generators of the liftable-braid group from the spanning tree.

        An edge ``k -> v`` of letter ``e`` gives the word ``t_k e t_v^-1``,
        with ``t_k`` the tree word of element ``k``; its reverse gives the
        inverse, so only the edge met first in (element, letter) order is
        kept: ``k < v``, or ``e > 0`` on a loop.  A parent precedes its child,
        so the tree edges left run from a parent to its child; their words are
        trivial and are dropped.  Tree words are reduced and a letter cancels
        at a junction only on a tree edge, so no word needs reducing.  By
        Nielsen-Schreier the words are a free basis of the stabilizer in the
        free group on ``n - 1`` generators, of ``index * (n - 2) + 1`` words.
        """
        n, steps, window = self.root.length, self._steps, self._window
        position, parents = self._position, self._parents
        tree_words, inverses = self._tree_words()
        words = []
        for k, rank in enumerate(self._ranks):
            word = tree_words[k]
            for i, w in self._columns:
                forward, inverse = steps[rank // w % window]
                if not forward:  # a loop, never a tree edge: kept for x_i, not for its inverse
                    words.append(BraidWord._unchecked(n, word + (i,) + inverses[k]))
                    continue
                v = position[rank + forward * w]
                if v > k and parents[v] != (k, i):
                    words.append(BraidWord._unchecked(n, word + (i,) + inverses[v]))
                if inverse != forward:  # order 2: the inverse lands on v too
                    v = position[rank + inverse * w]
                if v > k and parents[v] != (k, -i):
                    words.append(BraidWord._unchecked(n, word + (-i,) + inverses[v]))
        return words

    def interval_powers(self, max_word_length: int | None = None) -> list[BraidWord]:
        """The words of :func:`~diskcovers.lift.liftable_interval_powers`, as
        a list."""
        return list(self._interval_powers(max_word_length, self._tree_words()))

    def _interval_powers(self, max_word_length: int | None, tree_words: tuple[list, list]):
        """Yield each word of :meth:`interval_powers` once, in order, off the
        caller's :meth:`_tree_words`, which a caller reading the words more
        than once builds once.

        The power of ``x_i`` at k is its cycle length: 1 if ``x_i`` fixes k, 2
        if ``x_i`` and its inverse agree on k, else 3.  Pairs (k, i) give one
        word exactly when tree edges of letter ``x_i^+-1`` join them, so the
        word is yielded at the top of that group only, where ``t_k`` does not
        end in ``x_i^+-1`` and ``t_k x_i^m t_k^-1`` is reduced.  Breadth-first,
        the top comes first in its group."""
        n, steps, window = self.root.length, self._steps, self._window
        # t_k ends in the letter of k's tree edge; the root's (0, 0) matches no i.
        for rank, (_, last), word, inverse in zip(self._ranks, self._parents, *tree_words):
            if max_word_length is not None and len(word) > max_word_length:
                return  # breadth-first: no later word is shorter
            for i, w in self._columns:
                if abs(last) == i:  # below the top of its x_i-group
                    continue
                forward, backward = steps[rank // w % window]
                m = 1 if not forward else 2 if forward == backward else 3
                yield BraidWord._unchecked(n, word + (i,) * m + inverse)


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
    """:meth:`OrbitTable.schreier_words` of :func:`hurwitz_orbit`, ``cap`` as there."""
    return hurwitz_orbit(seq, cap).schreier_words()


class OrbitClass(_Record):
    """One class of sequences under the action plus sheet renumbering."""

    representative: MonodromySequence
    count: int
    omega: CycleType
    connected: bool


def _sequence_count(degree: int, length: int, cap: int | None = None) -> int:
    """The number of sequences of the given size, refused past the cap
    (``DEFAULT_CAP`` as it reads at call time) before any is built."""
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
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
    return [_unpack(degree, p) for p in itertools.product(range(degree * (degree - 1) // 2), repeat=length)]


def classify_all(degree: int, length: int, cap: int | None = None) -> list[OrbitClass]:
    """Partition all sequences of the given size into classes under the braid
    action combined with simultaneous sheet renumbering.

    Renumbering is generated by the adjacent sheet swaps, so the classes are
    exactly the equivalence classes of coverings.  Classes are reported with
    their least member as representative, sorted by representative.

    No list of the sequences is kept; each is named by its rank.  A sweep in
    rank order labels the braid orbits: a rank not yet labelled starts an
    orbit as its least member, and a search by the forward letters fills it
    (each permutes a finite set, so its inverse is one of its powers), read
    off one list per letter of its forward steps times its weight.
    Renumbering commutes with the action, so a swap maps an orbit onto an
    orbit: the union-find joins the orbits by renumbering each least member.
    """
    total = _sequence_count(degree, length, cap)
    if not total:  # no pairs to choose from: fewer than two sheets
        return []
    tables = _tables(degree)
    base, weights, steps, columns, window = _rank_code(degree, length)
    # Each column's forward step at every window, times the column's weight.
    # Each window is the pair of adjacent digits of some rank, so the sweep
    # would read every step anyway, and a lazily filled table fills no more.
    moves = [(w, [steps[x][0] * w for x in range(window)]) for _, w in columns]
    label: list[int | None] = [None] * total  # each rank's orbit, numbered in order of least member
    starts, sizes = [], []
    for start, seen in enumerate(label):
        if seen is not None:
            continue
        label[start] = orbit = len(starts)
        starts.append(start)
        queue = [start]
        for rank in queue:  # grows as it is read
            for w, move in moves:
                image = rank + move[rank // w % window]
                if label[image] is None:
                    label[image] = orbit
                    queue.append(image)
        sizes.append(len(queue))
    # Renumbering by the swap (k k+1) conjugates each digit by that transposition.
    swaps = [[tables.conj[t][tables.index(k, k + 1)] for t in range(base)] for k in range(1, degree)]
    joins = (
        (orbit, label[sum(swap[start // w % base] * w for w in weights)])
        for orbit, start in enumerate(starts)
        for swap in swaps
    )
    # Orbits are numbered by least member, so each class is named by its least.
    counts = Counter()
    for root, size in zip(_union_find(len(starts), joins)[0], sizes):
        counts[root] += size
    classes = []
    for root in sorted(counts):
        representative = _unpack(degree, tuple(starts[root] // w % base for w in weights))
        classes.append(
            OrbitClass(
                representative=representative,
                count=counts[root],
                omega=omega_class(representative),
                connected=representative.is_connected(),
            )
        )
    return classes
