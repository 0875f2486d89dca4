"""Braid words, their action on monodromy sequences, and canonical forms.

The braid group on ``n`` strands acts on length-``n`` monodromy sequences on
the right: the generator ``x_i`` replaces the pair at positions ``i, i + 1``
by ``(t_{i+1}, t_{i+1} t_i t_{i+1})`` and its inverse by
``(t_i t_{i+1} t_i, t_i)``.  Words act letter by letter, left to right, so
``act(seq, u * v) == act(act(seq, u), v)``.

The classical elementary move ``O_i`` on edge-ordered graphs coincides with
the action of the inverse generator; :func:`canonicalize` produces a
replayable certificate (sheet renumbering plus a move word) taking any
connected sequence to its canonical form.

The action runs on packed sequences: tuples of positions in the
lexicographic pair list of :mod:`diskcovers.core`.  One kernel, ``_act``,
turns the packed pair ``t, u`` into ``u, conj[t][u]`` for ``x_i`` and into
``conj[u][t], t`` for its inverse, in place on a list its caller supplies;
:mod:`diskcovers.orbit` applies the same rule to ranks, packed tuples read
as integers.  The public functions check their input once, read the packed
tuple the sequence carries and build one result on the way out with the
unchecked constructor.

Canonicalization searches no orbit.  The sheet renumbering is read off the
canonical target's layout (``core._target_relabel``).  After it the sequence
has the entry product of its target ``(1 2)^q_2 (2 3)^q_3 ... (d-1 d)^q_d``,
and ``_peel`` reduces it, on one list, by the constructive proof of the
classification (Clebsch; Hurwitz; Berstein-Edmonds).  For each top sheet k
of the unfinished prefix, from d down to 2, it

- gathers the entries holding k at the end of the prefix by ``x_i``, each
  conjugated by the entries it passes, which hold no k;
- reduces them: ``x_i^-1`` turns ``(k a) (k b)`` into ``(a b) (k a)``, and
  ``(a b)`` walks left out of the block until the block is ``(k a)^q``;
- fixes a: the product forces ``a = k - 1`` when q is odd; when q is even,
  each pair ``(k a)^2`` crosses prefix entries, conjugated by them, along a
  path from a to k - 1.

Each block j then holds at least ``q_j`` entries, of the same parity, and the
surplus pairs climb one block at a time.  The letters, freely reduced at the
end, are the certificate; time and memory are polynomial in the degree and
the length.  ``CanonicalizationResult`` stores them as they are, and its
``moves`` are read off them, so the peel, the certificate and its replay
share one move vocabulary, the braid letters: ``replay_certificate`` checks
their range once and acts them on the renumbered input in one pass.
"""

from __future__ import annotations

from functools import partial

from .core import (
    DisconnectedCoveringError,
    MonodromySequence,
    Permutation,
    _Record,
    _product,
    _renumbered,
    _tables,
    _target,
    _target_relabel,
    _unpack,
)

FORWARD = "forward"
INVERSE = "inverse"

#: A sequence of elementary moves: pairs (position, FORWARD | INVERSE).
MoveWord = tuple[tuple[int, str], ...]


class BraidWord(_Record):
    """A word in the standard braid generators on a fixed number of strands.

    Letters are nonzero integers: ``+i`` is the generator ``x_i``, ``-i`` its
    inverse.  Only free reduction is ever performed; braid-relation rewriting
    is out of scope.
    """

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.strands < 0:
            raise ValueError("strand count must be nonnegative")
        for e in self.letters:
            if e == 0 or abs(e) > self.strands - 1:
                raise ValueError(f"letter {e} is not a generator index on {self.strands} strands")

    @classmethod
    def identity(cls, strands: int) -> "BraidWord":
        return cls(strands, ())

    @staticmethod
    def generator_letters(strands: int) -> tuple[int, ...]:
        """Every generator and its inverse, in the order searches try them:
        ``1, -1, 2, -2, ..., strands - 1, 1 - strands``."""
        return tuple(s * i for i in range(1, strands) for s in (1, -1))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord._unchecked(self.strands, self.letters + other.letters)

    def __pow__(self, exponent: int) -> "BraidWord":
        if exponent >= 0:
            return BraidWord._unchecked(self.strands, self.letters * exponent)
        return self.inverse() ** (-exponent)

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord._unchecked(self.strands, tuple([-e for e in reversed(self.letters)]))

    def reduced(self) -> "BraidWord":
        """Freely reduce, cancelling adjacent letters ``e, -e``."""
        return BraidWord._unchecked(self.strands, _free_reduce(self.letters))


def _free_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The letters freely reduced, in one pass."""
    stack: list[int] = []
    for e in letters:
        if stack and stack[-1] == -e:
            stack.pop()
        else:
            stack.append(e)
    return tuple(stack)


def _act(conj, entries: list[int], letters) -> None:
    """The braid action, letters left to right, in place on the packed
    entries of a list that the caller supplies."""
    for e in letters:
        if e > 0:
            t, u = entries[e - 1], entries[e]
            entries[e - 1], entries[e] = u, conj[t][u]
        else:
            t, u = entries[-e - 1], entries[-e]
            entries[-e - 1], entries[-e] = conj[u][t], t


def _require_strands(seq: MonodromySequence, word: BraidWord) -> None:
    if word.strands != seq.length:
        raise ValueError(f"braid on {word.strands} strands cannot act on {seq.length} entries")


def act(seq: MonodromySequence, word: BraidWord) -> MonodromySequence:
    """Apply a braid word to a monodromy sequence, letters left to right.

    The product of the entries is preserved; only the sequence changes.
    """
    _require_strands(seq, word)
    entries = list(seq._packed)
    _act(_tables(seq.degree).conj, entries, word.letters)
    return _unpack(seq.degree, tuple(entries))


def elementary_move(seq: MonodromySequence, position: int, direction: str = FORWARD) -> MonodromySequence:
    """The elementary move ``O_i`` on the edge-ordered graph, or its inverse.

    Forward: adjacent equal or disjoint entries swap; entries sharing exactly
    one sheet, say (a b), (b c), become (a c), (a b).  The forward move is
    ``act`` by the inverse generator ``-i``, the inverse move ``act`` by ``+i``,
    and both are computed that way.
    """
    return apply_moves(seq, ((position, direction),))


def apply_moves(seq: MonodromySequence, moves: MoveWord) -> MonodromySequence:
    """Apply elementary moves in order, each checked once, all before the first."""
    return act(seq, BraidWord._unchecked(seq.length, _move_letters(moves, seq.length)))


def _move_letters(moves: MoveWord, length: int) -> tuple[int, ...]:
    """The braid letters of elementary moves on ``length`` entries, each move
    checked in turn; the forward move is the inverse generator."""
    letters = []
    for position, direction in moves:
        if direction not in (FORWARD, INVERSE):
            raise ValueError(f"unknown move direction {direction!r}")
        if not 1 <= position <= length - 1:
            raise ValueError(f"move position {position} out of range for {length} entries")
        letters.append(-position if direction == FORWARD else position)
    return tuple(letters)


class CanonicalizationResult(_Record):
    """A replayable certificate reducing a sequence to canonical form.

    Renumbering the input's sheets by ``relabel`` and then applying ``moves``
    yields ``canonical``, which equals the canonical target for the input's
    degree, length and cycle type.  The certificate is stored as the braid
    letters ``_letters`` of its moves, and ``moves`` is read off them, as
    ``MonodromySequence.entries`` is off ``_packed``: the forward move at
    position i is the letter ``-i``, the inverse move ``+i``.  The public
    constructor checks each move as :func:`apply_moves` checks it on a
    sequence of ``canonical``'s length; ``_unchecked`` takes the letters.

    >>> canonicalize(MonodromySequence.from_pairs(4, [(2, 3), (1, 3), (3, 4)])).moves
    ((1, 'forward'),)
    """

    relabel: Permutation
    _letters: tuple[int, ...]
    canonical: MonodromySequence
    __match_args__ = ("relabel", "moves", "canonical")

    def __post_init__(self, moves: MoveWord) -> None:
        _set_letters(self, _move_letters(moves, self.canonical.length))

    @property
    def moves(self) -> MoveWord:
        return tuple([(-e, FORWARD) if e < 0 else (e, INVERSE) for e in self._letters])


# The slot setter that ``__post_init__`` stores the letters through.
_set_letters = CanonicalizationResult.__dict__["_letters"].__set__


def replay_certificate(seq: MonodromySequence, result: CanonicalizationResult) -> MonodromySequence:
    """Re-run a certificate against its input; the caller compares the outcome
    with ``result.canonical``.  The letters act on one list, the renumbered
    input, once their range is checked."""
    relabel, letters, degree = result.relabel, result._letters, seq.degree
    if relabel.degree != degree:
        raise ValueError("relabelling permutation degree mismatch")
    if letters and max(map(abs, letters)) >= seq.length:
        _move_letters(result.moves, seq.length)  # raises, naming the first move out of range
    entries = list(_renumbered(degree, seq._packed, relabel.images))
    _act(_tables(degree).conj, entries, letters)
    return _unpack(degree, tuple(entries))


def _conjugator_path(conj, prefix: tuple[int, ...], source: int, target: int) -> list[int]:
    """Positions of ``prefix`` entries that, conjugating in turn, carry the
    packed transposition ``source`` to ``target``: a breadth-first search over
    transposition values, each prefix value entering at its last position."""
    last = {t: p for p, t in enumerate(prefix)}
    found = [source]
    via = {source: (source, -1)}
    cursor = 0
    while target not in via:
        v = found[cursor]
        for t, p in last.items():
            w = conj[v][t]
            if w not in via:
                via[w] = (v, p)
                found.append(w)
        cursor += 1
    steps = []
    while target != source:
        target, p = via[target]
        steps.append(p)
    return steps[::-1]


def _cross(conj, entries: list[int], letters: list[int], right: bool, i: int, conjugate: bool) -> None:
    """Cross the pair of equal entries t, t at 0-based positions i, i + 1
    past its neighbour u, on its right or its left, and append the crossing's
    two letters.  ``x_i x_(i+1)`` takes (u, t, t) to (t, t, u) and
    ``x_(i+2)^-1 x_(i+1)^-1`` takes (t, t, u) to (u, t, t); with
    ``conjugate`` the inverse letters give the pair t^u = ``conj[t][u]`` in
    place of t, and u is unchanged either way.  The entries are written in
    closed form, as ``_act`` would leave them; ``_peel`` says why that is
    safe."""
    u = entries[i + 2] if right else entries[i - 1]
    t = conj[entries[i]][u] if conjugate else entries[i]
    if right:
        entries[i] = u
        entries[i + 1] = entries[i + 2] = t
    else:
        entries[i - 1] = entries[i] = t
        entries[i + 1] = u
    # Plain letters are positive on the left and negative on the right.
    s = 1 if conjugate == right else -1
    letters += s * (i + 2 if right else i), s * (i + 1)


def _peel(degree: int, packed: tuple[int, ...], target: tuple[int, ...]) -> tuple[int, ...]:
    """Braid letters taking a connected packed sequence to the packed
    canonical target with the same entry product, by the peel of the module
    docstring, on one list that each letter changes in place; the letters
    are freely reduced once, at the end.  Gathering and reducing apply their
    letters by ``_act``.  A pair of equal entries crosses a neighbour in two
    letters, the neighbour unchanged and the pair either unchanged or
    conjugated by it, and ``_cross`` writes those three entries in closed
    form, with no ``_act``.  That is safe: a test checks the closed form
    against ``_act`` for every ordered pair of transpositions up to degree 5,
    on each side and with each sign, and the tests replay certificates
    through ``_act``, the golden ones among them."""
    tables = _tables(degree)
    conj, pairs = tables.conj, tables.pairs
    entries = list(packed)
    letters: list[int] = []

    def x(*word: int) -> None:
        _act(conj, entries, word)
        letters.extend(word)

    cross_left = partial(_cross, conj, entries, letters, False)
    cross_right = partial(_cross, conj, entries, letters, True)

    blocks, found = [0] * (degree + 1), [0] * (degree + 1)
    for t in target:
        blocks[pairs[t][1]] += 1
    end = len(entries)
    for k in range(degree, 1, -1):
        # Gather.  entries[:end] run on sheets 1..k, so k is the larger sheet
        # of any entry holding it.
        start = end
        for i in range(end - 1, -1, -1):
            if pairs[entries[i]][1] == k:
                if i + 1 < start:  # not yet in place
                    x(*range(i + 1, start))
                start -= 1
        # Reduce the block entries[start:end].
        i = start
        while i < end - 1:
            if entries[i] == entries[i + 1]:
                i += 1
                continue
            # x_i^2 acts as x_i^-1 on two transpositions sharing one sheet.
            x(-(i + 1), *range(i, start, -1))
            start += 1
            i = max(i, start)
        # Fix a.
        if pairs[entries[start]][0] != k - 1:
            steps = _conjugator_path(conj, entries[:start], entries[start], tables.index(k - 1, k))
            for _ in range((end - start) // 2):
                # The first pair of the block leaves with s prefix entries on
                # its left, crossing the prefix entry p from whichever side,
                # and then goes plainly to the end of the block.
                s = start
                for p in steps:
                    while s > p + 1:
                        cross_left(s, False)
                        s -= 1
                    while s < p:
                        cross_right(s, False)
                        s += 1
                    if s > p:
                        cross_left(s, True)
                        s -= 1
                    else:
                        cross_right(s, True)
                        s += 1
                for i in range(s, end - 2):
                    cross_right(i, False)
        found[k] = end - start
        end = start

    for j in range(2, degree):
        end += found[j]
        while found[j] > blocks[j]:
            # The last pair (j-1 j)^2 of block j becomes (j-1 j+1)^2 across the
            # first (j j+1), crosses back, becomes (j j+1)^2 across one
            # (j-1 j) and crosses back into block j + 1.
            cross_right(end - 2, True)
            cross_left(end - 1, False)
            cross_left(end - 2, True)
            cross_right(end - 3, False)
            found[j] -= 2
            found[j + 1] += 2
            end -= 2
    assert tuple(entries) == target, "the peel must end at the canonical target"
    return _free_reduce(letters)


def canonicalize(seq: MonodromySequence) -> CanonicalizationResult:
    """Certificate taking a connected sequence to its canonical form.

    The sheets are renumbered so that the entry product becomes the product
    of the canonical target, ``(1 2)^q_2 ... (d-1 d)^q_d``, by the relabel
    :func:`~diskcovers.core.conjugating_permutation` builds from the two
    products, read off the target's layout; the move word then
    peels the top sheet off the sequence, sheet by sheet, and moves surplus
    pairs up, as the module docstring describes.  It is built in time and
    memory polynomial in the degree and length, without searching the orbit.
    Any strategy would do, since the certificate is checked by replay.
    """
    if not seq.is_connected():
        raise DisconnectedCoveringError("canonicalization is only defined for connected coverings")
    omega, relabel = _target_relabel(_product(seq.degree, seq._packed))
    # The walk's parts come sorted, as canonical_target keys its memo.
    target = _target(seq.degree, seq.length, omega.parts)
    letters = _peel(seq.degree, _renumbered(seq.degree, seq._packed, relabel.images), target._packed)
    return CanonicalizationResult._unchecked(relabel, letters, target)
