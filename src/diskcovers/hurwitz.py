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
lexicographic pair list of :mod:`diskcovers.core`, which sort as the sequences
they encode.  One kernel, ``_act_packed``, turns the packed pair ``t, u`` into
``u, conj[t][u]`` for ``x_i`` and into ``conj[u][t], t`` for its inverse.  The
public functions check their input, read the packed tuple the sequence carries
(no sequence is packed twice) and build one result on the way out with core's
trusted constructor.  ``_orbit_search`` is the one breadth-first orbit search;
canonicalization and :mod:`diskcovers.orbit` use it and read spanning-tree
words off its parents with ``_tree_path``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    CycleType,
    DisconnectedCoveringError,
    MonodromySequence,
    Permutation,
    _tables,
    _unpack,
    canonical_target,
    conjugating_permutation,
    omega_class,
    total_monodromy,
)

FORWARD = "forward"
INVERSE = "inverse"

#: A sequence of elementary moves: pairs (position, FORWARD | INVERSE).
MoveWord = tuple[tuple[int, str], ...]


class CapExceeded(RuntimeError):
    """An enumeration grew past the caller's cap."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


@dataclass(frozen=True)
class BraidWord:
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
        return BraidWord(self.strands, self.letters + other.letters)

    def __pow__(self, exponent: int) -> "BraidWord":
        if exponent >= 0:
            return BraidWord(self.strands, self.letters * exponent)
        return self.inverse() ** (-exponent)

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-e for e in reversed(self.letters)))

    def reduced(self) -> "BraidWord":
        """Freely reduce, cancelling adjacent letters ``e, -e``."""
        stack: list[int] = []
        for e in self.letters:
            if stack and stack[-1] == -e:
                stack.pop()
            else:
                stack.append(e)
        return BraidWord(self.strands, tuple(stack))


def _act_packed(conj, packed: tuple[int, ...], letters) -> tuple[int, ...]:
    """The braid action on a packed sequence, letters left to right."""
    entries = list(packed)
    for e in letters:
        if e > 0:
            t, u = entries[e - 1], entries[e]
            entries[e - 1], entries[e] = u, conj[t][u]
        else:
            t, u = entries[-e - 1], entries[-e]
            entries[-e - 1], entries[-e] = conj[u][t], t
    return tuple(entries)


def _require_strands(seq: MonodromySequence, word: BraidWord) -> None:
    if word.strands != seq.length:
        raise ValueError(f"braid on {word.strands} strands cannot act on {seq.length} entries")


def act(seq: MonodromySequence, word: BraidWord) -> MonodromySequence:
    """Apply a braid word to a monodromy sequence, letters left to right.

    The product of the entries is preserved; only the sequence changes.
    """
    _require_strands(seq, word)
    return _unpack(seq.degree, _act_packed(_tables(seq.degree).conj, seq._packed, word.letters))


def elementary_move(seq: MonodromySequence, position: int, direction: str = FORWARD) -> MonodromySequence:
    """The elementary move ``O_i`` on the edge-ordered graph, or its inverse.

    Forward: adjacent equal or disjoint entries swap; entries sharing exactly
    one sheet, say (a b), (b c), become (a c), (a b).  The forward move is
    ``act`` by the inverse generator ``-i``, the inverse move ``act`` by ``+i``,
    and both are computed that way.
    """
    return apply_moves(seq, ((position, direction),))


def apply_moves(seq: MonodromySequence, moves: MoveWord) -> MonodromySequence:
    """Apply elementary moves in order, all checked before the first."""
    letters = []
    for position, direction in moves:
        if direction not in (FORWARD, INVERSE):
            raise ValueError(f"unknown move direction {direction!r}")
        if not 1 <= position <= seq.length - 1:
            raise ValueError(f"move position {position} out of range for {seq.length} entries")
        letters.append(-position if direction == FORWARD else position)
    return act(seq, BraidWord(seq.length, tuple(letters)))


def _orbit_search(degree: int, root: tuple[int, ...], cap: int | None = None):
    """Breadth-first closure of a packed sequence under the braid action,
    trying letters in the order of :meth:`BraidWord.generator_letters`.

    Returns the elements in discovery order, their positions, and per position
    ``(parent position, letter)``: the letter takes the parent there.
    """
    conj = _tables(degree).conj
    letters = [(e,) for e in BraidWord.generator_letters(len(root))]
    elements = [root]
    position = {root: 0}
    parents = [(0, 0)]  # the root has no parent; keeps positions aligned
    cursor = 0
    while cursor < len(elements):
        current = elements[cursor]
        for letter in letters:
            image = _act_packed(conj, current, letter)
            if image in position:
                continue
            if cap is not None and len(elements) >= cap:
                raise CapExceeded(f"orbit exceeds cap {cap}", cap)
            position[image] = len(elements)
            elements.append(image)
            parents.append((cursor, letter[0]))
        cursor += 1
    return elements, position, parents


def _tree_path(parents: list[tuple[int, int]], k: int):
    """The letters of the spanning-tree word to position ``k``, last letter
    first, read by walking the parents back to the root."""
    while k:
        k, letter = parents[k]
        yield letter


@dataclass(frozen=True)
class CanonicalizationResult:
    """A replayable certificate reducing a sequence to canonical form.

    Renumbering the input's sheets by ``relabel`` and then applying ``moves``
    yields ``canonical``, which equals the canonical target for the input's
    degree, length and cycle type.
    """

    relabel: Permutation
    moves: MoveWord
    canonical: MonodromySequence


def replay_certificate(seq: MonodromySequence, result: CanonicalizationResult) -> MonodromySequence:
    """Re-run a certificate against its input; the caller compares the outcome
    with ``result.canonical``."""
    return apply_moves(seq.renumber_sheets(result.relabel), result.moves)


@lru_cache(maxsize=64)
def _search_from_target(
    degree: int, length: int, parts: tuple[int, ...]
) -> tuple[dict[tuple[int, ...], int], list[tuple[int, int]]]:
    """The breadth-first search from the canonical target: positions and
    parents of every sequence with the same entry product.

    Every connected sequence whose product equals the canonical representative
    permutation appears, packed, as a key of the map to discovery positions;
    walking the parents from its position back to the target spells the
    transport word, last letter first.  The cache holds one search per
    (degree, length, cycle type) class, at most 64 of them.
    """
    target = canonical_target(degree, length, CycleType(parts, degree))
    _, position, parents = _orbit_search(degree, target._packed)
    return position, parents


def canonicalize(seq: MonodromySequence) -> CanonicalizationResult:
    """Certificate taking a connected sequence to its canonical form.

    The sheets are renumbered so that the entry product becomes the canonical
    representative of its cycle type; a breadth-first search through the
    action orbit then supplies the move word.  Any strategy would do, since
    the certificate is checked by replay.
    """
    if not seq.is_connected():
        raise DisconnectedCoveringError("canonicalization is only defined for connected coverings")
    omega = omega_class(seq)
    target = canonical_target(seq.degree, seq.length, omega)
    relabel = conjugating_permutation(total_monodromy(seq), total_monodromy(target))
    position, parents = _search_from_target(seq.degree, seq.length, omega.parts)
    k = position[seq.renumber_sheets(relabel)._packed]
    # The walk yields the transport word last letter first; inverting each
    # letter gives the move word, the forward move being the inverse generator.
    moves = tuple((abs(e), FORWARD if e > 0 else INVERSE) for e in _tree_path(parents, k))
    return CanonicalizationResult(relabel=relabel, moves=moves, canonical=target)
