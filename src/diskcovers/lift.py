"""Liftable braids, curves and intervals, and the half-twist generator catalog.

A braid is liftable with respect to a covering exactly when its action fixes
the monodromy sequence entrywise.  Curves and intervals are represented as
braid transports of the standard fundamental-system curves ``alpha_j`` and the
adjacent intervals ``x_i``: a reference stores a base index and the word that
moved it there.

Transport composes by *prepending*: acting on a transported object by a braid
``b`` applies ``b`` to the disk first, so the reference word becomes
``b.word + ref.word``.  With the left-to-right action this is what makes the
monodromy and the type of a transported object invariant under liftable
braids.  The half-twist braid of the interval ``(base, word)`` is
``word + [base] + word^-1``.

The liftable half-twist powers of an arbitrary covering take their transport
words from the spanning tree of :class:`~diskcovers.orbit.OrbitTable`: one
conjugator per orbit element, each word emitted once, at the top element of
its ``x_i``-group, and as many words as the Nielsen-Schreier rank (see
:func:`liftable_interval_powers`).  The table builds them itself, beside its
Schreier words, and reads each power off the action
(:meth:`~diskcovers.orbit.OrbitTable.interval_powers`).

The query kernels run on the packed form of :mod:`diskcovers.core`.
``is_liftable``, ``curve_monodromy`` and ``interval_type`` copy the packed
tuple into one list, which the action kernel ``hurwitz._act`` changes in
place; the latter two read only the one or two entries they need, and
``curve_monodromy`` returns the interned transposition.  ``interval_braid``
freely reduces the word, the twist and the inverse word in one pass and
builds one unchecked word.

The catalog spells its words in closed form.  The half-twist of the index-0
interval between branch points ``lo < hi`` is ``x_{hi-1}^-1 ... x_{lo+1}^-1
x_lo x_{lo+1} ... x_{hi-1}``, in which no two neighbouring letters cancel,
and a transport prepends its braid's word.  So ``index0_curve``,
``index1_curve`` and ``index1_interval`` each build one word and one record,
both unchecked, with no interval, half-twist, inverse or transport in
between; out of range they raise what those steps raise.  The transports
also build their records unchecked.  Per call, the median of 21 interleaved
rounds of ``tools/layer_bench.py --against`` (CPython 3.11, 2 shared
vCPUs): a catalog curve at n = 7 from 8.1 to 2.4 us and an index-1 interval
from 5.7 to 2.8 us; ``curve_monodromy`` under a 48-letter word 4.2 us,
``interval_type`` 4.5 us and ``interval_braid`` of an index-1 interval at
power -3 2.2 us, unchanged.
"""

from __future__ import annotations

from .core import MonodromySequence, Transposition, _Record, _tables, is_disk
from .restrict import END, START, RestrictionSpec, restriction_signature
from .hurwitz import BraidWord, _act, _free_reduce, _require_strands, act


class CurveRef(_Record):
    """A curve from the boundary base point to branch point ``base``,
    transported by ``word``."""

    base: int
    word: BraidWord

    def __post_init__(self) -> None:
        if not 1 <= self.base <= self.word.strands:
            raise ValueError(f"curve base {self.base} out of range for {self.word.strands} branch points")


class IntervalRef(_Record):
    """An interval joining two branch points, transported by ``word``.

    The untransported interval ``x_i`` joins the endpoints of the adjacent
    curves ``alpha_i`` and ``alpha_{i+1}``; it doubles as the counterclockwise
    half-twist braid around itself.
    """

    base: int
    word: BraidWord

    def __post_init__(self) -> None:
        if not 1 <= self.base <= self.word.strands - 1:
            raise ValueError(f"interval base {self.base} out of range for {self.word.strands} branch points")


# The product keeps the strand count that the base was checked against, and
# checks the braid's, so a transport builds its result unchecked.
def transport_curve(curve: CurveRef, braid: BraidWord) -> CurveRef:
    return CurveRef._unchecked(curve.base, braid * curve.word)


def transport_interval(interval: IntervalRef, braid: BraidWord) -> IntervalRef:
    return IntervalRef._unchecked(interval.base, braid * interval.word)


def interval_braid(interval: IntervalRef, power: int = 1) -> BraidWord:
    """The half-twist braid of a transported interval, or a power of it:
    ``word + [base]*power + word^-1``, freely reduced."""
    letters = interval.word.letters
    twist = (interval.base if power >= 0 else -interval.base,) * abs(power)
    return BraidWord._unchecked(
        interval.word.strands, _free_reduce(letters + twist + tuple([-e for e in reversed(letters)]))
    )


# --- the standard catalog -------------------------------------------------

# The catalog builds its records unchecked when its indices are in range, and
# through the public constructors otherwise, which raise what they always did.

def standard_curve(branch_points: int, j: int) -> CurveRef:
    """The fundamental-system curve ``alpha_j``."""
    if 1 <= j <= branch_points:
        return CurveRef._unchecked(j, BraidWord._unchecked(branch_points, ()))
    return CurveRef(j, BraidWord.identity(branch_points))


def standard_interval(branch_points: int, i: int) -> IntervalRef:
    """The adjacent interval ``x_i`` between branch points ``i`` and ``i+1``."""
    if 1 <= i < branch_points:
        return IntervalRef._unchecked(i, BraidWord._unchecked(branch_points, ()))
    return IntervalRef(i, BraidWord.identity(branch_points))


def _carried_interval(branch_points: int, i: int, j: int, power: int) -> IntervalRef:
    """``x_i`` carried over the branch points between ``i`` and ``j`` by the
    given power (+1 or -1) of each adjacent half-twist: transported by
    ``x_{i+1}^power``, then ``x_{i+2}^power`` and so on, each prepended, so
    its word is ``x_{j-1}^power ... x_{i+1}^power``."""
    i, j = min(i, j), max(i, j)
    letters = tuple(range(power * (j - 1), power * i, -power))
    if 1 <= i < branch_points and j <= branch_points:  # the base and every letter in range
        return IntervalRef._unchecked(i, BraidWord._unchecked(branch_points, letters))
    return IntervalRef(i, BraidWord(branch_points, letters))


def twisted_interval(branch_points: int, i: int, j: int) -> IntervalRef:
    """The interval ``x_{i,j}``: ``x_i`` carried over the intervening branch
    points by forward half-twists.  Symmetric in its indices; its square is a
    standard pure-braid generator."""
    return _carried_interval(branch_points, i, j, 1)


def index0_interval(branch_points: int, i: int, j: int) -> IntervalRef:
    """The index-0 interval between branch points ``i`` and ``j``: ``x_i``
    carried across by inverse half-twists, so the result misses every curve of
    the fundamental system.  Symmetric in its indices."""
    return _carried_interval(branch_points, i, j, -1)


def _twist(branch_points: int, i: int, j: int, inverse: bool) -> tuple[int, ...]:
    """The letters of the half-twist of the index-0 interval between branch
    points ``i != j``, or of its inverse, in closed form: the interval's word
    ``x_{hi-1}^-1 ... x_{lo+1}^-1``, then ``x_lo`` or its inverse, then the
    word's inverse, for ``lo < hi`` the two indices.  No two neighbouring
    letters cancel, so this is ``interval_braid(index0_interval(...))``, or
    its inverse, whose errors it raises out of range."""
    lo, hi = sorted((i, j))
    if lo < 1 or hi > branch_points:
        index0_interval(branch_points, i, j)  # raises
    return (*range(1 - hi, -lo), -lo if inverse else lo, *range(lo + 1, hi))


def index1_interval(branch_points: int, i: int, j: int, k: int) -> IntervalRef:
    """The index-1 interval obtained by transporting the index-0 interval from
    ``i`` to ``j`` across branch point ``j`` towards ``k``: by the half-twist
    of the index-0 interval from ``j`` to ``k`` if ``i < j < k``, by its
    inverse otherwise.  Its word is that braid's followed by the transported
    interval's, the first half of its own twist.

    Normalisations: symmetric in ``i`` and ``k``; degenerate index patterns
    (``i == j`` or ``j == k``) collapse to the index-0 interval.
    """
    if i > k:
        i, k = k, i
    if i == j or j == k:
        return index0_interval(branch_points, i, k)
    if i == k:
        raise ValueError("an index-1 interval needs distinct outer branch points")
    letters = _twist(branch_points, j, k, not i < j < k) + _twist(branch_points, i, j, False)[: abs(i - j) - 1]
    return IntervalRef._unchecked(min(i, j), BraidWord._unchecked(branch_points, letters))


def index0_curve(branch_points: int, i: int, j: int) -> CurveRef:
    """The index-0 curve ``alpha_{i,j}`` ending at branch point ``i``; it is
    ``alpha_i`` transported by the index-0 interval's half-twist, against the
    twist for ``i < j`` and with it for ``j < i``, so its word is that
    braid's.  ``alpha_{i,i}`` is ``alpha_i`` itself."""
    if i == j:
        return standard_curve(branch_points, i)
    return CurveRef._unchecked(i, BraidWord._unchecked(branch_points, _twist(branch_points, i, j, i < j)))


def index1_curve(branch_points: int, i: int, j: int, k: int) -> CurveRef:
    """The index-1 curve ``alpha_{i,j,k}``: the index-0 curve ``alpha_{i,j}``
    transported by the half-twist of the index-0 interval from ``j`` to ``k``,
    with the twist if ``i < j < k``, ``j < k <= i`` or ``k < i < j`` and
    against it if ``k < j < i``, ``j < i < k`` or ``i <= k < j``.  Its word
    is that braid's followed by ``alpha_{i,j}``'s."""
    if i == j or j == k:
        raise ValueError("index-1 curves need i != j and j != k")
    letters = _twist(branch_points, j, k, not (i < j < k or j < k <= i or k < i < j))
    return CurveRef._unchecked(i, BraidWord._unchecked(branch_points, letters + _twist(branch_points, i, j, i < j)))


# --- liftability and types ------------------------------------------------

def is_liftable(seq: MonodromySequence, word: BraidWord) -> bool:
    """A braid is liftable exactly when its action fixes every entry."""
    packed = seq._packed
    if word.strands != len(packed):
        _require_strands(seq, word)
    entries = list(packed)
    _act(_tables(seq.degree).conj, entries, word.letters)
    return tuple(entries) == packed


def curve_monodromy(seq: MonodromySequence, curve: CurveRef) -> Transposition:
    """The monodromy of a transported curve: the entry at its base position
    after acting by its word."""
    _require_strands(seq, curve.word)
    tables = _tables(seq.degree)
    entries = list(seq._packed)
    _act(tables.conj, entries, curve.word.letters)
    return tables.interned[entries[curve.base - 1]]


def interval_type(seq: MonodromySequence, interval: IntervalRef) -> int:
    """The least positive power of the interval's half-twist that is liftable.

    Read off from the transported sequence at the interval's base: equal
    adjacent entries give type 1, disjoint ones type 2, and entries sharing
    exactly one sheet type 3.
    """
    _require_strands(seq, interval.word)
    conj = _tables(seq.degree).conj
    entries = list(seq._packed)
    _act(conj, entries, interval.word.letters)
    t, u = entries[interval.base - 1], entries[interval.base]
    if t == u:
        return 1
    # Two distinct transpositions commute exactly when they are disjoint.
    return 2 if conj[t][u] == t else 3


def reference_alpha_monodromy(branch_points: int, i: int, j: int, k: int | None = None) -> Transposition:
    """Closed-form monodromies of the index-0 and index-1 curves on the
    canonical disk covering: an oracle independent of the action machinery.

    Pair form: (i j+1) for i <= j, (i+1 j) for j <= i.  Triple form, where the
    rows with a tie-admitting comparison own the boundary patterns:
    (j+1 k+1) if i < j < k or i <= k < j; (j k) if k < j < i or j < k <= i;
    (j+1 k) if k < i < j; (j k+1) if j < i < k.
    """
    if not all(1 <= v <= branch_points for v in (i, j, j if k is None else k)):
        raise ValueError("curve indices out of range")
    if k is None:
        return Transposition(i, j + 1) if i <= j else Transposition(i + 1, j)
    if i == j or j == k:
        raise ValueError("index-1 curves need i != j and j != k")
    if (i < j < k) or (i <= k < j):
        return Transposition(j + 1, k + 1)
    if (k < j < i) or (j < k <= i):
        return Transposition(j, k)
    if k < i < j:
        return Transposition(j + 1, k)
    assert j < i < k
    return Transposition(j, k + 1)


def theorem_c_generators(branch_points: int) -> list[BraidWord]:
    """The generating set of the liftable braid group of the canonical disk
    covering: cubes of the adjacent half-twists and squares of the carried
    half-twists ``x_{i,j}`` with ``j > i + 1``."""
    n = branch_points
    if n < 1:
        raise ValueError("branch point count must be at least 1")
    return [BraidWord(n, (i,) * 3) for i in range(1, n)] + [
        interval_braid(twisted_interval(n, i, j), 2) for i in range(1, n) for j in range(i + 2, n + 1)
    ]


def is_regular_curve(seq: MonodromySequence, curve: CurveRef) -> bool:
    """Whether cutting a disk covering along the curve leaves the next-smaller
    disk covering plus one trivial sheet.

    Concretely: one of the two components of the restriction along the curve
    is a single sheet.  There are always two: the lift of the curve through
    its branch point is one proper arc in the disk covering surface, which
    cuts it in two, and the other lifts end inside it and cut nothing.  So
    when one component is a single sheet, which holds no branch point, the
    other holds the remaining n sheets and all n - 1 entries, a disk covering.
    """
    if not is_disk(seq):
        raise ValueError("regularity is defined for disk coverings only")
    if seq.length < 2:
        raise ValueError("regularity needs at least two branch points")
    signature = restriction_signature(act(seq, curve.word), RestrictionSpec((curve.base,), START))
    return min(len(sheets) for sheets, _ in signature.blocks) == 1


def systems_liftable_equivalent(
    seq: MonodromySequence, first: list[CurveRef], second: list[CurveRef]
) -> bool:
    """Decide whether some liftable braid carries one system of curves to the
    other, curve by curve.

    Systems are matched in order: ``first[k]`` must go to ``second[k]``.
    Requires the curves within each system to share one transport word.  The
    criterion: the matching keeps the order of the bases, which is the order
    in which the curves leave the boundary base point and which every braid
    keeps; matched curves have equal monodromies; and the restrictions along
    the two systems have identical component signatures at both base points
    of the cut disk.  Each system gives the rank of each curve's base among
    its bases, each curve's monodromy, which is the entry at its base of the
    sequence that the system's word carries, and its signatures; the systems
    are equivalent when these agree.
    """
    if len(first) != len(second) or not first:
        raise ValueError("systems must be nonempty and of equal length")
    for system in (first, second):
        if len({c.word for c in system}) != 1:
            raise ValueError("curves within a system must share a transport word")
        if len({c.base for c in system}) != len(system):
            raise ValueError("curves within a system must end at distinct branch points")
        if system[0].word.strands != seq.length:
            raise ValueError("system strand count does not match the covering")

    invariants = []
    for system in (first, second):
        transported = act(seq, system[0].word)
        indices = tuple(sorted(c.base for c in system))
        invariants.append((
            [indices.index(c.base) for c in system],
            [transported._packed[c.base - 1] for c in system],
            [restriction_signature(transported, RestrictionSpec(indices, base)) for base in (START, END)],
        ))
    return invariants[0] == invariants[1]


def count_regular_bases(seq: MonodromySequence, word: BraidWord) -> int:
    """How many curves of the transported fundamental system are regular."""
    return sum(is_regular_curve(seq, CurveRef(j, word)) for j in range(1, seq.length + 1))


def liftable_interval_powers(seq: MonodromySequence, max_word_length: int | None = None) -> list[BraidWord]:
    """The least liftable power of every interval transported along the orbit
    spanning tree, each resulting braid word once.

    For each orbit element k, with tree word ``t_k``, and each position i the
    word is ``t_k x_i^m t_k^-1``, freely reduced, where m (1, 2 or 3) is the
    interval type of ``x_i`` transported by ``t_k``: the length of the
    ``x_i``-cycle through k.  ``max_word_length`` bounds the length of
    ``t_k``; ``None`` takes the whole tree.  The orbit search stops past
    ``orbit.DEFAULT_CAP``, as in :func:`~diskcovers.orbit.hurwitz_orbit`.
    Whether the words lift and generate the liftable group is what
    :func:`~diskcovers.cosets.interval_powers_index` certifies, with the
    certifier that theorem C's generators share.

    The whole tree gives exactly ``index * (n - 2) + 1`` words, the
    Nielsen-Schreier rank.  Strip from ``t_k`` its trailing letters ``x_i``
    or ``x_i^-1``; what is left, ``t'``, is the tree word of an element of the
    ``x_i``-cycle through k, and ``t' x_i^m t'^-1`` is the reduced word.  A
    reduced word determines its cyclically reduced core ``x_i^m`` and the
    conjugator ``t'``, so pairs (k, i) give one word exactly when tree edges
    of letter ``x_i`` or ``x_i^-1`` join them.  Each of the ``index - 1`` tree
    edges joins two of the ``index * (n - 1)`` pairs, closing no cycle, and no
    word is empty.  In each such ``x_i``-group only the top element, the one
    nearest the root, has a tree word that does not end in ``x_i^+-1``: its
    word ``t_k x_i^m t_k^-1`` is already reduced, and it comes first in the
    breadth-first order.  So the word is emitted there, once, and nowhere
    else in its group.  A bound L on the word length keeps the subtree of the
    ``N_L`` elements within distance L, which holds the top of every group it
    meets and gives ``N_L * (n - 2) + 1`` words the same way.

    >>> from diskcovers.core import disk_covering
    >>> len(liftable_interval_powers(disk_covering(3)))  # index 16: 16 * 1 + 1
    17
    """
    # Imported here: the curve and interval commands need no orbit search.
    from .orbit import hurwitz_orbit

    return hurwitz_orbit(seq).interval_powers(max_word_length)
