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
conjugator per orbit element, and after deduplication as many words as the
Nielsen-Schreier rank (see :func:`liftable_interval_powers`).  The table
builds them itself, beside its Schreier words, and reads each power off the
action (:meth:`~diskcovers.orbit.OrbitTable.interval_powers`).
"""

from __future__ import annotations

from .core import MonodromySequence, Transposition, _Record, _tables, is_disk
from .restrict import END, START, RestrictionSpec, restriction_signature
from .hurwitz import BraidWord, _act_packed, _require_strands, act


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


def transport_curve(curve: CurveRef, braid: BraidWord) -> CurveRef:
    return CurveRef(curve.base, braid * curve.word)


def transport_interval(interval: IntervalRef, braid: BraidWord) -> IntervalRef:
    return IntervalRef(interval.base, braid * interval.word)


def interval_braid(interval: IntervalRef, power: int = 1) -> BraidWord:
    """The half-twist braid of a transported interval, or a power of it:
    ``word + [base]*power + word^-1``, freely reduced."""
    n = interval.word.strands
    twist = BraidWord(n, (interval.base,) * power) if power >= 0 else BraidWord(
        n, (-interval.base,) * (-power)
    )
    return (interval.word * twist * interval.word.inverse()).reduced()


# --- the standard catalog -------------------------------------------------

def standard_curve(branch_points: int, j: int) -> CurveRef:
    """The fundamental-system curve ``alpha_j``."""
    return CurveRef(j, BraidWord.identity(branch_points))


def standard_interval(branch_points: int, i: int) -> IntervalRef:
    """The adjacent interval ``x_i`` between branch points ``i`` and ``i+1``."""
    return IntervalRef(i, BraidWord.identity(branch_points))


def _carried_interval(branch_points: int, i: int, j: int, power: int) -> IntervalRef:
    """``x_i`` carried over the branch points between ``i`` and ``j`` by the
    given power (+1 or -1) of each adjacent half-twist."""
    i, j = min(i, j), max(i, j)
    ref = standard_interval(branch_points, i)
    for m in range(i + 1, j):
        ref = transport_interval(ref, interval_braid(standard_interval(branch_points, m), power))
    return ref


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


def index1_interval(branch_points: int, i: int, j: int, k: int) -> IntervalRef:
    """The index-1 interval obtained by transporting the index-0 interval from
    ``i`` to ``j`` across branch point ``j`` towards ``k``.

    Normalisations: symmetric in ``i`` and ``k``; degenerate index patterns
    (``i == j`` or ``j == k``) collapse to the index-0 interval.
    """
    if i > k:
        i, k = k, i
    if i == j or j == k:
        return index0_interval(branch_points, i, k)
    if i == k:
        raise ValueError("an index-1 interval needs distinct outer branch points")
    carrier = interval_braid(index0_interval(branch_points, j, k))
    if not i < j < k:  # i < k < j or j < i < k
        carrier = carrier.inverse()
    return transport_interval(index0_interval(branch_points, i, j), carrier)


def index0_curve(branch_points: int, i: int, j: int) -> CurveRef:
    """The index-0 curve ``alpha_{i,j}`` ending at branch point ``i``; it is
    ``alpha_i`` transported by the index-0 interval's half-twist, against the
    twist for ``i < j`` and with it for ``j < i``.  ``alpha_{i,i}`` is
    ``alpha_i`` itself."""
    if i == j:
        return standard_curve(branch_points, i)
    carrier = interval_braid(index0_interval(branch_points, i, j))
    if i < j:
        carrier = carrier.inverse()
    return transport_curve(standard_curve(branch_points, i), carrier)


def index1_curve(branch_points: int, i: int, j: int, k: int) -> CurveRef:
    """The index-1 curve ``alpha_{i,j,k}``: the index-0 curve ``alpha_{i,j}``
    transported by the half-twist of the index-0 interval from ``j`` to ``k``,
    with the twist direction depending on the index pattern."""
    if i == j or j == k:
        raise ValueError("index-1 curves need i != j and j != k")
    carrier = interval_braid(index0_interval(branch_points, j, k))
    if not ((i < j < k) or (j < k <= i) or (k < i < j)):
        # k < j < i, j < i < k, or i <= k < j
        carrier = carrier.inverse()
    return transport_curve(index0_curve(branch_points, i, j), carrier)


# --- liftability and types ------------------------------------------------

def is_liftable(seq: MonodromySequence, word: BraidWord) -> bool:
    """A braid is liftable exactly when its action fixes every entry."""
    _require_strands(seq, word)
    return _act_packed(_tables(seq.degree).conj, seq._packed, word.letters) == seq._packed


def curve_monodromy(seq: MonodromySequence, curve: CurveRef) -> Transposition:
    """The monodromy of a transported curve: the entry at its base position
    after acting by its word."""
    return act(seq, curve.word).entries[curve.base - 1]


def interval_type(seq: MonodromySequence, interval: IntervalRef) -> int:
    """The least positive power of the interval's half-twist that is liftable.

    Read off from the transported sequence at the interval's base: equal
    adjacent entries give type 1, disjoint ones type 2, and entries sharing
    exactly one sheet type 3.
    """
    transported = act(seq, interval.word)
    t, u = transported.entries[interval.base - 1], transported.entries[interval.base]
    if t == u:
        return 1
    if t.is_disjoint_from(u):
        return 2
    return 3


def reference_alpha_monodromy(branch_points: int, i: int, j: int, k: int | None = None) -> Transposition:
    """Closed-form monodromies of the index-0 and index-1 curves on the
    canonical disk covering: an oracle independent of the action machinery.

    Pair form: (i j+1) for i <= j, (i+1 j) for j <= i.  Triple form, where the
    rows with a tie-admitting comparison own the boundary patterns:
    (j+1 k+1) if i < j < k or i <= k < j; (j k) if k < j < i or j < k <= i;
    (j+1 k) if k < i < j; (j k+1) if j < i < k.
    """
    n = branch_points
    if not all(1 <= v <= n for v in (i, j) + (() if k is None else (k,))):
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
    out = [BraidWord(n, (i,) * 3) for i in range(1, n)]
    for i in range(1, n):
        for j in range(i + 2, n + 1):
            out.append(interval_braid(twisted_interval(n, i, j), power=2))
    return out


def is_regular_curve(seq: MonodromySequence, curve: CurveRef) -> bool:
    """Whether cutting a disk covering along the curve leaves the next-smaller
    disk covering plus one trivial sheet.

    Concretely: the restriction along the curve has exactly two components,
    one a single sheet with no branch points and the other a disk covering on
    the remaining sheets.
    """
    if not is_disk(seq):
        raise ValueError("regularity is defined for disk coverings only")
    if seq.length < 2:
        raise ValueError("regularity needs at least two branch points")
    transported = act(seq, curve.word)
    signature = restriction_signature(transported, RestrictionSpec((curve.base,), START))
    if signature.count != 2:
        return False
    small, large = sorted(signature.blocks, key=lambda block: len(block[0]))
    return (
        len(small[0]) == 1
        and small[1] == 0
        and len(large[0]) == seq.length
        and large[1] == seq.length - 1
    )


def systems_liftable_equivalent(
    seq: MonodromySequence, first: list[CurveRef], second: list[CurveRef]
) -> bool:
    """Decide whether some liftable braid carries one system of curves to the
    other, curve by curve.

    Requires the curves within each system to share one transport word.  The
    criterion: matched curves have equal monodromies, and the restrictions
    along the two systems have identical component signatures at both base
    points of the cut disk.
    """
    if len(first) != len(second) or not first:
        raise ValueError("systems must be nonempty and of equal length")
    for system in (first, second):
        if len({c.word for c in system}) != 1:
            raise ValueError("curves within a system must share a transport word")
        if len({c.base for c in system}) != len(system):
            raise ValueError("curves within a system must end at distinct branch points")
        for c in system:
            if c.word.strands != seq.length:
                raise ValueError("system strand count does not match the covering")

    if any(
        curve_monodromy(seq, a) != curve_monodromy(seq, b) for a, b in zip(first, second)
    ):
        return False

    signatures = []
    for system in (first, second):
        transported = act(seq, system[0].word)
        indices = tuple(sorted(c.base for c in system))
        signatures.append(
            tuple(
                restriction_signature(transported, RestrictionSpec(indices, base))
                for base in (START, END)
            )
        )
    return signatures[0] == signatures[1]


def count_regular_bases(seq: MonodromySequence, word: BraidWord) -> int:
    """How many curves of the transported fundamental system are regular."""
    return sum(
        1
        for j in range(1, seq.length + 1)
        if is_regular_curve(seq, CurveRef(j, word))
    )


def liftable_interval_powers(seq: MonodromySequence, max_word_length: int | None = None) -> list[BraidWord]:
    """The least liftable power of every interval transported along the orbit
    spanning tree, deduplicated by the resulting braid word.

    For each orbit element k, with tree word ``t_k``, and each position i the
    word is ``t_k x_i^m t_k^-1``, freely reduced, where m (1, 2 or 3) is the
    interval type of ``x_i`` transported by ``t_k``: the length of the
    ``x_i``-cycle through k.  ``max_word_length`` bounds the length of
    ``t_k``; ``None`` takes the whole tree.  The orbit search stops past
    ``orbit.DEFAULT_CAP``, as in :func:`~diskcovers.orbit.hurwitz_orbit`.
    Whether the words generate the liftable group is what
    :func:`~diskcovers.cosets.interval_powers_index` certifies.

    The whole tree gives exactly ``index * (n - 2) + 1`` words, the
    Nielsen-Schreier rank.  Strip from ``t_k`` its trailing letters ``x_i``
    or ``x_i^-1``; what is left, ``t'``, is the tree word of an element of the
    ``x_i``-cycle through k, and ``t' x_i^m t'^-1`` is the reduced word.  A
    reduced word determines its cyclically reduced core ``x_i^m`` and the
    conjugator ``t'``, so pairs (k, i) give one word exactly when tree edges
    of letter ``x_i`` or ``x_i^-1`` join them.  Each of the ``index - 1`` tree
    edges joins two of the ``index * (n - 1)`` pairs, closing no cycle, and no
    word is empty.  A bound L on the word length keeps the subtree of the
    ``N_L`` elements within distance L, which gives ``N_L * (n - 2) + 1``
    words the same way.

    >>> from diskcovers.core import disk_covering
    >>> len(liftable_interval_powers(disk_covering(3)))  # index 16: 16 * 1 + 1
    17
    """
    # Imported here: the curve and interval commands need no orbit search.
    from .orbit import hurwitz_orbit

    return hurwitz_orbit(seq).interval_powers(max_word_length)
