"""Coset enumeration over the standard braid-group presentation.

Todd-Coxeter in the HLT order with Holt's scan-and-fill and coincidence
routine (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
2005, ch. 5; cf. the exposition at
https://math.berkeley.edu/~kmill/notes/todd_coxeter.html).  Each subgroup
word is closed at the first coset; then every live coset, in order, has each
relator closed at it and every generator column filled.  To close a word at a
coset, scan it forward from the coset until an entry is unknown, then
backward from the coset through the inverse columns.  Most relators already
close, and those are only checked by halves: a relator u v closes at c when
c u = c v^-1, and for the braid presentation both halves read forward
columns only.  In a partial permutation table that check closes exactly when
the whole relator traces back to c, so a scan runs where a full trace would
call for one.  Scans that meet end at cosets that must coincide.  A gap of
one letter is a deduction: that entry and its inverse are filled.  Only a
wider gap defines a new coset, after which the forward scan goes on.
Defining a coset only where nothing can be deduced keeps the count of cosets
defined (``CosetTable.defined``) close to the index.

The table is one list per column, indexed by coset, and a list indexed by the
signed letter gives each letter's column; negative letters index it from the
end, so ``column[-e]`` is the inverse of ``column[e]``.  The columns grow a
block of cosets at a time and keep an unknown entry past the last coset, so
a trace that meets an unknown entry reads unknown to its end.  A coincidence
merges the larger coset into the smaller and queues it; each entry of a
queued coset's row then moves to its live coset's row, or queues the merge
of two entries, and the entry that named it back is cleared.  So no live row
names a dead coset, and a scan steps from entry to entry with no union-find
lookup.  The coincidence walks the union-find in place, with no call per
find or merge.  :class:`CosetTable` keeps the columns and the union-find,
finished or capped, and builds ``rows`` only when they are read.

The relator scan runs inline, with no call per scan: each relator holds its
forward and inverse columns letter by letter, so a step reads
``forward[i][f]``.  A subgroup word, scanned once, keeps a scan of its own.
Known answers are not looked up: a relator's second half is read only when
its first half is known, a scan resumes where that trace stopped, and it
steps onto the coset it defines.  It hands two live cosets to a
coincidence, whose first merge so needs no find.

Enumeration is deterministic for fixed inputs.  On completion the table is a
genuine permutation action on the cosets and the coset count is the
subgroup's index; past the coset cap the enumeration is abandoned as
inconclusive, which is all one can say for a possibly-infinite index.

One scan closes the table.  A merge keeps the smaller coset and new cosets
are numbered past the scan, so every coset live at the end was live, with
every relator closed and every column filled, when the scan reached it.  A
deduction fills an entry and its inverse together, so the table stays a
partial permutation action, and filling an entry never opens a closed
relator.  A coincidence is a quotient: it keeps closed relators closed and
defined entries defined.  Its result does not depend on the order of the
merges: the finest such quotient that makes the two cosets one, with the
smallest coset of each class kept.  Subgroup words are closed at coset 0
before the scan, and coset 0 is never merged away.

One certifier, :func:`_certify`, serves both generating sets, theorem C's
and the interval powers.  It checks that every word lifts, then compares two
independent index computations: a subgroup of liftable braids has index
equal to the orbit size of the monodromy sequence, so liftable words
generate the whole liftable group exactly when the coset count matches the
orbit count.  A word that does not lift fails before either search runs.
The certifier makes the words twice, once for each check, and never holds
them all: :func:`todd_coxeter` closes each word at coset 0 as it comes.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterable
from functools import cached_property

from .core import CapExceeded, _Record, disk_covering
from .hurwitz import BraidWord
from .lift import is_liftable, theorem_c_generators
from .orbit import _resolve_cap, hurwitz_orbit, stabilizer_index

COMPLETE = "complete"
CAPPED = "capped"

#: Coset slots added to every column at once when it fills up.
_BLOCK = 1024


class Inconclusive(CapExceeded):
    """Enumeration hit the coset cap; the index may be infinite.

    A :class:`~diskcovers.core.CapExceeded` that carries the cap and, when
    raised by :func:`todd_coxeter`, the partial table with status ``CAPPED``,
    no copy of it: its ``rows`` are relabelled only when read.
    """

    def __init__(self, message: str, cap: int, table: "CosetTable | None" = None):
        super().__init__(message, cap)
        self.table = table


class Presentation(_Record):
    """The standard presentation of the braid group on ``strands`` strands."""

    strands: int
    relators: tuple[tuple[int, ...], ...]

    @property
    def generators(self) -> int:
        return self.strands - 1


def braid_presentation(strands: int) -> Presentation:
    """Adjacent generators braid, distant generators commute."""
    if strands < 1:
        raise ValueError("strand count must be at least 1")
    relators: list[tuple[int, ...]] = []
    for i in range(1, strands - 1):
        relators.append((i, i + 1, i, -(i + 1), -i, -(i + 1)))
        for j in range(i + 2, strands):
            relators.append((i, j, -i, -j))
    return Presentation(strands, tuple(relators))


class CosetTable:
    """Action of the generators on the cosets, one row per coset.

    Row ``c`` holds, per column, the coset reached from ``c``; columns come in
    pairs (generator, inverse) for generators ``1 .. strands - 1``.  The table
    keeps the enumeration's own union-find and column lists, one list per
    column indexed by coset, so building it copies nothing; ``rows`` numbers
    the live cosets in order and relabels their entries on first read.  No
    live row names a dead coset.  ``index`` counts the live cosets,
    ``defined`` every coset defined, those later merged away included, and
    ``peak_live`` the most cosets live at once (one more per definition, one
    fewer per coset merged away); all three are deterministic for fixed
    inputs.
    """

    def __init__(self, strands: int, status: str, parent: list[int], columns: list[list[int]], peak_live: int) -> None:
        self.strands = strands
        self.status = status
        self.defined = len(parent)
        self.index = sum(map(operator.eq, parent, range(len(parent))))
        self.peak_live = max(peak_live, self.index)
        self._parent = parent
        self._columns = columns

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        live_cosets = [c for c, p in enumerate(self._parent) if p == c]
        # The trailing -1 is label[-1], which keeps unknown entries unknown.
        label = [-1] * (self.defined + 1)
        for k, c in enumerate(live_cosets):
            label[c] = k
        return tuple(tuple(label[column[c]] for column in self._columns) for c in live_cosets)


def todd_coxeter(
    strands: int,
    subgroup_words: Iterable[BraidWord],
    max_cosets: int | None = None,
) -> tuple[int, CosetTable]:
    """Index and coset table of the subgroup the given words generate.

    The words are read once, each closed at coset 0 as it comes, so any
    iterable serves.  Raises ``ValueError`` at a word on other than
    ``strands`` strands, and :class:`Inconclusive` when more than
    ``max_cosets`` cosets get defined before the table closes (default:
    ``orbit.DEFAULT_CAP``).
    """
    max_cosets = _resolve_cap(max_cosets)
    letters = BraidWord.generator_letters(strands)
    parent = [0]
    # columns[d][c] is the coset column d sends coset c to, -1 if unknown;
    # column[e] is letter e's column, so column[-e] is its inverse's, and
    # pairs holds (column[e], column[-e]) for each letter e in order.  The
    # columns grow a block at a time and always keep a slot past the last
    # coset, so column[e][-1] reads -1: a trace that meets an unknown entry
    # stays -1.
    columns = [[-1] * _BLOCK for _ in letters]
    column = [None, *columns[::2], *reversed(columns[1::2])]
    pairs = [(column[e], column[-e]) for e in letters]
    # Each relator's forward and inverse columns, letter by letter: a scan
    # step reads forward[i][f] where a word's reads column[word[i]][f].  A
    # relator u v closes at c when c u = c v^-1, and both halves read forward
    # columns only: x_i x_j against x_j x_i for a commutator (j > i + 1),
    # x_i x_j x_i against x_j x_i x_j for a braid relator (j = i + 1).  a and
    # b are the columns of x_i and x_j.
    checks = []
    for relator in braid_presentation(strands).relators:
        forward = [column[e] for e in relator]
        checks.append((forward, [column[-e] for e in relator], forward[0], forward[1], len(relator) == 6))
    merged = peak_live = 0

    def capped() -> Inconclusive:
        message = f"no conclusion within {max_cosets} cosets"
        return Inconclusive(message, max_cosets, CosetTable(strands, CAPPED, parent, columns, peak_live))

    def define(c: int, forward: list[int], back: list[int]) -> int:
        v = len(parent)
        if v >= max_cosets:
            raise capped()
        parent.append(v)
        if v + 1 == len(forward):
            for col in columns:
                col += [-1] * _BLOCK
        forward[c] = v
        back[v] = c
        return v

    def coincidence(a: int, b: int) -> None:
        """Merge live cosets a and b, and every pair that follows (Holt's
        COINCIDENCE): each entry of a dead coset's row moves to its live
        coset's row or queues a merge, and the entry back to it is cleared.
        The union-find is walked in place, halving each path it climbs."""
        nonlocal merged, peak_live
        # Only definitions add live cosets, so they peak before a coincidence
        # or at the end, where CosetTable counts them.
        if len(parent) - merged > peak_live:
            peak_live = len(parent) - merged
        # A scan hands over two distinct live cosets: no find for the first merge.
        if a > b:
            a, b = b, a
        parent[b] = a
        queue = [b]
        for dead in queue:
            for forward, back in pairs:
                x = forward[dead]
                if x < 0:
                    continue
                back[x] = -1
                a = dead
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                # a's entry must coincide with x, or x's entry back with a;
                # if neither is known, the entry moves to a's row.
                y = forward[a]
                if y < 0:
                    y = back[x]
                    if y < 0:
                        forward[a], back[x] = x, a
                        continue
                    x = a
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x != y:
                    if x > y:
                        x, y = y, x
                    parent[y] = x
                    queue.append(y)
        merged += len(queue)

    def close_word(word: tuple[int, ...]) -> None:
        """Close a subgroup word at coset 0, as the relator scan below closes
        a relator, but looking each letter's column up.  A word is closed
        once, so columns resolved for it ahead would cost what they save:
        with two column lists built per word, the 15,361 Schreier words of a
        (4, 6) covering took about twice as long to enumerate, and words
        chained into the relator scan by an iterator made a whole
        ``certify`` pass of the benchmark about 5% slower."""
        f = b = i = 0
        j = len(word) - 1
        while True:
            while i <= j:
                x = column[word[i]][f]
                if x < 0:
                    break
                f = x
                i += 1
            while j >= i:
                x = column[-word[j]][b]
                if x < 0:
                    break
                b = x
                j -= 1
            if j < i:
                if f != b:
                    coincidence(f, b)
                return
            if i == j:
                column[word[i]][f] = b
                column[-word[i]][b] = f
                return
            f = define(f, column[word[i]], column[-word[i]])
            i += 1

    for word in subgroup_words:
        if word.strands != strands:
            raise ValueError("subgroup word strand count mismatch")
        close_word(word.letters)

    scan = 0
    while scan < len(parent):
        if parent[scan] == scan:
            c = scan
            for forward, back, a, b, braid in checks:
                # Most relators already close: compare the halves first, the
                # second only when the first is known.
                if braid:
                    p = a[c]
                    q = b[p]
                    x = a[q]
                    if x >= 0:
                        if x == b[a[b[c]]]:
                            continue
                        f, i = x, 3
                    elif q >= 0:
                        f, i = q, 2
                    elif p >= 0:
                        f, i = p, 1
                    else:
                        f, i = c, 0
                else:
                    # A commutator of x_i and x_j comes after the braid
                    # relator of x_i and x_(i+1), which also starts with x_i.
                    # Every way out of that check or scan leaves c's x_i entry
                    # known, a coincidence moving it to c's live coset, so
                    # p >= 0 here.
                    p = a[c]
                    x = b[p]
                    if x >= 0:
                        if x == a[b[c]]:
                            continue
                        f, i = x, 2
                    else:
                        f, i = p, 1
                # Scan the relator at c, forward from where the first half's
                # trace stopped, then backward from c: merge where the scans
                # meet, deduce a gap of one, define a coset in a wider gap.
                d, j = c, len(forward) - 1
                while True:
                    while i <= j:
                        x = forward[i][f]
                        if x < 0:
                            break
                        f = x
                        i += 1
                    while j >= i:
                        x = back[j][d]
                        if x < 0:
                            break
                        d = x
                        j -= 1
                    if j < i:
                        if f != d:
                            coincidence(f, d)
                            while parent[c] != c:
                                parent[c] = c = parent[parent[c]]
                        break
                    if i == j:
                        forward[i][f] = d
                        back[i][d] = f
                        break
                    # A wider gap: define a new coset, as define does, and
                    # step onto it.
                    v = len(parent)
                    if v >= max_cosets:
                        raise capped()
                    parent.append(v)
                    x = forward[i]
                    if v + 1 == len(x):
                        for col in columns:
                            col += [-1] * _BLOCK
                    x[f] = v
                    back[i][v] = f
                    f = v
                    i += 1
            if c == scan:
                for forward, back in pairs:
                    if forward[scan] < 0:
                        define(scan, forward, back)
        scan += 1

    result = CosetTable(strands, COMPLETE, parent, columns, peak_live)
    return result.index, result


def _certify(seq, words, max_cosets: int | None, orbit_index=None) -> tuple[int, bool, int, int]:
    """Whether the words that the zero-argument callable ``words`` makes
    generate the liftable braid group of ``seq``, as ``(count, all_liftable,
    tc_index, orbit_index)``: they do exactly when every word lifts and the
    two indices agree.

    Every word must fix ``seq`` (containment), and the coset count of the
    subgroup they generate must equal the orbit size (equality of indices).
    The words are made twice and never held together: the first pass counts
    them and checks that they lift, the second feeds :func:`todd_coxeter`.
    A word that does not lift fails fast: ``_certify`` returns
    ``(count, False, -1, -1)`` and runs neither search.  Otherwise the
    enumeration runs first, under ``max_cosets`` as in :func:`todd_coxeter`:
    liftable words give a coset index at least the orbit size, so an orbit
    past the cap stops the enumeration first.  The orbit search then runs
    under the same cap, and raises :class:`~diskcovers.core.CapExceeded` past
    it, unless the caller passes the ``orbit_index`` it already has.
    """
    lifts = Counter(is_liftable(seq, word) for word in words())
    if lifts[False]:
        return lifts.total(), False, -1, -1
    tc_index = todd_coxeter(seq.length, words(), max_cosets=max_cosets)[0]
    return lifts.total(), True, tc_index, orbit_index or stabilizer_index(seq, max_cosets)


class IntervalGenerationReport(_Record):
    """Whether the liftable interval powers of
    :func:`~diskcovers.lift.liftable_interval_powers` generate the liftable
    group of a covering: ``generates`` holds when every word lifts and the
    coset index equals the orbit index."""

    orbit_index: int
    tc_index: int
    generator_count: int
    generates: bool


def interval_powers_index(
    seq,
    max_word_length: int | None = None,
    max_cosets: int | None = None,
) -> IntervalGenerationReport:
    """Certify the liftable interval powers, with conjugators up to
    ``max_word_length`` long (``None``: the whole orbit spanning tree), as
    :func:`_certify` does.

    One orbit search gives both the conjugators and the orbit index; it runs
    first, under ``max_cosets``, and raises
    :class:`~diskcovers.core.CapExceeded` past it.  The table's tree words
    are built once; the words are made off them for each pass of the
    certifier, and no list of them is kept.  With the whole tree,
    ``generates`` holds on every connected class with ``d <= 5`` and
    ``n <= 6``; the tests check all 26.
    """
    table = hurwitz_orbit(seq, max_cosets)
    tree_words = table._tree_words()
    count, all_liftable, tc_index, orbit_index = _certify(
        seq, lambda: table._interval_powers(max_word_length, tree_words), max_cosets, len(table)
    )
    return IntervalGenerationReport(
        orbit_index=orbit_index,
        tc_index=tc_index,
        generator_count=count,
        generates=all_liftable and tc_index == orbit_index,
    )


class TheoremCReport(_Record):
    """Outcome of the generator-set certification for one disk covering."""

    branch_points: int
    generator_count: int
    all_liftable: bool
    orbit_index: int
    tc_index: int
    passed: bool


def verify_theorem_c(branch_points: int, max_cosets: int | None = None) -> TheoremCReport:
    """Certify, as :func:`_certify` does, that the catalogued half-twist powers
    generate the liftable braid group of the canonical disk covering."""
    n = branch_points
    seq = disk_covering(n)
    generators = theorem_c_generators(n)
    count, all_liftable, tc_index, orbit_index = _certify(seq, lambda: generators, max_cosets)
    return TheoremCReport(
        branch_points=n,
        generator_count=count,
        all_liftable=all_liftable,
        orbit_index=orbit_index,
        tc_index=tc_index,
        passed=all_liftable and tc_index == orbit_index,
    )
