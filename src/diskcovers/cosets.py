"""Coset enumeration over the standard braid-group presentation.

Todd-Coxeter in the HLT order with Holt's scan-and-fill (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 5; cf. the
exposition at https://math.berkeley.edu/~kmill/notes/todd_coxeter.html).
Each subgroup word is closed at the first coset; then every live coset, in
order, has each relator closed at it and every generator column filled.  To
close a word at a coset, scan it forward from the coset until an entry is
unknown, then backward from the coset through the inverse columns.  Scans
that meet end at cosets that must coincide, and the two are merged through a
union-find table.  A gap of one letter is a deduction: that entry and its
inverse are filled.  Only a wider gap defines a new coset, after which the
forward scan goes on.  Defining a coset only where nothing can be deduced
keeps the count of cosets defined (``CosetTable.defined``) close to the
index.  The table is one flat list, indexed ``coset * columns + column``,
and it is stored once: :class:`CosetTable` keeps that list and the
union-find, finished or capped, and builds ``rows`` only when they are read.

Enumeration is deterministic for fixed inputs.  On completion the table is a
genuine permutation action on the cosets and the coset count is the
subgroup's index; past the coset cap the enumeration is abandoned as
inconclusive, which is all one can say for a possibly-infinite index.

One scan closes the table.  A merge keeps the smaller coset and new cosets
are numbered past the scan, so every coset live at the end was live, with
every relator closed and every column filled, when the scan reached it.  A
deduction fills an entry and its inverse together, so the table stays a
partial permutation action, and filling an entry never opens a closed
relator.  A merge is a quotient: it keeps closed relators closed and defined
entries defined.  Subgroup words are closed at coset 0 before the scan, and
coset 0 is never merged away.

The end-to-end verifier cross-checks the two independent index computations:
a subgroup of liftable braids has index equal to the orbit size of the
monodromy sequence, so catalogued generators generate the whole liftable
group exactly when the coset count matches the orbit count.
"""

from __future__ import annotations

import operator
from functools import cached_property

from .core import CapExceeded, _Record, disk_covering
from .hurwitz import BraidWord
from .lift import is_liftable, theorem_c_generators
from .orbit import _resolve_cap, hurwitz_orbit, stabilizer_index

COMPLETE = "complete"
CAPPED = "capped"


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
    keeps the enumeration's own union-find and flat table, so building it
    copies nothing; ``rows`` numbers the live cosets in order and relabels
    their entries on first read.  ``index`` counts the live cosets, and
    ``defined`` every coset defined, those later merged away included; both
    are deterministic for fixed inputs.
    """

    def __init__(self, strands: int, status: str, parent: list[int], table: list[int]) -> None:
        self.strands = strands
        self.status = status
        self.defined = len(parent)
        self.index = sum(map(operator.eq, parent, range(len(parent))))
        self._parent = parent
        self._table = table

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        # A merge keeps the smaller coset and path halving points a coset at
        # an ancestor, so parent[c] <= c: it is labelled before c, with its
        # live coset's label.  The trailing -1 is label[-1], which keeps
        # unknown entries unknown.
        cols = 2 * (self.strands - 1)
        label, live_cosets = [], []
        for c, p in enumerate(self._parent):
            if p == c:
                label.append(len(live_cosets))
                live_cosets.append(c)
            else:
                label.append(label[p])
        label.append(-1)
        return tuple(tuple(label[x] for x in self._table[c * cols : (c + 1) * cols]) for c in live_cosets)


def todd_coxeter(
    strands: int,
    subgroup_words: list[BraidWord],
    max_cosets: int | None = None,
) -> tuple[int, CosetTable]:
    """Index and coset table of the subgroup the given words generate.

    Raises :class:`Inconclusive` when more than ``max_cosets`` cosets get
    defined before the table closes (default: ``orbit.DEFAULT_CAP``).
    """
    max_cosets = _resolve_cap(max_cosets)
    for word in subgroup_words:
        if word.strands != strands:
            raise ValueError("subgroup word strand count mismatch")
    presentation = braid_presentation(strands)
    cols = 2 * presentation.generators
    column = {e: d for d, e in enumerate(BraidWord.generator_letters(strands))}.__getitem__
    relators = [tuple(map(column, relator)) for relator in presentation.relators]
    words = [tuple(map(column, word.letters)) for word in subgroup_words]

    blank = [-1] * cols
    parent = [0]
    # Entry c * cols + d is the coset column d sends coset c to, -1 if unknown.
    table = blank[:]

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(c: int, d: int) -> None:
        if len(parent) >= max_cosets:
            message = f"no conclusion within {max_cosets} cosets"
            raise Inconclusive(message, max_cosets, CosetTable(strands, CAPPED, parent, table))
        v = len(parent)
        parent.append(v)
        table.extend(blank)
        table[c * cols + d] = v
        table[v * cols + (d ^ 1)] = c

    def merge(a: int, b: int) -> None:
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            parent[b] = a
            ra, rb = a * cols, b * cols
            for d in range(cols):
                nb = table[rb + d]
                if nb == -1:
                    continue
                na = table[ra + d]
                if na == -1:
                    table[ra + d] = nb
                else:
                    stack.append((na, nb))

    def scan_and_fill(c: int, word: tuple[int, ...]) -> None:
        """Close ``word``, a tuple of columns, at coset ``c``: merge where the
        scans meet, deduce a gap of one, define a coset in a wider gap."""
        f = b = find(c)
        i, j = 0, len(word) - 1
        while True:
            # Forward from c while entries are known ...
            while i <= j:
                x = table[f * cols + word[i]]
                if x == -1:
                    break
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                f = x
                i += 1
            # ... then backward from c, through the inverse columns.
            while j >= i:
                x = table[b * cols + (word[j] ^ 1)]
                if x == -1:
                    break
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                b = x
                j -= 1
            if j < i:
                if f != b:
                    merge(f, b)
                return
            if i == j:
                table[f * cols + word[i]] = b
                table[b * cols + (word[i] ^ 1)] = f
                return
            define(f, word[i])

    for word in words:
        scan_and_fill(0, word)

    scan = 0
    while scan < len(parent):
        if parent[scan] == scan:
            for relator in relators:
                scan_and_fill(scan, relator)
            if parent[scan] == scan:
                for d in range(cols):
                    if table[scan * cols + d] == -1:
                        define(scan, d)
        scan += 1

    result = CosetTable(strands, COMPLETE, parent, table)
    return result.index, result


class IntervalGenerationReport(_Record):
    """Whether the liftable interval powers of
    :func:`~diskcovers.lift.liftable_interval_powers` generate the liftable
    group of a covering.  The words are liftable by construction, so
    ``generates`` (coset index equal to orbit index) certifies that they
    generate it."""

    orbit_index: int
    tc_index: int
    generator_count: int
    generates: bool


def interval_powers_index(
    seq,
    max_word_length: int | None = None,
    max_cosets: int | None = None,
) -> IntervalGenerationReport:
    """Feed the liftable interval powers, with conjugators up to
    ``max_word_length`` long (``None``: the whole orbit spanning tree), to the
    coset enumerator and compare against the orbit index.

    One orbit search gives both the conjugators and the orbit index; it runs
    first, under ``max_cosets``, and raises
    :class:`~diskcovers.core.CapExceeded` past it.  The enumeration then runs
    under the same cap, as in :func:`todd_coxeter`.  With the whole tree,
    ``generates`` holds on every connected class with ``d <= 5`` and
    ``n <= 6``; the tests check all 26.
    """
    table = hurwitz_orbit(seq, max_cosets)
    generators = table.interval_powers(max_word_length)
    tc_index = todd_coxeter(seq.length, generators, max_cosets=max_cosets)[0]
    return IntervalGenerationReport(
        orbit_index=len(table),
        tc_index=tc_index,
        generator_count=len(generators),
        generates=tc_index == len(table),
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
    """Certify that the catalogued half-twist powers generate the liftable
    braid group of the canonical disk covering.

    Every generator word must fix the monodromy sequence (containment), and
    the coset count of the subgroup they generate must equal the orbit size
    (equality of indices).  A non-liftable word fails fast, skipping the
    enumeration.  ``max_cosets`` caps the enumeration, as in
    :func:`todd_coxeter`, and then the orbit search, which raises
    :class:`~diskcovers.core.CapExceeded` past it.  The enumeration runs
    first: liftable generators give a coset index at least the orbit size, so
    an orbit past the cap stops the enumeration first.
    """
    n = branch_points
    seq = disk_covering(n)
    generators = theorem_c_generators(n)
    all_liftable = all(is_liftable(seq, word) for word in generators)
    tc_index = todd_coxeter(n, generators, max_cosets=max_cosets)[0] if all_liftable else -1
    orbit_index = stabilizer_index(seq, max_cosets)
    return TheoremCReport(
        branch_points=n,
        generator_count=len(generators),
        all_liftable=all_liftable,
        orbit_index=orbit_index,
        tc_index=tc_index,
        passed=tc_index == orbit_index,
    )
