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
index.  The table is one flat list, indexed ``coset * columns + column``.

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

from dataclasses import dataclass, field

from .core import disk_covering
from .hurwitz import BraidWord
from .lift import is_liftable, theorem_c_generators
from .orbit import enumeration_bound, stabilizer_index

COMPLETE = "complete"
CAPPED = "capped"

DEFAULT_MAX_COSETS = 100_000


class Inconclusive(RuntimeError):
    """Enumeration hit the coset cap; the index may be infinite.

    Carries the cap and, when raised by :func:`todd_coxeter`, a snapshot of
    the partial table with status ``CAPPED``.
    """

    def __init__(self, message: str, cap: int, table: "CosetTable | None" = None):
        super().__init__(message)
        self.cap = cap
        self.table = table


@dataclass(frozen=True)
class Presentation:
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


@dataclass(frozen=True)
class CosetTable:
    """Action of the generators on the cosets, one row per coset.

    Row ``c`` holds, per column, the coset reached from ``c``; columns come in
    pairs (generator, inverse) for generators ``1 .. strands - 1``.
    """

    strands: int
    rows: tuple[tuple[int, ...], ...]
    status: str
    #: Cosets defined during the enumeration, those later merged away
    #: included; deterministic for fixed inputs, and not part of equality.
    defined: int = field(default=0, compare=False)

    @property
    def index(self) -> int:
        return len(self.rows)


def _column(letter: int) -> int:
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def todd_coxeter(
    strands: int,
    subgroup_words: list[BraidWord],
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> tuple[int, CosetTable]:
    """Index and coset table of the subgroup the given words generate.

    Raises :class:`Inconclusive` when more than ``max_cosets`` cosets get
    defined before the table closes.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    for word in subgroup_words:
        if word.strands != strands:
            raise ValueError("subgroup word strand count mismatch")
    presentation = braid_presentation(strands)
    cols = 2 * presentation.generators
    relators = [tuple(_column(e) for e in relator) for relator in presentation.relators]
    words = [tuple(_column(e) for e in word.letters) for word in subgroup_words]

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
            raise Inconclusive(f"no conclusion within {max_cosets} cosets", max_cosets)
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

    def snapshot(status: str) -> tuple[int, CosetTable]:
        # label[c] numbers the live coset of c; a merge keeps the smaller
        # coset, so find(c) <= c is labelled first.  The trailing -1 is
        # label[-1], which keeps unknown entries unknown.
        live_cosets: list[int] = []
        label: list[int] = []
        for c in range(len(parent)):
            root = find(c)
            if root == c:
                label.append(len(live_cosets))
                live_cosets.append(c)
            else:
                label.append(label[root])
        label.append(-1)
        rows = tuple(tuple(label[x] for x in table[c * cols : (c + 1) * cols]) for c in live_cosets)
        return len(rows), CosetTable(strands=strands, rows=rows, status=status, defined=len(parent))

    try:
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
    except Inconclusive as exc:
        _, exc.table = snapshot(CAPPED)
        raise

    return snapshot(COMPLETE)


@dataclass(frozen=True)
class IntervalGenerationReport:
    """Whether short-word liftable interval powers enumerate to the full
    liftable group of an arbitrary covering (exploratory, no completeness
    claim beyond the canonical disk coverings)."""

    orbit_index: int
    tc_index: int
    generator_count: int
    generates: bool


def interval_powers_index(
    seq,
    max_word_length: int = 3,
    max_cosets: int | None = None,
) -> IntervalGenerationReport:
    """Feed the liftable powers of all short-word intervals to the coset
    enumerator and compare against the orbit index."""
    from .lift import liftable_interval_powers

    if max_cosets is None:
        max_cosets = max(64 * enumeration_bound(seq.degree, seq.length), 64)
    generators = liftable_interval_powers(seq, max_word_length)
    orbit_index = stabilizer_index(seq)
    tc_index, _ = todd_coxeter(seq.length, generators, max_cosets=max_cosets)
    return IntervalGenerationReport(
        orbit_index=orbit_index,
        tc_index=tc_index,
        generator_count=len(generators),
        generates=tc_index == orbit_index,
    )


@dataclass(frozen=True)
class TheoremCReport:
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
    enumeration.  :class:`Inconclusive` propagates from the enumeration.
    """
    n = branch_points
    seq = disk_covering(n)
    if max_cosets is None:
        max_cosets = max(64 * enumeration_bound(seq.degree, n), 64)
    generators = theorem_c_generators(n)
    all_liftable = all(is_liftable(seq, word) for word in generators)
    orbit_index = stabilizer_index(seq)
    if not all_liftable:
        return TheoremCReport(n, len(generators), False, orbit_index, -1, False)
    tc_index, _ = todd_coxeter(n, generators, max_cosets=max_cosets)
    return TheoremCReport(
        branch_points=n,
        generator_count=len(generators),
        all_liftable=True,
        orbit_index=orbit_index,
        tc_index=tc_index,
        passed=tc_index == orbit_index,
    )
