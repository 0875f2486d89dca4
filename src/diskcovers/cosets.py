"""Coset enumeration over the standard braid-group presentation.

A plain HLT-style Todd-Coxeter: subgroup generator words are traced at the
first coset, then every live coset gets each relator traced through it and
every generator column filled, with coincidences merged through a union-find
table (cf. the exposition at https://math.berkeley.edu/~kmill/notes/todd_coxeter.html).
Enumeration is deterministic for fixed inputs.  On completion the table is a
genuine permutation action on the cosets and the coset count is the
subgroup's index; past the coset cap the enumeration is abandoned as
inconclusive, which is all one can say for a possibly-infinite index.

One scan closes the table.  A merge keeps the smaller coset and new cosets
are numbered past the scan, so every coset live at the end was live, with
every relator closed and every column filled, when the scan reached it.  A
merge is a quotient: it keeps closed relators closed and defined entries
defined.  Subgroup words are closed at coset 0 before the scan, and coset 0
is never merged away.

The end-to-end verifier cross-checks the two independent index computations:
a subgroup of liftable braids has index equal to the orbit size of the
monodromy sequence, so catalogued generators generate the whole liftable
group exactly when the coset count matches the orbit count.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    parent = [0]
    table: list[list[int]] = [[-1] * cols]

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(c: int, d: int) -> int:
        if len(parent) >= max_cosets:
            raise Inconclusive(f"no conclusion within {max_cosets} cosets", max_cosets)
        v = len(parent)
        parent.append(v)
        table.append([-1] * cols)
        table[c][d] = v
        table[v][d ^ 1] = c
        return v

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
            for d in range(cols):
                nb = table[b][d]
                if nb == -1:
                    continue
                if table[a][d] == -1:
                    table[a][d] = nb
                else:
                    stack.append((table[a][d], nb))

    def follow(c: int, d: int) -> int:
        c = find(c)
        if table[c][d] == -1:
            define(c, d)
        return find(table[c][d])

    def trace(c: int, letters: tuple[int, ...]) -> int:
        for e in letters:
            c = follow(c, _column(e))
        return c

    def snapshot(status: str) -> tuple[int, CosetTable]:
        live_cosets = [c for c in range(len(parent)) if find(c) == c]
        renumber = {c: i for i, c in enumerate(live_cosets)}
        rows = tuple(
            tuple(
                -1 if table[c][d] == -1 else renumber[find(table[c][d])]
                for d in range(cols)
            )
            for c in live_cosets
        )
        return len(live_cosets), CosetTable(strands=strands, rows=rows, status=status)

    try:
        for word in subgroup_words:
            merge(trace(0, word.letters), find(0))

        scan = 0
        while scan < len(parent):
            if find(scan) == scan:
                for relator in presentation.relators:
                    merge(trace(scan, relator), find(scan))
                if find(scan) == scan:
                    for d in range(cols):
                        follow(scan, d)
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
