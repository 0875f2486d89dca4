"""Combinatorial encodings of simple branched coverings of the disk.

A simple branched covering of the disk with ``d`` sheets and ``n`` branch
points is determined, up to equivalence, by the sequence of transpositions
that a fundamental system of curves reads off, one transposition per branch
point.  This module provides that sequence type together with its classical
invariants (total boundary monodromy, cycle type, components, Euler
characteristic, boundary count, genus), the equivalence test for connected
coverings, and the canonical sequence representing each equivalence class.

Conventions used throughout the package:

- sheets and branch points are numbered from 1;
- permutations compose left to right: ``(k)(s * t) == ((k)s)t``;
- transpositions are stored with the smaller sheet first.

Packed encoding.  The braid action and restriction run on tuples of ints, the
orbit search on those tuples read as integers.  On ``d`` sheets the
transposition ``(a b)`` with ``a < b`` is packed as its position in the
lexicographic list ``(1 2), (1 3), ..., (d-1 d)`` of all pairs, and a sequence
as the tuple of its packed entries.  Pair order is the order of
transpositions, which compare as the tuples ``(a, b)``, so packed tuples sort
as the sequences they encode.  A ``MonodromySequence`` stores only its
degree and packed tuple, ``_packed``: ``from_pairs`` packs each pair in the
pass that checks it, the public constructor packs through it, ``_unpack``
keeps the tuple it is given, and ``entries`` is read off the tuple, so no
sequence is packed twice.  The tables of one degree (``_tables``, a bounded
cache) are plain tuples built whole for a small degree, d <= 16, which the
hot loops read fastest; for a larger degree they are filled one entry at a
time on first lookup, so their size follows the transpositions met, not the
degree.  Both forms are read alike.  The invariants that classification
reads run on the same form: ``is_connected`` counts the joins of the one
union-find (``_union_find``) over the pairs of the packed entries, and
``components`` reads its blocks off it; ``canonical_target`` writes its
runs of ``(k k+1)``, packed as ``(k-1)(2d-k)/2``, once per class, into a
bounded memo.  Cycle types are read by one walk, ``_walk``, over a list
of images: the list that ``_product``, the package's one product loop,
fills, or a copy of a permutation's tuple.  It gives the nontrivial cycle
lengths, longest first, or every cycle with its fixed points.  ``omega_class`` and ``is_equivalent`` walk the product's
list, and ``is_equivalent`` compares degree, length and the walked lengths;
the cycles, cycle type and orbit count of a permutation, the boundary
circles of ``surface_invariants`` and the relabel of ``canonicalize``
(``_target_relabel``) come from the same walk.  None of them builds a
record it does not return, which took ``perfbench`` ``classify`` from 0.140
to 0.102 s per pass (normalized; CPython 3.11, 2 shared vCPUs) when the
cycles were first read off the image tuple, and again from 0.0817 to
0.0735 s (-9.9%, lower in 10 of 10 pairs) once the walk replaced the tuple
of cycles and the ``CycleType`` that ``is_equivalent`` built for each
argument.
The public types validate whatever a caller builds; the package builds its
results, from validated values only, with each type's unchecked
constructor ``T._unchecked`` (see ``_Record``).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate
from math import isqrt
from operator import index

# Type checkers read these names; at run time annotations stay strings, and
# importing ``typing`` would cost each command-line process about 4 ms.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Iterator


class NotRealizable(ValueError):
    """No connected covering exists with the requested invariants."""


class DisconnectedCoveringError(ValueError):
    """Raised by operations that are only defined for connected coverings."""


class CapExceeded(RuntimeError):
    """An enumeration grew past the caller's cap."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


class _RecordType(type):
    """Makes each record class's ``__slots__`` its own annotated names."""

    def __new__(mcls, name: str, bases: tuple, namespace: dict, **kwargs: object) -> type:
        namespace["__slots__"] = tuple(namespace.get("__annotations__", ()))
        return super().__new__(mcls, name, bases, namespace, **kwargs)


class _Written:
    """A record method that ``_Record`` writes, standing in for it until its
    first lookup.  That lookup writes the method from its source with
    ``exec``, sets it on the class in the stand-in's place and returns it
    bound as the method itself would be; a stand-in kept from before, such as
    ``vars(T)[name]``, calls the method it wrote, never writing it twice."""

    __slots__ = ("owner", "name", "source", "namespace", "method")

    def __init__(self, owner: type, name: str, source: str, namespace: dict) -> None:
        self.owner, self.name, self.source, self.namespace, self.method = owner, name, source, namespace, None

    def written(self) -> object:
        if self.method is None:
            found: dict = {}
            exec(self.source, self.namespace, found)
            self.method = found[self.name]
            setattr(self.owner, self.name, self.method)
        return self.method

    def __get__(self, obj: object, cls: type | None = None) -> object:
        return self.written().__get__(obj, cls)

    def __call__(self, *args: object, **kwargs: object) -> object:
        return self.written()(*args, **kwargs)


class _Record(metaclass=_RecordType):
    """Base of the package's value types: immutable records of named fields.

    A subclass's fields are its own annotated names, in order, apart from
    those that start with ``_``, unless it names them as ``__match_args__``.
    ``class T(_Record, order=True)`` gets the methods that
    ``@dataclass(frozen=True, order=True)`` would give it, each written as
    source on its first use (below): ``__init__`` taking the fields by
    position or name, storing those that are slots and then calling
    ``__post_init__`` if the class has one, with the others, as a dataclass
    passes its ``InitVar`` fields; ``__hash__`` on the tuple of the fields,
    ``__repr__`` ``T(f1=..., f2=...)`` and ``__match_args__``; ``__eq__``,
    and with ``order=True`` ``<``, ``<=``, ``>`` and ``>=``, on the tuple of
    the slots, which are the fields unless a field is read off a private
    slot, as ``MonodromySequence.entries`` is off ``_packed``.
    Equality and order hold between instances of one class only.  Every
    method reads its fields by name, so a call costs what the dataclass's
    costs; methods that read the field names at call time were 1.7-3 times
    slower.  Assignment and deletion raise ``AttributeError``.  A method
    that the class body defines itself is kept, as
    ``MonodromySequence.__hash__`` is; a ``__hash__`` that Python sets to
    None, in a class body that defines ``__eq__``, counts as not defined.

    Each method is written on first use.  When the class is made, each is
    kept as its source behind a stand-in, ``_Written``, in the class's
    namespace.  The first lookup of the method, on the class or an instance,
    which a call, ``repr``, ``hash``, a comparison or
    ``inspect.signature(T)`` makes, runs ``exec`` on that source and puts
    the method in the stand-in's place, so later lookups find the method
    itself and a call costs what it did when every method was written with
    its class.  A process thus compiles only the methods it uses: an
    ``invariants`` command writes 6 of the 51 that its modules' records
    define.  A fresh ``import diskcovers`` went from 20.6 to 18.3 ms
    without compiled bytecode and from 7.1 to 3.0 ms with it (medians of
    31 alternating runs, CPython 3.11, 2 shared vCPUs).

    Each type also gets the classmethod ``T._unchecked``, for the package's
    own results built from validated values: it takes every annotated name,
    ``_``-prefixed ones included, by position, and skips ``__post_init__``.

    Both constructors store each slot through the class's own slot
    descriptor: the written code calls ``cls.__dict__[name].__set__``, bound
    into its globals as ``_set_<name>``, where ``object.__setattr__`` would
    look the name up on the class on every store.  Per call (the least of 8
    alternating processes, ``timeit``, CPython 3.11, 2 shared vCPUs),
    ``MonodromySequence._unchecked`` went from 551 to 412 ns,
    ``BraidWord._unchecked`` from 426 to 347 ns, ``Permutation._unchecked``
    from 322 to 280 ns and ``Transposition(2, 1)``, whose ``__post_init__``
    stores its swap the same way, from 683 to 511 ns.

    Every annotated name, ``_``-prefixed ones included, is a slot:
    ``_RecordType`` makes them the class's ``__slots__``, so a value stored
    as ``_name``, such as ``_packed``, is a slot too.  An instance is one
    object, with no ``__dict__`` and no values array, 40 bytes less per
    record than the per-instance dict layout, and certification holds tens
    of thousands of words at once.  Per instance, its field values shared
    (CPython 3.11, ``tracemalloc``): ``Permutation`` 40 bytes, ``BraidWord``
    52, ``MonodromySequence`` 48, down from 56 when it also stored its
    entries; with its own packed tuple, a 7-entry sequence takes 144 bytes,
    down from 248 with its tuple of entries.

    ``copy``, ``deepcopy`` and ``pickle`` rebuild a record through
    ``_unchecked``, since assignment is refused: ``__reduce__``, a plain
    method of this base, returns ``self._unchecked`` with the slots.  That
    lookup writes ``_unchecked`` if nothing has called it yet, and the
    bound classmethod pickles by name, as ``getattr(T, "_unchecked")``, so
    a record pickled before its class's first ``_unchecked`` call loads in
    any process.  Records take no weak references; nothing in the package
    makes one.
    """

    def __init_subclass__(cls, order: bool = False) -> None:
        stored = cls.__slots__
        fields = cls.__dict__.get("__match_args__") or tuple(name for name in stored if not name.startswith("_"))
        mine, theirs = ("".join(f"{who}.{name}, " for name in stored) for who in ("self", "other"))
        shown = ", ".join(f"{name}={{self.{name}!r}}" for name in fields)
        passed = ", ".join(name for name in fields if name not in stored)
        sources = {
            "__init__": [
                f"def __init__(self, {', '.join(fields)}):",
                *(f"    _set_{name}(self, {name})" for name in fields if name in stored),
                f"    self.__post_init__({passed})" if hasattr(cls, "__post_init__") else "    pass",
            ],
            "_unchecked": [
                "@classmethod",
                f"def _unchecked(cls, {', '.join(stored)}):",
                "    self = _new(cls)",
                *(f"    _set_{name}(self, {name})" for name in stored),
                "    return self",
            ],
            "__repr__": ["def __repr__(self):", f"    return f'{cls.__qualname__}({shown})'"],
            "__hash__": [
                "def __hash__(self):",
                f"    return hash(({''.join(f'self.{name}, ' for name in fields)}))",
            ],
        }
        comparisons = {"__eq__": "=="}
        if order:
            comparisons.update(__lt__="<", __le__="<=", __gt__=">", __ge__=">=")
        for name, op in comparisons.items():
            sources[name] = [
                f"def {name}(self, other):",
                "    if other.__class__ is self.__class__:",
                f"        return ({mine}) {op} ({theirs})",
                "    return NotImplemented",
            ]
        namespace = {"_new": object.__new__, **{f"_set_{name}": cls.__dict__[name].__set__ for name in stored}}
        for name, lines in sources.items():
            if cls.__dict__.get(name) is None:  # absent, or the None that __eq__ leaves as __hash__
                setattr(cls, name, _Written(cls, name, "\n".join(lines), namespace))
        cls.__match_args__ = fields

    def __reduce__(self) -> tuple:
        return self._unchecked, tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Permutation(_Record, order=True):
    """A permutation of the sheets ``{1, ..., d}`` stored as a tuple of images.

    ``images[k - 1]`` is the image of sheet ``k``.  Composition is left to
    right, matching the right-action style used for everything else:

    >>> s = Transposition(1, 2).as_permutation(3)
    >>> t = Transposition(2, 3).as_permutation(3)
    >>> (s * t)(1)
    3
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images!r}")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(1, degree + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, sheet: int) -> int:
        return self.images[sheet - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("cannot compose permutations of different degrees")
        return Permutation(tuple(other.images[v - 1] for v in self.images))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for k, v in enumerate(self.images, start=1):
            images[v - 1] = k
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.images, start=1))

    def cycles(self, include_fixed: bool = False) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its least sheet, ordered by that sheet."""
        return tuple(sorted([tuple(c) for c in _walk(list(self.images), True) if include_fixed or len(c) > 1]))

    def cycle_type(self) -> "CycleType":
        return CycleType._unchecked(tuple(_walk(list(self.images))), self.degree)

    def orbit_count(self) -> int:
        """Number of cycles, fixed points included."""
        return len(_walk(list(self.images), True))


class Transposition(_Record, order=True):
    """An unordered swap of two distinct sheets, stored with ``a < b``."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"degenerate transposition ({self.a} {self.b})")
        if self.a > self.b:
            a, b = self.a, self.b
            _set_a(self, b)
            _set_b(self, a)
        if self.a < 1:
            raise ValueError(f"sheet indices start at 1: ({self.a} {self.b})")

    @property
    def sheets(self) -> tuple[int, int]:
        return (self.a, self.b)

    def __call__(self, sheet: int) -> int:
        if sheet == self.a:
            return self.b
        if sheet == self.b:
            return self.a
        return sheet

    def image_under(self, other: "Transposition") -> "Transposition":
        """The conjugate transposition, swapping the images of the sheets.

        Transpositions are involutions, so conjugating on either side gives
        the same result: the swap of ``other(a)`` and ``other(b)``.
        """
        return Transposition(other(self.a), other(self.b))

    def is_disjoint_from(self, other: "Transposition") -> bool:
        return self.a != other.a and self.a != other.b and self.b != other.a and self.b != other.b

    def as_permutation(self, degree: int) -> Permutation:
        if self.b > degree:
            raise ValueError(f"({self.a} {self.b}) does not act on {degree} sheets")
        images = list(range(1, degree + 1))
        images[self.a - 1], images[self.b - 1] = self.b, self.a
        return Permutation(tuple(images))


# The slot setters that ``__post_init__`` stores through, as the written
# constructors do (see ``_Record``).
_set_a, _set_b = Transposition.__dict__["a"].__set__, Transposition.__dict__["b"].__set__


class CycleType(_Record):
    """Nontrivial cycle lengths of a permutation, sorted descending.

    Fixed points are omitted; the ambient degree is carried separately so
    that cycle types of coverings with different sheet counts never compare
    equal by accident.
    """

    parts: tuple[int, ...]
    degree: int

    def __post_init__(self) -> None:
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError(f"cycle lengths must be sorted descending: {self.parts!r}")
        if self.parts and min(self.parts) < 2:
            raise ValueError(f"nontrivial cycles have length >= 2: {self.parts!r}")
        if sum(self.parts) > self.degree:
            raise ValueError(f"cycle lengths {self.parts!r} exceed degree {self.degree}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    @property
    def partial_sums(self) -> tuple[int, ...]:
        out, total = [], 0
        for p in self.parts:
            total += p
            out.append(total)
        return tuple(out)


class MonodromySequence(_Record, order=True):
    """The monodromy data of a simple branched covering of the disk.

    ``degree`` counts the sheets; ``entries`` lists, in order, the
    transposition read off around each branch point.  Instances are immutable
    and hashable, so they can serve as dictionary keys during orbit
    enumeration.  An instance stores only ``degree`` and the packed entries
    ``_packed`` (see the module docstring): ``entries`` is read off them, as
    the interned transpositions of the degree, and equality and order
    compare ``(degree, _packed)``, which order as ``(degree, entries)``
    does.  ``MonodromySequence._unchecked(degree, packed)`` takes the
    packed form.
    """

    degree: int
    _packed: tuple[int, ...]
    __match_args__ = ("degree", "entries")

    def __post_init__(self, entries: tuple[Transposition, ...]) -> None:
        _set_packed(self, MonodromySequence.from_pairs(self.degree, [t.sheets for t in entries])._packed)

    @classmethod
    def from_pairs(cls, degree: int, pairs: Iterable[tuple[int, int]]) -> "MonodromySequence":
        """The sequence of the sheet pairs, each in either order, checked and
        packed in one pass.  Each pair is checked as ``Transposition(a, b)``
        checks it, then the degree, then the first pair past the degree."""
        packed, past = [], None
        for a, b in pairs:
            if a == b or (b if a > b else a) < 1:
                Transposition(a, b)  # raises
            if a > b:
                a, b = b, a
            if b > degree and past is None:
                past = f"entry ({a} {b}) exceeds degree {degree}"
            packed.append((a - 1) * (2 * degree - a) // 2 + b - a - 1)
        _tables(degree)  # raises for a degree below 1
        if past is not None:
            raise ValueError(past)
        return cls._unchecked(degree, tuple(packed))

    @property
    def entries(self) -> tuple[Transposition, ...]:
        return tuple(map(_tables(self.degree).interned.__getitem__, self._packed))

    @property
    def length(self) -> int:
        return len(self._packed)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(_tables(self.degree).pairs.__getitem__, self._packed))

    def __hash__(self) -> int:
        # The hash of (degree, entries), whose transpositions hash as their
        # pairs, with no Transposition read.
        return hash((self.degree, self.pairs()))

    def renumber_sheets(self, relabel: Permutation) -> "MonodromySequence":
        """Apply a sheet renumbering to every entry simultaneously."""
        if relabel.degree != self.degree:
            raise ValueError("relabelling permutation degree mismatch")
        return _unpack(self.degree, _renumbered(self.degree, self._packed, relabel.images))

    def is_connected(self) -> bool:
        pairs = _tables(self.degree).pairs
        return _union_find(self.degree + 1, map(pairs.__getitem__, self._packed))[1] == self.degree - 1


# The slot setter that ``__post_init__`` stores the packed entries through.
_set_packed = MonodromySequence.__dict__["_packed"].__set__


class ComponentSignature(_Record):
    """The partition of the sheets into components, with branch counts.

    Each block is a pair ``(sheets, branch_points)`` where ``sheets`` is the
    sorted tuple of sheet numbers of one component of the covering surface
    and ``branch_points`` counts the entries supported inside it.  Blocks are
    ordered by their least sheet.
    """

    blocks: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def count(self) -> int:
        return len(self.blocks)

    def singleton_sheets(self) -> tuple[int, ...]:
        return tuple(sheets[0] for sheets, _ in self.blocks if len(sheets) == 1)


class ComponentInvariants(_Record):
    """The invariants of one component of the covering surface, on its sheets."""

    sheets: tuple[int, ...]
    euler: int
    boundary: int
    genus: int


class SurfaceInvariants(_Record):
    """Topological invariants of the covering surface.

    ``euler`` is the Euler characteristic ``d - n``; ``boundary`` counts the
    boundary circles, one per cycle (fixed points included) of the total
    monodromy; ``per_component`` refines both over the components.
    """

    euler: int
    boundary: int
    per_component: tuple[ComponentInvariants, ...]


def total_monodromy(seq: MonodromySequence) -> Permutation:
    """The monodromy of the boundary of the disk: the left-to-right product of
    all entries.

    >>> total_monodromy(MonodromySequence.from_pairs(3, [(1, 2), (2, 3)])).images
    (3, 1, 2)
    """
    return Permutation._unchecked(tuple(_product(seq.degree, seq._packed)))


def omega_class(seq: MonodromySequence) -> CycleType:
    """Cycle type of the total monodromy: the classifying invariant for
    connected coverings of fixed degree and branch count.  Its parts are
    walked off the product's list of images, with no ``Permutation`` and
    no tuple of cycles built on the way.

    >>> omega_class(MonodromySequence.from_pairs(4, [(1, 2), (2, 3), (1, 2)]))
    CycleType(parts=(2,), degree=4)
    """
    return CycleType._unchecked(tuple(_walk(_product(seq.degree, seq._packed))), seq.degree)


def components(seq: MonodromySequence) -> ComponentSignature:
    """Partition the sheets into orbits of the subgroup generated by the
    entries, counting the branch points supported in each block."""
    edges = list(map(_tables(seq.degree).pairs.__getitem__, seq._packed))
    root = _union_find(seq.degree + 1, edges)[0]
    # Sheets ascend and each block is named by its least sheet, so the
    # blocks are made in order.
    blocks: dict[int, list[int]] = {}
    for sheet in range(1, seq.degree + 1):
        blocks.setdefault(root[sheet], []).append(sheet)
    counts = dict.fromkeys(blocks, 0)
    for a, _ in edges:
        counts[root[a]] += 1
    return ComponentSignature._unchecked(tuple([(tuple(sheets), counts[r]) for r, sheets in blocks.items()]))


def surface_invariants(seq: MonodromySequence) -> SurfaceInvariants:
    """Euler characteristic, boundary count and genus of the covering surface,
    globally and per component."""
    return _surface_invariants(seq, _walk(_product(seq.degree, seq._packed), True), components(seq))


def _surface_invariants(
    seq: MonodromySequence, circles: list[list[int]], sig: ComponentSignature
) -> SurfaceInvariants:
    """:func:`surface_invariants` from the sequence's boundary circles, the
    cycles of its total monodromy as ``_walk`` lists them with fixed points,
    and its components, for callers that report those too.  Each circle is
    counted on the component of its least sheet."""
    block = {sheet: b for b, (sheets, _) in enumerate(sig.blocks) for sheet in sheets}
    boundary = [0] * len(sig.blocks)
    for cycle in circles:
        b = block[cycle[0]]
        # The total monodromy preserves each component, so its cycles within
        # the block count that component's boundary circles.
        assert all(block[k] == b for k in cycle), "total monodromy must preserve components"
        boundary[b] += 1
    per_component = []
    for (sheets, branch_count), count in zip(sig.blocks, boundary):
        euler = len(sheets) - branch_count
        genus2 = 2 - count - euler
        assert genus2 >= 0 and genus2 % 2 == 0, "component genus must be a nonnegative integer"
        per_component.append(ComponentInvariants(sheets, euler, count, genus2 // 2))
    return SurfaceInvariants(seq.degree - seq.length, len(circles), tuple(per_component))


def _require_connected(seq: MonodromySequence, what: str) -> None:
    if not seq.is_connected():
        raise DisconnectedCoveringError(f"{what} is only defined for connected coverings")


def is_equivalent(seq: MonodromySequence, other: MonodromySequence) -> bool:
    """Whether two connected coverings are equivalent: same degree, same
    number of branch points and the same total-monodromy cycle type.

    Both are checked to be connected first, ``seq`` then ``other``, so a
    disconnected argument raises :class:`DisconnectedCoveringError` even
    when the degrees differ.  The cycle types are compared as the parts
    walked off each product's list of images, with no record built.
    """
    _require_connected(seq, "equivalence")
    _require_connected(other, "equivalence")
    return (
        seq.degree == other.degree
        and seq.length == other.length
        and _walk(_product(seq.degree, seq._packed)) == _walk(_product(other.degree, other._packed))
    )


def is_disk(seq: MonodromySequence) -> bool:
    """Whether a connected covering surface is a disk, i.e. the degree exceeds
    the branch count by exactly one."""
    _require_connected(seq, "the disk test")
    return seq.degree == seq.length + 1


def disk_covering(branch_points: int) -> MonodromySequence:
    """The canonical disk-over-disk covering with ``n`` branch points:
    the chain (1 2), (2 3), ..., (n n+1) on n + 1 sheets."""
    if branch_points < 0:
        raise ValueError("branch point count must be nonnegative")
    return MonodromySequence.from_pairs(
        branch_points + 1, [(i, i + 1) for i in range(1, branch_points + 1)]
    )


def canonical_target(degree: int, length: int, omega: CycleType | Iterable[int]) -> MonodromySequence:
    """The canonical connected sequence with the given degree, length and
    total-monodromy cycle type.

    The sequence consists of chains realising each cycle, separated by pairs
    of equal transpositions, followed by a ladder of pairs climbing to the
    last sheet and a run of repeated pairs on the top two sheets.  Every entry
    is some ``(j-1 j)``, in ascending j, so the sequence is
    ``(1 2)^q_2 (2 3)^q_3 ... (d-1 d)^q_d`` with each ``q_j`` 1 or 2 below the
    top block: the shape :func:`diskcovers.hurwitz.canonicalize` reduces to.  Raises
    :class:`NotRealizable` when no connected covering has these invariants
    (pair count negative, parity mismatch, or no entries to connect more
    than one sheet).

    Each class's target is built once per process: ``_target`` keeps the
    last 64 it built (``lru_cache``), keyed by the degree, the length and
    the parts, sorted, each read as an int by ``operator.index``, so a bool
    builds the target of its int.  A ``CycleType`` is keyed by its parts,
    once its degree is checked.  A target's packed tuple repeats one int
    per run, so an entry takes about 8 bytes per branch point: 64 targets
    of the command line's longest, 200,000 branch points, would hold about
    100 MB.  An input that is rejected raises on every call, since
    the cache keeps no exception; one that ``operator.index`` refuses, such
    as a part ``3.0``, is built uncached and raises as it always has.
    """
    if degree < 1 or length < 0:
        raise ValueError("degree must be positive and length nonnegative")
    if not isinstance(omega, CycleType):
        parts = sorted(omega, reverse=True)
    elif omega.degree != degree:
        raise ValueError(f"cycle type degree {omega.degree} != covering degree {degree}")
    else:
        parts = omega.parts
    try:
        key = index(degree), index(length), tuple(map(index, parts))
    except TypeError:  # not an int, such as 3.0: built uncached
        return _target.__wrapped__(degree, length, tuple(parts))
    return _target(*key)


@lru_cache(maxsize=64)
def _target(degree: int, length: int, parts: tuple[int, ...]) -> MonodromySequence:
    """:func:`canonical_target` of a positive degree, a nonnegative length
    and parts sorted descending, which it checks as ``CycleType`` does."""
    CycleType(parts, degree)  # raises for a part below 2 or parts past the degree
    m, l_last = len(parts) or 1, sum(parts) or 1
    if (length - m + l_last) % 2 != 0:
        raise NotRealizable(
            f"parity mismatch: no product of {length} transpositions has cycle type {parts}"
        )
    tail_pairs = (length - m + l_last) // 2 - degree + 1
    if tail_pairs < 0:
        raise NotRealizable(
            f"too few branch points to connect {degree} sheets with cycle type {parts}"
        )
    if degree == 1 and length > 0:
        raise NotRealizable("a single sheet admits no transpositions")

    # copies[k] copies of (k k+1), packed as (k-1)(2d-k)/2: one inside a
    # cycle's block, two at the end of a block and above the last one.
    copies = [2] * degree
    for s, c in zip(accumulate((0, *parts)), parts):
        copies[s + 1 : s + c] = [1] * (c - 1)
    copies[-1] += 2 * tail_pairs
    packed: list[int] = []
    for k in range(1, degree):
        packed += [(k - 1) * (2 * degree - k) // 2] * copies[k]
    assert len(packed) == length, "canonical construction must produce the requested length"
    return MonodromySequence._unchecked(degree, tuple(packed))


def _target_relabel(images: list[int]) -> tuple[CycleType, Permutation]:
    """The cycle type of the permutation with ``images``, a list that the
    walk spends and the relabel is written into, and the relabel that
    :func:`conjugating_permutation` builds from it to the product of its
    canonical target, read off the target's layout: part c on the sheets
    s+1..s+c is the cycle (s+1, s+c, s+c-1, ..., s+2), the blocks come
    longest first, then the fixed sheets, and pairs of equal entries
    multiply to 1.  That is the order the walk returns the cycles in."""
    cycles = _walk(images, True)
    s = 0
    for cycle in cycles:
        for j, sheet in enumerate(cycle):  # to s + 1, then s + c down to s + 2
            images[sheet - 1] = s + 1 + (-j) % len(cycle)
        s += len(cycle)
    parts = tuple([len(c) for c in cycles if len(c) > 1])
    return CycleType._unchecked(parts, len(images)), Permutation._unchecked(tuple(images))


def conjugating_permutation(source: Permutation, target: Permutation) -> Permutation:
    """A permutation ``r`` with ``r.inverse() * source * r == target``.

    Built by matching the cycles of the two permutations, longest first and
    ties broken by least sheet, so the choice is deterministic.  Raises
    ``ValueError`` when the cycle types differ.
    """
    # With fixed points as cycles, the lengths in this order are the cycle
    # type and the degree together.
    sources, targets = _walk(list(source.images), True), _walk(list(target.images), True)
    if list(map(len, sources)) != list(map(len, targets)):
        raise ValueError("permutations with different cycle types are not conjugate")
    images = [0] * source.degree
    for src, dst in zip(sources, targets):
        for a, b in zip(src, dst):
            images[a - 1] = b
    return Permutation._unchecked(tuple(images))


# --- the packed encoding and the helpers shared by the hot paths -------------

class _Lazy(dict):
    """A dict that fills a missing key with ``make(key)`` on its first lookup."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _Tables:
    """Lookup tables of the packed encoding on one degree.

    ``pairs[t]`` is the pair ``(a, b)``, ``pairs0[t]`` the 0-based pair
    ``(a - 1, b - 1)``, ``interned[t]`` its one ``Transposition``, and
    ``conj[t][u]`` is t conjugated by u, the swap of ``u(a)`` and ``u(b)``.
    Renumbering sheets by u is conjugating by u.  ``index_of[a][b]`` is
    ``index(a, b)`` for two distinct sheets, in either order, without the
    method call.  ``identity`` is the tuple ``(1, ..., d)``, which the
    kernels copy to start a list of images indexed by the 0-based pairs.

    Their form is a property of the degree.  A degree whose conjugation table
    has at most 2^14 entries, that is d <= 16 (C(16, 2)^2 = 14,400), gets all
    five built whole, as plain tuples, on first use: the build takes well
    under 1 ms, and CPython reads tuples faster than dict subclasses.  A larger
    degree fills them one entry at a time on first lookup, so they grow with
    the transpositions a caller meets, not with the ``d(d-1)/2`` pairs.  Both
    forms are read alike, ``pairs[t]`` and ``conj[t][u]``.

    ``steps``, the braid step on the ranks of :mod:`diskcovers.orbit`, has
    the same two forms, but is built on first read: ``steps[t * size + u]``,
    with ``size`` the number C(d, 2) of pairs, is what ``hurwitz._act``'s rule
    adds, for ``x_i`` and its inverse, in units of position i's weight, when
    the digits at 0-based positions i - 1, i are t, u.  It is built whole
    only up to 2^10 windows, that is d <= 8 (C(8, 2)^2 = 784): one orbit
    search meets few of the C(d, 2)^2 windows of a larger degree, and
    building them all can cost more than the search.
    """

    def __init__(self, degree: int) -> None:
        self.degree = degree
        self.size = size = degree * (degree - 1) // 2
        self.identity = tuple(range(1, degree + 1))
        if size * size > 1 << 14:
            self.pairs, self.pairs0, self.interned, self.conj, self.index_of = self._lazy()
            return
        self.pairs = tuple(map(self._pair, range(size)))
        self.pairs0 = tuple([(a - 1, b - 1) for a, b in self.pairs])
        self.interned = tuple(Transposition._unchecked(a, b) for a, b in self.pairs)
        self.conj = tuple(map(self._conj_row, range(size)))
        sheets = range(degree + 1)  # row and column 0, and the diagonal, are never read
        self.index_of = tuple(tuple(self.index(a, b) for b in sheets) for a in sheets)

    def _lazy(self) -> tuple[_Lazy, _Lazy, _Lazy, _Lazy, _Lazy]:
        """``pairs``, ``pairs0``, ``interned``, ``conj`` and ``index_of`` in
        the lazily filled form."""
        pairs = _Lazy(self._pair)
        pairs0 = _Lazy(lambda t: (pairs[t][0] - 1, pairs[t][1] - 1))
        interned = _Lazy(lambda t: Transposition._unchecked(*pairs[t]))
        conj = _Lazy(lambda t: _Lazy(lambda u: self._conj(t, u)))
        return pairs, pairs0, interned, conj, _Lazy(lambda a: _Lazy(lambda b: self.index(a, b)))

    @cached_property
    def steps(self) -> tuple[tuple[int, int], ...] | _Lazy:
        if self.size * self.size > 1 << 10:
            return _Lazy(self._step)
        return tuple(map(self._step, range(self.size * self.size)))

    def _step(self, window: int) -> tuple[int, int]:
        # x_i turns digits t, u into u, conj[t][u]; its inverse into conj[u][t], t.
        size, conj = self.size, self.conj
        t, u = divmod(window, size)
        return (u - t) * size + conj[t][u] - u, (conj[u][t] - t) * size + t - u

    def index(self, a: int, b: int) -> int:
        """The packed transposition (a b) of two distinct sheets."""
        if a > b:
            a, b = b, a
        return (a - 1) * (2 * self.degree - a) // 2 + b - a - 1

    def _pair(self, t: int) -> tuple[int, int]:
        # The k(k+1)/2 last pairs are those whose first sheet exceeds d - 1 - k.
        from_end = self.size - 1 - t
        a = self.degree - 1 - (isqrt(8 * from_end + 1) - 1) // 2
        return a, t - self.index(a, a + 1) + a + 1

    def _conj(self, t: int, u: int) -> int:
        a, b = self.pairs[t]
        c, e = self.pairs[u]
        swap = {c: e, e: c}
        return self.index(swap.get(a, a), swap.get(b, b))

    def _conj_row(self, t: int) -> tuple[int, ...]:
        # Only a swap sharing one sheet with t = (a b) moves it: (a x) makes it
        # (x b), and (b x) makes it (a x).
        a, b = self.pairs[t]
        row = [t] * self.size
        for x in range(1, self.degree + 1):
            if x != a and x != b:
                row[self.index(a, x)] = self.index(x, b)
                row[self.index(b, x)] = self.index(a, x)
        return tuple(row)


@lru_cache(maxsize=16)
def _tables(degree: int) -> _Tables:
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    return _Tables(degree)


def _unpack(degree: int, packed: tuple[int, ...]) -> MonodromySequence:
    """The sequence of a packed tuple, which it keeps as its packed form."""
    return MonodromySequence._unchecked(degree, packed)


def _renumbered(degree: int, packed: tuple[int, ...], images: tuple[int, ...]) -> tuple[int, ...]:
    """A packed sequence with each sheet k renumbered ``images[k - 1]``."""
    tables = _tables(degree)
    index_of = tables.index_of
    return tuple([index_of[images[a]][images[b]] for a, b in map(tables.pairs0.__getitem__, packed)])


def _product(degree: int, packed: tuple[int, ...]) -> list[int]:
    """The left-to-right product of packed transpositions, as its list of
    images: the package's one product loop."""
    # Pre-composing a product by (a b) swaps the images of a and b, so build
    # it from the last entry back.
    tables = _tables(degree)
    pairs0 = tables.pairs0
    images = list(tables.identity)
    for t in reversed(packed):
        a, b = pairs0[t]
        images[a], images[b] = images[b], images[a]
    return images


def _walk(images: list[int], cycles: bool = False) -> list:
    """The cycles of the permutation whose image of sheet k is
    ``images[k - 1]``, longest first and ties by least sheet.  Each sheet is
    read once: the walk starts a cycle at its least sheet and zeroes the
    image of every other sheet on it, so the list it is given is spent.
    With ``cycles``, each cycle is a list from its least sheet, fixed points
    included; else only the nontrivial lengths are kept, which are the parts
    of the cycle type.

    >>> _walk([2, 1, 3, 5, 6, 4]), _walk([2, 1, 3, 5, 6, 4], True)
    ([3, 2], [[4, 5, 6], [1, 2], [3]])
    """
    out = []
    for start, k in enumerate(images, 1):
        if not k or k == start and not cycles:  # passed, or a fixed point left out
            continue
        cycle = [start]
        while k != start:
            cycle.append(k)
            images[k - 1], k = 0, images[k - 1]
        out.append(cycle if cycles else len(cycle))
    # A stable sort: cycles of one length stay in order of least sheet.
    out.sort(key=len if cycles else None, reverse=True)
    return out


def _union_find(size: int, edges: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """The class of each of ``0 .. size - 1`` once the two ends of every edge
    are joined, named by its least member, and the number of joins that
    merged two classes: ``size`` less the number of classes."""
    # Each root points to a smaller one, so one ascending pass at the end
    # points every member at its root.
    parent = list(range(size))
    joins = 0
    for x, y in edges:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x < y:
            parent[y] = x
            joins += 1
        elif y < x:
            parent[x] = y
            joins += 1
    for x in range(size):
        parent[x] = parent[parent[x]]
    return parent, joins
