"""The record table that ``test_record`` runs its checks on: one instance's
field values and ``repr`` for each public value type, and a pair of
instances in ascending order for each ordered type.

Kept apart from the tests, with ``first_use``, so that a fresh interpreter
can import them without pytest, to run a record method as the first use of
its class.
"""

import copy
import inspect
import pickle

from diskcovers import (
    BraidWord,
    CanonicalizationResult,
    ComponentInvariants,
    ComponentSignature,
    CurveRef,
    CycleType,
    IntervalGenerationReport,
    IntervalRef,
    MonodromySequence,
    OrbitClass,
    Permutation,
    Presentation,
    RestrictionSpec,
    SurfaceInvariants,
    TheoremCReport,
    Transposition,
)

WORD = BraidWord(3, (1, -2))
SEQ = MonodromySequence.from_pairs(3, [(1, 2), (2, 3)])
SEQ_REPR = "MonodromySequence(degree=3, entries=(Transposition(a=1, b=2), Transposition(a=2, b=3)))"
PARTS = ComponentInvariants((1, 2), 1, 1, 0)
PARTS_REPR = "ComponentInvariants(sheets=(1, 2), euler=1, boundary=1, genus=0)"
WORD_REPR = "BraidWord(strands=3, letters=(1, -2))"

#: (type, field values, repr); the values build the instance positionally.
RECORDS = [
    (Permutation, ((2, 3, 1),), "Permutation(images=(2, 3, 1))"),
    (Transposition, (1, 2), "Transposition(a=1, b=2)"),
    (CycleType, ((3,), 4), "CycleType(parts=(3,), degree=4)"),
    (MonodromySequence, (3, SEQ.entries), SEQ_REPR),
    (ComponentSignature, ((((1, 2), 1), ((3,), 0)),), "ComponentSignature(blocks=(((1, 2), 1), ((3,), 0)))"),
    (ComponentInvariants, ((1, 2), 1, 1, 0), PARTS_REPR),
    (SurfaceInvariants, (1, 2, (PARTS,)), f"SurfaceInvariants(euler=1, boundary=2, per_component=({PARTS_REPR},))"),
    (RestrictionSpec, ((1, 3), "end"), "RestrictionSpec(indices=(1, 3), base='end')"),
    (BraidWord, (3, (1, -2)), WORD_REPR),
    (
        CanonicalizationResult,
        (Permutation((1, 2, 3)), ((1, "forward"),), SEQ),
        f"CanonicalizationResult(relabel=Permutation(images=(1, 2, 3)), moves=((1, 'forward'),), canonical={SEQ_REPR})",
    ),
    (CurveRef, (1, WORD), f"CurveRef(base=1, word={WORD_REPR})"),
    (IntervalRef, (1, WORD), f"IntervalRef(base=1, word={WORD_REPR})"),
    (
        OrbitClass,
        (SEQ, 9, CycleType((3,), 3), True),
        f"OrbitClass(representative={SEQ_REPR}, count=9, omega=CycleType(parts=(3,), degree=3), connected=True)",
    ),
    (Presentation, (3, ((1, 2, 1, -2, -1, -2),)), "Presentation(strands=3, relators=((1, 2, 1, -2, -1, -2),))"),
    (
        IntervalGenerationReport,
        (4, 4, 3, True),
        "IntervalGenerationReport(orbit_index=4, tc_index=4, generator_count=3, generates=True)",
    ),
    (
        TheoremCReport,
        (3, 3, True, 4, 4, True),
        "TheoremCReport(branch_points=3, generator_count=3, all_liftable=True, orbit_index=4, tc_index=4, passed=True)",
    ),
]
#: Each ordered type, with a pair of instances in ascending order.
ORDERED = {
    Permutation: (Permutation((1, 2, 3)), Permutation((2, 3, 1))),
    Transposition: (Transposition(1, 3), Transposition(2, 3)),
    MonodromySequence: (MonodromySequence.from_pairs(3, [(1, 2), (1, 3)]), SEQ),
}

#: Each operation that may be a record type's first, with the method it
#: writes, if any.
FIRST_USES = {
    "pickle": "_unchecked",
    "copy": "_unchecked",
    "deepcopy": "_unchecked",
    "==": "__eq__",
    "<": "__lt__",
    "hash": "__hash__",
    "repr": "__repr__",
    "match": None,
    "signature": "__init__",
}


def first_use(op: str, cls: type, values: tuple | None) -> object:
    """What ``op`` gives on the table's instance of ``cls``, as JSON, alike in
    any process; ``signature`` reads the class alone."""
    if op == "signature":
        return str(inspect.signature(cls))
    record = cls(*values)
    if op in ("pickle", "copy", "deepcopy"):
        duplicate = {"pickle": lambda r: pickle.loads(pickle.dumps(r)), "copy": copy.copy, "deepcopy": copy.deepcopy}
        twin = duplicate[op](record)
        return [type(twin) is cls, twin == record, repr(twin)]
    if op == "==":
        return [record == cls(*values), record != cls(*values), record == values]
    if op == "<":
        if cls not in ORDERED:
            try:
                record < record  # noqa: B015
            except TypeError as unordered:
                return str(unordered)
            return "ordered"
        low, high = ORDERED[cls]
        return [low < high, high < low]
    if op == "hash":
        return hash(record) == hash(values)  # str hashes differ between processes
    if op == "repr":
        return repr(record)
    captures = ", ".join(f"f{k}" for k in range(len(values)))
    scope = {"C": cls, "record": record}
    exec(f"match record:\n    case C({captures}):\n        out = ({captures},)", scope)
    return scope["out"] == values
