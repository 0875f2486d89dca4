"""Time the record methods of five value types against ``dataclass`` twins.

For ``BraidWord``, ``Transposition``, ``RestrictionSpec``, ``Permutation`` and
``MonodromySequence`` it builds a twin with ``@dataclass(frozen=True)``, and
``order=True`` where the type is ordered, on the same fields and the same
``__post_init__``.  It then times construction, ``repr``, ``==`` between
equal instances, ``hash`` and, on the ordered types, ``<``, for the type and
its twin in turn, ``ROUNDS`` times of ``NUMBER`` calls each.  Taking turns in
one process keeps the host's drift in speed out of the comparison.  Each line
gives the median round of each side, in nanoseconds per call, and the number
of rounds in which the record was not slower than its twin.

    python tools/record_bench.py
"""

from __future__ import annotations

import statistics
import sys
import timeit
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diskcovers import BraidWord, MonodromySequence, Permutation, RestrictionSpec, Transposition  # noqa: E402

NUMBER = 20_000
ROUNDS = 25

#: Each type with the field values that build it.
CASES = (
    (BraidWord, (4, (1, -2, 3, 3))),
    (Transposition, (2, 5)),
    (RestrictionSpec, ((1, 3), "end")),
    (Permutation, ((2, 3, 1, 5, 4),)),
    (MonodromySequence, (5, tuple(Transposition(k, k + 1) for k in range(1, 5)))),
)


def twin(cls: type, ordered: bool) -> type:
    """A dataclass with the name, fields and ``__post_init__`` of ``cls``."""
    namespace = {"__annotations__": dict.fromkeys(cls.__match_args__, object), "__post_init__": cls.__post_init__}
    return dataclass(frozen=True, order=ordered)(type(cls.__name__, (), namespace))


def main() -> int:
    print(f"{'type':<18} {'operation':<10} {'record':>7} {'dataclass':>10} {'wins':>6}  (ns per call, median round)")
    for cls, values in CASES:
        ordered = cls.__lt__ is not object.__lt__
        record, dataclass_twin = cls, twin(cls, ordered)
        namespaces = {
            side: {"T": side, "args": values, "x": side(*values), "y": side(*values)} for side in (record, dataclass_twin)
        }
        for statement in ["T(*args)", "repr(x)", "x == y", "hash(x)", *(["x < y"] if ordered else [])]:
            times = {side: [] for side in namespaces}
            for _ in range(ROUNDS):
                for side, namespace in namespaces.items():
                    times[side].append(timeit.timeit(statement, globals=namespace, number=NUMBER) / NUMBER * 1e9)
            wins = sum(r <= d for r, d in zip(times[record], times[dataclass_twin]))
            print(
                f"{cls.__name__:<18} {statement:<10} {statistics.median(times[record]):>7.0f}"
                f" {statistics.median(times[dataclass_twin]):>10.0f} {wins:>3}/{ROUNDS}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
