"""Spans around the calls into the diskcovers modules, recorded from outside.

:meth:`Tracer.install` replaces every public function of the compute modules
with a wrapper that records a span (name, start, end, parent, item id) in
memory.  The wrapper goes into every namespace that holds the function: the
package, which the benchmark calls through, and the modules themselves, so
that nested calls such as ``verify_theorem_c`` -> ``stabilizer_index`` ->
``hurwitz_orbit`` get their own spans.  The per-letter and per-move calls in
:data:`HOT` are wrapped only where the benchmark calls them, never inside the
library's loops; counts of letters inside those loops are computed instead
(|orbit| x 2(n-1) for the orbit search).  A ``.s`` metric is self time: the
span's time minus the time of the spans it caused.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import diskcovers

LAYERS = ("core", "hurwitz", "lift", "restrict", "orbit", "cosets")
HOT = {"hurwitz.act", "hurwitz.elementary_move", "hurwitz.apply_moves"}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    item: str | None
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._classes_seen: set = set()
        self._counters = {
            "orbit.hurwitz_orbit": lambda a, r: {
                "elements": len(r),
                # letter applications, computed: each element meets 2(n-1) letters
                "letters_computed": len(r) * 2 * (a[0].length - 1),
            },
            "orbit.schreier_generators": lambda a, r: {"words": len(r)},
            "orbit.classify_all": lambda a, r: {"sequences": sum(c.count for c in r)},
            "cosets.todd_coxeter": lambda a, r: {"index": r[0], "subgroup_words": len(a[1])},
            "hurwitz.act": lambda a, r: {"letters": len(a[1].letters)},
            "hurwitz.canonicalize": self._canonicalize_counts,
        }

    def _canonicalize_counts(self, args, result) -> dict:
        # The first call for a (d, n, omega) class pays the orbit search.
        cold = result.canonical not in self._classes_seen
        self._classes_seen.add(result.canonical)
        return {"moves": len(result.moves), "cold": int(cold)}

    def wrap(self, name: str, fn):
        counter = self._counters.get(name)

        def traced(*args, **kwargs):
            span = Span(name, 0.0, self._stack[-1] if self._stack else None, self.item)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        # Not getattr(diskcovers, layer): the package re-exports a function
        # named ``restrict`` over the submodule of that name.
        modules = [importlib.import_module(f"diskcovers.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn)
                for namespace in [diskcovers] + ([] if name in HOT else modules):
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            self._patched.append((namespace, key, fn))
                            setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for namespace, key, fn in reversed(self._patched):
            setattr(namespace, key, fn)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write the spans as rows, with item ids stored once."""
        items: dict[str | None, int] = {}
        rows = [
            [s.name, s.start, s.end, s.parent, items.setdefault(s.item, len(items)), s.error, s.counts]
            for s in self.spans
        ]
        fields = ["name", "start", "end", "parent", "item", "error", "counts"]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": fields, "items": list(items), "spans": rows}))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-function self time, calls, counts and errors, plus the named
    metrics that combine them."""
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[f"{span.name}.s"] += own
        out[f"{span.name}.calls"] += 1
        for key, value in span.counts.items():
            out[f"{span.name}.{key}"] += value
        if span.error:
            out[f"{span.name}.{span.error.lower()}"] += 1
        if span.name == "hurwitz.canonicalize":
            temp = "cold" if span.counts.get("cold") else "warm"
            out[f"hurwitz.canonicalize.{temp}_s"] += own
            out[f"hurwitz.canonicalize.{temp}_calls"] += 1
        if span.name in ("lift.index0_curve", "lift.index1_curve") and span.parent is None:
            out["lift.catalog_curves.s"] += span.end - span.start
    out["hurwitz.certificate.moves"] = out.get("hurwitz.canonicalize.moves", 0)
    if out.get("orbit.hurwitz_orbit.s"):
        out["orbit.hurwitz_orbit.elements_per_s"] = out["orbit.hurwitz_orbit.elements"] / out["orbit.hurwitz_orbit.s"]
    out["remainder_s"] = wall_s - sum(s.end - s.start for s in spans if s.parent is None)
    out["spans"] = len(spans)
    return dict(out)
