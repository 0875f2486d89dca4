"""Command-line front end.

Coverings travel as JSON documents ``{"degree": d, "monodromy": [[a, b], ...]}``
with 1-based sheets; braid words are whitespace-separated signed integers
applied left to right; curves and intervals are ``{"base": j, "word": [...]}``
documents, given inline or as a path to a JSON file.  A covering has at most
``MAX_DEGREE`` sheets: several answers build a permutation of all the sheets,
so their memory grows with the degree.  ``--n`` is bounded too: at most
``MAX_BRANCH_POINTS`` where it is the length of a covering (``target``,
``classify``), and at most ``MAX_STRANDS`` where it is the strand count of a
braid presentation (``tcgens``, ``todd-coxeter``, ``verify-theorem-c``).

Every run prints a single report (JSON one-liner or key-per-line text) on
stdout and exits 0 on success, 1 on invalid input, 2 when an enumeration hit
its cap.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from .core import (
    MonodromySequence,
    _surface_invariants,
    canonical_target,
    components,
    is_equivalent,
    total_monodromy,
)
from .cosets import todd_coxeter, verify_theorem_c
from .hurwitz import BraidWord, act, canonicalize
from .lift import (
    CurveRef,
    IntervalRef,
    curve_monodromy,
    interval_type,
    is_liftable,
    is_regular_curve,
    systems_liftable_equivalent,
    theorem_c_generators,
)
from .orbit import (
    CapExceeded,
    classify_all,
    enumeration_bound,
    hurwitz_orbit,
    schreier_generators,
)
from .restrict import RestrictionSpec, restrict, restricted_total_monodromy

#: The most sheets a covering document may have.
MAX_DEGREE = 100_000
#: The most branch points ``--n`` may give a covering: twice MAX_DEGREE, room
#: for the identity class on MAX_DEGREE sheets, which needs 2 (d - 1) entries.
#: ``target --degree 3`` and ``classify --degree 2`` at this length take about
#: 0.3 s and at most 55 MB; their memory grows by about 200 bytes per entry.
MAX_BRANCH_POINTS = 200_000
#: The most strands ``--n`` may give a braid presentation.  The coset table
#: has 2 (n - 1) columns, so its memory at the default cap grows with n: at
#: 16 strands ``todd-coxeter`` with no words and ``verify-theorem-c`` stop at
#: the cap in about 285 MB and 4 s; at 20 strands the library's enumeration
#: with no words stops there in about 345 MB.
MAX_STRANDS = 16


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


def covering_document(seq: MonodromySequence) -> dict[str, Any]:
    return {"degree": seq.degree, "monodromy": [list(t.sheets) for t in seq.entries]}


def _at_most(value: int, bound: int, noun: str) -> int:
    """Refuse a size past its bound: sheets from a document or a flag, or ``--n``."""
    if value > bound:
        raise ValueError(f"{noun} must be at most {bound}, got {value}")
    return value


def _bounded_degree(degree: int) -> int:
    return _at_most(degree, MAX_DEGREE, "degree")


def _branch_points(n: int) -> int:
    return _at_most(n, MAX_BRANCH_POINTS, "branch point count n")


def _strands(n: int) -> int:
    return _at_most(n, MAX_STRANDS, "strand count n")


def parse_covering(text: str) -> MonodromySequence:
    """Parse a covering document, normalizing each pair to ascending order."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"covering document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"degree", "monodromy"}:
        raise ValueError('covering document must have exactly the keys "degree" and "monodromy"')
    degree, monodromy = doc["degree"], doc["monodromy"]
    if not isinstance(degree, int) or degree < 1:
        raise ValueError(f"degree must be a positive integer, got {degree!r}")
    _bounded_degree(degree)
    if not isinstance(monodromy, list):
        raise ValueError("monodromy must be a list of sheet pairs")
    pairs = []
    for item in monodromy:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) for v in item)
        ):
            raise ValueError(f"monodromy entries must be pairs of integers, got {item!r}")
        a, b = item
        if a == b:
            raise ValueError(f"degenerate monodromy pair {item!r}")
        if not (1 <= a <= degree and 1 <= b <= degree):
            raise ValueError(f"monodromy pair {item!r} out of range for degree {degree}")
        pairs.append((a, b))
    return MonodromySequence.from_pairs(degree, pairs)


def _load_text(value: str) -> str:
    path = Path(value)
    try:
        is_file = path.is_file()
    except OSError:  # not a usable file name, e.g. a long inline document
        is_file = False
    return path.read_text(encoding="utf-8") if is_file else value


def _load_json(value: str) -> Any:
    try:
        return json.loads(_load_text(value))
    except RecursionError as exc:  # nested deeper than the parser follows
        raise ValueError(f"JSON document nested too deeply: {exc}") from exc


def _covering_arg(value: str) -> MonodromySequence:
    return parse_covering(_load_text(value))


def _braid_arg(value: str, strands: int) -> BraidWord:
    try:
        letters = tuple(int(tok) for tok in value.split())
    except ValueError as exc:
        raise ValueError(f"braid word must be whitespace-separated integers: {value!r}") from exc
    return BraidWord(strands, letters)


def _word_doc(doc: Any, strands: int, kind: str) -> tuple[int, BraidWord]:
    if not isinstance(doc, dict) or set(doc) != {"base", "word"}:
        raise ValueError(f'{kind} document must have exactly the keys "base" and "word"')
    base, word = doc["base"], doc["word"]
    if not isinstance(base, int):
        raise ValueError(f"{kind} base must be an integer")
    if not isinstance(word, list) or not all(isinstance(e, int) for e in word):
        raise ValueError(f"{kind} word must be a list of integers")
    return base, BraidWord(strands, tuple(word))


def _curve_arg(value: str, strands: int) -> CurveRef:
    return CurveRef(*_word_doc(_load_json(value), strands, "curve"))


def _interval_arg(value: str, strands: int) -> IntervalRef:
    return IntervalRef(*_word_doc(_load_json(value), strands, "interval"))


def _curve_list_arg(value: str, strands: int) -> list[CurveRef]:
    doc = _load_json(value)
    if not isinstance(doc, list):
        raise ValueError("a curve system must be a JSON list of curve documents")
    return [CurveRef(*_word_doc(item, strands, "curve")) for item in doc]


def _int_list_arg(value: str, noun: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in value.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValueError(f"{noun} must be comma-separated integers: {value!r}") from exc


# --- command handlers -------------------------------------------------------

def _cmd_invariants(args: argparse.Namespace) -> dict[str, Any]:
    seq = _covering_arg(args.covering)
    monodromy, signature = total_monodromy(seq), components(seq)
    invariants = _surface_invariants(seq, monodromy, signature)
    connected = signature.count == 1
    return {
        "chi": invariants.euler,
        "boundary": invariants.boundary,
        "omega": list(monodromy.cycle_type().parts),
        "components": signature.count,
        "disk": bool(connected and seq.degree == seq.length + 1),
    }


def _cmd_canon(args: argparse.Namespace) -> dict[str, Any]:
    seq = _covering_arg(args.covering)
    result = canonicalize(seq)
    return {
        "relabel": list(result.relabel.images),
        "moves": [[position, direction] for position, direction in result.moves],
        "canonical": covering_document(result.canonical),
    }


def _cmd_target(args: argparse.Namespace) -> dict[str, Any]:
    seq = canonical_target(
        _bounded_degree(args.degree), _branch_points(args.n), _int_list_arg(args.omega, "cycle type")
    )
    return {"covering": covering_document(seq)}


def _cmd_equivalent(args: argparse.Namespace) -> dict[str, Any]:
    seq = _covering_arg(args.covering)
    other = _covering_arg(args.other)
    return {"equivalent": is_equivalent(seq, other)}


def _cmd_act(args: argparse.Namespace) -> dict[str, Any]:
    seq = _covering_arg(args.covering)
    word = _braid_arg(args.braid, seq.length)
    return {"covering": covering_document(act(seq, word))}


def _cmd_lift(args: argparse.Namespace) -> dict[str, Any]:
    seq = _covering_arg(args.covering)
    word = _braid_arg(args.braid, seq.length)
    return {"liftable": is_liftable(seq, word)}


def _cmd_interval_type(args: argparse.Namespace) -> dict[str, Any]:
    seq = _covering_arg(args.covering)
    interval = _interval_arg(args.interval, seq.length)
    return {"type": interval_type(seq, interval)}


def _cmd_tcgens(args: argparse.Namespace) -> dict[str, Any]:
    generators = theorem_c_generators(_strands(args.n))
    return {"count": len(generators), "generators": [list(w.letters) for w in generators]}


def _cmd_curve(args: argparse.Namespace) -> dict[str, Any]:
    seq = _covering_arg(args.covering)
    curve = _curve_arg(args.curve, seq.length)
    return {"monodromy": list(curve_monodromy(seq, curve).sheets)}


def _cmd_regular(args: argparse.Namespace) -> dict[str, Any]:
    seq = _covering_arg(args.covering)
    curve = _curve_arg(args.curve, seq.length)
    return {"regular": is_regular_curve(seq, curve)}


def _cmd_systems(args: argparse.Namespace) -> dict[str, Any]:
    seq = _covering_arg(args.covering)
    first = _curve_list_arg(args.curves_a, seq.length)
    second = _curve_list_arg(args.curves_b, seq.length)
    return {"equivalent": systems_liftable_equivalent(seq, first, second)}


def _cmd_restrict(args: argparse.Namespace) -> dict[str, Any]:
    seq = _covering_arg(args.covering)
    spec = RestrictionSpec(_int_list_arg(args.indices, "indices"), args.base)
    restricted = restrict(seq, spec)
    return {
        "covering": covering_document(restricted),
        "components": [
            {"sheets": list(sheets), "branch_points": count}
            for sheets, count in components(restricted).blocks
        ],
        "total_monodromy": list(restricted_total_monodromy(seq, spec).images),
    }


def _cmd_orbit(args: argparse.Namespace) -> dict[str, Any]:
    seq = _covering_arg(args.covering)
    table = hurwitz_orbit(seq, args.cap)
    return {"size": len(table), "bound": enumeration_bound(seq.degree, seq.length)}


def _cmd_schreier(args: argparse.Namespace) -> dict[str, Any]:
    seq = _covering_arg(args.covering)
    generators = schreier_generators(seq, args.cap)
    return {"count": len(generators), "generators": [list(w.letters) for w in generators]}


def _cmd_classify(args: argparse.Namespace) -> dict[str, Any]:
    classes = classify_all(_bounded_degree(args.degree), _branch_points(args.n), args.cap)
    return {
        "total": enumeration_bound(args.degree, args.n),
        "classes": [
            {
                "representative": covering_document(c.representative)["monodromy"],
                "count": c.count,
                "omega": list(c.omega.parts),
                "connected": c.connected,
            }
            for c in classes
        ],
    }


def _cmd_todd_coxeter(args: argparse.Namespace) -> dict[str, Any]:
    strands = _strands(args.n)
    words = [
        _braid_arg(part, strands)
        for part in args.words.split(";")
        if part.strip() != ""
    ]
    return {"index": todd_coxeter(strands, words, args.cap)[0]}


def _cmd_verify_theorem_c(args: argparse.Namespace) -> dict[str, Any]:
    report = verify_theorem_c(_strands(args.n), args.cap)
    return {
        "orbit_index": report.orbit_index,
        "tc_index": report.tc_index,
        "liftable": report.all_liftable,
        "pass": report.passed,
    }


_COVERING = {"--covering": {"required": True, "help": "covering document (path or inline JSON)"}}
_BRAID = {"--braid": {"required": True, "help": 'braid word, e.g. "2 1 1 -2"'}}
_CURVE = {"--curve": {"required": True, "help": "curve document"}}
_CAP = {"--cap": {"type": int, "default": None, "help": "enumeration cap"}}
_N = {"--n": {"type": int, "required": True}}

#: Each command's handler and flags, in the order ``--help`` lists them.
_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], dict[str, Any]], dict[str, dict]]] = {
    "invariants": (_cmd_invariants, _COVERING),
    "canon": (_cmd_canon, _COVERING),
    "target": (
        _cmd_target,
        {
            "--degree": {"type": int, "required": True},
            "--n": {"type": int, "required": True, "help": "branch point count"},
            "--omega": {"default": "", "help": "cycle type, comma-separated (empty for identity)"},
        },
    ),
    "equivalent": (
        _cmd_equivalent, {**_COVERING, "--other": {"required": True, "help": "second covering document"}}
    ),
    "act": (_cmd_act, {**_COVERING, **_BRAID}),
    "lift": (_cmd_lift, {**_COVERING, **_BRAID}),
    "interval-type": (
        _cmd_interval_type, {**_COVERING, "--interval": {"required": True, "help": "interval document"}}
    ),
    "tcgens": (_cmd_tcgens, _N),
    "curve": (_cmd_curve, {**_COVERING, **_CURVE}),
    "regular": (_cmd_regular, {**_COVERING, **_CURVE}),
    "systems": (
        _cmd_systems,
        {
            **_COVERING,
            "--curves-a": {"required": True, "dest": "curves_a", "help": "first curve system (JSON list)"},
            "--curves-b": {"required": True, "dest": "curves_b", "help": "second curve system (JSON list)"},
        },
    ),
    "restrict": (
        _cmd_restrict,
        {
            **_COVERING,
            "--indices": {"required": True, "help": "comma-separated curve indices"},
            "--base": {"choices": ("start", "end"), "default": "start"},
        },
    ),
    "orbit": (_cmd_orbit, {**_COVERING, **_CAP}),
    "schreier": (_cmd_schreier, {**_COVERING, **_CAP}),
    "classify": (_cmd_classify, {"--degree": {"type": int, "required": True}, **_N, **_CAP}),
    "todd-coxeter": (
        _cmd_todd_coxeter,
        {
            "--n": {"type": int, "required": True, "help": "strand count"},
            "--words": {"required": True, "help": 'semicolon-separated braid words, e.g. "1 1 1;2 2 2"'},
            **_CAP,
        },
    ),
    "verify-theorem-c": (_cmd_verify_theorem_c, {**_N, **_CAP}),
}

COMMANDS = tuple(_COMMANDS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diskcovers", description="Compute with simple branched coverings of the disk.")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (_handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for flag, opts in flags.items():
            p.add_argument(flag, **opts)
    return parser


def emit(report: dict[str, Any], fmt: str) -> str:
    """Render a report: a JSON one-liner, or one dotted key per line."""
    if fmt == "json":
        return json.dumps(report) + "\n"
    lines: list[str] = []

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for key, inner in value.items():
                walk(f"{prefix}.{key}" if prefix else key, inner)
        else:
            lines.append(f"{prefix}: {json.dumps(value)}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _echo_inputs(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"command", "format"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.command is None:
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1

    report: dict[str, Any] = {"command": args.command, "inputs": _echo_inputs(args)}
    try:
        payload = _COMMANDS[args.command][0](args)
    except CapExceeded as exc:  # cosets.Inconclusive among them
        report["status"] = "inconclusive"
        report["cap"] = exc.cap
        report["error"] = str(exc)
        sys.stdout.write(emit(report, args.format))
        return 2
    except ValueError as exc:
        report["status"] = "invalid-input"
        report["error"] = str(exc)
        sys.stdout.write(emit(report, args.format))
        return 1
    report["status"] = "ok"
    report["result"] = payload
    sys.stdout.write(emit(report, args.format))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
