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

Each handler imports the modules it runs, so that a process loads no more of
the package than its command needs: ``invariants`` loads only ``core`` and
``restrict``, which ``import diskcovers`` loads.  A plain command line, a
command and then each of its flags once, spelled out, as ``--flag value`` or
``--flag=value``, is read straight off the grammar table ``_COMMANDS``, so it
loads no ``argparse``.  Help, usage errors, abbreviated or repeated flags and
negative numbers after a space go to ``argparse``, whose parser reads the
same table; the output is the same either way.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .core import (
    CapExceeded,
    MonodromySequence,
    _surface_invariants,
    _walk,
    canonical_target,
    components,
    is_equivalent,
    total_monodromy,
)

# Type checkers read these names; at run time annotations stay strings, and
# importing ``typing`` would cost each process about 4 ms.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from typing import Any, Callable, Sequence

    from .hurwitz import BraidWord
    from .lift import CurveRef, IntervalRef

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


def covering_document(seq: MonodromySequence) -> dict[str, Any]:
    return {"degree": seq.degree, "monodromy": [list(pair) for pair in seq.pairs()]}


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
    # ``isfile`` is False for a name the system refuses, such as a long
    # inline document.
    if not os.path.isfile(value):
        return value
    with open(value, encoding="utf-8") as file:
        return file.read()


def _load_json(value: str) -> Any:
    try:
        return json.loads(_load_text(value))
    except RecursionError as exc:  # nested deeper than the parser follows
        raise ValueError(f"JSON document nested too deeply: {exc}") from exc


def _covering_arg(value: str) -> MonodromySequence:
    return parse_covering(_load_text(value))


def _braid_arg(value: str, strands: int) -> BraidWord:
    from .hurwitz import BraidWord

    try:
        letters = tuple(int(tok) for tok in value.split())
    except ValueError as exc:
        raise ValueError(f"braid word must be whitespace-separated integers: {value!r}") from exc
    return BraidWord(strands, letters)


def _word_doc(doc: Any, strands: int, kind: str) -> tuple[int, BraidWord]:
    from .hurwitz import BraidWord

    if not isinstance(doc, dict) or set(doc) != {"base", "word"}:
        raise ValueError(f'{kind} document must have exactly the keys "base" and "word"')
    base, word = doc["base"], doc["word"]
    if not isinstance(base, int):
        raise ValueError(f"{kind} base must be an integer")
    if not isinstance(word, list) or not all(isinstance(e, int) for e in word):
        raise ValueError(f"{kind} word must be a list of integers")
    return base, BraidWord(strands, tuple(word))


def _curve_arg(value: str, strands: int) -> CurveRef:
    from .lift import CurveRef

    return CurveRef(*_word_doc(_load_json(value), strands, "curve"))


def _interval_arg(value: str, strands: int) -> IntervalRef:
    from .lift import IntervalRef

    return IntervalRef(*_word_doc(_load_json(value), strands, "interval"))


def _curve_list_arg(value: str, strands: int) -> list[CurveRef]:
    from .lift import CurveRef

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
    # One walk of the total monodromy gives the boundary circles and, from
    # their lengths, longest first, the cycle type.
    circles = _walk(list(monodromy.images), True)
    invariants = _surface_invariants(seq, circles, signature)
    connected = signature.count == 1
    return {
        "chi": invariants.euler,
        "boundary": invariants.boundary,
        "omega": [len(c) for c in circles if len(c) > 1],
        "components": signature.count,
        "disk": bool(connected and seq.degree == seq.length + 1),
    }


def _cmd_canon(args: argparse.Namespace) -> dict[str, Any]:
    from .hurwitz import canonicalize

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
    from .hurwitz import act

    seq = _covering_arg(args.covering)
    word = _braid_arg(args.braid, seq.length)
    return {"covering": covering_document(act(seq, word))}


def _cmd_lift(args: argparse.Namespace) -> dict[str, Any]:
    from .lift import is_liftable

    seq = _covering_arg(args.covering)
    word = _braid_arg(args.braid, seq.length)
    return {"liftable": is_liftable(seq, word)}


def _cmd_interval_type(args: argparse.Namespace) -> dict[str, Any]:
    from .lift import interval_type

    seq = _covering_arg(args.covering)
    interval = _interval_arg(args.interval, seq.length)
    return {"type": interval_type(seq, interval)}


def _cmd_tcgens(args: argparse.Namespace) -> dict[str, Any]:
    from .lift import theorem_c_generators

    generators = theorem_c_generators(_strands(args.n))
    return {"count": len(generators), "generators": [list(w.letters) for w in generators]}


def _cmd_curve(args: argparse.Namespace) -> dict[str, Any]:
    from .lift import curve_monodromy

    seq = _covering_arg(args.covering)
    curve = _curve_arg(args.curve, seq.length)
    return {"monodromy": list(curve_monodromy(seq, curve).sheets)}


def _cmd_regular(args: argparse.Namespace) -> dict[str, Any]:
    from .lift import is_regular_curve

    seq = _covering_arg(args.covering)
    curve = _curve_arg(args.curve, seq.length)
    return {"regular": is_regular_curve(seq, curve)}


def _cmd_systems(args: argparse.Namespace) -> dict[str, Any]:
    from .lift import systems_liftable_equivalent

    seq = _covering_arg(args.covering)
    first = _curve_list_arg(args.curves_a, seq.length)
    second = _curve_list_arg(args.curves_b, seq.length)
    return {"equivalent": systems_liftable_equivalent(seq, first, second)}


def _cmd_restrict(args: argparse.Namespace) -> dict[str, Any]:
    from .restrict import RestrictionSpec, restrict, restricted_total_monodromy

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
    from .orbit import enumeration_bound, hurwitz_orbit

    seq = _covering_arg(args.covering)
    table = hurwitz_orbit(seq, args.cap)
    return {"size": len(table), "bound": enumeration_bound(seq.degree, seq.length)}


def _cmd_schreier(args: argparse.Namespace) -> dict[str, Any]:
    from .orbit import schreier_generators

    seq = _covering_arg(args.covering)
    generators = schreier_generators(seq, args.cap)
    return {"count": len(generators), "generators": [list(w.letters) for w in generators]}


def _cmd_classify(args: argparse.Namespace) -> dict[str, Any]:
    from .orbit import classify_all, enumeration_bound

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
    from .cosets import todd_coxeter

    strands = _strands(args.n)
    words = [
        _braid_arg(part, strands)
        for part in args.words.split(";")
        if part.strip() != ""
    ]
    return {"index": todd_coxeter(strands, words, args.cap)[0]}


def _cmd_verify_theorem_c(args: argparse.Namespace) -> dict[str, Any]:
    from .cosets import verify_theorem_c

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


def _flags(command: str) -> dict[str, dict]:
    """The flags ``command`` takes, ``--format`` first, with their options."""
    return {"--format": {"choices": ("json", "text"), "default": "json"}, **_COMMANDS[command][1]}


def _parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, for a plain
    command line, or None for any other.

    A plain command line is a command, then each of its flags at most once,
    spelled out, as ``--flag=value`` or as ``--flag value`` with a value that
    does not start with ``-``, and no value ``--``, which argparse drops; every
    value its flag's ``type`` and ``choices`` accept, and every required flag
    given.  So a plain command loads no ``argparse``, nor the ``gettext`` and
    ``locale`` it loads, and builds no parser, which saves each process a few
    milliseconds.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _flags(argv[0])
    given: dict[str, str] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        if not equals:
            value = next(tokens, "-")  # a missing value is refused as "-" is
            if value.startswith("-"):
                return None
        if flag not in flags or flag in given or value == "--":
            return None
        given[flag] = value
    values = {"command": argv[0]}
    for flag, opts in flags.items():
        if flag in given:
            try:
                value = opts.get("type", str)(given[flag])
            except ValueError:
                return None
            if "choices" in opts and value not in opts["choices"]:
                return None
        elif opts.get("required"):
            return None
        else:
            value = opts.get("default")
        values[opts.get("dest", flag[2:].replace("-", "_"))] = value
    return SimpleNamespace(**values)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names one.

    A process runs one command, and the parser of that command alone parses
    its arguments, help and errors as the full parser does, in a fraction of
    the time; anything else, such as ``--help`` or an unknown command, needs
    the full parser.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
            raise UsageError(f"{message}\n{self.format_usage()}".rstrip())

    parser = Parser(prog="diskcovers", description="Compute with simple branched coverings of the disk.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name in (command,) if command in _COMMANDS else _COMMANDS:
        p = sub.add_parser(name)
        for flag, opts in _flags(name).items():
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        parser = build_parser(argv[0] if argv else None)
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
