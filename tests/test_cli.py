"""Command-line interface: parsing, dispatch, exit codes, determinism."""

import argparse
import json
import random

import pytest

from diskcovers import cli, core
from diskcovers.cli import COMMANDS, build_parser, covering_document, emit, main, parse_covering
from diskcovers.core import MonodromySequence, Permutation, disk_covering
from diskcovers.hurwitz import apply_moves


@pytest.fixture()
def p3_path(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(covering_document(disk_covering(3))) + "\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def payload(out):
    report = json.loads(out)
    assert report["status"] == "ok"
    return report["result"]


def test_parse_covering_examples():
    seq = parse_covering('{"degree":4,"monodromy":[[1,2],[2,3],[3,4]]}')
    assert seq == disk_covering(3)
    seq = parse_covering('{"degree":2,"monodromy":[]}')
    assert seq == MonodromySequence(2, ())
    with pytest.raises(ValueError):
        parse_covering('{"degree":3,"monodromy":[[3,3]]}')
    with pytest.raises(ValueError):
        parse_covering('{"degree":3,"monodromy":[[1,4]]}')
    with pytest.raises(ValueError):
        parse_covering("not json")


def test_parse_covering_normalizes_pair_order():
    seq = parse_covering('{"degree":3,"monodromy":[[2,1],[3,2]]}')
    assert seq.pairs() == ((1, 2), (2, 3))


def test_round_trip():
    for seq in (disk_covering(3), MonodromySequence(2, ()), MonodromySequence.from_pairs(5, [(2, 5), (1, 3)])):
        assert parse_covering(json.dumps(covering_document(seq))) == seq


def test_invariants_command(capsys, p3_path):
    code, out = run(capsys, "invariants", "--covering", p3_path)
    assert code == 0
    assert payload(out) == {
        "chi": 1,
        "boundary": 1,
        "omega": [4],
        "components": 1,
        "disk": True,
    }


def test_lift_command(capsys, p3_path):
    code, out = run(capsys, "lift", "--covering", p3_path, "--braid", "2 1 1 -2")
    assert code == 0
    assert payload(out) == {"liftable": True}


def test_act_command_inline_covering(capsys):
    code, out = run(
        capsys,
        "act",
        "--covering",
        '{"degree":4,"monodromy":[[1,2],[2,3],[3,4]]}',
        "--braid",
        "1",
    )
    assert code == 0
    assert payload(out)["covering"]["monodromy"] == [[2, 3], [1, 3], [3, 4]]


def test_equivalent_command(capsys, p3_path):
    code, out = run(
        capsys,
        "equivalent",
        "--covering",
        p3_path,
        "--other",
        '{"degree":4,"monodromy":[[2,3],[1,3],[3,4]]}',
    )
    assert code == 0
    assert payload(out) == {"equivalent": True}


def test_target_command(capsys):
    code, out = run(capsys, "target", "--degree", "4", "--n", "3", "--omega", "4")
    assert code == 0
    assert payload(out)["covering"] == {"degree": 4, "monodromy": [[1, 2], [2, 3], [3, 4]]}


def test_target_not_realizable_is_invalid_input(capsys):
    code, out = run(capsys, "target", "--degree", "3", "--n", "2", "--omega", "2")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "invalid-input"
    assert "result" not in report


def test_canon_command(capsys):
    covering = '{"degree":4,"monodromy":[[2,3],[1,3],[3,4]]}'
    code, out = run(capsys, "canon", "--covering", covering)
    assert code == 0
    result = payload(out)
    assert result["canonical"]["monodromy"] == [[1, 2], [2, 3], [3, 4]]
    assert result["moves"] == [[1, "forward"]]
    assert result["relabel"] == [1, 2, 3, 4]
    moves = tuple((position, direction) for position, direction in result["moves"])
    replayed = apply_moves(parse_covering(covering).renumber_sheets(Permutation(tuple(result["relabel"]))), moves)
    assert covering_document(replayed) == result["canonical"]


def test_invariants_command_computes_each_invariant_once(capsys, monkeypatch, p3_path):
    calls = {"components": 0, "total_monodromy": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapper = counted(name, getattr(core, name))
        for module in (core, cli):
            monkeypatch.setattr(module, name, wrapper)
    code, out = run(capsys, "invariants", "--covering", p3_path)
    assert code == 0 and payload(out)["omega"] == [4]
    assert calls == {"components": 1, "total_monodromy": 1}


def test_interval_type_and_curve_commands(capsys, p3_path):
    code, out = run(capsys, "interval-type", "--covering", p3_path, "--interval", '{"base":1,"word":[2]}')
    assert code == 0 and payload(out) == {"type": 2}
    code, out = run(capsys, "curve", "--covering", p3_path, "--curve", '{"base":1,"word":[-2,-1,2]}')
    assert code == 0 and payload(out) == {"monodromy": [1, 4]}


def test_regular_command(capsys, p3_path):
    code, out = run(capsys, "regular", "--covering", p3_path, "--curve", '{"base":3,"word":[]}')
    assert code == 0 and payload(out) == {"regular": True}


def test_systems_command(capsys, p3_path):
    code, out = run(
        capsys,
        "systems",
        "--covering",
        p3_path,
        "--curves-a",
        '[{"base":1,"word":[-2,-1,2]}]',
        "--curves-b",
        '[{"base":3,"word":[-2,1,2]}]',
    )
    assert code == 0 and payload(out) == {"equivalent": True}


def test_restrict_command(capsys, p3_path):
    code, out = run(capsys, "restrict", "--covering", p3_path, "--indices", "3", "--base", "start")
    assert code == 0
    result = payload(out)
    assert result["covering"] == {"degree": 4, "monodromy": [[1, 2], [2, 3]]}
    assert result["components"] == [
        {"sheets": [1, 2, 3], "branch_points": 2},
        {"sheets": [4], "branch_points": 0},
    ]


def test_orbit_and_schreier_commands(capsys, p3_path):
    code, out = run(capsys, "orbit", "--covering", p3_path)
    assert code == 0 and payload(out) == {"size": 16, "bound": 216}
    code, out = run(capsys, "schreier", "--covering", '{"degree":3,"monodromy":[[1,2],[2,3]]}')
    assert code == 0 and payload(out)["generators"] == [[1, 1, 1]]


def test_classify_command(capsys):
    code, out = run(capsys, "classify", "--degree", "2", "--n", "2")
    assert code == 0
    result = payload(out)
    assert result["total"] == 1
    assert result["classes"][0]["omega"] == []


def test_todd_coxeter_command(capsys):
    code, out = run(capsys, "todd-coxeter", "--n", "2", "--words", "1 1 1")
    assert code == 0 and payload(out) == {"index": 3}
    code, out = run(capsys, "todd-coxeter", "--n", "3", "--words", "1 1 1;2 2 2;2 1 1 -2")
    assert code == 0 and payload(out) == {"index": 16}


def test_todd_coxeter_inconclusive_exit_code(capsys):
    code, out = run(capsys, "todd-coxeter", "--n", "2", "--words", "", "--cap", "100")
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "inconclusive"
    assert report["cap"] == 100


def test_verify_theorem_c_command(capsys):
    code, out = run(capsys, "verify-theorem-c", "--n", "3")
    assert code == 0
    assert payload(out) == {"orbit_index": 16, "tc_index": 16, "liftable": True, "pass": True}


def test_orbit_cap_exit_code(capsys, p3_path):
    code, out = run(capsys, "orbit", "--covering", p3_path, "--cap", "5")
    assert code == 2
    assert json.loads(out)["status"] == "inconclusive"


def test_invalid_covering_exit_code(capsys):
    code, out = run(capsys, "invariants", "--covering", '{"degree":3,"monodromy":[[3,3]]}')
    assert code == 1
    assert json.loads(out)["status"] == "invalid-input"


def test_unknown_command_exit_code(capsys):
    code = main(["frobnicate"])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage" in err.lower()


def test_no_command_prints_usage(capsys):
    code = main([])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage" in err.lower()


def test_byte_identical_output(capsys, p3_path):
    _, first = run(capsys, "invariants", "--covering", p3_path)
    _, second = run(capsys, "invariants", "--covering", p3_path)
    assert first == second
    assert first.endswith("\n")
    assert "\n" not in first[:-1]


def test_text_format(capsys, p3_path):
    code, out = run(capsys, "invariants", "--covering", p3_path, "--format", "text")
    assert code == 0
    lines = out.strip().split("\n")
    assert "command: \"invariants\"" in lines
    assert "result.chi: 1" in lines
    assert "result.omega: [4]" in lines
    assert "status: \"ok\"" in lines


def test_emit_json_round_trips():
    report = {"command": "orbit", "status": "ok", "result": {"size": 16}}
    rendered = emit(report, "json")
    assert json.loads(rendered) == report


def test_parser_offers_every_contracted_command():
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, type(parser._actions[-1])) and hasattr(a, "choices")
    )
    assert set(COMMANDS) <= set(subparsers.choices)


#: Invocations answered by the parser alone: each command's help and its
#: missing-flag error, then top-level help, an unknown command, no command and
#: an argument no parser takes.
PARSER_ONLY = [
    *([name, "--help"] for name in COMMANDS),
    *([name] for name in COMMANDS),
    ["--help"],
    ["no-such-command"],
    [],
    ["tcgens", "--n", "3", "extra"],
]


def parser_outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_ONLY, ids=lambda argv: " ".join(argv) or "no-command")
def test_one_command_parser_answers_as_the_full_parser(monkeypatch, capsys, argv):
    build = cli.build_parser
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(build(command)) or built[-1])
    answer = parser_outcome(capsys, argv)
    (commands,) = (a.choices for a in built[0]._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands) == (argv[:1] if argv and argv[0] in COMMANDS else list(COMMANDS))
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build())
    assert answer == parser_outcome(capsys, argv)
    assert answer[0] == (0 if "--help" in argv else 1)


# --- seeded fuzzing of the argument parsers ---------------------------------

P3 = '{"degree": 4, "monodromy": [[1, 2], [2, 3], [3, 4]]}'
LONG = 4096  # long inline values run past the longest path Linux accepts


def chain_document(entries):
    return json.dumps({"degree": entries + 1, "monodromy": [[k, k + 1] for k in range(1, entries + 1)]})


def nested(depth):
    return "[" * depth + "]" * depth


def fuzz_cases(seed=2001):
    """Invocations that each carry one bad value, grouped by the parser that
    must refuse it; the other arguments are valid."""
    rng = random.Random(seed)

    def bad_token():
        return rng.choice(["0", "3", "-3", "x", "1.5", "1e3", "--1", "0x1", "9" * 25])

    def long_letters():
        return [rng.choice([1, -1, 2, -2]) for _ in range(LONG // 2)]

    cases = []
    chain = json.loads(chain_document(400))
    bad_chains = {
        "extra-key": dict(chain, sheets=1),
        "degree-string": dict(chain, degree="401"),
        "degree-false": dict(chain, degree=False),
    }
    for kind, pair in (
        ("degenerate", lambda k: [k, k]),
        ("out-of-range", lambda k: [k, 402]),
        ("float", lambda k: [k, k + 0.5]),
        ("string", lambda k: [str(k), k + 1]),
        ("triple", lambda k: [k, k + 1, k + 2]),
    ):
        monodromy = list(chain["monodromy"])
        k = rng.randrange(len(monodromy))
        monodromy[k] = pair(k + 1)
        bad_chains[kind] = dict(chain, monodromy=monodromy)
    for kind, doc in bad_chains.items():
        command = rng.choice([["invariants"], ["act", "--braid", "1 -2"], ["lift", "--braid", ""]])
        cases.append((f"covering-{kind}", [command[0], "--covering", json.dumps(doc), *command[1:]]))
    text = chain_document(400)
    cases.append(("covering-truncated", ["invariants", "--covering", text[: rng.randrange(LONG, len(text))]]))
    cases.append(("covering-nested", ["canon", "--covering", nested(LONG)]))
    cases.append(("covering-junk", ["invariants", "--covering", "x" * LONG]))
    cases.append(("other-nested", ["equivalent", "--covering", P3, "--other", nested(LONG)]))

    letters = long_letters()
    letters.insert(rng.randrange(len(letters)), rng.choice([0, 3, -3, 1.5, "1"]))
    word_docs = {
        "base-high": {"base": 4, "word": []},
        "base-zero": {"base": 0, "word": []},
        "base-false": {"base": False, "word": []},
        "base-string": {"base": "1", "word": []},
        "word-bad-letter": {"base": 1, "word": letters},
        "missing-word": {"base": 1},
        "extra-key": {"base": 1, "word": [], "strands": 3},
        "not-a-document": [1, [2]],
    }
    for name, doc in word_docs.items():
        cases.append((f"curve-{name}", [rng.choice(["curve", "regular"]), "--covering", P3, "--curve", json.dumps(doc)]))
    cases.append(("curve-nested", ["curve", "--covering", P3, "--curve", nested(LONG)]))
    cases.append(("curve-truncated", ["curve", "--covering", P3, "--curve", json.dumps(word_docs["word-bad-letter"])[:LONG]]))
    for name, doc in word_docs.items():
        doc = {"base": 3, "word": []} if name == "base-high" else doc
        cases.append((f"interval-{name}", ["interval-type", "--covering", P3, "--interval", json.dumps(doc)]))
    cases.append(("interval-nested", ["interval-type", "--covering", P3, "--interval", nested(LONG)]))

    good = {"base": 1, "word": long_letters()}
    pair = [good, {"base": 2, "word": good["word"]}]
    for name, system in (
        ("not-a-list", good),
        ("bad-item", [good, 7]),
        ("shared-base", [good, dict(good)]),
        ("mixed-words", [good, {"base": 2, "word": []}]),
        ("bad-letter", [{"base": 1, "word": letters}]),
        ("empty", []),
    ):
        other = pair if isinstance(system, list) and len(system) == 2 else [good]
        argv = ["systems", "--covering", P3, "--curves-a", json.dumps(system), "--curves-b", json.dumps(other)]
        cases.append((f"system-{name}", argv))
    cases.append(("system-nested", ["systems", "--covering", P3, "--curves-a", "[]", "--curves-b", nested(LONG)]))

    for name, indices in (
        ("token", f"1,{bad_token()}"),
        ("zero", "0"),
        ("high", "4"),
        ("unsorted", "2,1"),
        ("repeated", "1,1"),
        ("long", ",".join(str(k) for k in range(1, LONG // 3))),
        ("long-token", ",".join(["1"] * (LONG // 2) + [bad_token()])),
    ):
        cases.append((f"indices-{name}", ["restrict", "--covering", P3, "--indices", indices]))

    for name, braid in (
        ("token", f"1 {bad_token()}"),
        ("long-token", " ".join(map(str, long_letters() + [bad_token()] + long_letters()))),
    ):
        cases.append((f"braid-{name}", [rng.choice(["act", "lift"]), "--covering", P3, "--braid", braid]))
    return cases


#: JSON ``true`` is read as the integer 1 wherever 1 is valid; a listed defect
#: of the benchmark, fixed together with it.
BOOLEAN_CASES = [
    ("covering-degree-true", ["invariants", "--covering", '{"degree": true, "monodromy": []}']),
    ("covering-pair-true", ["invariants", "--covering", '{"degree": 3, "monodromy": [[true, 2]]}']),
    ("curve-base-true", ["curve", "--covering", P3, "--curve", '{"base": true, "word": []}']),
    ("interval-word-true", ["interval-type", "--covering", P3, "--interval", '{"base": 1, "word": [true]}']),
]

FUZZ = [pytest.param(argv, id=name) for name, argv in fuzz_cases()] + [
    pytest.param(argv, id=name, marks=pytest.mark.xfail(strict=True, reason="JSON booleans read as integers"))
    for name, argv in BOOLEAN_CASES
]


@pytest.mark.parametrize("argv", FUZZ)
def test_fuzzed_bad_values_exit_1(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "invalid-input" and report["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["target", "--degree", "3", "--n", "4", "--omega", "x"], "cycle type must be comma-separated integers: 'x'"),
        (["target", "--degree", "3", "--n", "4", "--omega", "3,,1.5"], "cycle type must be comma-separated integers"),
        (["classify", "--degree", "3", "--n", "-2"], "branch point count n must be nonnegative, got -2"),
        (["invariants", "--covering", '{"degree": 100001, "monodromy": [[1, 2]]}'], "at most 100000, got 100001"),
        (["canon", "--covering", '{"degree": 1000000000, "monodromy": [[1, 2]]}'], "at most 100000"),
        (["target", "--degree", "100001", "--n", "200000"], "degree must be at most 100000, got 100001"),
        (["classify", "--degree", "100001", "--n", "0"], "degree must be at most 100000, got 100001"),
        (["classify", "--degree", "0", "--n", "1"], "degree must be at least 1, got 0"),
        (["target", "--degree", "3", "--n", "200001"], "branch point count n must be at most 200000, got 200001"),
        (["classify", "--degree", "2", "--n", "200001"], "branch point count n must be at most 200000, got 200001"),
        (["tcgens", "--n", "17"], "strand count n must be at most 16, got 17"),
        (["todd-coxeter", "--n", "17", "--words", ""], "strand count n must be at most 16, got 17"),
        (["verify-theorem-c", "--n", "17"], "strand count n must be at most 16, got 17"),
        (["verify-theorem-c", "--n", "-1"], "branch point count must be nonnegative"),
        (["verify-theorem-c", "--n", "0"], "branch point count must be at least 1"),
    ],
    ids=[
        "omega-letter",
        "omega-float",
        "classify-negative-n",
        "degree-past-bound",
        "degree-1e9",
        "target-degree-past-bound",
        "classify-degree-past-bound",
        "classify-degree-zero",
        "target-n-past-bound",
        "classify-n-past-bound",
        "tcgens-n-past-bound",
        "todd-coxeter-n-past-bound",
        "verify-theorem-c-n-past-bound",
        "verify-theorem-c-negative-n",
        "verify-theorem-c-zero-n",
    ],
)
def test_bad_argument_report_names_it(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "invalid-input" and message in report["error"]


def test_degree_bound_admits_large_coverings(capsys):
    document = json.dumps({"degree": 20_000, "monodromy": [[1, 20_000], [1, 2]]})
    code, out = run(capsys, "invariants", "--covering", document)
    assert code == 0 and payload(out)["boundary"] == 19_998
    assert parse_covering('{"degree": 100000, "monodromy": [[1, 100000]]}').degree == 100_000


def test_n_bounds_admit_their_limits(capsys):
    code, out = run(capsys, "classify", "--degree", "2", "--n", "200000")
    assert code == 0 and payload(out)["classes"][0]["count"] == 1
    code, out = run(capsys, "tcgens", "--n", "16")
    assert code == 0 and payload(out)["count"] == 16 * 15 // 2


def test_long_inline_covering_is_read_inline(capsys):
    document = chain_document(398)
    assert len(document) > LONG
    code, out = run(capsys, "invariants", "--covering", document)
    assert code == 0
    assert payload(out) == {"chi": 1, "boundary": 1, "omega": [399], "components": 1, "disk": True}
    code, out = run(capsys, "act", "--covering", document, "--braid", "1 -1")
    assert code == 0
    assert payload(out) == {"covering": json.loads(document)}
