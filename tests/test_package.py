"""The package's public names and the modules each process loads.

``import diskcovers`` loads ``core`` and ``restrict``; each of the other four
compute modules loads on the first read of one of its names.  Each CLI
command loads only the modules it runs, and ``argparse`` only for help and
usage errors.  The import checks run in fresh interpreters and read
``sys.modules``, never timings.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diskcovers

#: Every public name of the package, by the submodule that defines it.
OWNERS = {
    "core": (
        "CapExceeded",
        "ComponentInvariants",
        "ComponentSignature",
        "CycleType",
        "DisconnectedCoveringError",
        "MonodromySequence",
        "NotRealizable",
        "Permutation",
        "SurfaceInvariants",
        "Transposition",
        "canonical_target",
        "components",
        "conjugating_permutation",
        "disk_covering",
        "is_disk",
        "is_equivalent",
        "omega_class",
        "surface_invariants",
        "total_monodromy",
    ),
    "restrict": (
        "END",
        "START",
        "RestrictionSpec",
        "restrict",
        "restricted_total_monodromy",
        "restriction_signature",
    ),
    "hurwitz": (
        "FORWARD",
        "INVERSE",
        "BraidWord",
        "CanonicalizationResult",
        "act",
        "apply_moves",
        "canonicalize",
        "elementary_move",
        "replay_certificate",
    ),
    "lift": (
        "CurveRef",
        "IntervalRef",
        "count_regular_bases",
        "curve_monodromy",
        "index0_curve",
        "index0_interval",
        "index1_curve",
        "index1_interval",
        "interval_braid",
        "interval_type",
        "is_liftable",
        "is_regular_curve",
        "liftable_interval_powers",
        "reference_alpha_monodromy",
        "standard_curve",
        "standard_interval",
        "systems_liftable_equivalent",
        "theorem_c_generators",
        "transport_curve",
        "transport_interval",
        "twisted_interval",
    ),
    "orbit": (
        "OrbitClass",
        "OrbitTable",
        "all_sequences",
        "classify_all",
        "enumeration_bound",
        "hurwitz_orbit",
        "schreier_generators",
        "stabilizer_index",
    ),
    "cosets": (
        "CosetTable",
        "Inconclusive",
        "IntervalGenerationReport",
        "Presentation",
        "TheoremCReport",
        "braid_presentation",
        "interval_powers_index",
        "todd_coxeter",
        "verify_theorem_c",
    ),
}
LAZY = ("hurwitz", "lift", "orbit", "cosets")
#: Standard modules that no diskcovers process loads: importing
#: ``dataclasses``, which imports ``inspect``, takes about a fifth of the time
#: a bare interpreter takes to start.
UNLOADED = ("dataclasses", "inspect")
#: Standard modules that no diskcovers process imports either, though a site
#: ``.pth`` file may load them before the program starts, so they are checked
#: under ``python -S``: ``typing`` takes about 4 ms to import and ``pathlib``,
#: with its own imports, about 7.
UNIMPORTED = ("typing", "pathlib")
#: Standard modules that only help and usage errors load: the CLI reads a
#: plain command line itself, and ``argparse``, with the ``gettext`` and
#: ``locale`` it loads, takes about 3.5 ms of a process.
PARSER_MODULES = ("argparse", "gettext", "locale")
P3 = '{"degree": 4, "monodromy": [[1, 2], [2, 3], [3, 4]]}'

#: Runs the CLI as ``python -m diskcovers.cli`` would, then prints its exit
#: code and the loaded modules, of diskcovers, of UNLOADED, of UNIMPORTED and
#: of PARSER_MODULES, as the last line of stdout.
RUN_CLI = f"""
import json, runpy, sys
sys.argv = ["diskcovers", *json.loads(sys.argv[1])]
try:
    runpy.run_module("diskcovers.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("diskcovers") or m in {UNLOADED + UNIMPORTED + PARSER_MODULES!r})]))
"""


def fresh_process(code: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter started with ``flags``."""
    env = dict(os.environ, PYTHONPATH=str(Path(diskcovers.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )


def fresh(code: str, *args: str, flags: tuple[str, ...] = ()) -> str:
    """The last line ``code`` prints in a fresh interpreter started with ``flags``."""
    return fresh_process(code, *args, flags=flags).stdout.splitlines()[-1]


def test_all_lists_every_public_name():
    expected = [name for names in OWNERS.values() for name in names]
    assert len(expected) == 72
    assert sorted(diskcovers.__all__) == sorted(expected)


@pytest.mark.parametrize("module", OWNERS)
def test_each_name_is_its_modules_own_object(module):
    owner = importlib.import_module(f"diskcovers.{module}")
    for name in OWNERS[module]:
        assert getattr(diskcovers, name) is getattr(owner, name), name


def test_cap_exceeded_is_one_class():
    from diskcovers import core, cosets, orbit

    assert diskcovers.CapExceeded is core.CapExceeded is orbit.CapExceeded
    assert cosets.Inconclusive.__bases__ == (core.CapExceeded,)
    assert core.CapExceeded.__module__ == "diskcovers.core"


def test_dir_and_star_import_list_every_name():
    assert set(diskcovers.__all__) <= set(dir(diskcovers))
    namespace: dict = {}
    exec("from diskcovers import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(diskcovers.__all__)
    assert all(namespace[name] is getattr(diskcovers, name) for name in namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        diskcovers.no_such_name


def test_bare_import_loads_core_and_restrict_only():
    code = f"import sys, diskcovers; print(sorted(m for m in sys.modules if m.startswith('diskcovers') or m in {UNLOADED!r}))"
    assert fresh(code) == str(["diskcovers", "diskcovers.core", "diskcovers.restrict"])


def test_submodule_import_keeps_the_restrict_function():
    assert fresh("import diskcovers.restrict, diskcovers; print(type(diskcovers.restrict).__name__)") == "function"


def test_lazy_submodule_resolves_after_bare_import():
    assert fresh("import diskcovers; print(diskcovers.orbit.DEFAULT_CAP)") == str(10**6)


@pytest.mark.parametrize(
    "name, lazy_loaded",
    [("act", ["hurwitz"]), ("CurveRef", ["hurwitz", "lift"]), ("verify_theorem_c", sorted(LAZY))],
    ids=["act", "CurveRef", "verify_theorem_c"],
)
def test_reading_a_name_loads_its_module_only(name, lazy_loaded):
    code = f"import sys, diskcovers; diskcovers.{name}; print(sorted(m[11:] for m in sys.modules if m[:11] == 'diskcovers.' and m[11:] in {LAZY}))"
    assert fresh(code) == str(lazy_loaded)


def test_submodule_import_binds_its_names_in_the_package():
    # The benchmark's tracer imports the submodules, then patches the
    # functions it finds in the package namespace.
    code = "import diskcovers.hurwitz, diskcovers; print(sorted({'act', 'todd_coxeter'} & set(vars(diskcovers))))"
    assert fresh(code) == str(["act"])


#: Command lines, their exit codes and the lazily loaded modules they load.
CLI_RUNS = {
    "invariants": (["invariants", "--covering", P3], 0, set()),
    "malformed-covering": (["invariants", "--covering", '{"degree": 3, "monodromy": [[2, 2]]}'], 1, set()),
    "act": (["act", "--covering", P3, "--braid", "2 1 -2"], 0, {"hurwitz"}),
    "canon": (["canon", "--covering", P3], 0, {"hurwitz"}),
    "target": (["target", "--degree", "4", "--n", "4", "--omega", "3"], 0, set()),
    "curve": (["curve", "--covering", P3, "--curve", '{"base": 1, "word": [2]}'], 0, {"hurwitz", "lift"}),
    "verify-theorem-c": (["verify-theorem-c", "--n", "3"], 0, set(LAZY)),
}


@pytest.mark.parametrize("argv, exit_code, lazy_loaded", CLI_RUNS.values(), ids=CLI_RUNS)
def test_cli_command_loads_only_what_it_runs(argv, exit_code, lazy_loaded):
    code, modules = json.loads(fresh(RUN_CLI, json.dumps(argv)))
    assert code == exit_code
    assert not set(UNLOADED) & set(modules)
    assert {"diskcovers.core", "diskcovers.restrict"} <= set(modules)
    assert {m for m in LAZY if f"diskcovers.{m}" in modules} == lazy_loaded


@pytest.mark.parametrize(
    "argv, exit_code", [run[:2] for run in CLI_RUNS.values()] + [(None, 0)], ids=[*CLI_RUNS, "covering-file"]
)
def test_cli_command_imports_neither_typing_nor_pathlib(argv, exit_code, tmp_path):
    if argv is None:  # canon of a covering read from a file
        path = tmp_path / "p3.json"
        path.write_text(P3, encoding="utf-8")
        argv = ["canon", "--covering", str(path)]
    code, modules = json.loads(fresh(RUN_CLI, json.dumps(argv), flags=("-S",)))
    assert code == exit_code
    assert not set(UNLOADED + UNIMPORTED + PARSER_MODULES) & set(modules)


@pytest.mark.parametrize(
    "argv, exit_code, stream", [(["invariants", "--help"], 0, "stdout"), (["invariants"], 1, "stderr")]
)
def test_cli_help_and_usage_error_load_the_parser(argv, exit_code, stream):
    child = fresh_process(RUN_CLI, json.dumps(argv), flags=("-S",))
    *printed, last = child.stdout.splitlines(keepends=True)
    code, modules = json.loads(last)
    assert code == exit_code
    streams = {"stdout": "".join(printed), "stderr": child.stderr}
    assert "usage: diskcovers invariants [-h]" in streams.pop(stream)
    assert list(streams.values()) == [""]  # nothing on the other stream
    assert set(PARSER_MODULES) <= set(modules)
