"""Simple branched coverings of the disk: classification, liftable braids,
restrictions, and orbit/coset verification of the half-twist generator sets.

``import diskcovers`` loads :mod:`~diskcovers.core` and
:mod:`~diskcovers.restrict` only, so that a command-line process pays for no
module it does not run.  :mod:`~diskcovers.hurwitz`, :mod:`~diskcovers.lift`,
:mod:`~diskcovers.orbit` and :mod:`~diskcovers.cosets` load on first use
(PEP 562): reading one of their names here, or the submodule itself, imports
the module that owns it, with the modules it imports.  A module's names are
bound here when the import system attaches it to the package, however it was
imported, so the package namespace holds the names of exactly the modules
loaded so far, and code that patches it after importing a submodule finds
that module's names there.  ``__all__`` lists every public name, whichever
module owns it.
"""

import sys
from importlib import import_module
from types import ModuleType

from .core import (
    CapExceeded,
    ComponentInvariants,
    ComponentSignature,
    CycleType,
    DisconnectedCoveringError,
    MonodromySequence,
    NotRealizable,
    Permutation,
    SurfaceInvariants,
    Transposition,
    canonical_target,
    components,
    conjugating_permutation,
    disk_covering,
    is_disk,
    is_equivalent,
    omega_class,
    surface_invariants,
    total_monodromy,
)
# Imported eagerly: a submodule imported after the package would overwrite the
# function ``restrict`` with the module of that name.
from .restrict import END, START, RestrictionSpec, restrict, restricted_total_monodromy, restriction_signature

#: The names loaded on first use, by the submodule that owns them.
_LAZY = {
    "hurwitz": (
        "FORWARD", "INVERSE", "BraidWord", "CanonicalizationResult", "act", "apply_moves", "canonicalize",
        "elementary_move", "replay_certificate",
    ),
    "lift": (
        "CurveRef", "IntervalRef", "count_regular_bases", "curve_monodromy", "index0_curve",
        "index0_interval", "index1_curve", "index1_interval", "interval_braid", "interval_type",
        "is_liftable", "is_regular_curve", "liftable_interval_powers", "reference_alpha_monodromy",
        "standard_curve", "standard_interval", "systems_liftable_equivalent", "theorem_c_generators",
        "transport_curve", "transport_interval", "twisted_interval",
    ),
    "orbit": (
        "OrbitClass", "OrbitTable", "all_sequences", "classify_all", "enumeration_bound", "hurwitz_orbit",
        "schreier_generators", "stabilizer_index",
    ),
    "cosets": (
        "CosetTable", "Inconclusive", "IntervalGenerationReport", "Presentation", "TheoremCReport",
        "braid_presentation", "interval_powers_index", "todd_coxeter", "verify_theorem_c",
    ),
}

__all__ = [
    "CapExceeded", "ComponentInvariants", "ComponentSignature", "CycleType", "DisconnectedCoveringError",
    "MonodromySequence", "NotRealizable", "Permutation", "SurfaceInvariants", "Transposition",
    "canonical_target", "components", "conjugating_permutation", "disk_covering", "is_disk", "is_equivalent",
    "omega_class", "surface_invariants", "total_monodromy", "END", "START", "RestrictionSpec", "restrict",
    "restricted_total_monodromy", "restriction_signature",
    *(name for names in _LAZY.values() for name in names),
]

__version__ = "0.1.0"


def _bind(module: ModuleType) -> None:
    globals().update((name, getattr(module, name)) for name in _LAZY[module.__name__.rpartition(".")[2]])


class _Package(ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        super().__setattr__(name, value)
        # The import system attaches each submodule here once it has run,
        # however it was imported: bind its names with it.
        if name in _LAZY and isinstance(value, ModuleType):
            _bind(value)


def __getattr__(name: str):
    for module_name, names in _LAZY.items():
        if name == module_name or name in names:
            _bind(import_module(f"{__name__}.{module_name}"))
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


sys.modules[__name__].__class__ = _Package
