"""Finite truncated higher-dimensional structures: validators, free
constructions, and a derivation checker for their equational theory.

Importing the package imports none of its layers: each exported name and
each submodule is imported the first time it is read (PEP 562), so a
command pays only for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# defining submodule -> the names the package exports from it
_EXPORTS = {
    "globular": (
        "GlobularMorphism", "TruncatedGlobularSet", "boundary", "globular_set", "parallel",
        "validate_globular", "validate_morphism",
    ),
    "layers": (
        "ReflexorStructure", "ReversorStructure", "validate_involutive", "validate_reflexive_compat",
        "validate_reflexors", "validate_reversors",
    ),
    "magma": (
        "AmbiguousInverseError", "CompositionStructure", "InfinityMagma", "NMagma", "NoInverseError",
        "StrictNCategory", "check_functor_reversors", "compute_index", "derive_canonical_reversors",
        "validate_magma", "validate_strict",
    ),
    "report": ("ValidationReport", "Violation", "emit_report", "parse_report"),
    "stretching": (
        "Stretching", "dump_stretching", "generate_free_stretching", "induced_algebra_magma",
        "load_stretching", "validate_stretching",
    ),
    "terms": ("StretchTerm", "TermContext"),
    "normalform": ("Strictifier", "normalize2"),
    "words": ("Word", "free_groupoid_cells", "make_word", "parse_word", "reduce_word", "word_name"),
    "dsl": ("ParseError", "parse_structure"),
    "engine": ("builtin_suites", "check_derivation", "check_suite", "rule_library"),
    "cli": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_OWNER})
