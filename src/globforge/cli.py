"""Command-line interface.

Every command prints a canonical machine-readable document to stdout and,
with --report PATH, also writes it to a file.  Validation commands exit 0
exactly when the merged report has no violations; data commands exit 0 on
success.  Parse errors, unusable inputs and internal errors exit 2 with one
line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys

# The names cli takes from each layer.  A layer is imported when a command
# first needs it, and then all its names are bound as globals of this module
# at once, so `cli.<name>` stays the one place callers and the benchmark's
# tracer look them up.
_LAYER_NAMES = {
    "dsl": ("ParseError", "ParsedStructure", "parse_structure"),
    "globular": ("validate_globular",),
    "layers": (
        "ReflexorStructure", "validate_involutive", "validate_reflexive_compat", "validate_reflexors",
        "validate_reversors",
    ),
    "magma": (
        "AmbiguousInverseError", "NoInverseError", "compute_index", "derive_canonical_reversors",
        "validate_magma", "validate_strict",
    ),
    "report": ("ValidationReport", "emit_report"),
    "stretching": (
        "UnsupportedDimensionError", "dump_stretching", "generate_free_stretching", "load_stretching",
        "validate_stretching",
    ),
    "words": ("MalformedWordError", "free_groupoid_cells", "parse_word", "reduce_word", "word_name"),
    "engine": ("builtin_suites", "check_suite"),
}
_OWNER = {name: layer for layer, names in _LAYER_NAMES.items() for name in names}


def _import(*layers: str) -> None:
    """Import the layers and bind their names here, keeping names already bound."""
    scope = globals()
    for layer in layers:
        module = importlib.import_module(f".{layer}", __package__)
        for name in _LAYER_NAMES[layer]:
            scope.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _import(_OWNER[name])
    return globals()[name]


LAYERS = ("auto", "globular", "reversors", "reflexors", "magma", "strict", "stretching")
# a literal, so that building the parser imports no engine; a test keeps it
# equal to the keys of builtin_suites()
SUITE_CHOICES = ("S1", "S2", "S3a", "S3b", "S4", "S5a", "S5b", "S5c", "S6", "S7", "all")


def _emit(text: str, path: str | None) -> None:
    # the report file first: if it cannot be written, stdout stays empty
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"cannot write report {path}: {exc.strerror or exc}\n")
            raise SystemExit(2)
    sys.stdout.write(text)


def _dump(payload: dict, path: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", path)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load(path: str) -> ParsedStructure:
    _import("dsl")
    try:
        text = _read(path)
    except FileNotFoundError:
        sys.stderr.write(f"no such file: {path}\n")
        raise SystemExit(2)
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"{path}: {getattr(exc, 'strerror', None) or exc}\n")
        raise SystemExit(2)
    try:
        return parse_structure(text)
    except ParseError as exc:
        sys.stderr.write(f"{path}: {exc}\n")
        raise SystemExit(2)


def _validate(parsed: ParsedStructure, layer: str) -> ValidationReport:
    _import("globular", "layers", "magma", "report")
    rep = ValidationReport(parsed.name)
    gs = parsed.gs
    refl = parsed.refl if parsed.refl else ReflexorStructure({})
    # three layers depend on the reflexors; check them once
    reflexors = functools.cache(lambda: validate_reflexors(gs, refl))

    def want(name: str, declared: bool) -> bool:
        return layer == name or (layer == "auto" and declared)

    rep.extend(validate_globular(gs))
    if not rep.valid and layer != "globular":
        return rep  # layered validators assume a well-formed carrier
    if want("reversors", parsed.rev is not None):
        rev = parsed.rev
        if rev is None:
            rep.add("reversor.total", "reversor tables are total level-preserving maps", (),
                    "no reversor layer declared")
        else:
            rep.extend(validate_reversors(gs, rev))
            if rep.valid:
                rep.extend(validate_involutive(gs, rev))
                if parsed.refl:
                    # compat applies the reflexor tables, so they must be valid first
                    compat = reflexors()
                    if compat.valid:
                        compat = validate_reflexive_compat(gs, parsed.refl, rev)
                    rep.extend(compat)
    if want("reflexors", parsed.refl is not None):
        if parsed.refl is None:
            rep.add("reflexor.total", "one-step reflexor tables are total", (),
                    "no reflexor layer declared")
        else:
            rep.extend(reflexors())
    if want("magma", parsed.comp is not None) or want("strict", parsed.comp is not None):
        if parsed.comp is None:
            rep.add("positional.total", "composition is defined exactly on boundary-compatible pairs",
                    (), "no composition layer declared")
        else:
            rep.extend(reflexors())
            magma_rep = validate_magma(parsed.magma)
            rep.extend(magma_rep)
            if layer in ("auto", "strict") and magma_rep.valid:
                rep.extend(validate_strict(parsed.magma))
    return rep


def _cmd_validate(args) -> int:
    if args.layer == "stretching":
        _import("stretching", "report")
        try:
            E = load_stretching(_read(args.file))
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"{args.file}: not a stretching dump: {exc}\n")
            return 2
        rep = validate_stretching(E)
    else:
        rep = _validate(_load(args.file), args.layer)
    _emit(emit_report(rep), args.report)
    return 0 if rep.valid else 1


def _cmd_derive(args) -> int:
    parsed = _load(args.file)
    rep = _validate(parsed, "strict")
    if not rep.valid:
        _emit(emit_report(rep), args.report)
        return 1
    cat = parsed.as_category(args.n)
    try:
        rev = derive_canonical_reversors(cat, args.n)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except (NoInverseError, AmbiguousInverseError) as exc:
        rep = ValidationReport(parsed.name)
        rep.add("derive.inverse", "inverses in a strict structure are unique", (exc.cell,), str(exc))
        _emit(emit_report(rep), args.report)
        return 1
    payload = {
        "kind": "reversors",
        "subject": parsed.name,
        "threshold": args.n,
        "tables": {f"{m}.{p}": dict(sorted(t.items())) for (m, p), t in sorted(rev.maps.items())},
    }
    _dump(payload, args.report)
    return 0


def _cmd_index(args) -> int:
    parsed = _load(args.file)
    rep = _validate(parsed, "strict")
    if not rep.valid:
        _emit(emit_report(rep), args.report)
        return 1
    value = compute_index(parsed.as_category(0))
    _dump({"kind": "index", "subject": parsed.name, "index": value}, args.report)
    return 0


def _cmd_free_groupoid(args) -> int:
    parsed = _load(args.file)
    _import("globular", "report", "words")
    if parsed.gs.max_dim > 1:
        sys.stderr.write("free-groupoid needs a generating graph of dimension <= 1\n")
        return 2
    rep = validate_globular(parsed.gs)
    if not rep.valid:
        _emit(emit_report(rep), args.report)
        return 1
    try:
        cat = free_groupoid_cells(parsed.gs, args.max_len)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    payload = {
        "kind": "free-groupoid",
        "subject": parsed.name,
        "max_len": args.max_len,
        "points": list(cat.gs.grade(0)),
        "cells": list(cat.gs.grade(1)),
    }
    if args.reduce is not None:
        try:
            word = parse_word(parsed.gs, args.reduce)
        except MalformedWordError as exc:
            sys.stderr.write(f"malformed word: {exc}\n")
            return 2
        payload["reduced"] = word_name(reduce_word(parsed.gs, word))
    _dump(payload, args.report)
    return 0


def _cmd_stretch(args) -> int:
    parsed = _load(args.file)
    _import("stretching", "report")
    try:
        E = generate_free_stretching(parsed.gs, args.n, args.dim, args.size)
    except (UnsupportedDimensionError, ValueError) as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    rep = validate_stretching(E)
    _emit(dump_stretching(E), args.report)
    if not rep.valid:
        sys.stderr.write(emit_report(rep))
        return 1
    return 0


def _cmd_check_proofs(args) -> int:
    _import("engine", "report")
    suites = builtin_suites()
    if args.suite != "all":
        suites = {args.suite: suites[args.suite]}
    merged = ValidationReport("proof-suites")
    for key in sorted(suites):
        merged.extend(check_suite(suites[key]))
    _emit(emit_report(merged), args.report)
    return 0 if merged.valid else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="globforge",
        description="validate finite higher-dimensional structures and replay their equational proofs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the axiom validators on a presentation file")
    p.add_argument("file")
    p.add_argument("--layer", choices=LAYERS, default="auto")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("derive-reversors", help="derive the canonical reversor tables")
    p.add_argument("file")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("index", help="least threshold at which the structure is reversible")
    p.add_argument("file")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("free-groupoid", help="length-bounded free groupoid on a graph")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--reduce")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_free_groupoid)

    p = sub.add_parser("stretch", help="generate the bounded free stretching on a graph")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_stretch)

    p = sub.add_parser("check-proofs", help="replay the built-in derivation suites")
    p.add_argument(
        "--suite",
        choices=SUITE_CHOICES,
        default="all",
    )
    p.add_argument("--report")
    p.set_defaults(func=_cmd_check_proofs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:
        # exit 1 means "the report has violations", so a crash must not use it
        message = " ".join(f"internal error: {type(exc).__name__}: {exc}".splitlines())
        sys.stderr.write(message + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
