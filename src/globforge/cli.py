"""Command-line interface.

Every command prints a canonical machine-readable document to stdout and,
with --report PATH, also writes it to a file.  Validation commands exit 0
exactly when the merged report has no violations; data commands exit 0 on
success.  Parse errors, unusable inputs and internal errors exit 2 with one
line on stderr.  A process runs its command through run(), which turns the
cyclic collector off (its passes over a Z100 table's 10k keys cost a validate
about 1 ms), then flushes the output and exits without tearing the interpreter
down, which took about 4 ms a command.  What cycles a command leaves stay until
the exit: chiefly the proof engine's term tables, each term pointing back at
its table, about 2,200 objects (0.23 MB) for check-proofs over every suite.  The
command line is read against the one table _COMMANDS, so importing this module
loads no option parser, json, re or typing: under `python -S` (Python 3.11.7,
a shared 2-core host) the import takes about 11 ms, and a whole check-proofs
--suite S2 about 17 ms.
"""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace

# The names cli takes from each layer.  A layer is imported when a command
# first needs it, and then all its names are bound as globals of this module
# at once, so `cli.<name>` stays the one place callers and the benchmark's
# tracer look them up.
_LAYER_NAMES = {
    "dsl": ("ParseError", "ParsedStructure", "parse_structure"),
    "globular": ("validate_globular",),
    "layers": (
        "LAW_REFLEXOR_TOTAL", "LAW_REVERSOR_TOTAL", "validate_involutive", "validate_reflexive_compat",
        "validate_reflexors", "validate_reversors",
    ),
    "magma": (
        "LAW_COMP_TOTAL", "LAW_UNIQUE_INVERSE", "AmbiguousInverseError", "NoInverseError", "StrictNCategory",
        "compute_index", "derive_canonical_reversors", "validate_magma", "validate_strict",
    ),
    "report": ("ValidationReport", "emit_report"),
    "stretching": (
        "InvalidGraphError", "UnsupportedDimensionError", "dump_stretching", "generate_free_stretching",
        "load_stretching", "validate_stretching",
    ),
    "words": (
        "MalformedWordError", "free_groupoid_cells", "parse_word", "reduce_word", "reduced_words_by_name", "word_name",
    ),
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
# a literal, so that reading the command line imports no engine; a test keeps
# it equal to the keys of builtin_suites()
SUITE_CHOICES = ("S1", "S2", "S3a", "S3b", "S4", "S5a", "S5b", "S5c", "S6", "S7", "all")


def _emit(text: str, path: str | None) -> None:
    _stream(lambda sink: sink.write(text), path)


def _stream(write, path: str | None) -> None:
    """Write what write(sink) writes to the report file, if any, so stdout stays empty if that fails,
    then to stdout: a copy of the file, or written again when the path cannot be read back."""
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                write(fh)
        except OSError as exc:
            sys.stderr.write(f"cannot write report {path}: {exc.strerror or exc}\n")
            raise SystemExit(2)
    try:
        if path and os.path.isfile(path):
            left = os.path.getsize(path)  # documents are ASCII; stdout may append to this very file
            with open(path, encoding="utf-8", newline="") as fh:
                while left > 0 and (chunk := fh.read(min(left, 1 << 20))):
                    sys.stdout.write(chunk)
                    left -= len(chunk)
        else:
            write(sys.stdout)
    except OSError as exc:
        sys.stderr.write(f"cannot write stdout: {exc.strerror or exc}\n")
        raise SystemExit(2)


def _dump(payload: dict, path: str | None) -> None:
    from .report import write_json
    _stream(lambda sink: write_json(payload, sink.write), path)


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
    gs, rev, refl, comp = parsed.gs, parsed.rev, parsed.magma.refl, parsed.magma.comp
    reflexor_rep: ValidationReport | None = None

    def reflexors() -> bool:
        """Three layers depend on the reflexors: check them and merge their report once."""
        nonlocal reflexor_rep
        if reflexor_rep is None:
            reflexor_rep = validate_reflexors(gs, refl)
            rep.extend(reflexor_rep)
        return reflexor_rep.valid

    def want(name: str, structure) -> bool:  # under auto, a layer is declared when it holds a table
        return layer == name or (layer == "auto" and bool(structure.maps))

    rep.extend(validate_globular(gs))
    if not rep.valid and layer != "globular":
        return rep  # layered validators assume a well-formed carrier
    if want("reversors", rev):
        if not rev.maps:
            rep.add("reversor.total", LAW_REVERSOR_TOTAL, (), "no reversor layer declared")
        else:
            rep.extend(validate_reversors(gs, rev))
            if rep.valid:
                rep.extend(validate_involutive(gs, rev))
                # compat applies the reflexor tables, so they must be valid first
                if refl.maps and reflexors():
                    rep.extend(validate_reflexive_compat(gs, refl, rev))
    if want("reflexors", refl):
        if not refl.maps:
            rep.add("reflexor.total", LAW_REFLEXOR_TOTAL, (), "no reflexor layer declared")
        else:
            reflexors()
    if want("magma", comp) or want("strict", comp):
        if not comp.maps:
            rep.add("positional.total", LAW_COMP_TOTAL, (), "no composition layer declared")
        else:
            reflexors()
            magma_rep = validate_magma(parsed.magma)
            rep.extend(magma_rep)
            if layer in ("auto", "strict") and magma_rep.valid:
                rep.extend(validate_strict(parsed.magma))
    return rep


def _strict(args) -> ParsedStructure:
    """The file's structure once it validates as strict; otherwise its report is emitted and the command exits 1."""
    parsed = _load(args.file)
    rep = _validate(parsed, "strict")
    if not rep.valid:
        _emit(emit_report(rep), args.report)
        raise SystemExit(1)
    return parsed


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
    if args.n < 0:  # a bad argument, whatever the file holds
        sys.stderr.write(f"the reversor threshold must be >= 0, got {args.n}\n")
        return 2
    parsed = _strict(args)
    try:
        rev = derive_canonical_reversors(StrictNCategory(parsed.magma, args.n), args.n)
    except (NoInverseError, AmbiguousInverseError) as exc:
        rep = ValidationReport(parsed.name)
        rep.add("derive.inverse", LAW_UNIQUE_INVERSE, (exc.cell,), str(exc))
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
    parsed = _strict(args)
    value = compute_index(StrictNCategory(parsed.magma, 0))
    _dump({"kind": "index", "subject": parsed.name, "index": value}, args.report)
    return 0


def _cmd_free_groupoid(args) -> int:
    if args.max_len < 0:  # a bad argument, whatever the file or the word holds
        sys.stderr.write(f"the word-length bound must be >= 0, got {args.max_len}\n")
        return 2
    parsed = _load(args.file)
    _import("globular", "report", "words")
    if parsed.gs.max_dim > 1:
        sys.stderr.write("free-groupoid needs a generating graph of dimension <= 1\n")
        return 2
    rep = validate_globular(parsed.gs)
    if not rep.valid:
        _emit(emit_report(rep), args.report)
        return 1
    word = None
    if args.reduce is not None:  # before the words are enumerated, so a bad word fails fast
        try:
            word = parse_word(parsed.gs, args.reduce)
        except MalformedWordError as exc:
            sys.stderr.write(f"malformed word: {exc}\n")
            return 2
    # the cells are the reduced words; no composite is formed
    payload = {
        "kind": "free-groupoid",
        "subject": parsed.name,
        "max_len": args.max_len,
        "points": list(parsed.gs.grade(0)),
        "cells": list(reduced_words_by_name(parsed.gs, args.max_len)),
    }
    if word is not None:
        payload["reduced"] = word_name(reduce_word(parsed.gs, word))
    _dump(payload, args.report)
    return 0


def _cmd_stretch(args) -> int:
    parsed = _load(args.file)
    _import("stretching", "report")
    try:
        E = generate_free_stretching(parsed.gs, args.n, args.dim, args.size)
    except InvalidGraphError as exc:
        _emit(emit_report(exc.report), args.report)
        return 1
    except (UnsupportedDimensionError, ValueError) as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    rep = validate_stretching(E)
    _stream(lambda sink: dump_stretching(E, sink), args.report)
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


_REPORT = {"--report": (str, None, None, False)}
_BOUND = (int, None, None, True)
# Each command: its positional argument (None if it takes none); its flags in usage order, each
# name -> (type, choices, default, required); its handler; and what it does.
_COMMANDS = {
    "validate": ("file", {"--layer": (str, LAYERS, "auto", False), **_REPORT}, _cmd_validate,
                 "run the axiom validators on a presentation file"),
    "derive-reversors": ("file", {"--n": (int, None, 0, False), **_REPORT}, _cmd_derive,
                         "derive the canonical reversor tables"),
    "index": ("file", _REPORT, _cmd_index, "least threshold at which the structure is reversible"),
    "free-groupoid": ("file", {"--max-len": _BOUND, "--reduce": (str, None, None, False), **_REPORT},
                      _cmd_free_groupoid, "length-bounded free groupoid on a graph"),
    "stretch": ("file", {"--n": _BOUND, "--dim": _BOUND, "--size": _BOUND, **_REPORT}, _cmd_stretch,
                "generate the bounded free stretching on a graph"),
    "check-proofs": (None, {"--suite": (str, SUITE_CHOICES, "all", False), **_REPORT}, _cmd_check_proofs,
                     "replay the built-in derivation suites"),
}
_HELP = ("-h", "--help")
_ABOUT = "validate finite higher-dimensional structures and replay their equational proofs"


def _refuse(prog: str, message: str):
    sys.stderr.write(" ".join(f"{prog}: {message}".splitlines()) + "\n")
    raise SystemExit(2)


def _listed(choices) -> str:
    return ", ".join(map(repr, choices))


def _option(token: str, names: tuple[str, ...], prog: str) -> tuple[str | None, str | None] | None:
    """What token is among the option strings names: None for a positional, else the option it names
    by its whole name or a unique prefix (None if none) and the value attached, as in --flag=value."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    key, eq, value = token.partition("=")
    if eq and key in names:
        return key, value
    if token[1] == "-":
        found = [(name, value if eq else None) for name in names if name.startswith(key)]
    else:  # a short option with its value attached, as in -hx
        found = [(name, token[2:]) for name in names if name == token[:2]]
    if len(found) > 1:
        _refuse(prog, f"ambiguous option: {token} could match {', '.join(name for name, _ in found)}")
    # a negative number, -\d+ or -\d*\.\d+ (where $ also matches before a final newline), is a positional
    number = (digits := token[1:].removesuffix("\n")).replace(".", "", 1).isdecimal() and digits[-1] != "."
    return found[0] if found else None if number or " " in token else (None, None)


def _help(prog: str, option: tuple[str, str | None]):
    """Print the usage of every command and exit 0, or refuse a value attached to the help flag
    (-hh is -h twice)."""
    name, value = option
    if name == "-h" and value:
        value = value.lstrip("h") or None
    if value is not None:
        _refuse(prog, f"argument -h/--help: ignored explicit argument {value!r}")
    lines = ["usage: globforge [-h] COMMAND ...", "", _ABOUT, ""]
    for command, (positional, flags, _, about) in _COMMANDS.items():
        words = [" ", "globforge", command, "[-h]"]
        for flag, (_, choices, _, required) in flags.items():
            word = f"{flag} {{{','.join(choices)}}}" if choices else f"{flag} {flag[2:].upper()}"
            words.append(word if required else f"[{word}]")
        lines += [" ".join(words + [positional] * bool(positional)), f"      {about}"]
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read against _COMMANDS, or refused with one line on stderr and exit 2, by the rules and
    in the words of the standard library's argparse, which the README lists."""
    at = 0  # options before the command: help, or unknown ones, refused once the command's are read
    while at < len(argv) and argv[at] != "--" and (option := _option(argv[at], _HELP, "globforge")):
        if option[0]:
            _help("globforge", option)
        at += 1
    if argv[at:] in ([], ["--"]):
        _refuse("globforge", "the following arguments are required: command")
    command, tokens, extras = argv[at], argv[at + 1:], argv[:at]
    if command not in _COMMANDS:
        _refuse("globforge", f"argument command: invalid choice: {command!r} (choose from {_listed(_COMMANDS)})")
    prog, (positional, flags, func, _) = f"globforge {command}", _COMMANDS[command]
    end = tokens.index("--") if "--" in tokens else len(tokens)  # every token after the first -- is positional
    options = [_option(token, (*_HELP, *flags), prog) for token in tokens[:end]] + ["--"] + [None] * len(tokens)
    values, taken, at = {flag: spec[2] for flag, spec in flags.items()}, None, 0  # taken: the positional's index
    while at < len(tokens):
        token, option = tokens[at], options[at]
        if option is None and positional and taken is None:
            taken, values[positional] = at, token
        elif option == "--" and positional and (taken == at - 1 or taken is None and at + 1 < len(tokens)):
            pass  # the positional takes along a -- beside it
        elif option in (None, "--") or option[0] is None:
            extras.append(token)
        elif option[0] in _HELP:
            _help(prog, option)
        else:
            name, value = option
            if value is None:  # the next token, unless it is an option or the first --
                if at + 1 == len(tokens) or options[at + 1] is not None:
                    _refuse(prog, f"argument {name}: expected one argument")
                at += 1
                value = tokens[at]
            kind, choices, _, _ = flags[name]
            try:
                values[name] = kind(value)
            except ValueError:
                _refuse(prog, f"argument {name}: invalid {kind.__name__} value: {value!r}")
            if choices and values[name] not in choices:
                _refuse(prog, f"argument {name}: invalid choice: {value!r} (choose from {_listed(choices)})")
        at += 1
    required = [positional] * bool(positional) + [flag for flag, spec in flags.items() if spec[3]]
    if missing := [name for name in required if values.get(name) is None]:
        _refuse(prog, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _refuse("globforge", f"unrecognized arguments: {' '.join(extras)}")
    values = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}  # --max-len: max_len
    return SimpleNamespace(command=command, func=func, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:
        # exit 1 means "the report has violations", so a crash must not use it
        message = " ".join(f"internal error: {type(exc).__name__}: {exc}".splitlines())
        sys.stderr.write(message + "\n")
        return 2


def run() -> None:
    """Run main without the cyclic collector and end the process with its code once stdout and stderr are
    flushed.  os._exit skips the interpreter's teardown, about 4 ms per command; a refused flush exits 2."""
    import gc  # a command needs it, an import of this module does not
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code != 2:  # a command that exits 2 has written its one line, maybe for this very stdout
            sys.stderr.write(f"cannot write stdout: {exc.strerror or exc}\n")
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
