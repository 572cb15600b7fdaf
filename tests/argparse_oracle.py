"""The argparse command-line parser globforge's CLI used before its table-driven
reader, kept as a test oracle: the reader must accept what this parser accepts,
with the same attribute values, and refuse what it refuses, for the same reason."""

from __future__ import annotations

import argparse

from globforge.cli import (
    LAYERS,
    SUITE_CHOICES,
    _cmd_check_proofs,
    _cmd_derive,
    _cmd_free_groupoid,
    _cmd_index,
    _cmd_stretch,
    _cmd_validate,
)


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line, as its subcommand parsers do, with one line on stderr and exit 2."""

    def error(self, message: str):
        self.exit(2, " ".join(f"{self.prog}: {message}".splitlines()) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
