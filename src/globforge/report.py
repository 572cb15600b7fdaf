"""Validation reports and their canonical serialized form.

Every validator in the package returns a ValidationReport: a subject name
plus a list of violations.  A violation records which axiom failed (a stable
dotted identifier), the mathematical law behind it, the cells or steps
involved, and a human-readable detail line.  The report is valid iff the
violation list is empty.

Serialization is canonical JSON, the text json.dumps(payload, sort_keys=True,
indent=2) writes, which emit_report writes directly from its fixed schema:
violations sorted by axiom id then by the involved cell names.  emit_report
followed by parse_report is the identity, and distinct reports serialize to
distinct byte strings, which makes the format suitable for golden-file
tests.  write_json writes the package's other documents, CLI payloads and
stretching dumps, in the same form, and encodes each distinct dict key,
dict value and row item once per document; neither writer imports json.
"""

from __future__ import annotations

from _json import encode_basestring_ascii
from collections.abc import Callable

from ._record import Record


class Violation(Record):
    __slots__ = _fields = ("axiom", "law", "cells", "detail")

    def __init__(self, axiom: str, law: str, cells: tuple[str, ...], detail: str) -> None:
        put = object.__setattr__
        put(self, "axiom", axiom)
        put(self, "law", law)
        put(self, "cells", cells)
        put(self, "detail", detail)

    def sort_key(self) -> tuple:
        # all fields participate, so canonical ordering never ties
        return (self.axiom, self.cells, self.detail, self.law)


class ValidationReport(Record):
    __slots__ = _fields = ("subject", "violations")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, subject: str, violations: list[Violation] | None = None) -> None:
        self.subject = subject  # plain stores: a checker makes one report per derivation
        self.violations = [] if violations is None else violations

    @property
    def valid(self) -> bool:
        return not self.violations

    def add(self, axiom: str, law: str, cells: tuple[str, ...], detail: str) -> None:
        self.violations.append(Violation(axiom, law, cells, detail))

    def extend(self, other: "ValidationReport") -> None:
        self.violations.extend(other.violations)

    def sorted(self) -> "ValidationReport":
        return ValidationReport(self.subject, sorted(set(self.violations), key=Violation.sort_key))

    def axiom_ids(self) -> set[str]:
        return {v.axiom for v in self.violations}

    def families(self) -> set[str]:
        """Axiom families: the identifier up to the first dot."""
        return {v.axiom.split(".", 1)[0] for v in self.violations}


_REPORT = '{{\n  "subject": {},\n  "valid": {},\n  "violations": {}\n}}\n'
_ENTRY = '\n    {{\n      "axiom": {},\n      "cells": {},\n      "detail": {},\n      "law": {}\n    }}'
_CELLS = "[\n        {}\n      ]"


def emit_report(report: ValidationReport) -> str:
    """Serialize a report to its canonical textual form."""
    rep = report.sorted()
    quote = encode_basestring_ascii
    entries = ",".join(
        _ENTRY.format(quote(v.axiom), _CELLS.format(",\n        ".join(map(quote, v.cells))) if v.cells else "[]",
                      quote(v.detail), quote(v.law))
        for v in rep.violations
    )
    violations = f"[{entries}\n  ]" if entries else "[]"
    return _REPORT.format(quote(rep.subject), "true" if rep.valid else "false", violations)


def parse_report(text: str) -> ValidationReport:
    """Inverse of emit_report on canonical report text."""
    import json  # here, not at the top: no writer needs it
    payload = json.loads(text)
    rep = ValidationReport(payload["subject"])
    for entry in payload["violations"]:
        rep.add(entry["axiom"], entry["law"], tuple(entry["cells"]), entry["detail"])
    if bool(payload["valid"]) != rep.valid:
        raise ValueError("report text is inconsistent: valid flag does not match violations")
    return rep


_CHUNK = 512  # items per join: at S=10, about 70K characters of a cell table


class _Texts(dict):
    """Each str's JSON text, encoded on its first lookup.  An int is spelt, not kept: True == 1 == 1.0."""

    def __missing__(self, s):
        if type(s) is int:
            return int.__repr__(s)
        text = self[s] = encode_basestring_ascii(s)  # a TypeError on any other type
        return text


def write_json(obj, write: Callable[[str], object]) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2) + "\n" through write.

    obj is a tree of dicts with str keys, lists, strs and ints; any other type
    raises TypeError.  A dict keyed by tuples stands for the list of its rows
    [*key, value] in key order, so a table is written without a copy.  Items
    are encoded _CHUNK at a time, a chunk of strs by one join, and write gets
    the pieces joined, at most about 64K characters or one chunk at a time.
    Dict keys, dict values and row items are encoded once per call, list items each time.
    """
    encode = encode_basestring_ascii
    text = _Texts().__getitem__
    parts: list[str] = []
    pending = 0  # characters in the joins held in parts

    def flush() -> None:
        nonlocal pending
        write("".join(parts))
        parts.clear()
        pending = 0

    def emit(x, nl: str, scalar: Callable[[str], str]) -> None:  # nl: newline and indentation of x's line
        nonlocal pending
        if isinstance(x, str):
            parts.append(scalar(x))
        elif isinstance(x, int) and not isinstance(x, bool):
            parts.append(int.__repr__(x))
        elif not isinstance(x, (list, dict)):
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        elif not x:
            parts.append("{}" if isinstance(x, dict) else "[]")
        else:
            is_dict = isinstance(x, dict)
            items = sorted(x) if is_dict else x  # unique keys: json's order of sorted items
            rows = is_dict and isinstance(items[0], tuple)
            if is_dict and not rows and not isinstance(items[0], str):  # sorted, so no key is a str
                raise TypeError(f"keys must be str, not {type(items[0]).__name__}")
            opening, closing = "{}" if is_dict and not rows else "[]"
            inner = nl + "  "
            sep = "," + inner
            head, deeper, tail = "[" + inner + "  ", sep + "  ", inner + "]"  # a row's items go a level deeper
            parts.append(opening + inner)
            for start in range(0, len(items), _CHUNK):
                chunk = items[start:start + _CHUNK]
                if start:
                    parts.append(sep)
                try:
                    if rows:  # each row [*key, value]
                        body = sep.join([head + deeper.join(map(text, (*k, x[k]))) + tail for k in chunk])
                    elif is_dict:
                        body = sep.join(map(": ".join, zip(map(text, chunk), map(text, map(x.__getitem__, chunk)))))
                    else:
                        body = sep.join(map(encode, chunk))
                except TypeError:  # an item no join above writes: one item at a time, where the culprit raises
                    for i, item in enumerate(chunk):
                        if i:
                            parts.append(sep)
                        if rows:
                            item = [*item, x[item]]
                        elif is_dict:
                            parts.append(text(item) + ": ")
                            item = x[item]
                        emit(item, inner, text if is_dict and not rows else encode)
                        if pending >= 1 << 16 or len(parts) >= 1024:
                            flush()
                else:
                    if pending and pending + len(body) > 1 << 16:
                        flush()
                    parts.append(body)
                    pending += len(body)
            parts.append(nl + closing)

    emit(obj, "\n", text)
    parts.append("\n")
    flush()
