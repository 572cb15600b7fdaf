"""Validation reports and their canonical serialized form.

Every validator in the package returns a ValidationReport: a subject name
plus a list of violations.  A violation records which axiom failed (a stable
dotted identifier), the mathematical law behind it, the cells or steps
involved, and a human-readable detail line.  The report is valid iff the
violation list is empty.

Serialization is canonical JSON: stable key order, violations sorted by
axiom id then by the involved cell names, fixed separators.  emit_report
followed by parse_report is the identity, and distinct reports serialize to
distinct byte strings, which makes the format suitable for golden-file
tests.
"""

from __future__ import annotations

import json

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
    _defaults = {"violations": list}

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


def emit_report(report: ValidationReport) -> str:
    """Serialize a report to its canonical textual form."""
    rep = report.sorted()
    payload = {
        "subject": rep.subject,
        "valid": rep.valid,
        "violations": [
            {
                "axiom": v.axiom,
                "law": v.law,
                "cells": list(v.cells),
                "detail": v.detail,
            }
            for v in rep.violations
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_report(text: str) -> ValidationReport:
    """Inverse of emit_report on canonical report text."""
    payload = json.loads(text)
    rep = ValidationReport(payload["subject"])
    for entry in payload["violations"]:
        rep.add(entry["axiom"], entry["law"], tuple(entry["cells"]), entry["detail"])
    if bool(payload["valid"]) != rep.valid:
        raise ValueError("report text is inconsistent: valid flag does not match violations")
    return rep
