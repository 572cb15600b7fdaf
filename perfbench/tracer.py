"""Traced ops: layer spans recorded from outside the program.

Child side, one fresh interpreter per op:

    python perfbench/tracer.py SPANS_OUT OP_ID cli ARGS...
    python perfbench/tracer.py SPANS_OUT OP_ID replay SUITE SEED

times `import globforge.cli`, then wraps the public entry points of each
layer under the names their callers look up (a module global of the
calling module, or a method on its class), runs the op exactly as the
untraced op would, and writes the spans when the op ends.  A span is
(name, start, end, parent); counts ride along.  Hot helpers (has_cell,
term_name, _ends) carry no span; reduce_word and apply_step are counted
without a span.

Parent side: layer_metrics() turns the span files of one round into the
per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(result, args) may add counts."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, perf(), parent)
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting


def install(rec: Recorder) -> None:
    import globforge.cli as cli
    import globforge.dsl as dsl
    import globforge.engine as engine
    import globforge.engine.derivation as derivation
    import globforge.engine.suites as suites
    import globforge.stretching as stretching
    import globforge.words as words
    from globforge.normalform import Strictifier
    from globforge.terms import TermContext

    c = rec.counts

    def patch(owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, rec.span(name, getattr(owner, attr), after))

    def parsed(res, args):
        c["dsl.lines"] += args[0].count("\n")

    def strict_entries(res, args):
        c["magma.comp_entries"] += sum(len(t) for t in args[0].comp.maps.values())

    def groupoid(res, args):
        c["words.cells"] += len(res.gs.grade(1))
        c["words.entries"] += sum(len(t) for t in res.magma.comp.maps.values())

    def generated(res, args):
        gs = res.m_side.magma.gs
        c["stretching.cells"] += sum(len(gs.grade(m)) for m in range(gs.max_dim + 1))
        c["stretching.brackets"] += sum(1 for (_, c1, c0) in res.brackets if c1 != c0)

    def emitted(res, args):
        c["report.violations"] += len(set(args[0].violations))

    patch(cli, "parse_structure", "dsl.parse", parsed)
    for mod in (dsl, stretching, words):
        patch(mod, "globular_set", "globular.build")
    patch(cli, "validate_globular", "globular.validate")
    for attr in ("validate_reversors", "validate_involutive", "validate_reflexive_compat", "validate_reflexors"):
        patch(cli, attr, "layers.validate")
    patch(cli, "validate_magma", "magma.validate_magma")
    patch(cli, "validate_strict", "magma.validate_strict", strict_entries)
    patch(cli, "derive_canonical_reversors", "magma.derive")
    patch(cli, "compute_index", "magma.index")
    patch(cli, "free_groupoid_cells", "words.free_groupoid", groupoid)
    words.reduce_word = rec.counted("words.reduce_calls", words.reduce_word)
    cli.reduce_word = rec.counted("words.reduce_calls", cli.reduce_word)
    patch(cli, "generate_free_stretching", "stretching.generate", generated)
    patch(cli, "validate_stretching", "stretching.validate")
    patch(cli, "dump_stretching", "stretching.dump")
    patch(cli, "load_stretching", "stretching.load")
    patch(cli, "emit_report", "report.emit", emitted)
    for owner in (cli, engine):
        patch(owner, "builtin_suites", "engine.build")
        patch(owner, "check_suite", "engine.check")
    for owner in (engine, derivation, suites):
        patch(owner, "rule_library", "engine.rules")
    derivation.apply_step = rec.counted("engine.steps", derivation.apply_step)

    for attr in ("gen", "comp", "refl", "rev", "bracket"):
        setattr(TermContext, attr, rec.counted("terms.built", rec.span("terms.build", getattr(TermContext, attr))))
    TermContext.bracket = rec.counted("stretching.bracket_calls", TermContext.bracket)

    pi = rec.span("normalform.pi", Strictifier.pi)

    def pi_counting(self, t):
        c["normalform.pi_calls"] += 1
        memo = getattr(self, "_memo", None)
        if memo is not None and t in memo:
            c["normalform.memo_hits"] += 1
        return pi(self, t)

    Strictifier.pi = pi_counting


def main(argv: list[str]) -> int:
    out_path, op_id, kind, args = argv[0], argv[1], argv[2], argv[3:]
    rec = Recorder()
    t0 = perf()
    import globforge.cli

    rec.spans.append(("cli.import", t0, perf(), -1))
    install(rec)
    try:
        if kind == "cli":
            return globforge.cli.main(args)
        import replay

        return replay.main(args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "spans": rec.spans, "counts": rec.counts}, fh)


# -- parent side -------------------------------------------------------------

SPAN_METRICS = {
    "cli.import_s": "cli.import",
    "dsl.parse_s": "dsl.parse",
    "globular.build_s": "globular.build",
    "globular.validate_s": "globular.validate",
    "layers.validate_s": "layers.validate",
    "magma.validate_magma_s": "magma.validate_magma",
    "magma.validate_strict_s": "magma.validate_strict",
    "magma.derive_s": "magma.derive",
    "magma.index_s": "magma.index",
    "words.free_groupoid_s": "words.free_groupoid",
    "terms.build_s": "terms.build",
    "normalform.pi_s": "normalform.pi",
    "stretching.generate_s": "stretching.generate",
    "stretching.validate_s": "stretching.validate",
    "stretching.dump_s": "stretching.dump",
    "stretching.load_s": "stretching.load",
    "report.emit_s": "report.emit",
    "engine.build_s": "engine.build",
    "engine.rules_s": "engine.rules",
    "engine.check_s": "engine.check",
}
COUNT_METRICS = (
    "dsl.lines", "magma.comp_entries", "words.reduce_calls", "words.cells", "terms.built",
    "normalform.pi_calls", "stretching.cells", "stretching.brackets", "report.violations", "engine.steps",
    "engine.mutants_rejected",
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(files: list[dict]) -> dict[str, float]:
    """Busy time of outermost spans per layer, self time of generation, counts."""
    busy: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    generate_self = 0.0
    for doc in files:
        spans = doc["spans"]
        scale = doc.get("scale", 1.0)  # the op's calibration scale, set by run.py
        counts.update(doc["counts"])
        child_time: dict[int, float] = defaultdict(float)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child_time[parent] += (t1 - t0) * scale
        for i, (name, t0, t1, parent) in enumerate(spans):
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                busy[name] += (t1 - t0) * scale
            if name == "stretching.generate":
                generate_self += (t1 - t0) * scale - child_time[i]
    out = {metric: busy[name] for metric, name in SPAN_METRICS.items()}
    out.update({name: float(counts[name]) for name in COUNT_METRICS})
    out["stretching.generate_self_s"] = generate_self
    out["dsl.lines_per_s"] = _ratio(counts["dsl.lines"], busy["dsl.parse"])
    out["words.compose_yield"] = _ratio(counts["words.entries"], counts["words.reduce_calls"])
    out["terms.admit_ratio"] = _ratio(counts["stretching.cells"], counts["terms.built"])
    out["normalform.memo_hit_ratio"] = _ratio(counts["normalform.memo_hits"], counts["normalform.pi_calls"])
    out["stretching.bracket_yield"] = _ratio(counts["stretching.brackets"], counts["stretching.bracket_calls"])
    return out


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
