import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from globforge.engine import (
    Derivation,
    DerivationContext,
    InverseUniquenessStep,
    RewriteStep,
    apply_step,
    builtin_suites,
    check_derivation,
    check_suite,
    rule_library,
)
from globforge.engine.derivation import BracketIntroStep, StepFailure
from globforge.engine.suites import _SuiteBuilder
from globforge.engine.terms import (
    DimSolver,
    Subst,
    bracketT,
    compT,
    const,
    dim,
    lamT,
    le,
    lt,
    oneT,
    piT,
    render,
    revT,
    srcT,
    tgtT,
    var,
    vT,
)


def test_dim_solver():
    solver = DimSolver((le("n", "p"), lt("p", "m")))
    assert solver.entails(lt("n", "m"))
    assert solver.entails(le(0, "p"))
    assert solver.entails(le("n", "p"))
    assert not solver.entails(lt("m", "p"))
    assert not solver.entails(le("m", "p"))
    flat = DimSolver(())
    assert flat.entails(le(0, 0))
    assert flat.entails(lt(0, 1))
    assert not flat.entails(lt(1, 1))


def test_library_contains_cited_rules():
    lib = rule_library()
    inv = lib["inverse-right"]
    m, p = dim("m"), dim("p")
    x = var("x", m)
    assert inv.lhs == compT(m, p, x, revT(m, p, x))
    assert inv.rhs == oneT(p, m, tgtT(m, p, x))
    assert lib["bracket-diagonal"].rhs == oneT(m, m.shift(1), var("c1", m))
    lam_unit = lib["v-lam-unit"]
    assert lam_unit.lhs == vT(lamT(var("a", m, "G")))


def test_rules_are_grade_sound():
    # instantiating lhs and rhs at admissible dimensions preserves the grade
    lib = rule_library()
    for rule in lib.values():
        assert rule.lhs.grade == rule.rhs.grade, rule.name


def _ctx(assumptions=()):
    return DerivationContext(DimSolver(tuple(assumptions)), dict(rule_library()))


def test_apply_inverse_right_at_root():
    f = const("f", 1, "G")
    lf = lamT(f)
    term = compT(1, 0, piT(lf), revT(1, 0, piT(lf)))
    step = RewriteStep(
        "inverse-right", (), Subst({"x": piT(lf)}, {"m": dim(1), "p": dim(0), "n": dim(0)})
    )
    out = apply_step(term, step, _ctx())
    assert out == oneT(0, 1, tgtT(1, 0, piT(lf)))


def test_apply_v_lam_unit_inside():
    b = const("b", 0, "G")
    term = oneT(0, 1, vT(lamT(b)))
    step = RewriteStep("v-lam-unit", (0,), Subst({"a": b}, {"m": dim(0)}))
    out = apply_step(term, step, _ctx())
    assert out == oneT(0, 1, b)


def test_threshold_guard_blocks_inverse():
    al = const("alpha", 1, "C")
    term = compT(1, 0, al, revT(1, 0, al))
    step = RewriteStep(
        "inverse-right", (), Subst({"x": al}, {"m": dim(1), "p": dim(0), "n": dim(1)})
    )
    with pytest.raises(StepFailure) as err:
        apply_step(term, step, _ctx())
    assert "side condition" in err.value.message


def test_strict_rules_guard_carrier():
    a = const("a", 1, "G")
    term = compT(1, 0, a, revT(1, 0, a))
    step = RewriteStep(
        "inverse-right", (), Subst({"x": a}, {"m": dim(1), "p": dim(0), "n": dim(0)})
    )
    with pytest.raises(StepFailure) as err:
        apply_step(term, step, _ctx())
    assert "carrier" in err.value.message


def test_zero_step_derivation():
    al = const("alpha", 1, "C")
    d = Derivation("noop", al, (), al)
    assert check_derivation(d).valid


def test_wrong_end_reported():
    al = const("alpha", 1, "C")
    d = Derivation("bad", al, (), revT(1, 0, al))
    rep = check_derivation(d)
    assert rep.axiom_ids() == {"derivation.chain"}


def test_inverse_uniqueness_is_conservative():
    al = const("alpha", 1, "C")
    be = const("beta", 1, "C")
    step = InverseUniquenessStep((), dim(1), dim(0), al, be)
    d = Derivation("premature", be, (step,), revT(1, 0, al))
    rep = check_derivation(d, _ctx([le("n", 0)]))
    assert not rep.valid
    assert any("established" in v.detail for v in rep.violations)


def test_bracket_gate_blocks_unintroduced():
    f = const("f", 1, "M")
    g = const("g", 1, "M")
    b = bracketT(1, f, g)
    d = Derivation("uses-bracket", tgtT(2, 1, b), (), tgtT(2, 1, b))
    rep = check_derivation(d, _ctx())
    assert not rep.valid


def test_bracket_intro_requires_established():
    f = const("f", 1, "M")
    g = const("g", 1, "M")
    step = BracketIntroStep((), dim(1), f, g, face="tgt")
    d = Derivation("early-intro", f, (step,), tgtT(2, 1, bracketT(1, f, g)))
    rep = check_derivation(d, _ctx())
    assert not rep.valid
    assert any("established" in v.detail for v in rep.violations)


def test_all_suites_replay():
    for key, suite in builtin_suites().items():
        rep = check_suite(suite)
        assert rep.valid, (key, [v.detail for v in rep.violations[:2]])


def test_s5a_end_term():
    suite = builtin_suites()["S5a"]
    (deriv,) = suite.derivations
    m = dim("m")
    assert deriv.end == srcT(m.shift(1), m, const("alpha", m.shift(1), "G"))


def test_mutated_step_named():
    suite = builtin_suites()["S6"]
    deriv = suite.derivations[0]
    steps = list(deriv.steps)
    bad = RewriteStep("assoc", steps[2].position, steps[2].subst, steps[2].direction)
    steps[2] = bad
    mutated = Derivation(deriv.name, deriv.start, tuple(steps), deriv.end)
    from globforge.engine.derivation import Suite

    bad_suite = Suite(
        suite.name, suite.title, suite.assumptions, suite.local_rules,
        suite.facts, (mutated,) + suite.derivations[1:],
    )
    rep = check_suite(bad_suite)
    assert not rep.valid
    assert any(deriv.name in v.cells and "step 2" in v.cells for v in rep.violations)


def test_render_notation_follows_carrier():
    a = const("a", 1, "G")
    t = const("t", 1, "M")
    assert "i[" in render(revT(1, 0, a))
    assert "j[" in render(revT(1, 0, t))
    assert "iota[" in render(oneT(0, 1, srcT(1, 0, a)))


def test_s7_degenerate_reversor_step_mutation_cites_rule():
    # displacing the step that removes a reversor on a doubly degenerate cell
    # makes the report cite that rule at that step
    from dataclasses import replace as dc_replace

    from globforge.engine.derivation import Suite

    suite = builtin_suites()["S7"]
    di, si = next(
        (di, si)
        for di, d in enumerate(suite.derivations)
        for si, s in enumerate(d.steps)
        if isinstance(s, RewriteStep) and s.rule == "rev-fixes-degenerate"
    )
    d = suite.derivations[di]
    steps = list(d.steps)
    steps[si] = dc_replace(steps[si], position=(1,))
    ders = list(suite.derivations)
    ders[di] = Derivation(d.name, d.start, tuple(steps), d.end)
    bad = Suite(suite.name, suite.title, suite.assumptions, suite.local_rules, suite.facts, tuple(ders))
    rep = check_suite(bad)
    assert not rep.valid
    assert any(
        "rev-fixes-degenerate" in v.cells and f"step {si}" in v.cells for v in rep.violations
    )


SUITES_DIGEST = "d5d8a2f70372cddcc8e53009af44d1751432d52526fe223709f29029c153ea55"


def test_suites_pinned_step_for_step():
    S = builtin_suites()
    pinned = repr([(k, [(d.name, d.start, d.steps, d.end) for d in S[k].derivations]) for k in sorted(S)])
    assert hashlib.sha256(pinned.encode()).hexdigest() == SUITES_DIGEST


def test_suite_symbols_need_no_suite():
    # the suite-local symbols are fixed, so a fresh process can build them
    # before (and without) building any suite
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from globforge.engine.terms import dim, unary, var\n"
        "unary('mu', var('x', dim('m'), 'M'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_rule_library_is_shared_and_read_only():
    lib = rule_library()
    assert lib is rule_library()
    with pytest.raises(TypeError):
        lib["inverse-left"] = lib["inverse-right"]


def test_builder_rejects_unentailed_side_condition():
    m, p, n = dim("m"), dim("p"), dim("n")
    al = const("alpha", m, "C")
    sb = _SuiteBuilder("X", "no assumptions", defaults={"n": n})
    with pytest.raises(AssertionError, match="bad: step 0: side condition"):
        sb.chain("bad", compT(m, p, revT(m, p, al), al)).rw("inverse-left", ())


def test_builder_rejects_uniqueness_without_unit_equations():
    m, p, n = dim("m"), dim("p"), dim("n")
    al = const("alpha", m, "C")
    sb = _SuiteBuilder("X", "nothing established", assumptions=(le(n, p), lt(p, m)), defaults={"n": n})
    with pytest.raises(AssertionError, match="bad: step 0: inverse uniqueness needs the established equality"):
        sb.chain("bad", al).unique((), m, p, alpha=revT(m, p, al), beta=al)


def test_builder_rejects_unintroduced_bracket():
    c, d = const("c", 1, "M"), const("d", 1, "M")
    sb = _SuiteBuilder("X", "no introductions")
    with pytest.raises(AssertionError, match="bad: step 0: bracket .* without a prior introduction"):
        sb.chain("bad", c).rw("bracket-src", (), "rev", cells={"c1": d})
