import gc
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_acceptance import _mutate_suite

from globforge import cli
from globforge.engine import (
    Derivation,
    DerivationContext,
    InverseUniquenessStep,
    RewriteRule,
    RewriteStep,
    apply_step,
    builtin_suites,
    check_derivation,
    check_suite,
    rule_library,
)
from globforge.engine import derivation, suites as suites_module
from globforge.engine.derivation import BracketIntroStep, StepFailure
from globforge.engine.rules import ALL
from globforge.engine.suites import _SuiteBuilder
from globforge.engine.terms import (
    App,
    Atom,
    DimCond,
    DimSolver,
    Subst,
    TermError,
    TermTable,
    app,
    brackets_in,
    bracketT,
    compT,
    dim,
    lamT,
    le,
    lt,
    oneT,
    piT,
    preorder,
    render,
    replace,
    revT,
    srcT,
    subterm,
    tgtT,
    vT,
)
from globforge.report import emit_report

# the terms these tests build share one table; the rule catalogue and each suite have their own
TABLE = TermTable()
var, const = TABLE.var, TABLE.const


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
    var = inv.lhs.table.var  # the catalogue's patterns share one table
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


def test_inverse_uniqueness_with_an_ill_graded_beta_is_an_ill_formed_step():
    al, be = const("alpha", "m", "C"), const("beta", "p", "C")
    step = InverseUniquenessStep((), dim("m"), dim("p"), al, be)
    d = Derivation("ill-graded", be, (step,), revT("m", "p", al))
    rep = check_derivation(d, _ctx([le("n", "p"), lt("p", "m")]))
    assert [(v.axiom, v.cells, v.detail) for v in rep.violations] == [(
        "derivation.step", ("ill-graded", "step 0"),
        "step builds an ill-formed term: comp: expected grade m, got p in beta",
    )]


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
    assert deriv.end == srcT(m.shift(1), m, deriv.end.table.const("alpha", m.shift(1), "G"))


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


# the rule catalogue, then each suite's local rules, in order: name, both sides, side conditions, carriers, law
RULES_DIGEST = "134375b04faa9e044b07c77c624fee8f8b3524a68ce1c13d0833bf131d63bada"


def _rule_fields(rules) -> list[tuple]:
    return [(r.name, render(r.lhs), render(r.rhs), [str(c) for c in r.conds], sorted(r.carriers), r.law)
            for r in rules]


def test_rules_pinned_field_for_field():
    S = builtin_suites()
    pinned = repr([("library", _rule_fields(rule_library().values()))]
                  + [(k, _rule_fields(S[k].local_rules)) for k in S])
    assert hashlib.sha256(pinned.encode()).hexdigest() == RULES_DIGEST


# check-proofs stdout for each suite and for all
CHECK_PROOFS_DIGEST = "9a9b5d85be39c49c39c48c14f385f082929cb400574963c17126fb0626ae3e11"

# per suite, the emit_report bytes of each single-step mutant (test_acceptance._mutate_suite), in order
MUTANT_REPORT_DIGESTS = {
    "S1": "fc995fd2b9b92d85017467bb58448849cd4d55abd83301bd6bf44f2c6f1d671c",
    "S2": "d4b2bc38369afb67e2c890a70aaa62a1453f3d1eb19e4bb065549b99ef6f4b5d",
    "S3a": "6671dec0b1675d35d43e3b9c1f2452dd3018df6035e76822359988575b5d2c0d",
    "S3b": "dbcf7c82aefb5879d569d2d426fe64576c8ca74d5f1f53021917e9634099763c",
    "S4": "b4d7a8ab3010b14d4623716145ae81ee00a8a1c7d180294fdf223786da02c701",
    "S5a": "e6d7267f2b6aa1e3b02180c7cd1049be117fd31748c50a719df5a0a902a08c32",
    "S5b": "7571c2e02ce66bbdda68d5d6ad065bc3759b71d7adc8e9d3a67c6e78328ab7eb",
    "S5c": "84f19ab55af375a1f925b26e1f0a0ec33f322ccd3f9ecfa4d5dd0d75420d0703",
    "S6": "458edf05306d22f2a8fbd7992d14bb403ff59c84c865e6e412d96e6a22a73db7",
    "S7": "66801dab6ac5d2010a216c1b3c944556c39b7cc3d0bb36147f2706f32e5eddc3",
}


def _single_step_mutants(suite):
    for di, d in enumerate(suite.derivations):
        for si in range(len(d.steps)):
            yield _mutate_suite(suite, di, si)


@pytest.mark.parametrize("key", [*MUTANT_REPORT_DIGESTS, "all"])
def test_check_proofs_stdout_is_pinned(key, capsys):
    assert cli.main(["check-proofs", "--suite", key]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHECK_PROOFS_DIGEST


def test_every_single_step_mutant_report_is_pinned():
    # pins each StepFailure text and which failure wins when several apply
    digests, mutants = {}, 0
    for key, suite in builtin_suites().items():
        h = hashlib.sha256()
        for mutant in _single_step_mutants(suite):
            h.update(emit_report(check_suite(mutant)).encode())
            mutants += 1
        digests[key] = h.hexdigest()
    assert mutants == 241
    assert digests == MUTANT_REPORT_DIGESTS


def _outcome(rewrite, current, step, ctx):
    try:
        return rewrite(current, step, ctx)
    except Exception as exc:  # noqa: BLE001 - the type and text are the outcome
        return type(exc), str(exc)


def _rewrite_by_instantiation(current, step, ctx):
    """The oracle for a rewrite step: instantiate both sides and compare; a failure
    is named in the order unknown rule, substitution, side condition, position, match, carrier."""
    rule = ctx.rules.get(step.rule)
    if rule is None:
        raise StepFailure(f"unknown rule {step.rule}")
    pattern, replacement = (rule.lhs, rule.rhs) if step.direction == "fwd" else (rule.rhs, rule.lhs)
    try:
        inst_pat, inst_rep = step.subst.term(pattern), step.subst.term(replacement)
    except TermError as exc:
        raise StepFailure(f"substitution does not instantiate {step.rule}: {exc}")
    for cond in rule.conds:
        instantiated = DimCond(step.subst.dim(cond.lhs), step.subst.dim(cond.rhs), cond.strict)
        if not ctx.solver.entails(instantiated):
            raise StepFailure(f"side condition {instantiated} of {step.rule} is not entailed by the assumptions")
    try:
        sub = subterm(current, step.position)
    except TermError as exc:
        raise StepFailure(str(exc))
    if sub != inst_pat:
        raise StepFailure(
            f"rule {step.rule} does not match at {step.position}: expected {render(inst_pat)}, found {render(sub)}"
        )
    if sub.carrier not in rule.carriers:
        raise StepFailure(
            f"rule {step.rule} holds on carriers {sorted(rule.carriers)}, but the matched term lives on {sub.carrier}"
        )
    out = replace(current, step.position, inst_rep)
    derivation._check_new_brackets(current, out, ctx)
    return out


def _compare_rewrites(suite) -> tuple[int, int]:
    """Replay suite as check_suite does, and at each rewrite step compare the
    checker's _apply_rewrite with the instantiating oracle; returns the steps
    compared and how many of them fail."""
    ctx = DerivationContext.for_suite(suite)
    compared = failed = 0
    for d in suite.derivations:
        if brackets_in(d.start) - ctx.introduced:
            continue
        cur = d.start
        for step in d.steps:
            if isinstance(step, RewriteStep):
                fast = _outcome(derivation._apply_rewrite, cur, step, ctx)
                assert fast == _outcome(_rewrite_by_instantiation, cur, step, ctx), (suite.name, d.name)
                compared += 1
                failed += isinstance(fast, tuple)
            try:
                cur = apply_step(cur, step, ctx)
            except (StepFailure, TermError):
                break
        else:
            if cur == d.end:
                ctx.establish(d)
    return compared, failed


def test_matching_and_instantiating_rewrites_agree_on_suites_and_mutants():
    compared = failed = 0
    for suite in builtin_suites().values():
        for s in (suite, *_single_step_mutants(suite)):
            c, f = _compare_rewrites(s)
            compared, failed = compared + c, failed + f
    assert (compared, failed) == (8570, 294)


def test_matching_checks_what_instantiation_checks():
    m, p = dim("m"), dim("p")
    a, aM = const("a", 1, "C"), const("a", 1, "M")
    xM = var("x", m, "M")
    one = {"m": dim(1), "p": dim(0)}
    # rewrites that fail only on a check the suites' mutants never reach: a bare
    # variable's grade or carrier, a side condition, the rule's carriers, a fresh bracket
    ctx = _ctx()
    ctx.rules["bare"] = RewriteRule("bare", xM, revT(m, p, revT(m, p, xM)), (), frozenset("MC"), "a bare side")
    e = const("e", 2, "M")
    ctx.rules["two"] = RewriteRule("two", e, compT(2, 1, bracketT(1, aM, aM), bracketT(1, aM, aM)), (), ALL, "two brackets")
    al, g = const("alpha", 1, "C"), const("g", 1, "G")
    rewrites = [
        (t, RewriteStep("bare", (), subst, direction))
        for subst, t in ((Subst({"x": aM}, one), aM), (Subst({"x": a}, one), a), (Subst({"x": aM}, {"m": dim(2)}), aM))
        for direction in ("fwd", "rev")
    ] + [
        (compT(1, 0, al, revT(1, 0, al)), RewriteStep("inverse-right", (), Subst({"x": al}, {**one, "n": dim(1)}))),
        (compT(1, 0, g, revT(1, 0, g)), RewriteStep("inverse-right", (), Subst({"x": g}, {**one, "n": dim(0)}))),
        (e, RewriteStep("two", (), Subst({}, {}))),
        # no subterm at the position: the substitution, then a side condition, is named first
        (aM, RewriteStep("bare", (0,), Subst({}, one))),
        (compT(1, 0, al, revT(1, 0, al)), RewriteStep("inverse-right", (7,), Subst({"x": al}, {**one, "n": dim(1)}))),
        (compT(1, 0, al, revT(1, 0, al)), RewriteStep("inverse-right", (7,), Subst({"x": al}, {**one, "n": dim(0)}))),
    ]
    outcomes = [_outcome(derivation._apply_rewrite, t, step, ctx) for t, step in rewrites]
    assert outcomes == [_outcome(_rewrite_by_instantiation, t, step, ctx) for t, step in rewrites]
    assert [type(o) for o in outcomes].count(tuple) == len(rewrites) - 1


def test_each_rule_side_of_a_step_is_instantiated_once(monkeypatch):
    # a rewrite step of a clean suite instantiates each side of its rule once, as it is
    # built: its substitution keeps the instances for every later check of the step
    instantiated, depth, term, rewrite = [], [0], Subst.term, derivation._apply_rewrite
    sides_of: dict[int, list] = {}  # id of a step -> the rule sides it instantiated

    def spy_term(self, t):
        if not depth[0]:
            instantiated.append(t)
        depth[0] += 1
        try:
            return term(self, t)
        finally:
            depth[0] -= 1

    def spy_rewrite(current, step, ctx):
        instantiated.clear()
        out = rewrite(current, step, ctx)
        rule = ctx.rules[step.rule]
        assert all(t is rule.lhs or t is rule.rhs for t in instantiated), step
        sides_of.setdefault(id(step), []).extend(map(id, instantiated))
        return out

    monkeypatch.setattr(Subst, "term", spy_term)
    monkeypatch.setattr(derivation, "_apply_rewrite", spy_rewrite)
    suites = builtin_suites()
    built = [suites[key] for key in suites]  # each suite built afresh, each step checked as it is built
    at_build = sum(map(len, sides_of.values()))
    for _ in range(2):
        for suite in built:
            assert check_suite(suite).valid, suite.name
    steps = [s for suite in built for d in suite.derivations for s in d.steps if isinstance(s, RewriteStep)]
    assert set(sides_of) == {id(s) for s in steps}
    assert all(len(sides) == len(set(sides)) <= 2 for sides in sides_of.values())
    assert sum(map(len, sides_of.values())) == at_build > 0


def _fresh_substs(suite):
    """suite with every rewrite step given a new substitution of the same bindings, whose memo is empty."""
    def fresh(step):
        if not isinstance(step, RewriteStep):
            return step
        return RewriteStep(step.rule, step.position, Subst(step.subst.cells, step.subst.dims), step.direction)

    return derivation.Suite(
        suite.name, suite.title, suite.assumptions, suite.local_rules, suite.facts,
        tuple(Derivation(d.name, d.start, tuple(map(fresh, d.steps)), d.end) for d in suite.derivations),
    )


def test_matching_and_instantiating_rewrites_agree_cold_and_warm():
    # the comparison above runs on memos the build filled; here each suite and mutant
    # starts from empty memos, and is compared again once its own check has filled them
    totals = [[0, 0], [0, 0]]
    for suite in builtin_suites().values():
        for s in (suite, *_single_step_mutants(suite)):
            cold = _fresh_substs(s)
            for total in totals:
                c, f = _compare_rewrites(cold)
                total[0], total[1] = total[0] + c, total[1] + f
    assert totals == [[8570, 294], [8570, 294]]


def test_a_suite_checks_to_the_same_bytes_twice_and_after_its_mutants():
    # mutants made by dataclasses.replace share the clean step's substitution and fill
    # its memo with the sides of other rules; the clean suite still checks as before
    from dataclasses import replace as dc_replace

    names = sorted(rule_library())
    for key, suite in builtin_suites().items():
        first = emit_report(check_suite(suite))
        assert emit_report(check_suite(suite)) == first and '"valid": true' in first, key
        for di, d in enumerate(suite.derivations):
            for si, step in enumerate(d.steps):
                if not isinstance(step, RewriteStep):
                    continue
                for name in names[si % 7::13]:  # a spread of catalogue rules
                    steps = list(d.steps)
                    steps[si] = dc_replace(step, rule=name)
                    ders = list(suite.derivations)
                    ders[di] = Derivation(d.name, d.start, tuple(steps), d.end)
                    check_suite(derivation.Suite(
                        suite.name, suite.title, suite.assumptions, suite.local_rules, suite.facts, tuple(ders)
                    ))
                    assert steps[si].subst is step.subst
        assert emit_report(check_suite(suite)) == first, key


def test_a_substitution_keeps_its_own_bindings():
    m, p = dim("m"), dim("p")
    a, b = const("a", 1, "C"), const("b", 1, "C")
    x = var("x", m)
    cells, dims = {"x": a}, {"m": dim(1), "p": dim(0), "n": dim(0)}
    subst = Subst(cells, dims)
    step = RewriteStep("inverse-right", (), subst)
    ctx = _ctx()
    t = compT(1, 0, a, revT(1, 0, a))
    done = apply_step(t, step, ctx)
    cells["x"], dims["m"] = b, dim(2)
    del dims["n"]
    assert subst.cells == {"x": a} and subst.dims == {"m": dim(1), "p": dim(0), "n": dim(0)}
    assert subst == Subst({"x": a}, {"m": dim(1), "p": dim(0), "n": dim(0)}) != Subst(cells, dims)
    assert subst.term(revT(m, p, x)) is revT(1, 0, a)
    assert apply_step(t, step, ctx) is done
    # the memo took no part: a fresh substitution of the mutated dicts fails where this one holds
    assert _outcome(apply_step, t, RewriteStep("inverse-right", (), Subst(cells, dims)), ctx)[0] is StepFailure


def test_suite_symbols_need_no_suite():
    # the suite-local symbols are fixed, so a fresh process can build them
    # before (and without) building any suite
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from globforge.engine.terms import TermTable, dim, unary\n"
        "unary('mu', TermTable().var('x', dim('m'), 'M'))\n"
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


_TWO_FRESH_BRACKETS = """
from globforge.engine import Derivation, RewriteRule, RewriteStep, check_derivation
from globforge.engine.derivation import DerivationContext
from globforge.engine.rules import ALL, rule_library
from globforge.engine.terms import DimSolver, Subst, TermTable, bracketT, compT

const = TermTable().const
a, b, c, d = (const(name, 1, "M") for name in "abcd")
e = const("e", 2, "M")
two = compT(2, 1, bracketT(1, a, b), bracketT(1, c, d))
ctx = DerivationContext(DimSolver(()), dict(rule_library()))
ctx.rules["two"] = RewriteRule("two", e, two, (), ALL, "makes two brackets at once")
print(check_derivation(Derivation("start", two, (), two), ctx).violations[0].detail)
step = RewriteStep("two", (), Subst({}, {}))
print(check_derivation(Derivation("step", e, (step,), two), ctx).violations[0].detail)
"""


def test_unintroduced_bracket_report_is_the_leftmost_under_any_hash_seed():
    src = Path(__file__).resolve().parents[1] / "src"
    outs = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed))
        proc = subprocess.run(
            [sys.executable, "-c", _TWO_FRESH_BRACKETS], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert outs == {
        "start term uses bracket [a;b]_1 before any introduction\n"
        "bracket [a;b]_1 appears without a prior introduction step\n"
    }


def test_equal_constructions_are_one_object():
    table = TermTable()
    var, const = table.var, table.const
    m, p = dim("m"), dim("p")
    assert var("x", m) is var("x", dim("m"))
    assert var("x", m) is not var("x", m, "M")
    assert const("f", 1, "G") is const("f", dim(1), "G")
    assert const("f", 1, "G") is not var("f", 1, "G")
    x = var("x", m)
    assert compT(m, p, x, revT(m, p, x)) is compT("m", "p", var("x", "m"), revT("m", "p", var("x", "m")))
    assert app("rev", (m, p), (x,)) is revT(m, p, x)
    c1, c0 = const("c1", 1, "M"), const("c0", 1, "M")
    assert bracketT(1, c1, c0) is bracketT(1, c1, c0)
    assert bracketT(1, c1, c0) is not bracketT(1, c0, c1)
    assert {t.table for t in (x, c1, revT(m, p, x), bracketT(1, c1, c0))} == {table}


def test_equal_fields_in_two_tables_are_two_terms():
    one, two = TermTable(), TermTable()
    pairs = [(one.var("x", "m"), two.var("x", "m")), (one.const("f", 1, "G"), two.const("f", 1, "G"))]
    pairs += [(revT("m", "p", x), revT("m", "p", y)) for x, y in pairs[:1]]
    pairs += [(compT(1, 0, f, revT(1, 0, f)), compT(1, 0, g, revT(1, 0, g))) for f, g in pairs[1:2]]
    for a, b in pairs:
        assert a is not b and a != b and repr(a) == repr(b)
        assert (a.table, b.table) == (one, two)


def test_combining_terms_of_two_tables_raises():
    one, two = TermTable(), TermTable()
    f, g = one.const("f", 1, "M"), two.const("g", 1, "M")
    ff = compT(1, 0, f, f)
    for build in (lambda: compT(1, 0, f, g), lambda: bracketT(1, g, f), lambda: app("comp", (dim(1), dim(0)), (f, g)),
                  lambda: replace(ff, (1,), g)):
        with pytest.raises(TermError, match="two term tables"):
            build()
    assert list(one.apps.values()) == [ff] and two.apps == {}


@pytest.mark.parametrize("key", list(suites_module._BUILDERS))
def test_a_check_finds_every_term_in_its_suite_table(key):
    suite = builtin_suites()[key]
    table = suite.derivations[0].start.table
    assert all(t.table is table for d in suite.derivations for t in (d.start, d.end))
    size = len(table.atoms), len(table.apps)
    assert check_suite(suite).valid
    assert (len(table.atoms), len(table.apps)) == size


def _brackets_by_recursion(t) -> frozenset:
    if not isinstance(t, App):
        return frozenset()
    own = {t} if t.sym == "bracket" else set()
    return frozenset(own.union(*(_brackets_by_recursion(a) for a in t.args)))


def _replayed_terms(suite):
    ctx = DerivationContext.for_suite(suite)
    for d in suite.derivations:
        cur = d.start
        yield cur
        for step in d.steps:
            cur = apply_step(cur, step, ctx)
            yield cur
        yield d.end
        ctx.establish(d)


def test_stored_brackets_match_a_recursive_walk():
    with_brackets = 0
    for key, suite in builtin_suites().items():
        for t in _replayed_terms(suite):
            assert brackets_in(t) == _brackets_by_recursion(t), (key, render(t))
            with_brackets += bool(brackets_in(t))
    assert with_brackets > 0


def test_terms_are_freed_when_unused():
    # terms and their table refer to each other, so the garbage collector frees
    # them, not reference counting; terms take no weak references, so the test
    # looks for them among the objects the collector tracks
    suite = builtin_suites()["S6"]
    d = suite.derivations[0]
    chain_term = apply_step(d.start, d.steps[0], DerivationContext.for_suite(suite))
    atom = next(t for t in preorder(d.start) if isinstance(t, Atom))
    watched = {id(o) for o in (d.start.table, d.start, chain_term, atom)}

    def live() -> set[int]:
        return {id(o) for o in gc.get_objects() if type(o) in (TermTable, App, Atom)} & watched

    assert live() == watched and len(watched) == 4
    del suite, d, chain_term, atom
    gc.collect()
    assert live() == set()
    # a fresh construction builds a new term with the same fields
    again = TermTable().const("f", 1, "G")
    assert (again.name, again.grade, again.carrier, again.const) == ("f", dim(1), "G", True)


def test_terms_module_holds_no_terms():
    from globforge.engine import terms

    assert not {"_ATOMS", "_APPS"} & set(vars(terms))
    assert "weakref" not in Path(terms.__file__).read_text()


def test_suites_are_built_when_read(monkeypatch):
    built = []
    for key, build in list(suites_module._BUILDERS.items()):
        def spy(key=key, build=build):
            built.append(key)
            return build()

        monkeypatch.setitem(suites_module._BUILDERS, key, spy)
    S = builtin_suites()
    assert list(S) == ["S1", "S2", "S3a", "S3b", "S4", "S5a", "S5b", "S5c", "S6", "S7"]
    assert len(S) == 10 and "S2" in S and "S8" not in S
    assert built == []
    suite = S["S2"]
    assert built == ["S2"] and suite.name == "S2"
    assert S["S2"] is suite and built == ["S2"]
    with pytest.raises(KeyError):
        S["S8"]
    with pytest.raises(TypeError):
        S["S2"] = suite
    assert [k for k, _ in S.items()] == list(S)
    assert sorted(built) == sorted(S)
