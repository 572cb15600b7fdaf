"""globforge benchmark: real CLI sessions, one fresh interpreter per op.

    python3 perfbench/run.py --workload stretch|tables|proofs --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --pin NOTE   # re-pin the stdout digest of every op

Run from the root of a checkout; the program is imported from ./src.  One
closed-loop client: a single client process runs one op at a time, each in
a fresh interpreter (`python -m globforge.cli ...`), as a CLI user runs it,
so no op inherits another's module-global caches.

A run generates the workload's inputs from the seed (set-up, timed several
times), then repeats rounds of the workload's ops until --seconds would be
exceeded, checking every op's output.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced rounds
and prints the per-layer metrics and the tracing overhead.  Every time is
scaled by a calibration job timed in the same round (see calibrate.py).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 21
STARTUP_PER_ROUND = 5
CPU_LIMIT_S = 150  # per child and for this process: a runaway op is killed
HARD_STOP_S = 120  # no new round starts after this, whatever --seconds says
# Each time is scaled by CAL_REFERENCE_S / (mean wall of the two runs of
# calibrate.py that bracket it); calibrate.py runs before and after set-up,
# before and after each round, and after every CAL_EVERY_S seconds of ops.
CAL_REFERENCE_S = 0.1
CAL_EVERY_S = 0.75

perf = time.perf_counter


@dataclass
class Result:
    wall: float
    rss_kb: int
    code: int
    out: bytes
    err: str


class Runner:
    """Spawns ops one at a time and reaps each with its own rusage."""

    def __init__(self, root: Path, work: Path):
        self.work = work  # working files of the runner; inputs go to work/inputs
        self.inputs = work / "inputs"
        work.mkdir(parents=True, exist_ok=True)
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(root / "src"),
            "LC_ALL": "C.UTF-8",
        }
        self.child = 0

    def spawn(self, argv: list[str], out_path: Path) -> Result:
        err_path = self.work / "stderr.txt"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
        ]
        t0 = perf()
        self.child = os.posix_spawn(sys.executable, [sys.executable] + argv, self.env, file_actions=actions)
        _, status, usage = os.wait4(self.child, 0)
        wall = perf() - t0
        self.child = 0
        return Result(
            wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status),
            out_path.read_bytes(), err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def run(self, op: workloads.Op, traced: bool) -> tuple[Result, dict | None]:
        out_path = op.stdout_to or self.work / "stdout.txt"
        if not traced:
            head = ["-m", "globforge.cli"] if op.kind == "cli" else [str(HERE / "replay.py")]
            return self.spawn(head + op.args, out_path), None
        spans_path = self.work / "spans.json"
        res = self.spawn([str(HERE / "tracer.py"), str(spans_path), op.id, op.kind] + op.args, out_path)
        try:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            spans = None
        spans_path.unlink(missing_ok=True)
        return res, spans

    def calibrate(self) -> float:
        return self.spawn([str(HERE / "calibrate.py")], Path(os.devnull)).wall

    def startup(self) -> float:
        return self.spawn(["-c", "import globforge.cli"], Path(os.devnull)).wall

    def stop(self, signum, frame) -> None:
        if self.child:
            os.kill(self.child, signal.SIGKILL)
            os.waitpid(self.child, 0)
        sys.exit(128 + signum)


def check(op: workloads.Op, res: Result, pinned: dict[str, str]) -> str | None:
    """None when the op honoured the contract, its pinned digest and its oracle."""
    err = checks.contract(res.code, res.out, res.err, op.expect)
    if err:
        return err
    want = pinned.get(op.id)
    if want is None:
        return "no digest pinned for this op"
    if checks.digest(res.out) != want:
        return "stdout differs from the digest pinned at the parent commit" + (
            f" ({checks.canonical(res.out)})" if res.out and checks.canonical(res.out) else ""
        )
    if op.oracle is not None:
        return op.oracle(json.loads(res.out))
    return None


def setup(workload: str, work: Path, seed: int, pin: bool = False):
    """Generate the inputs SETUP_REPEATS times; keep the last copy."""
    times = []
    for _ in range(1 if pin else SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        t0 = perf()
        ops, probes = workloads.OPS_BY_WORKLOAD[workload](workloads.Inputs(work, seed, pin))
        times.append(perf() - t0)
    return ops, probes, statistics.median(times)


CAL, STARTUP = "calibration", "startup"


@dataclass
class Round:
    """One pass over the op list.  Each sample is scaled by CAL_REFERENCE_S
    over the mean of the two calibrations that bracket it."""

    walls: dict[str, list[float]]  # op id (or STARTUP) -> scaled walls
    calibrations: list[float]
    raw_s: float  # unscaled wall of the round's ops
    spans: list[dict]

    @property
    def run_s(self) -> float:
        return sum(statistics.median(w) for op_id, w in self.walls.items() if op_id != STARTUP)


def bracketed(timeline: list[tuple[str, float, dict | None]]) -> Round:
    """Scale a round's samples; the timeline starts and ends with a calibration."""
    cals = [wall for key, wall, _ in timeline if key == CAL]
    walls: dict[str, list[float]] = defaultdict(list)
    spans = []
    raw_s = 0.0
    seen = 0
    for key, wall, doc in timeline:
        if key == CAL:
            seen += 1
            continue
        scale = 2 * CAL_REFERENCE_S / (cals[seen - 1] + cals[seen])
        walls[key].append(wall * scale)
        if doc is not None:
            doc["scale"] = scale
            spans.append(doc)
        if key != STARTUP:
            raw_s += wall
    return Round(walls, cals, raw_s, spans)


class Session:
    """The timed phase of one run: rounds, checks and failures."""

    def __init__(self, runner: Runner, ops: list[workloads.Op], pinned: dict[str, str]):
        self.runner, self.ops, self.pinned = runner, ops, pinned
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0
        self.rss_kb = 0
        self.derived: set[str] = set()

    def round(self, traced: bool) -> Round:
        runner = self.runner
        timeline: list[tuple[str, float, dict | None]] = [(CAL, runner.calibrate(), None)]
        if not traced:
            timeline += [(STARTUP, runner.startup(), None) for _ in range(STARTUP_PER_ROUND)]
        since_cal = 0.0
        for op in self.ops:
            for _ in range(op.repeat):
                res, doc = runner.run(op, traced)
                self.attempted += 1
                if not traced:
                    self.rss_kb = max(self.rss_kb, res.rss_kb)
                err = check(op, res, self.pinned)
                if err:
                    self.failures.append((op.id, err))
                if doc is not None and op.kind == "replay" and not err:
                    doc["counts"]["engine.mutants_rejected"] = json.loads(res.out)["mutants"]
                timeline.append((op.id, res.wall, doc))
                if op.then is not None and op.id not in self.derived:
                    op.then()
                    self.derived.add(op.id)
                since_cal += res.wall
                if since_cal >= CAL_EVERY_S:
                    timeline.append((CAL, runner.calibrate(), None))
                    since_cal = 0.0
        timeline.append((CAL, runner.calibrate(), None))
        return bracketed(timeline)


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "globforge" / "cli.py").is_file():
        sys.stderr.write(f"{root}: no src/globforge here; run from the root of a globforge checkout\n")
        return 2
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))
    runner = Runner(root, root / ".perfbench_work" / args.workload)
    signal.signal(signal.SIGTERM, runner.stop)
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))["outputs"]

    before = runner.calibrate()
    ops, probes, setup_s = setup(args.workload, runner.inputs, args.seed)
    setup_s *= 2 * CAL_REFERENCE_S / (before + runner.calibrate())
    runner.startup()  # warm-up: byte-compiles src once, outside every metric

    session = Session(runner, ops, pinned)
    started = perf()
    rounds: dict[bool, list[Round]] = {False: [], True: []}
    took: dict[bool, float] = {}  # longest unscaled round, checks and calibration included
    while True:
        # with --trace 1, untraced and traced rounds alternate, untraced first
        traced = bool(args.trace) and len(rounds[False]) > len(rounds[True])
        t0 = perf()
        rounds[traced].append(session.round(traced))
        took[traced] = max(took.get(traced, 0.0), perf() - t0)
        nxt = bool(args.trace) and len(rounds[False]) > len(rounds[True])
        if nxt and not rounds[True]:
            continue
        now = perf()
        if now + took.get(nxt, 2 * took[False]) > started + args.seconds or now - started > HARD_STOP_S:
            break

    probe_list = probes()
    probe_failures = []
    for probe in probe_list:
        res = runner.spawn(["-m", "globforge.cli"] + probe.args, runner.work / "stdout.txt")
        err = checks.contract(res.code, res.out, res.err, 2)
        if err:
            probe_failures.append((probe.id, f"{err} [{probe.why}]"))

    failed = len(session.failures)
    for op_id, err in session.failures:
        print(f"FAIL {op_id}: {err}")
    for op_id, err in probe_failures:
        print(f"PROBE FAIL {op_id}: {err}")
    all_rounds = rounds[False] + rounds[True]
    calibrations = [c for r in all_rounds for c in r.calibrations]
    print(f"calibration: median {statistics.median(calibrations):.4f} s over {len(calibrations)} samples, "
          f"reference {CAL_REFERENCE_S} s; times below are scaled to the reference")
    print("unscaled round walls: " + " ".join(f"{r.raw_s:.3f}" for r in all_rounds))
    print(f"{args.workload}: {len(all_rounds)} rounds of {len(ops)} ops, {session.attempted} ops, "
          f"{failed} failed; {len(probe_failures)} of {len(probe_list)} crash probes failed")

    if args.trace:
        layer = [tracer.layer_metrics(r.spans) for r in rounds[True]]
        metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        metrics["trace.overhead_s"] = (statistics.median(r.run_s for r in rounds[True])
                                       - statistics.median(r.run_s for r in rounds[False]))
        metrics["fail_ratio"] = (failed + len(probe_failures)) / (session.attempted + len(probe_list))
    else:
        walls: dict[str, list[float]] = defaultdict(list)
        for r in rounds[False]:
            for op_id, ws in r.walls.items():
                walls[op_id] += ws

        def total(metric: str | None) -> float:
            """Sum over the op list of each op's median scaled wall."""
            return sum(statistics.median(walls[op.id]) for op in ops if metric in (None, op.metric))

        metrics = {
            "setup_s": setup_s,
            "run_s": total(None),
            "startup_s": statistics.median(walls[STARTUP]),
        }
        for name in workloads.COMMAND_METRICS:
            metrics[name] = total(name)
        metrics["peak_rss_mb"] = session.rss_kb / 1024
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {spec["name"]: spec["unit"] for spec in bench["per_layer" if args.trace else "end_to_end"]}
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def pin(note: str) -> int:
    """Run every op of every workload once, with every catalogue entry, check
    the contract and the oracles, and record each op's stdout digest."""
    root = Path.cwd()
    digests: dict[str, str] = {}
    problems = []
    for name in workloads.WORKLOADS:
        work = root / ".perfbench_work" / f"pin-{name}"
        runner = Runner(root, work)
        ops, _, _ = setup(name, runner.inputs, 0, pin=True)
        for op in ops:
            res, _ = runner.run(op, False)
            err = checks.contract(res.code, res.out, res.err, op.expect)
            if not err and res.out:
                err = checks.canonical(res.out)
            if not err and op.oracle is not None:
                err = op.oracle(json.loads(res.out))
            if err:
                problems.append(f"{op.id}: {err}")
            if digests.setdefault(op.id, checks.digest(res.out)) != checks.digest(res.out):
                problems.append(f"{op.id}: two ops with this id print different bytes")
            if op.then is not None:
                op.then()
            print(f"{res.wall:8.3f}s {op.id}")
    for p in problems:
        print("PROBLEM", p)
    if problems:
        return 1
    DIGESTS.write_text(json.dumps({"note": note, "outputs": dict(sorted(digests.items()))}, indent=2) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", metavar="NOTE", help="re-pin the stdout digests, recording NOTE")
    args = ap.parse_args()
    if args.pin:
        return pin(args.pin)
    if not args.workload:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
