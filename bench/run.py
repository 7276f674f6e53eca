"""End-to-end benchmark of the ``rfree`` command-line program.

Run from the root of a source checkout:

    python3 bench/run.py --workload bv-warm --seed 1 --seconds 20 --trace 0

Each workload repeats whole rounds of ``rfree`` commands, each command in
its own interpreter process, until ``--seconds`` have passed.  Every output
is checked against a value computed apart from ``rfree`` (``oracles.py``),
outside the timed commands.  Human-readable figures are printed first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, taken from the
process wall clock and peak RSS of the commands.  With ``--trace 1`` the
commands run inside this process instead, alternately untraced and with
spans around every public function of the program's modules
(``tracing.py``), and the metrics are per layer.

Workloads (the inputs are fixed except the ``verify-lemmas`` seed):

* ``bv-warm``     the bv-sum sweep against a cache written during set-up.
* ``sieve-cold``  sieve build and save, cache load, and a damaged cache.
* ``verify``      verify-lemmas, tau-sum and residues.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import oracles
from oracles import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Every run must end within 180 s; no command or round starts past this.
BUDGET_S = 165.0


class Outcome(NamedTuple):
    code: int
    out: str
    wall_s: float
    rss_mib: float


def _program_env() -> dict:
    """The environment for a child interpreter that imports rfree from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


class ProcessRunner:
    """Runs ``rfree`` commands as separate interpreter processes.

    The wall time spans process start to exit; the peak RSS comes from
    ``wait4`` and covers the process and the workers it has reaped.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = _program_env()

    def __call__(self, args: list[str]) -> Outcome:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run budget exhausted")
        with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "rfree.cli", *args],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=self.env,
            )
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            text = out.read().decode()
            if proc.returncode != 0:
                sys.stderr.write(err.read().decode()[-2000:])
        return Outcome(proc.returncode, text, wall, usage.ru_maxrss / 1024.0)


def _rejects(check: Callable, *args) -> bool:
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def _replace_field(text: str, line_no: int, col: int, fn: Callable[[str], str]) -> str:
    lines = text.splitlines()
    cells = lines[line_no].split(",")
    cells[col] = fn(cells[col])
    lines[line_no] = ",".join(cells)
    return "\n".join(lines) + "\n"


class Workload:
    """One set of commands.  ``metrics`` maps each named timing to the ops
    whose wall times it adds up; ``ops`` run in order in every round."""

    name = ""
    metrics: dict[str, tuple[str, ...]] = {}
    setup_repeats = 5

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def prepare(self) -> None:
        """Compute the reference values; not timed."""

    def setup(self, run) -> Outcome:
        """Prepare the inputs the timed commands read.

        Workloads whose commands read nothing prepared time the start of
        the command-line program instead, the fixed cost of every command.
        """
        return run(["--help"])

    def check_setup(self, outcome: Outcome) -> None:
        if outcome.code != 0 or "usage: rfree" not in outcome.out:
            raise CheckFailed(f"rfree --help exited {outcome.code}")

    def ops(self, traced: bool) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def before_op(self, op: str) -> None:
        """File preparation an op needs; not timed."""

    def check(self, op: str, outcome: Outcome) -> bool:
        """Check one op's output; False marks the op as failed, and a wrong
        output raises CheckFailed."""
        raise NotImplementedError

    def check_round(self, outcomes: dict[str, Outcome]) -> None:
        """Properties that relate the outputs of one round."""

    def mutations(self, outcomes: dict[str, Outcome]) -> list[tuple[str, Callable[[], bool]]]:
        """(label, thunk) pairs: each thunk feeds a check a wrong value, or a
        known verdict, and returns whether the check judged it rightly."""
        return []

    def extra_figures(self) -> dict[str, tuple[float, str]]:
        return {}


class BvWarm(Workload):
    """bv-sum over x = 1e6, 3e6, 1e7 (K = 52 + 93 + 178 moduli) with one and
    two workers, reading a cache written during set-up."""

    name = "bv-warm"
    metrics = {"bv_serial_s": ("serial",), "bv_pool_s": ("pool",)}
    setup_repeats = 3
    XS = (1_000_000, 3_000_000, 10_000_000)
    A = 1.0

    def prepare(self):
        self.cache = str(self.work / "bv.rfsv")
        self.reference = oracles.bv_reference(list(self.XS), self.A)
        self.r2_count = oracles.r_free_count(max(self.XS), 2)

    def setup(self, run):
        if os.path.exists(self.cache):
            os.remove(self.cache)
        return run(["sieve", "--limit", str(max(self.XS)), "--r", "2", "--cache", self.cache])

    def check_setup(self, outcome):
        if outcome.code != 0:
            raise CheckFailed(f"cache write exited {outcome.code}")
        oracles.check_sieve_output(outcome.out, max(self.XS), {2: self.r2_count})

    def ops(self, traced):
        base = ["bv-sum", "--r", "2", "--A", "1", "--x", ",".join(map(str, self.XS)),
                "--cache", self.cache]
        ops = [("serial", base + ["--threads", "1"])]
        if not traced:  # fork workers are traced through the serial path
            ops.append(("pool", base + ["--threads", "2"]))
        return ops

    def check(self, op, outcome):
        if outcome.code != 0:
            return False
        oracles.check_bv_csv(outcome.out, self.reference, self.A)
        return True

    def check_round(self, outcomes):
        if "pool" in outcomes:
            oracles.check_same_except_wall(outcomes["serial"].out, outcomes["pool"].out)

    def mutations(self, outcomes):
        text = outcomes["serial"].out
        out = []
        for i in range(1, len(self.XS) + 1):
            bad_k = _replace_field(text, i, 3, lambda v: str(int(v) + 1))
            bad_s = _replace_field(text, i, 4, lambda v: repr(float(v) * (1 + 1e-6)))
            out.append((f"K+1 in row {i}",
                        lambda t=bad_k: _rejects(oracles.check_bv_csv, t, self.reference, self.A)))
            out.append((f"S*(1+1e-6) in row {i}",
                        lambda t=bad_s: _rejects(oracles.check_bv_csv, t, self.reference, self.A)))
            out.append((f"pool S differs in row {i}",
                        lambda t=bad_s: _rejects(oracles.check_same_except_wall, text, t)))
        return out


class SieveCold(Workload):
    """The sieve built and saved with no cache present, then loaded from the
    cache it wrote; then one count read from a copy cut 700 bytes short."""

    name = "sieve-cold"
    metrics = {
        "sieve_cold_s": ("cold",),
        "sieve_warm_s": ("warm",),
        "damaged_load_s": ("damaged",),
    }
    LIMIT = 10_000_000
    CUT = 700

    def prepare(self):
        self.cache = str(self.work / "cold.rfsv")
        self.damaged = str(self.work / "damaged.rfsv")
        self.counts = {r: oracles.r_free_count(self.LIMIT, r) for r in (2, 3)}
        self.cold_counts = None
        self.cache_bytes = 0

    def ops(self, traced):
        sieve = ["sieve", "--limit", str(self.LIMIT), "--r", "2,3", "--cache", self.cache]
        return [
            ("cold", sieve),
            ("warm", sieve),
            ("damaged", ["error", "--x", str(self.LIMIT), "--r", "3", "--k", "1", "--l", "0",
                         "--cache", self.damaged]),
        ]

    def before_op(self, op):
        if op == "cold" and os.path.exists(self.cache):
            os.remove(self.cache)
        elif op == "damaged":
            self.cache_bytes = os.path.getsize(self.cache)
            with open(self.cache, "rb") as src, open(self.damaged, "wb") as dst:
                dst.write(src.read(self.cache_bytes - self.CUT))

    def check(self, op, outcome):
        if op == "damaged":
            # Fails while load_cache accepts a short file (R = 8314429).
            return oracles.truncated_load_ok(outcome.code, outcome.out, self.counts[3])
        if outcome.code != 0:
            return False
        got = oracles.check_sieve_output(outcome.out, self.LIMIT, self.counts)
        if op == "cold":
            self.cold_counts = got
        return True

    def check_round(self, outcomes):
        oracles.check_sieve_output(outcomes["warm"].out, self.LIMIT, self.cold_counts)

    def mutations(self, outcomes):
        cold = outcomes["cold"].out
        off = {r: cold.replace(f"{c} r-free", f"{c + 1} r-free") for r, c in self.counts.items()}
        warm_off = {**self.counts, 3: self.counts[3] - 1}
        true = self.counts[3]
        good_row = f"x,r,k,l,g,s,t,g_is_r_free,R\n{self.LIMIT},3,1,0,1,1,0,1,{true}\n"
        bad_row = good_row.replace(str(true), "8314429")  # the count the short file yields
        check = oracles.check_sieve_output
        return [
            ("r=2 count+1", lambda: _rejects(check, off[2], self.LIMIT, self.counts)),
            ("r=3 count+1", lambda: _rejects(check, off[3], self.LIMIT, self.counts)),
            ("warm differs from cold", lambda: _rejects(check, cold, self.LIMIT, warm_off)),
            ("damaged load: wrong count", lambda: not oracles.truncated_load_ok(0, bad_row, true)),
            ("damaged load: count and error", lambda: not oracles.truncated_load_ok(1, good_row, true)),
            ("damaged load: true count", lambda: oracles.truncated_load_ok(0, good_row, true)),
            ("damaged load: refused", lambda: oracles.truncated_load_ok(2, "", true)),
        ]

    def extra_figures(self):
        return {"cache_bytes": (float(self.cache_bytes), "bytes")}


class Verify(Workload):
    """verify-lemmas at r = 2 and 3 (seeded), tau-sum and residues."""

    name = "verify"
    metrics = {
        "lemmas_s": ("lemmas_r2", "lemmas_r3"),
        "tau_sum_s": ("tau_sum",),
        "residues_s": ("residues",),
    }
    TRIALS = 1000
    TAU_XS = (10_000, 100_000, 1_000_000)
    S_MAX = 5000

    def prepare(self):
        self.tau = {x: oracles.tau3_sum(x) for x in self.TAU_XS}
        self.residues = oracles.residue_maxima(3, self.S_MAX)

    def ops(self, traced):
        lemmas = ["verify-lemmas", "--x", "1e6", "--trials", str(self.TRIALS), "--seed", str(self.seed)]
        return [
            ("lemmas_r2", lemmas + ["--r", "2"]),
            ("lemmas_r3", lemmas + ["--r", "3"]),
            ("tau_sum", ["tau-sum", "--r", "3", "--x", ",".join(map(str, self.TAU_XS))]),
            ("residues", ["residues", "--r", "3", "--s-max", str(self.S_MAX)]),
        ]

    def check(self, op, outcome):
        if op.startswith("lemmas"):
            oracles.check_lemmas(outcome.code, outcome.out, self.TRIALS)
            return True
        if outcome.code != 0:
            return False
        if op == "tau_sum":
            oracles.check_tau_sum(outcome.out, 3, self.tau)
        else:
            oracles.check_residues(outcome.out, 3, self.residues)
        return True

    def mutations(self, outcomes):
        lem = outcomes["lemmas_r2"].out
        tau = outcomes["tau_sum"].out
        res = outcomes["residues"].out
        # s = 7: the units 1 and 6 are cubes of three residues each
        s7 = self.residues[6]
        other_a = next(a for a in range(s7[1] + 1, 7)
                       if sum(1 for d in range(7) if pow(d, 3, 7) == a) == s7[2])
        lines = res.splitlines()
        summary = lines[-1].replace("max ratio 1.0", "max ratio 0.9")
        lemmas, tau_sum, residues = oracles.check_lemmas, oracles.check_tau_sum, oracles.check_residues
        return [
            ("lemmas failures=1",
             lambda: _rejects(lemmas, 0, lem.replace("failures=0", "failures=1"), self.TRIALS)),
            ("lemmas trials short", lambda: _rejects(lemmas, 0, lem, self.TRIALS + 1)),
            ("lemmas exit 3", lambda: _rejects(lemmas, 3, lem, self.TRIALS)),
            ("tau total+1", lambda: _rejects(
                tau_sum, _replace_field(tau, 2, 1, lambda v: str(int(v) + 1)), 3, self.tau)),
            ("tau ratio*(1+1e-9)", lambda: _rejects(
                tau_sum, _replace_field(tau, 1, 2, lambda v: repr(float(v) * (1 + 1e-9))), 3, self.tau)),
            ("residue count+1", lambda: _rejects(
                residues, _replace_field(res, 500, 2, lambda v: str(int(v) + 1)), 3, self.residues)),
            ("residue a not smallest", lambda: _rejects(
                residues, _replace_field(res, 7, 1, lambda v: str(other_a)), 3, self.residues)),
            ("residue ratio*(1+1e-9)", lambda: _rejects(
                residues, _replace_field(res, 900, 3, lambda v: repr(float(v) * (1 + 1e-9))), 3, self.residues)),
            ("residue summary", lambda: _rejects(
                residues, "\n".join(lines[:-1] + [summary]), 3, self.residues)),
        ]


WORKLOADS = {cls.name: cls for cls in (BvWarm, SieveCold, Verify)}


def check_the_checks(workload: Workload, outcomes: dict[str, Outcome]) -> list[str]:
    """Labels of wrong values or known verdicts that a check misjudged."""
    return [label for label, judged_rightly in workload.mutations(outcomes) if not judged_rightly()]


def run_round(workload: Workload, run, traced: bool, tally: dict) -> dict[str, Outcome]:
    """Run one round of the workload's ops and check each output."""
    outcomes = {}
    for op, args in workload.ops(traced):
        workload.before_op(op)
        outcome = run(args)
        outcomes[op] = outcome
        tally["attempted"] += 1
        try:
            if not workload.check(op, outcome):
                tally["failed"] += 1
        except CheckFailed as exc:
            tally["wrong"].append(f"{op}: {exc}")
    try:
        workload.check_round(outcomes)
    except CheckFailed as exc:
        tally["wrong"].append(f"round: {exc}")
    return outcomes


def _setup(workload: Workload, run, tally: dict) -> float:
    """Run and check the workload's set-up; returns its wall time."""
    outcome = workload.setup(run)
    try:
        workload.check_setup(outcome)
    except CheckFailed as exc:
        tally["wrong"].append(f"setup: {exc}")
    return outcome.wall_s


def measure(workload: Workload, seconds: float, deadline: float, tally: dict):
    run = ProcessRunner(deadline)
    setup = [_setup(workload, run, tally) for _ in range(workload.setup_repeats)]
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        if rounds and time.monotonic() + rounds[-1][1] > deadline:
            break
        t0 = time.monotonic()
        rounds.append((run_round(workload, run, False, tally), time.monotonic() - t0))
    outcomes = [r for r, _ in rounds]

    def per_round(ops):
        return [sum(o[op].wall_s for op in ops) for o in outcomes]

    named = {name: statistics.median(per_round(ops)) for name, ops in workload.metrics.items()}
    all_ops = [op for ops in workload.metrics.values() for op in ops]
    figures = {name: (value, "s") for name, value in named.items()}
    figures.update(workload.extra_figures())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "round_s": (statistics.median(per_round(all_ops)), "s"),
        "cmd_geomean_s": (math.exp(statistics.fmean(math.log(v) for v in named.values())), "s"),
        "peak_rss_mib": (max(o.rss_mib for r in outcomes for o in r.values()), "MiB"),
    }
    notes = ["setup samples: " + ", ".join(f"{v:.3f}" for v in setup) + " s",
             "round samples: " + ", ".join(f"{v:.3f}" for v in per_round(all_ops)) + " s"]
    return metrics, figures, notes, outcomes[-1]


class InProcessRunner:
    """Runs ``rfree`` commands by calling ``rfree.cli.main`` in this process,
    so that the spans of a traced pass see every call."""

    def __init__(self, cli):
        self.cli = cli

    def __call__(self, args: list[str]) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(args)
        except SystemExit as exc:  # argparse, for --help or bad arguments
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # the command crashed: report it as a nonzero exit
            code = 1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
        if code != 0:
            sys.stderr.write(err.getvalue()[-2000:])
        return Outcome(code, out.getvalue(), wall, math.nan)  # no RSS of its own


def _clear_caches(package: str) -> None:
    """Empty the program's memo caches so every pass starts alike."""
    for name, mod in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import rfree.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(3):
        done = subprocess.run([sys.executable, "-c", code], env=_program_env(), capture_output=True,
                              text=True, check=True, timeout=60)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def measure_traced(workload: Workload, seconds: float, deadline: float, tally: dict, spans_path: Path):
    """Alternate untraced and traced in-process passes (set-up once, then one
    round) until ``seconds`` have passed; per-layer figures per traced pass.
    The tracing overhead compares the two sides' total wall time."""
    import tracing

    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("rfree.cli")
    run = InProcessRunner(cli)
    tracer = tracing.Tracer()
    # An untimed first pass, so that one-off costs of the process (imports,
    # the allocator growing its heap) fall on neither side of a pair.
    _setup(workload, run, tally)
    last = run_round(workload, run, True, tally)
    walls = {False: [], True: []}
    start = time.monotonic()
    pairs = 0
    while not pairs or time.monotonic() - start < seconds:
        if pairs and time.monotonic() + (time.monotonic() - start) / pairs > deadline:
            break
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            _clear_caches("rfree")
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                _setup(workload, run, tally)
                outcomes = run_round(workload, run, True, tally)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(time.perf_counter() - t0)
            last = outcomes
        pairs += 1
    tracer.write(spans_path)
    metrics = tracer.metrics(pairs)
    metrics["cli.import_s"] = (_import_seconds(), "s")
    metrics["trace.overhead_pct"] = (100.0 * (sum(walls[True]) / sum(walls[False]) - 1.0), "%")
    notes = [f"{pairs} untraced and {pairs} traced passes; "
             f"pass wall untraced {statistics.median(walls[False]):.3f} s, "
             f"traced {statistics.median(walls[True]):.3f} s; spans in {spans_path}"]
    return metrics, {}, notes, last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rfree" / "cli.py").is_file():
        print(f"no rfree sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "rfree")],
                   stdout=subprocess.DEVNULL, check=False)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tally = {"attempted": 0, "failed": 0, "wrong": []}
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        workload.prepare()
        if args.trace:
            metrics, figures, notes, last = measure_traced(
                workload, args.seconds, deadline, tally,
                WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics, figures, notes, last = measure(workload, args.seconds, deadline, tally)
        for problem in tally["wrong"]:
            print(f"CHECK FAILED {problem}", file=sys.stderr)
        if not tally["wrong"]:
            missed = check_the_checks(workload, last)
            if missed:
                tally["wrong"].append("misjudged: " + "; ".join(missed))
                print("checks that misjudged a known value: " + "; ".join(missed), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{tally['attempted']} operations attempted, {tally['failed']} failed")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in {**figures, **metrics}.items():
        print(f"  {name:32s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": not tally["wrong"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
