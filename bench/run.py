#!/usr/bin/env python3
"""Benchmark of the specpairs pipeline, end to end or layer by layer.

    python3 bench/run.py --workload census10|census12|corpus|large_germ --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from `src/` and
driven in-process through `specpairs.cli.main`, with stdout captured; every
output is checked against bench/expected.json.  Single process, single
thread, standard library only.

With `--trace 0` the run makes whole passes over the inputs for about
`--seconds`: at least MIN_PASSES, and another only if it is expected to end
in time.  The seeded inputs are picked and written once, before the first
pass.  Each pass starts with SETUPS_PER_PASS set-ups (import the package
afresh, one warm-up op) and runs on the last, so no state of the package
outlives a pass; `setup_s` is the median of all the set-ups.  Every timed
op and set-up is paired with runs of a fixed reference kernel, and its time
is reported at reference speed (see Tally); an op's time is its median
over the passes.  With `--trace 1` it makes one untraced pass, then one traced
pass, each after its own set-up; the spans go to bench/.traces/.

The last line of stdout is the result: correct, attempted, failed and the
metrics.  The line before it holds the details: sample counts, pass
times, the environment and the recorded baselines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.CENSUS_LINES) + ("corpus", "large_germ")
MIN_PASSES = 4
# Least time of reference_kernel() on the 2-vCPU host the benchmark was
# defined on (Python 3.11).  Times are reported as if every op had run at
# the speed at which the kernel takes this long.
REF_NS = 570_000
CRASH_MARK = "crash"  # third field of a record whose op is known to raise
FAIL_MARK = re.compile(r'^\s*FAIL  |"passed": false|"checks_passed": false', re.M)

# Hand measurements recorded before this benchmark existed (Python 3.11, one
# core), kept beside its own numbers.
ROADMAP_BASELINE = {
    "census_d10_s": 3.8,
    "census_d10_rows": 295,
    "census_d12_s": 12.0,
    "census_d12_rows": 1286,
    "build_report_three_lines_ms": 1.3,
    "build_report_degree60_three_cusps_ms": 19.0,
    "note": "identical census --lines 10 runs on a 2-core host ranged 2.06-3.70 s",
}


class BenchError(Exception):
    """The benchmark cannot run here: no package to import, or no record."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def row_digest(row: dict) -> str:
    return digest(json.dumps(row, sort_keys=True))


def import_cli():
    """Import specpairs afresh from this checkout's src/ and return its cli."""
    for name in [m for m in sys.modules if m == "specpairs" or m.startswith("specpairs.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("specpairs.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import specpairs from {src}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise BenchError(f"specpairs was imported from {cli.__file__}, not from {src}")
    return cli


def reference_kernel() -> Fraction:
    """Fixed pure-Python work of the kind the pipeline does: Fraction
    arithmetic and small dict updates, about half a millisecond."""
    total, counts = Fraction(0), {}
    for i in range(1, 120):
        total += Fraction(i % 7 + 1, i + 3) * Fraction(3, i % 5 + 2)
        counts[i % 17] = counts.get(i % 17, 0) + i
    return total


def reference_ns() -> int:
    """The time reference_kernel() takes now: the host's current speed."""
    start = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - start


def at_reference_speed(elapsed_ns: float, ref_ns: float) -> float:
    return elapsed_ns * REF_NS / ref_ns


def call_cli(main, argv) -> tuple[int | None, str, str | None]:
    """Run the CLI in-process: (exit status, stdout, exception name if it raised)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv), out.getvalue(), None
        except SystemExit as exc:
            return exc.code, out.getvalue(), None
        except Exception as exc:  # an op that raises is counted, not fatal
            return None, out.getvalue(), type(exc).__name__


class Tally:
    """Outcomes and times of the ops of one run.

    The host's speed varies by up to two times, over seconds and over
    minutes, in wall and CPU time alike, so a raw time says as much about
    the host as about the program.  Each op is therefore timed together
    with reference_kernel() run right before it, and its time is scaled to
    reference speed: elapsed * REF_NS / kernel time.  The program and the
    kernel slow down together, so the scaled time is steady where the raw
    one is not.  An op's time is the median of its scaled times over the
    passes of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed other than by a recorded crash
        self.raised: dict[str, int] = {}
        self.op_ns: dict[int, list[float]] = {}  # op index -> scaled times, any outcome
        self.ok_ns: dict[int, list[float]] = {}  # op index -> scaled times when it passed
        self.outside_ns: list[float] = []  # per pass: scaled time outside the timed ops

    def judge(self, expected, status, stdout, raised) -> bool:
        """Count one op; True when it matched its record.  An op that raises
        fails; unless its record marks it as a known crash, it also makes
        the run incorrect."""
        self.attempted += 1
        if raised is not None:
            self.failed += 1
            self.raised[raised] = self.raised.get(raised, 0) + 1
            if expected is None or expected[2:] != [CRASH_MARK]:
                self.wrong += 1
            return False
        if expected is None or [status, digest(stdout)] != expected[:2] or FAIL_MARK.search(stdout):
            self.failed += 1
            self.wrong += 1
            return False
        return True

    def time_op(self, index: int, elapsed_ns: int, ref_ns: int, ok: bool) -> None:
        scaled = at_reference_speed(elapsed_ns, ref_ns)
        self.op_ns.setdefault(index, []).append(scaled)
        if ok:
            self.ok_ns.setdefault(index, []).append(scaled)

    def op_samples_ns(self) -> list[float]:
        """Each op that passed at least once: its median scaled time."""
        return [statistics.median(times) for times in self.ok_ns.values()]

    def pass_s(self) -> float:
        """A pass at every op's median scaled time, plus the median scaled
        time outside them."""
        ops = sum(statistics.median(times) for times in self.op_ns.values())
        return (ops + statistics.median(self.outside_ns or [0])) / 1e9


# ---------------------------------------------------------------------------
# Workloads


class DocumentWorkload:
    """corpus and large_germ: one CLI invocation per document."""

    def __init__(self, name: str, seed: int, expected: dict, workdir: Path):
        self.expected, self.workdir = expected, workdir
        pools = workloads.all_pools(name)
        ops = workloads.workload_ops(name, seed, pools)
        self.ops = [self._write(i, op) for i, op in enumerate(ops)]
        self.warmup = self._write("warmup", workloads.warmup_op(name, pools))

    def set_up(self, cli, tally: Tally) -> None:
        self._run(cli, self.warmup, tally)

    def _write(self, tag, op):
        cls, command, text = op
        path = self.workdir / f"{tag}.json"
        path.write_text(text, encoding="utf-8")
        argv = [a.format(path=path) for a in workloads.COMMANDS[command]]
        return argv, self.expected["docs"].get(f"{command}:{workloads.doc_key(text)}")

    def _run(self, cli, op, tally: Tally) -> tuple[int, bool]:
        argv, expected = op
        start = time.perf_counter_ns()
        result = call_cli(cli.main, argv)
        elapsed = time.perf_counter_ns() - start
        return elapsed, tally.judge(expected, *result)

    def run_pass(self, cli, tally: Tally, tracer=None) -> int:
        """Run every op once; returns the pass's wall time in the ops, in ns.
        The reference kernel runs before each op, but not while tracing,
        whose counters must see only the program."""
        total = 0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
                elapsed, ok = self._run(cli, op, tally)
            else:
                ref = reference_ns()
                elapsed, ok = self._run(cli, op, tally)
                tally.time_op(i, elapsed, ref, ok)
            total += elapsed
        tally.outside_ns.append(0)
        return total

    def ops_per_pass(self) -> int:
        return len(self.ops)


class CensusWorkload:
    """census10 and census12: one CLI invocation whose ops are the census
    rows.  The seed has no effect.  Row latency is timed around
    cli.build_report."""

    def __init__(self, name: str, seed: int, expected: dict, workdir: Path):
        self.name = name
        self.record = expected["census"][name]

    def set_up(self, cli, tally: Tally) -> None:
        warmup = workloads.census_argv(self.name, max_rows=1)
        tally.judge(self.record["warmup"], *call_cli(cli.main, warmup))

    def run_pass(self, cli, tally: Tally, tracer=None) -> int:
        """Run the census once; returns its wall time in ns, less the
        reference kernel's, which runs before each row when not tracing."""
        rows = len(self.record["rows"])
        row_ns: list[int] = []
        ref_ns: list[int] = []
        build_report = cli.build_report
        if tracer is None:
            def timed(spec):
                ref_ns.append(reference_ns())
                start = time.perf_counter_ns()
                try:
                    return build_report(spec)
                finally:
                    row_ns.append(time.perf_counter_ns() - start)
            cli.build_report = timed
        try:
            start = time.perf_counter_ns()
            status, stdout, raised = call_cli(cli.main, workloads.census_argv(self.name))
            elapsed = time.perf_counter_ns() - start
        finally:
            cli.build_report = build_report
        elapsed -= sum(ref_ns)  # the kernel's time is not the program's
        tally.attempted += rows
        if raised is not None:
            tally.failed += rows
            tally.wrong += 1
            tally.raised[raised] = tally.raised.get(raised, 0) + rows
            return elapsed
        bad: set[int] = set()
        if [status, digest(stdout)] != [self.record["status"], self.record["digest"]] or (
            FAIL_MARK.search(stdout)
        ):
            # A wrong answer: the rows that are missing or differ fail, or
            # every row when only the exit status or the layout differs.
            try:
                got = [row_digest(r) for r in json.loads(stdout)]
            except ValueError:
                got = []
            bad = {i for i, want in enumerate(self.record["rows"]) if got[i:i + 1] != [want]}
            bad = bad or set(range(rows))
            tally.failed += len(bad)
            tally.wrong += 1
        if tracer is None and len(row_ns) == rows:
            for i, (ns, ref) in enumerate(zip(row_ns, ref_ns)):
                tally.time_op(i, ns, ref, i not in bad)
            outside = elapsed - sum(row_ns)
            tally.outside_ns.append(at_reference_speed(outside, statistics.median(ref_ns)))
        return elapsed

    def ops_per_pass(self) -> int:
        return len(self.record["rows"])


def make_workload(name, seed, expected, workdir):
    cls = CensusWorkload if name in workloads.CENSUS_LINES else DocumentWorkload
    return cls(name, seed, expected, workdir)


# ---------------------------------------------------------------------------
# Runs


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def percentile_ms(samples_ns, which: int) -> float:
    """The which-th decile (5 = median, 9 = p90) of the samples, in ms."""
    if len(samples_ns) < 2:
        return float(samples_ns[0]) / 1e6 if samples_ns else 0.0
    return statistics.quantiles(samples_ns, n=10, method="inclusive")[which - 1] / 1e6


SETUP_REFS = 3  # reference kernel runs before and after each set-up
SETUPS_PER_PASS = 3


def set_up(workload, tally: Tally) -> tuple[object, float]:
    """Import the package afresh and run the warm-up op: (cli, seconds taken
    at reference speed).  The host's speed is the median of the reference
    kernel's times just before and after."""
    refs = [reference_ns() for _ in range(SETUP_REFS)]
    start = time.perf_counter_ns()
    cli = import_cli()
    workload.set_up(cli, tally)
    elapsed = time.perf_counter_ns() - start
    refs += [reference_ns() for _ in range(SETUP_REFS)]
    return cli, at_reference_speed(elapsed, statistics.median(refs)) / 1e9


def end_to_end(args, expected, workdir) -> tuple[Tally, dict, dict]:
    setup_tally = Tally()
    tally = Tally()
    setup_s, pass_s = [], []
    workload = make_workload(args.workload, args.seed, expected, workdir)
    start = last = time.perf_counter()
    while len(pass_s) < MIN_PASSES or 2 * time.perf_counter() - start - last <= args.seconds:
        last = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            cli, took = set_up(workload, setup_tally)
            setup_s.append(took)
        pass_s.append(workload.run_pass(cli, tally) / 1e9)
    ok_frac = (tally.attempted - tally.failed) / tally.attempted
    scaled_pass_s = tally.pass_s()  # 0 when no pass of the census succeeded
    samples = tally.op_samples_ns()
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (ok_frac * workload.ops_per_pass() / scaled_pass_s if scaled_pass_s else 0.0, "1/s"),
        "op_p50_ms": (percentile_ms(samples, 5), "ms"),
        "op_p90_ms": (percentile_ms(samples, 9), "ms"),
        "ok_ops_frac": (ok_frac, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "setup_runs_s": setup_s,
        "setup_warmups_failed": setup_tally.failed,
        "passes_s": pass_s,
        "scaled_pass_s": scaled_pass_s,
        "ref_ns": REF_NS,
        "ops_per_pass": workload.ops_per_pass(),
        "latency_samples": len(samples),
        "failed_ops_frac": tally.failed / tally.attempted,
        "raised": tally.raised,
    }
    tally.wrong += setup_tally.wrong
    return tally, metrics, detail


def traced(args, expected, workdir) -> tuple[Tally, dict, dict]:
    setup_tally = Tally()
    workload = make_workload(args.workload, args.seed, expected, workdir)
    cli, _ = set_up(workload, setup_tally)
    untraced_tally = Tally()
    untraced_ns = workload.run_pass(cli, untraced_tally)

    cli, _ = set_up(workload, setup_tally)
    census = args.workload in workloads.CENSUS_LINES
    tracer = tracing.Tracer("report.build_report" if census else None)
    tally = Tally()
    tracer.install()
    try:
        traced_ns = workload.run_pass(cli, tally, tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summarize(workload.ops_per_pass(), traced_ns, untraced_ns)
    tracer.write(BENCH / ".traces" / f"{args.workload}.spans")
    detail = {
        "ops_per_pass": workload.ops_per_pass(),
        "untraced_pass_s": untraced_ns / 1e9,
        "traced_pass_s": traced_ns / 1e9,
        "balance": summary["balance"],
        "counters": summary["counters"],
        "raised": tally.raised,
    }
    tally.wrong += setup_tally.wrong + untraced_tally.wrong
    if not summary["balance"]["adds_up"]:
        tally.wrong += 1
    return tally, summary["metrics"], detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = {"python": sys.version.split()[0], "nproc": os.cpu_count(), "loadavg_start": loadavg()}
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        try:
            expected = json.loads((BENCH / "expected.json").read_text())
        except OSError as exc:
            raise BenchError(f"no recorded outcomes: {exc}") from exc
        import_cli()  # fail before any work when there is no package
        if args.workload in workloads.WORKLOAD_CLASSES:
            workloads.all_pools(args.workload)
        workdir.mkdir(parents=True)
        run = traced if args.trace else end_to_end
        tally, metrics, detail = run(args, expected, workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = loadavg()
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  env=env, roadmap_baseline=ROADMAP_BASELINE)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
