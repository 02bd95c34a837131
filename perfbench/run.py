"""qpdm benchmark: drives the ``qpdm`` CLI on seeded inputs, one workload at a
time, and prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload mine-wide --seed 1 --seconds 30 --trace 0

Run it from anywhere; it finds the sources under ``src/`` next to this
directory and writes only under ``.bench_out/`` there.

Untraced (``--trace 0``): every command runs ``qpdm.cli.main``, the entry
point of the ``qpdm`` command, in a fresh child process (child.py), one
after another, until ``--seconds`` have passed and at least MIN_COMMANDS
commands have run. Each command gets its own ``--seed`` derived from the
workload seed.

Times are scaled to a fixed host speed. The shared host this was built on
changes speed by up to 2x over minutes, with the load of other machines on
it. So the benchmark times reference_s (child.py), a fixed mix of work that
runs no qpdm code, before and after every command, and multiplies the
command's time by REF_SECONDS over the mean of those two reference times
(rates are divided by that factor). A set-up process scales its own time by
timings of text_reference_s taken inside it: string parsing slows with the
host by another factor than numeric loops do. The measured, unscaled wall times are
printed above the result.

End-to-end metrics:

    wall_s              median wall time of one command, child start to exit
    setup_s             median time of parse, pad, partition and build_qram,
                        over SETUP_PROCESSES fresh processes run between the
                        first commands (see child.py)
    peak_rss_mb         median over commands of the child's peak RSS (VmHWM)
    oracle_calls_per_s  logical oracle calls (transcript events / 4) per
                        second of wall time, median over commands
    qubits_total        qubits one command sends, median over the first
                        MIN_COMMANDS commands
    rounds_total        agreement rounds of one command, median over the same

The two simulated statistics depend only on the seed, never on speed.

Traced (``--trace 1``): the same commands, each run once plainly and once with
every layer wrapped (see tracing.py), then a scaling sweep (see child.py).
Reports the per-layer metrics, the tracing overhead (traced minus untraced
median wall time) and the output checks over every estimate. Per-layer times
are as measured, not scaled; ``host.reference_s`` gives the run's host speed.
The spans go to ``.bench_out/trace-<workload>-seed<seed>.json``.

Every report is checked against ground truth recomputed from the input file
(checks.py). ``attempted`` counts commands and ``failed`` the ones that exited
non-zero or whose report broke an exact identity; ``correct`` is true when
none did. Estimates outside their error bound, and mining results that
differ from the exact ones, are printed and, in the traced run, reported as
``check.*`` metrics: the protocol meets its bound only with high probability.

Limits: only the benchmark's own processes are measured; the file cache is
neither dropped nor controlled, and other processes on the machine share its
memory bandwidth. A command whose computed walk footprint exceeds
MemAvailable is skipped, and logged, before it starts.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "qpdm" / "cli.py").is_file():
    sys.exit(f"perfbench: no qpdm sources under {SRC}")
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
from checks import Outcome, check_compare, check_mine, ground_truth  # noqa: E402
from child import REF_SECONDS, fits, new_stream, reference_s  # noqa: E402
from inputs import WORKLOADS, Workload, cli_seed, read_bits  # noqa: E402
from qpdm.counting import default_counting_width  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must exit within 180 s
MIN_COMMANDS = 7
SETUP_PROCESSES = 7
WARM_UP = ["attack-demo", "--p", "11", "--eA", "9", "--eB", "3", "--S1", "2,8"]


class BenchError(RuntimeError):
    pass


def run_child(cmd: list[str], stdout: Path, deadline: float, **env: str) -> tuple[int, float]:
    """Run one child to completion: (exit code, wall seconds)."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(0.0, deadline - started), proc.kill)
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - started
    if time.perf_counter() >= deadline:
        raise BenchError(f"{' '.join(cmd[1:4])} did not end before the run's time limit")
    if proc.returncode != 0:
        tail = stdout.with_suffix(".err").read_text(errors="replace")[-2000:]
        print(f"{' '.join(cmd[1:])} exited with {proc.returncode}:\n{tail}", file=sys.stderr)
    return proc.returncode, wall


class Runner:
    """One run of one workload: inputs, ground truth and the commands."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.db = workload.make_input(workdir, seed)
        self.bits = read_bits(self.db)
        self.p = workload.p if workload.p is not None else default_counting_width(workload.s)
        self.truth = ground_truth(self.bits, workload.s, workload.c, self.p)
        self.commands = 0
        self._stream = new_stream()
        self.refs: list[float] = []

    def timed(self, cmd: list[str], stdout: Path, **env: str) -> tuple[int, float, int]:
        """Run a child right after a reference timing: (exit code, wall, k),
        where scale(k) is the child's host scale."""
        self.refs.append(reference_s(self._stream))
        code, wall = run_child(cmd, stdout, self.deadline, **env)
        return code, wall, len(self.refs) - 1

    def scale(self, k: int) -> float:
        """REF_SECONDS over the mean of the reference times just before and just
        after child k; a time times the scale is the time at reference speed."""
        if k + 1 == len(self.refs):
            self.refs.append(reference_s(self._stream))
        return 2 * REF_SECONDS / (self.refs[k] + self.refs[k + 1])

    def check(self, report: dict) -> Outcome:
        if self.workload.command == "mine":
            return check_mine(report, self.truth)
        return check_compare(report, self.truth, self.bits, self.workload.items, self.workload.split)

    def command(self, index: int, traced: bool = False) -> dict:
        """Run the index-th command of the run; returns its measurements."""
        if not fits(self.truth.n, self.p):
            raise BenchError(
                f"skipped: the walk at n={self.truth.n}, p={self.p} needs more than MemAvailable"
            )
        argv = self.workload.argv(self.db, cli_seed(self.workload.name, self.seed, index))
        tag = f"cmd{self.commands}"
        self.commands += 1
        stdout = self.workdir / f"{tag}.json"
        stats = self.workdir / f"{tag}.stats.json"
        cmd = [sys.executable, str(HERE / "child.py"), "cli", str(stats), str(int(traced)), "--", *argv]
        code, wall, k = self.timed(cmd, stdout)
        sample = {"wall": wall, "k": k, "rss": 0.0, "spans": []}
        try:
            sample["report"] = json.loads(stdout.read_text(encoding="utf-8"))
            sample["outcome"] = self.check(sample["report"])
            child_stats = json.loads(stats.read_text(encoding="utf-8"))
            sample["rss"], sample["spans"] = child_stats["peak_rss_mb"], child_stats["spans"]
        except (ValueError, KeyError, OSError) as exc:
            sample["report"], sample["outcome"] = {}, Outcome(problems=[f"unreadable output: {exc!r}"])
        if code != 0:
            sample["outcome"].problems.append(f"exit code {code}")
        return sample

    def setup_time(self, i: int) -> float:
        """Scaled median set-up time of a fresh process with hash seed i."""
        out = self.workdir / f"setup{i}.txt"
        cmd = [sys.executable, str(HERE / "child.py"), "setup", str(self.db), str(self.workload.split)]
        if run_child(cmd, out, self.deadline, PYTHONHASHSEED=str(i))[0] != 0:
            raise BenchError("the set-up timing failed")
        return float(out.read_text(encoding="utf-8"))

    def warm_up(self) -> None:
        """One cheap command first, so the byte-code cache is written before timing."""
        cmd = [sys.executable, str(HERE / "child.py"), "cli", str(self.workdir / "warm-up.stats"), "0", "--", *WARM_UP]
        run_child(cmd, self.workdir / "warm-up.json", self.deadline)


def verdict(samples: list[dict], metrics: dict[str, float], units: dict[str, str]) -> dict:
    """A command fails when it exits non-zero or its report breaks an exact
    identity; estimates outside their bound are reported, not failures."""
    failed = 0
    for s in samples:
        for problem in s["outcome"].problems:
            print(f"check failed: {problem}", file=sys.stderr)
        failed += bool(s["outcome"].problems)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} median={q2:.4g} q3={q3:.4g}"


def untraced_run(runner: Runner, seconds: float) -> dict:
    runner.warm_up()
    setup, samples = [], []
    started = time.perf_counter()
    while len(samples) < MIN_COMMANDS or time.perf_counter() - started < seconds:
        samples.append(runner.command(len(samples)))
        # Set-up runs between the first commands, so a burst of host load at
        # one moment does not decide it.
        if len(setup) < SETUP_PROCESSES:
            setup.append(runner.setup_time(len(setup)))
    while len(setup) < SETUP_PROCESSES:
        setup.append(runner.setup_time(len(setup)))
    first = [s["outcome"] for s in samples[:MIN_COMMANDS]]
    walls = [s["wall"] for s in samples]
    metrics = {
        "wall_s": statistics.median(s["wall"] * runner.scale(s["k"]) for s in samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s["rss"] for s in samples),
        "oracle_calls_per_s": statistics.median(
            s["outcome"].oracle_calls / (s["wall"] * runner.scale(s["k"])) for s in samples
        ),
        "qubits_total": statistics.median(o.qubits for o in first),
        "rounds_total": statistics.median(o.rounds for o in first),
    }
    outcomes = [s["outcome"] for s in samples]
    print(f"workload {runner.workload.name} seed {runner.seed}: {len(samples)} commands")
    print(f"  measured wall_s {quartiles(walls)}")
    print(f"  setup_s of each process, scaled in the process {quartiles(setup)}")
    print(f"  reference_s {quartiles(runner.refs)}; scaled to {REF_SECONDS} s below")
    print(
        f"  checks: {sum(o.misses for o in outcomes)} of {sum(o.estimates for o in outcomes)} estimates missed,"
        f" mining diff median {statistics.median(o.mining_diff for o in outcomes)},"
        f" abs error max {max(o.abs_error_max for o in outcomes):.3g}"
    )
    units = spec_units("end_to_end")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return verdict(samples, metrics, units)


def traced_run(runner: Runner, seconds: float) -> dict:
    runner.warm_up()
    plain, traced = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain.append(runner.command(len(traced)))
        traced.append(runner.command(len(traced), traced=True))

    per_command = [tracing.layer_metrics(s["spans"], s["wall"]) for s in traced]
    metrics = {name: statistics.median(m[name] for m in per_command) for name in per_command[0]}
    counts = [d for s in traced for d in tracing.count_durations(s["spans"])]
    metrics["counting.count_s.p50"] = tracing.percentile(counts, 50)
    metrics["counting.count_s.p90"] = tracing.percentile(counts, 90)
    metrics["classical.bits_total"] = statistics.median(
        s["report"].get("classical", {}).get("bits_total", 0) for s in traced
    )
    traced_wall = statistics.median(s["wall"] for s in traced)
    plain_wall = statistics.median(s["wall"] for s in plain)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = plain_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["host.reference_s"] = statistics.median(runner.refs)

    # Every estimate the traced commands made, including the infrequent ones
    # a mining report leaves out.
    estimates = Outcome()
    for s in traced:
        for name, *_, note in s["spans"]:
            if name == "counting.joint_support":
                estimates.estimate(runner.truth, note["z"], note["value"], note["accepted"])
    metrics["check.estimates"] = estimates.estimates
    metrics["check.error_rate"] = estimates.misses / estimates.estimates
    metrics["check.abs_error_max"] = estimates.abs_error_max
    metrics["check.mining_diff"] = statistics.median(s["outcome"].mining_diff for s in traced)

    sweep_out = runner.workdir / "sweep.json"
    cmd = [sys.executable, str(HERE / "child.py"), "sweep", str(sweep_out), str(runner.seed)]
    if run_child(cmd, sweep_out.with_suffix(".out"), runner.deadline)[0] != 0:
        raise BenchError("the scaling sweep failed")
    metrics.update(json.loads(sweep_out.read_text(encoding="utf-8")))

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{runner.workload.name}-seed{runner.seed}.json"
    spans = [[run_id, *span] for run_id, s in enumerate(traced) for span in s["spans"]]
    trace_file.write_text(json.dumps({"fields": ["run", "name", "start", "end", "parent", "notes"], "spans": spans}))

    units = spec_units("per_layer")
    if set(units) != set(metrics):
        raise BenchError(f"traced metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    print(f"workload {runner.workload.name} seed {runner.seed}: {len(traced)} traced commands, spans in {trace_file}")
    print(f"  counting.count_s over {len(counts)} counts; trace overhead {metrics['trace.overhead_s']:+.4f} s")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return verdict(plain + traced, metrics, units)


def spec_units(kind: str) -> dict[str, str]:
    """Unit of every metric of one kind ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, workdir, started + RUN_LIMIT_S)
        result = (traced_run if args.trace else untraced_run)(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
