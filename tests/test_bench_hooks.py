"""The benchmark's children still run against qpdm: the traced run finds the
names it wraps, and the set-up and sweep children build databases, views and
parties through the constructors they call."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_child(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "perfbench/child.py", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_traced_estimate_spans(tmp_path):
    stats = tmp_path / "stats.json"
    argv = [
        "estimate", "--db", "demos/data/market.csv", "--items", "1,3", "--split", "2",
        "--p", "6", "--band", "1.0", "--seed", "1",
    ]
    result = run_child("cli", str(stats), "1", "--", *argv)
    assert result.returncode == 0, result.stderr
    spans = json.loads(stats.read_text())["spans"]
    names = {span[0] for span in spans}
    assert {"counting.quantum_count", "protocol.transcript_total"} <= names
    # a count reads M from the joint column, applies no key and builds no state
    assert "protocol.run_oracle_u" not in names
    report = json.loads(result.stdout)
    # market.csv has 16 rows: n = 4, 4n + 2 = 18 qubits per oracle call
    calls = report["qubits_sent"] // 18
    assert calls == 2 * report["rounds"] * (2**6 - 1)
    # the traced run passes these spans' durations to statistics.quantiles,
    # which refuses fewer than two: each round makes one count per initiator
    counts = [span for span in spans if span[0] == "counting.quantum_count"]
    assert len(counts) == 2 * report["rounds"] >= 2
    events = [span[4]["events"] for span in spans if span[0] == "protocol.transcript_total"]
    assert events == [4 * calls]


def test_setup_child_times_the_setup_path():
    # parse, pad, partition and build_qram, as the benchmark's setup_s times them
    result = run_child("setup", "demos/data/market.csv", "2")
    assert result.returncode == 0, result.stderr
    (line,) = result.stdout.split()
    assert float(line) > 0


def test_sweep_child_reports_every_point(tmp_path):
    out = tmp_path / "sweep.json"
    result = run_child("sweep", str(out), "1")
    assert result.returncode == 0, result.stderr
    keys = {key for key in json.loads(out.read_text()) if key.startswith("scaling.")}
    expected = {f"scaling.oracle_s.n{n}" for n in (4, 8, 12)} | {
        f"scaling.{name}.n{n}.p{p}"
        for name in ("count_s", "walk_bytes_computed")
        for n in (4, 8, 12)
        for p in (8, 13)
    }
    assert len(expected) == 15 and keys == expected
