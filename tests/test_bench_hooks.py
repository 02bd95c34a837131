"""The benchmark's traced run still finds the names it wraps in qpdm."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_estimate_spans(tmp_path):
    stats = tmp_path / "stats.json"
    argv = [
        "estimate", "--db", "demos/data/market.csv", "--items", "1,3", "--split", "2",
        "--p", "6", "--band", "1.0", "--seed", "1",
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "perfbench/child.py", "cli", str(stats), "1", "--", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    spans = json.loads(stats.read_text())["spans"]
    names = {span[0] for span in spans}
    assert {"protocol.run_oracle_u", "qsim.qram_query", "protocol.transcript_total"} <= names
    report = json.loads(result.stdout)
    # market.csv has 16 rows: n = 4, 4n + 2 = 18 qubits per oracle call
    calls = report["qubits_sent"] // 18
    assert calls == 2 * report["rounds"] * (2**6 - 1)
    events = [span[4]["events"] for span in spans if span[0] == "protocol.transcript_total"]
    assert events == [4 * calls]
