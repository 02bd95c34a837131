"""Child processes of the benchmark: one per command, set-up timing or sweep.

    python3 perfbench/child.py cli STATS_JSON TRACE -- QPDM_ARGS...
        runs qpdm.cli.main(QPDM_ARGS), the entry point of the ``qpdm``
        command, with every layer wrapped when TRACE is 1. Then writes the
        process's peak RSS (VmHWM) and the spans to STATS_JSON.
    python3 perfbench/child.py sweep OUT_JSON SEED
        times one quantum_count and one run_oracle_u at each address width
        n in {4, 8, 12} and counting width p in {8, 13}.
    python3 perfbench/child.py setup DB SPLIT
        prints the median time of the CLI's set-up path (parse, pad,
        partition, build_qram), repeated for SETUP_BUDGET_S and scaled to
        the reference host speed (see text_reference_s) measured in between.

A fresh process per command keeps each peak RSS its own. VmHWM is read in
the child because the rusage of a child counts the parent's resident memory
at fork time. The speed of a short-lived process on the shared host it was
built on varies by up to 1.7x from one process to the next, so a set-up
process scales its time by reference timings taken in the same process.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SETUP_BUDGET_S = 0.2
SETUP_BLOCKS = 4
# Median times of reference_s and text_reference_s on the machine that
# baseline.json names, when it ran fast.
REF_SECONDS = 0.05
TEXT_REF_SECONDS = 0.025
SWEEP_N = (4, 8, 12)
SWEEP_P = (8, 13)
WALK_FOOTPRINT = 2.5  # peak bytes of a count over the bytes of its P x 2^n complex walk


def walk_bytes(n: int, p: int) -> int:
    """Computed size of the complex128 P x 2^n walk matrix of one count."""
    return 16 << (n + p)


def mem_available() -> int:
    """MemAvailable from /proc/meminfo, in bytes."""
    with open("/proc/meminfo", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("/proc/meminfo has no MemAvailable line")


def fits(n: int, p: int) -> bool:
    return WALK_FOOTPRINT * walk_bytes(n, p) <= mem_available()


def peak_rss_mb() -> float:
    """VmHWM of this process, in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def run_cli(stats_path: str, trace: bool, argv: list[str]) -> int:
    from qpdm import cli

    import tracing

    tracer = tracing.Tracer()
    if trace:
        tracing.install(tracer)
    code = cli.main(argv)
    stats = {"peak_rss_mb": peak_rss_mb(), "spans": tracer.spans}
    Path(stats_path).write_text(json.dumps(stats), encoding="utf-8")
    return code


def reference_s(stream) -> float:
    """Time of a fixed mix of work that runs no qpdm code: dict updates in the
    interpreter, a loop of small array operations, and two passes over the
    128 MB array ``stream``. It slows down with the host, not the program."""
    import numpy as np

    started = time.perf_counter()
    table = {}
    for i in range(100_000):
        table[i] = i * 7 % 13
    small = np.ones(1024, dtype=complex)
    for _ in range(1000):
        small = 2.0 * small.mean() - small
    for _ in range(2):
        np.multiply(stream, 1.0, out=stream)
    return time.perf_counter() - started


def text_reference_s() -> float:
    """Time of splitting, stripping and joining short strings and building
    small sets, the kind of work the set-up path does, without qpdm code."""
    started = time.perf_counter()
    rows = []
    for i in range(4000):
        cells = f"{i & 1}, {i >> 1 & 1},{i >> 2 & 1} ,{i >> 3 & 1},{i >> 4 & 1}".split(",")
        rows.append("".join(c.strip() for c in cells))
    table = {}
    for i, row in enumerate(rows * 5):
        table[row, i % 97] = set(row) - {"0"}
    return time.perf_counter() - started


def new_stream():
    import numpy as np

    return np.ones(16 << 20)


def setup(db: str, split: int) -> int:
    import statistics

    from qpdm.dataset import pad_to_power_of_two, parse_database, vertical_partition
    from qpdm.protocol import build_qram

    refs, times = [text_reference_s()], []
    for _ in range(SETUP_BLOCKS):
        block_end = time.perf_counter() + SETUP_BUDGET_S / SETUP_BLOCKS
        while time.perf_counter() < block_end:
            started = time.perf_counter()
            padded = pad_to_power_of_two(parse_database(Path(db).read_text(encoding="utf-8")))
            n = (padded.n_transactions - 1).bit_length()
            alice, bob = vertical_partition(padded, split)
            build_qram(alice, n)
            build_qram(bob, n)
            times.append(time.perf_counter() - started)
        refs.append(text_reference_s())
    print(statistics.median(times) * TEXT_REF_SECONDS / statistics.median(refs[1:]))
    return 0


def sweep(out_path: str, seed: int) -> int:
    import numpy as np

    from qpdm import counting, dataset, protocol, qsim

    rng = np.random.default_rng([seed, 8])
    z = frozenset({2, 3})  # spans both parties at split 2
    result = {}
    for n in SWEEP_N:
        bits = (rng.random((1 << n, 4)) < 0.5).astype(int)
        db = dataset.TransactionDatabase(4, tuple("".join(map(str, row)) for row in bits), 1 << n)
        alice_view, bob_view = dataset.vertical_partition(db, 2)
        alice = protocol.build_qram(alice_view, n)
        bob = protocol.build_qram(bob_view, n).with_key(protocol.sample_key("bitflip", n, rng))

        state = qsim.apply_w(qsim.prepare_basis(protocol.oracle_layout(n, 2, 4)), "address")
        started = time.perf_counter()
        protocol.run_oracle_u(state, alice, bob, z, protocol.Transcript())
        result[f"scaling.oracle_s.n{n}"] = time.perf_counter() - started

        for p in SWEEP_P:
            result[f"scaling.walk_bytes_computed.n{n}.p{p}"] = walk_bytes(n, p)
            if not fits(n, p):
                print(f"sweep: skipped n={n} p={p}: walk needs more than MemAvailable", file=sys.stderr)
                result[f"scaling.count_s.n{n}.p{p}"] = 0.0
                continue
            config = counting.CountingConfig(p=p, s=0.25)
            started = time.perf_counter()
            counting.quantum_count("alice", alice, bob, z, config, rng)
            result[f"scaling.count_s.n{n}.p{p}"] = time.perf_counter() - started
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"] and argv[2:3] in (["0"], ["1"]) and argv[3:4] == ["--"]:
        return run_cli(argv[1], argv[2] == "1", argv[4:])
    if argv[:1] == ["sweep"] and len(argv) == 3:
        return sweep(argv[1], int(argv[2]))
    if argv[:1] == ["setup"] and len(argv) == 3:
        return setup(argv[1], int(argv[2]))
    print(__doc__, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
