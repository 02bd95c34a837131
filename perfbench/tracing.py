"""Spans around qpdm's public functions, recorded from outside the program.

Each function is wrapped under the module name where its caller looks it
up: ``counting.run_oracle_u`` as ``_oracle_diagonal`` finds it, the ``qsim``
primitives as attributes of the ``qsim`` module that ``protocol`` and
``counting`` call through, ``miner.joint_support`` as the quantum estimator
finds it. The walk and the readout sampling are private to ``counting``, so
they show up as the self time of ``quantum_count``.

A span is ``[name, start, end, parent, notes]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``notes`` holds counts taken at the
boundary. Spans stay in memory until the traced command ends.
"""
from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

QSIM_PRIMITIVES = ("qram_query", "apply_permutation", "apply_membership_mark", "apply_w")
MINER_LEVELS = (1, 2, 3, 4)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def traced(self, fn, name: str, note=None):
        """fn wrapped to record one span per call; note(args, result) -> dict."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return wrapper

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        setattr(module, attr, self.traced(getattr(module, attr), name, note))


def install(tracer: Tracer) -> None:
    """Wrap every traced call site of the qpdm package in place."""
    from qpdm import cli, counting, miner, qsim

    def labels(args, _):
        return {"labels": len(args[0].amps)}

    def walk(args, _):
        return {"walk_bytes": 16 * args[4].P << args[1].address_width}

    def estimate(args, est):
        return {"z": sorted(args[2]), "value": float(est.value), "accepted": est.accepted, "rounds": est.rounds_used}

    def events(args, _):
        return {"events": len(args[0].events)}

    for attr in QSIM_PRIMITIVES:
        tracer.wrap(qsim, attr, f"qsim.{attr}", labels)
    tracer.wrap(counting, "run_oracle_u", "protocol.run_oracle_u")
    tracer.wrap(counting, "quantum_count", "counting.quantum_count", walk)
    for module in (cli, miner):
        tracer.wrap(module, "joint_support", "counting.joint_support", estimate)
        tracer.wrap(module, "transcript_total", "protocol.transcript_total", events)
        tracer.wrap(module, "exact_support", "dataset.exact_support")
    for attr in ("apriori_frequent", "generate_rules", "exact_mine"):
        tracer.wrap(miner, attr, f"miner.{attr}")
    tracer.wrap(cli, "parse_database", "dataset.parse_database")
    tracer.wrap(cli, "pad_to_power_of_two", "dataset.pad_to_power_of_two")
    tracer.wrap(cli, "vertical_partition", "dataset.vertical_partition")
    tracer.wrap(cli, "build_qram", "protocol.build_qram")
    tracer.wrap(cli, "classical_support", "classical.classical_support")

    make_estimator = cli.quantum_estimator

    def quantum_estimator(*args, **kwargs):
        return tracer.traced(
            make_estimator(*args, **kwargs), "miner.estimate", lambda a, _: {"size": len(a[0])}
        )

    cli.quantum_estimator = quantum_estimator


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer counts and times of one traced command.

    Self time is a span's duration minus the time its child spans cover.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    notes: dict[str, float] = defaultdict(float)
    levels: dict[int, list[float]] = defaultdict(list)
    for name, start, end, parent, note in spans:
        duration = end - start
        calls[name] += 1
        total[name] += duration
        self_s[name] += duration
        if parent >= 0:
            self_s[spans[parent][0]] -= duration
        for key, value in (note or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                notes[f"{name}.{key}"] += value
        if name == "miner.estimate" and parent >= 0 and spans[parent][0] == "miner.apriori_frequent":
            levels[note["size"]].append(duration)
    joint = [note for name, *_, note in spans if name == "counting.joint_support"]
    rounds = sum(n["rounds"] for n in joint)

    m = {
        "counting.quantum_count.calls": calls["counting.quantum_count"],
        "counting.quantum_count.self_s": self_s["counting.quantum_count"],
        "counting.walk_bytes_computed": notes["counting.quantum_count.walk_bytes"],
        "counting.joint_support.calls": calls["counting.joint_support"],
        "counting.joint_support.s": total["counting.joint_support"],
        "counting.accept_ratio": sum(n["accepted"] for n in joint) / rounds,
    }
    for attr in QSIM_PRIMITIVES:
        m[f"qsim.{attr}.calls"] = calls[f"qsim.{attr}"]
        m[f"qsim.{attr}.s"] = total[f"qsim.{attr}"]
    m["qsim.labels_processed"] = sum(notes[f"qsim.{attr}.labels"] for attr in QSIM_PRIMITIVES)
    m["protocol.run_oracle_u.calls"] = calls["protocol.run_oracle_u"]
    m["protocol.run_oracle_u.self_s"] = self_s["protocol.run_oracle_u"]
    m["protocol.transcript_events"] = notes["protocol.transcript_total.events"]
    m["protocol.transcript_total_s"] = total["protocol.transcript_total"]
    m["protocol.build_qram_s"] = total["protocol.build_qram"]
    m["dataset.parse_s"] = total["dataset.parse_database"]
    m["dataset.pad_partition_s"] = total["dataset.pad_to_power_of_two"] + total["dataset.vertical_partition"]
    m["dataset.exact_support.calls"] = calls["dataset.exact_support"]
    m["dataset.exact_support.s"] = total["dataset.exact_support"]
    for k in MINER_LEVELS:
        m[f"miner.level{k}.candidates"] = len(levels[k])
        m[f"miner.level{k}.s"] = sum(levels[k])
    m["miner.generate_rules_s"] = total["miner.generate_rules"]
    m["miner.exact_mine_s"] = total["miner.exact_mine"]
    m["classical.classical_support_s"] = total["classical.classical_support"]
    oracle = m["protocol.run_oracle_u.self_s"] + sum(m[f"qsim.{a}.s"] for a in QSIM_PRIMITIVES)
    m["share.counting_walk"] = m["counting.quantum_count.self_s"] / wall_s
    m["share.qsim_oracle"] = oracle / wall_s
    return m


def count_durations(spans: list[list]) -> list[float]:
    return [end - start for name, start, end, *_ in spans if name == "counting.quantum_count"]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of at least two values, inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
