"""Checks of qpdm's reports against ground truth computed here.

Supports, frequent itemsets and rules are recomputed from the CSV's bit
matrix with numpy, without the program under test. Two kinds of result come
out of a check:

* problems: a report that breaks an identity that must hold exactly
  (transcript shape, exact values, the classical protocol's exact answer).
  Any problem makes the run incorrect.
* misses: an estimate that was not accepted or lies outside its error bound,
  and the itemsets and rules a mining report gets wrong. The protocol is
  probabilistic, so these are counted, not treated as faults.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from qpdm.counting import estimate_error_bound


@dataclass(frozen=True)
class Truth:
    rows: int
    n: int  # address width after padding
    P: int
    support: dict[tuple[int, ...], Fraction]  # every non-empty itemset
    frequent: frozenset
    rules: frozenset  # (antecedent, consequent) pairs


def ground_truth(bits: np.ndarray, s: float, c: float | None, p: int) -> Truth:
    rows, k = bits.shape
    columns = bits.astype(bool).T
    support = {}
    for size in range(1, k + 1):
        for z in combinations(range(1, k + 1), size):
            hits = int(np.logical_and.reduce(columns[[i - 1 for i in z]]).sum())
            support[z] = Fraction(hits, rows)
    frequent = frozenset(z for z, v in support.items() if v > s)
    rules = set()
    if c is not None:
        for z in frequent:
            for size in range(1, len(z)):
                for x in combinations(z, size):
                    if support[z] / support[x] > c:
                        rules.add((x, tuple(i for i in z if i not in x)))
    return Truth(rows, (rows - 1).bit_length(), 1 << p, support, frequent, frozenset(rules))


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    estimates: int = 0
    misses: int = 0
    mining_diff: int = 0
    abs_error_max: float = 0.0
    rounds: int = 0
    oracle_calls: int = 0
    qubits: int = 0

    def estimate(self, truth: Truth, items, value: float, accepted: bool) -> None:
        """Count one support estimate against its exact value and error bound."""
        error = abs(value - float(truth.support[tuple(sorted(items))]))
        self.estimates += 1
        self.abs_error_max = max(self.abs_error_max, error)
        if not accepted or error > estimate_error_bound(value, truth.P):
            self.misses += 1


def _shape(out: Outcome, truth: Truth) -> None:
    per_call = 4 * truth.n + 2
    if out.qubits != out.oracle_calls * per_call:
        out.problems.append(f"qubits {out.qubits} != calls {out.oracle_calls} x {per_call}")
    if out.oracle_calls != 2 * out.rounds * (truth.P - 1):
        out.problems.append(f"calls {out.oracle_calls} != 2 x rounds {out.rounds} x (P-1)")


def check_mine(report: dict, truth: Truth) -> Outcome:
    out = Outcome()
    out.qubits = report["communication"]["total_qubits"]
    per_round = 2 * (truth.P - 1) * (4 * truth.n + 2)
    out.rounds = out.qubits // per_round
    out.oracle_calls = 2 * out.rounds * (truth.P - 1)
    _shape(out, truth)
    for rec in report["frequent"]:
        if not math.isclose(rec["error_bound"], estimate_error_bound(rec["estimate"], truth.P), rel_tol=1e-12):
            out.problems.append(f"error bound of {rec['items']} is not estimate_error_bound")
        out.estimate(truth, rec["items"], rec["estimate"], True)
    undetermined = len(report.get("undetermined", []))
    out.estimates += undetermined
    out.misses += undetermined
    mined = {tuple(rec["items"]) for rec in report["frequent"]}
    mined_rules = {(tuple(r["X"]), tuple(r["Y"])) for r in report["rules"]}
    diff = {
        "frequent_missing": sorted(list(z) for z in truth.frequent - mined),
        "frequent_extra": sorted(list(z) for z in mined - truth.frequent),
        "rules_missing": sorted([list(x), list(y)] for x, y in truth.rules - mined_rules),
        "rules_extra": sorted([list(x), list(y)] for x, y in mined_rules - truth.rules),
    }
    out.mining_diff = sum(len(v) for v in diff.values())
    if report.get("exact_diff") != diff:
        out.problems.append("the report's exact_diff disagrees with the ground truth")
    return out


def _next_prime(n: int) -> int:
    candidate = n + 1
    while any(candidate % f == 0 for f in range(2, math.isqrt(candidate) + 1)):
        candidate += 1
    return candidate


def check_compare(report: dict, truth: Truth, bits: np.ndarray, items: tuple, split: int) -> Outcome:
    out = Outcome()
    exact = truth.support[tuple(sorted(items))]
    quantum, classical = report["quantum"], report["classical"]
    out.qubits = quantum["qubits_total"]
    out.oracle_calls = quantum["oracle_calls"]
    out.rounds = quantum["rounds"]
    _shape(out, truth)
    if quantum["qubits_per_call_max"] != 4 * truth.n + 2:
        out.problems.append("qubits_per_call_max != 4n+2")
    if report["exact_support"] != float(exact):
        out.problems.append("exact_support disagrees with the ground truth")
    out.estimate(truth, items, quantum["estimate"], quantum["accepted"])

    columns = bits.astype(bool)
    alice = [i - 1 for i in items if i <= split]
    bob = [i - 1 for i in items if i > split]
    sizes = [int(columns[:, alice].all(axis=1).sum()), int(columns[:, bob].all(axis=1).sum())]
    prime = _next_prime(max(truth.rows, 4))
    if classical["support"] != float(exact):
        out.problems.append("the classical protocol missed the exact support")
    if classical["set_sizes"] != sizes or classical["prime"] != prime:
        out.problems.append("classical index sets or prime disagree with the ground truth")
    if classical["bits_total"] != 2 * sum(sizes) * math.ceil(math.log2(prime)):
        out.problems.append("classical bits_total != 2 (|S1|+|S2|) ceil(log2 p)")
    return out
