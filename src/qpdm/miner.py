"""Level-wise Apriori mining over an injected support estimator, rule
generation over frequent itemsets, and an exact full-enumeration miner
used as ground truth.

The estimator is any callable itemset -> SupportEstimate; injecting the
exact oracle turns apriori_frequent into textbook Apriori, injecting the
quantum joint estimator gives the two-party protocol run. Because the
quantum estimator is noisy, the frequency test keeps anything above
s - agreement_band*s and marks itemsets within the band as borderline;
itemsets whose estimate never reached agreement are recorded as
undetermined and excluded from candidate joins. A candidate is formed only
when all its subsets were kept, so every subset of a kept itemset is kept
too, and rules read each antecedent's support from the kept itemsets.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .counting import CountingConfig, SupportEstimate, confidence_bound, joint_support
from .dataset import TransactionDatabase, exact_support
from .protocol import PartyState, Transcript, transcript_total

Estimator = Callable[[frozenset], SupportEstimate]

MAX_EXACT_ITEMS = 20  # full enumeration guard


@dataclass(frozen=True)
class FrequentItemset:
    items: tuple[int, ...]
    estimate: float | Fraction
    error_bound: float
    rounds: int
    borderline: bool


@dataclass(frozen=True)
class AssociationRule:
    antecedent: tuple[int, ...]
    consequent: tuple[int, ...]
    support: float | Fraction
    confidence: float | Fraction
    support_error: float
    confidence_error: float


@dataclass
class AprioriResult:
    levels: list[list[FrequentItemset]]
    undetermined: list[tuple[int, ...]]


@dataclass
class MiningReport:
    frequent: list[FrequentItemset]
    rules: list[AssociationRule]
    undetermined: list[tuple[int, ...]] = field(default_factory=list)
    total_qubits: int = 0
    exact_diff: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "frequent": [
                {
                    "items": list(rec.items),
                    "estimate": float(rec.estimate),
                    "error_bound": float(rec.error_bound),
                    "rounds": rec.rounds,
                    "borderline": rec.borderline,
                }
                for rec in self.frequent
            ],
            "rules": [
                {
                    "X": list(rule.antecedent),
                    "Y": list(rule.consequent),
                    "support": float(rule.support),
                    "confidence": float(rule.confidence),
                }
                for rule in self.rules
            ],
            "communication": {"total_qubits": self.total_qubits},
        }
        if self.undetermined:
            out["undetermined"] = [list(z) for z in self.undetermined]
        if self.exact_diff is not None:
            out["exact_diff"] = self.exact_diff
        return out


def exact_estimator(db: TransactionDatabase) -> Estimator:
    """Wrap the exact support oracle in the estimator interface."""

    def estimate(z: frozenset) -> SupportEstimate:
        value = exact_support(db, z)
        return SupportEstimate(value, 0.0, 0, float(value), float(value), True)

    return estimate


def quantum_estimator(
    alice: PartyState,
    bob: PartyState,
    config: CountingConfig,
    seed: int | None,
    transcript: Transcript | None = None,
) -> Estimator:
    """Joint two-party estimator with a per-itemset rng stream derived from
    (seed, itemset), so candidate evaluation order does not matter."""

    def estimate(z: frozenset) -> SupportEstimate:
        if seed is None:
            rng = np.random.default_rng()
        else:
            rng = np.random.default_rng([seed, *sorted(z)])
        return joint_support(alice, bob, z, config, rng, transcript)

    return estimate


def _join_level(level_sets: set[frozenset], size: int) -> list[frozenset]:
    """Classic Apriori join + prune: merge m-1 sets sharing a (m-2)-prefix,
    keep candidates whose every (m-1)-subset is frequent."""
    sorted_sets = sorted(tuple(sorted(z)) for z in level_sets)
    candidates = []
    for i, a in enumerate(sorted_sets):
        for b in sorted_sets[i + 1 :]:
            if a[: size - 2] != b[: size - 2]:
                break
            cand = frozenset(a) | frozenset(b)
            if all(
                frozenset(sub) in level_sets
                for sub in itertools.combinations(sorted(cand), size - 1)
            ):
                candidates.append(cand)
    return candidates


def apriori_frequent(
    alice: PartyState, bob: PartyState, config: CountingConfig, estimator: Estimator
) -> AprioriResult:
    """Frequent itemsets by level, using estimate > s - agreement_band*s as
    the frequency test so borderline itemsets are kept rather than dropped."""
    k = alice.view.width + bob.view.width
    margin = config.agreement_band * config.s
    threshold = config.s - margin
    levels: list[list[FrequentItemset]] = []
    undetermined: list[tuple[int, ...]] = []
    candidates = [frozenset({i}) for i in range(1, k + 1)]
    while candidates:
        level: list[FrequentItemset] = []
        kept: set[frozenset] = set()
        for z in sorted(candidates, key=lambda c: tuple(sorted(c))):
            est = estimator(z)
            if not est.accepted:
                undetermined.append(tuple(sorted(z)))
                continue
            if est.value > threshold:
                level.append(
                    FrequentItemset(
                        items=tuple(sorted(z)),
                        estimate=est.value,
                        error_bound=est.error_bound,
                        rounds=est.rounds_used,
                        borderline=abs(est.value - config.s) <= margin,
                    )
                )
                kept.add(z)
        if not level:
            break
        levels.append(level)
        candidates = _join_level(kept, len(next(iter(kept))) + 1)
    return AprioriResult(levels, undetermined)


def generate_rules(frequent: Iterable[FrequentItemset], c: float) -> list[AssociationRule]:
    """All rules X => Y over partitions of frequent itemsets with
    confidence above c, sorted by (size, antecedent, consequent).

    Antecedent supports come from the frequent itemsets only. Both miners
    list every subset of a listed itemset, so an antecedent can be missing
    only from a hand-built list, and its partitions are then skipped.
    """
    known = {frozenset(rec.items): rec for rec in frequent}
    rules = []
    for z in sorted(known, key=lambda z: (len(z), tuple(sorted(z)))):
        if len(z) < 2:
            continue
        rec = known[z]
        supp_z, err_z = rec.estimate, rec.error_bound
        items = tuple(sorted(z))
        for size in range(1, len(items)):
            for x in itertools.combinations(items, size):
                xf = frozenset(x)
                if xf not in known:
                    continue
                supp_x, err_x = known[xf].estimate, known[xf].error_bound
                if supp_x <= 0:  # an estimate of 0 is kept when the band exceeds 1
                    continue
                confidence, conf_err = confidence_bound(supp_z, err_z, supp_x, err_x)
                if confidence > c:
                    rules.append(
                        AssociationRule(
                            antecedent=x,
                            consequent=tuple(sorted(z - xf)),
                            support=supp_z,
                            confidence=confidence,
                            support_error=float(err_z),
                            confidence_error=float(conf_err),
                        )
                    )
    rules.sort(key=lambda r: (len(r.antecedent) + len(r.consequent), r.antecedent, r.consequent))
    return rules


def exact_mine(db: TransactionDatabase, s: float, c: float) -> MiningReport:
    """Ground truth: enumerate every non-empty itemset with exact supports,
    then generate rules. Guarded to k <= 20 items."""
    if db.n_items > MAX_EXACT_ITEMS:
        raise ValueError(f"exact enumeration refused beyond {MAX_EXACT_ITEMS} items")
    if db.original_count < 1:
        raise ValueError("database has no real rows")
    frequent = []
    for size in range(1, db.n_items + 1):
        for combo in itertools.combinations(range(1, db.n_items + 1), size):
            supp = exact_support(db, frozenset(combo))
            if supp > s:
                frequent.append(FrequentItemset(combo, supp, 0.0, 0, False))
    return MiningReport(frequent=frequent, rules=generate_rules(frequent, c))


def _report_diff(report: MiningReport, truth: MiningReport) -> dict:
    mined = {rec.items for rec in report.frequent}
    exact = {rec.items for rec in truth.frequent}
    mined_rules = {(r.antecedent, r.consequent) for r in report.rules}
    exact_rules = {(r.antecedent, r.consequent) for r in truth.rules}
    return {
        "frequent_missing": sorted(list(z) for z in exact - mined),
        "frequent_extra": sorted(list(z) for z in mined - exact),
        "rules_missing": sorted([list(x), list(y)] for x, y in exact_rules - mined_rules),
        "rules_extra": sorted([list(x), list(y)] for x, y in mined_rules - exact_rules),
    }


def run_mining(
    alice: PartyState,
    bob: PartyState,
    config: CountingConfig,
    c: float,
    estimator: Estimator,
    transcript: Transcript | None = None,
    exact_db: TransactionDatabase | None = None,
) -> MiningReport:
    """Full mining pass: frequent itemsets, rules, communication totals, and
    (when a ground-truth database is supplied) the diff against exact_mine,
    which runs first so that its item guard refuses before any estimate."""
    truth = exact_mine(exact_db, config.s, c) if exact_db is not None else None
    result = apriori_frequent(alice, bob, config, estimator)
    flat = [rec for level in result.levels for rec in level]
    report = MiningReport(
        frequent=flat,
        rules=generate_rules(flat, c),
        undetermined=result.undetermined,
        total_qubits=transcript_total(transcript)[0] if transcript is not None else 0,
    )
    if truth is not None:
        report.exact_diff = _report_diff(report, truth)
    return report
