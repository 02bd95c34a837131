"""Level-wise Apriori mining over an injected support estimator, rule
generation over frequent itemsets, and an exact miner, level-wise over
exact supports, used as ground truth.

The estimator is any callable itemset -> SupportEstimate; injecting the
exact oracle turns apriori_frequent into textbook Apriori, injecting the
quantum joint estimator gives the two-party protocol run. Because the
quantum estimator is noisy, the frequency test keeps anything above
s - agreement_band*s and marks itemsets within the band as borderline;
itemsets whose estimate never reached agreement are recorded as
undetermined and excluded from candidate joins. A candidate is formed only
when all its subsets were kept, so every subset of a kept itemset is kept
too, and rules read each antecedent's support from the kept itemsets.
An itemset is one sorted tuple from candidate to rule; the estimator alone
is handed a frozenset.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable

from ._pcg64 import Generator
from .counting import CountingConfig, SupportEstimate, confidence_bound, joint_support
from .dataset import FrozenRecord, PartitionedView, Record, TransactionDatabase, exact_support
from .protocol import Transcript, transcript_total

Estimator = Callable[[frozenset], SupportEstimate]

MAX_EXACT_ITEMS = 20  # exact miner guard


class FrequentItemset(FrozenRecord):
    __slots__ = ("items", "estimate", "error_bound", "rounds", "borderline")

    def __init__(
        self,
        items: tuple[int, ...],
        estimate: float | Fraction,
        error_bound: float,
        rounds: int,
        borderline: bool,
    ):
        self._init(items, estimate, error_bound, rounds, borderline)


class AssociationRule(FrozenRecord):
    __slots__ = ("antecedent", "consequent", "support", "confidence", "support_error", "confidence_error")

    def __init__(
        self,
        antecedent: tuple[int, ...],
        consequent: tuple[int, ...],
        support: float | Fraction,
        confidence: float | Fraction,
        support_error: float,
        confidence_error: float,
    ):
        self._init(antecedent, consequent, support, confidence, support_error, confidence_error)


class AprioriResult(Record):
    __slots__ = ("levels", "undetermined")

    def __init__(self, levels: list[list[FrequentItemset]], undetermined: list[tuple[int, ...]]):
        self.levels = levels
        self.undetermined = undetermined


class MiningReport(Record):
    __slots__ = ("frequent", "rules", "undetermined", "total_qubits", "exact_diff")

    def __init__(
        self,
        frequent: list[FrequentItemset],
        rules: list[AssociationRule],
        undetermined: list[tuple[int, ...]] | None = None,
        total_qubits: int = 0,
        exact_diff: dict | None = None,
    ):
        self.frequent = frequent
        self.rules = rules
        self.undetermined = [] if undetermined is None else undetermined
        self.total_qubits = total_qubits
        self.exact_diff = exact_diff

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
    alice: PartitionedView,
    bob: PartitionedView,
    config: CountingConfig,
    seed: int | None,
    transcript: Transcript | None = None,
) -> Estimator:
    """Joint two-party estimator with a per-itemset rng stream derived from
    (seed, itemset), so candidate evaluation order does not matter."""

    def estimate(z: frozenset) -> SupportEstimate:
        rng = Generator(None if seed is None else [seed, *sorted(z)])
        return joint_support(alice, bob, z, config, rng, transcript)

    return estimate


def _join_level(level: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Classic Apriori join + prune over one level's sorted itemsets, taken
    in order: merge two that share all but their last item, and keep the
    candidate when every one of its (m-1)-subsets is in the level. The
    candidates come out in order too."""
    kept = set(level)
    candidates = []
    for i, a in enumerate(level):
        for b in level[i + 1 :]:
            if a[:-1] != b[:-1]:
                break
            cand = a + b[-1:]
            if all(sub in kept for sub in itertools.combinations(cand, len(a))):
                candidates.append(cand)
    return candidates


def apriori_frequent(
    alice: PartitionedView, bob: PartitionedView, config: CountingConfig, estimator: Estimator
) -> AprioriResult:
    """Frequent itemsets by level, using estimate > s - agreement_band*s as
    the frequency test so borderline itemsets are kept rather than dropped."""
    k = alice.width + bob.width
    margin = config.agreement_band * config.s
    threshold = config.s - margin
    levels: list[list[FrequentItemset]] = []
    undetermined: list[tuple[int, ...]] = []
    candidates = [(i,) for i in range(1, k + 1)]
    while candidates:
        level: list[FrequentItemset] = []
        for z in candidates:
            est = estimator(frozenset(z))
            if not est.accepted:
                undetermined.append(z)
                continue
            if est.value > threshold:
                borderline = abs(est.value - config.s) <= margin
                level.append(
                    FrequentItemset(z, est.value, est.error_bound, est.rounds_used, borderline)
                )
        if not level:
            break
        levels.append(level)
        candidates = _join_level([rec.items for rec in level])
    return AprioriResult(levels, undetermined)


def generate_rules(frequent: Iterable[FrequentItemset], c: float) -> list[AssociationRule]:
    """All rules X => Y over partitions of frequent itemsets with
    confidence above c, sorted by (size, antecedent, consequent).

    Antecedent supports come from the frequent itemsets only. Both miners
    list every subset of a listed itemset, so an antecedent can be missing
    only from a hand-built list, and its partitions are then skipped; such
    a list may also give a record's items in any order.
    """
    known = {tuple(sorted(rec.items)): rec for rec in frequent}
    rules = []
    for items, rec in known.items():
        supp_z, err_z = rec.estimate, rec.error_bound
        for size in range(1, len(items)):
            for x in itertools.combinations(items, size):
                if x not in known:
                    continue
                supp_x, err_x = known[x].estimate, known[x].error_bound
                if supp_x <= 0:  # an estimate of 0 is kept when the band exceeds 1
                    continue
                confidence, conf_err = confidence_bound(supp_z, err_z, supp_x, err_x)
                if confidence > c:
                    rules.append(
                        AssociationRule(
                            antecedent=x,
                            consequent=tuple(i for i in items if i not in x),
                            support=supp_z,
                            confidence=confidence,
                            support_error=float(err_z),
                            confidence_error=float(conf_err),
                        )
                    )
    rules.sort(key=lambda r: (len(r.antecedent) + len(r.consequent), r.antecedent, r.consequent))
    return rules


def exact_mine(db: TransactionDatabase, s: float, c: float) -> MiningReport:
    """Ground truth: every itemset with exact support above s, by size and
    then in lexicographic order, and the rules over them. Guarded to k <= 20
    items. An exact support never exceeds a subset's, so the only itemsets
    read at each size are ``_join_level``'s candidates from the frequent
    ones of the size below: in order, those whose (size-1)-subsets are all
    frequent."""
    if db.n_items > MAX_EXACT_ITEMS:
        raise ValueError(f"exact enumeration refused beyond {MAX_EXACT_ITEMS} items")
    frequent = []
    candidates = [(i,) for i in range(1, db.n_items + 1)]
    while candidates:
        level = []
        for combo in candidates:
            supp = exact_support(db, frozenset(combo))
            if supp > s:
                level.append(combo)
                frequent.append(FrequentItemset(combo, supp, 0.0, 0, False))
        candidates = _join_level(level)
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
    alice: PartitionedView,
    bob: PartitionedView,
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
