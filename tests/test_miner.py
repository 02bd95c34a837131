import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpdm.counting import CountingConfig, SupportEstimate
from qpdm.dataset import TransactionDatabase, pad_to_power_of_two, vertical_partition
from qpdm.miner import (
    FrequentItemset,
    MiningReport,
    apriori_frequent,
    exact_estimator,
    exact_mine,
    generate_rules,
    quantum_estimator,
    run_mining,
)
from qpdm.protocol import Transcript, build_qram

FOUR_ROWS = TransactionDatabase(3, ("110", "100", "011", "111"), 4)


def parties(db, l):
    padded = pad_to_power_of_two(db)
    n = (padded.n_transactions - 1).bit_length()
    alice_view, bob_view = vertical_partition(padded, l)
    return build_qram(alice_view, n), build_qram(bob_view, n)


def brute_frequent(db, s):
    """Independent enumeration of frequent itemsets, no Apriori machinery."""
    out = set()
    for size in range(1, db.n_items + 1):
        for combo in itertools.combinations(range(1, db.n_items + 1), size):
            hits = sum(1 for row in db.rows if all(row[i - 1] == "1" for i in combo))
            if Fraction(hits, db.original_count) > s:
                out.add(frozenset(combo))
    return out


def config_for(s, band=0.01, p=4):
    return CountingConfig(p=p, s=s, agreement_band=band)


class TestAprioriExact:
    def test_only_singletons_frequent(self):
        db = TransactionDatabase(2, ("10", "10", "01", "01"), 4)
        alice, bob = parties(db, 1)
        result = apriori_frequent(alice, bob, config_for(0.4), exact_estimator(db))
        assert [[rec.items for rec in level] for level in result.levels] == [[(1,), (2,)]]

    def test_matches_brute_force_on_random_dbs(self):
        rng = np.random.default_rng(0)
        for trial in range(8):
            k = int(rng.integers(3, 7))
            n_rows = int(rng.integers(4, 17))
            rows = tuple("".join(rng.choice(["0", "1"], p=[0.4, 0.6], size=k)) for _ in range(n_rows))
            db = TransactionDatabase(k, rows, n_rows)
            s = float(rng.uniform(0.2, 0.7))
            alice, bob = parties(db, int(rng.integers(1, k)))
            result = apriori_frequent(alice, bob, config_for(s, band=1e-9), exact_estimator(db))
            mined = {frozenset(rec.items) for level in result.levels for rec in level}
            assert mined == brute_frequent(db, s)

    def test_nothing_passes_high_threshold(self):
        db = TransactionDatabase(2, ("10", "01"), 2)
        alice, bob = parties(db, 1)
        result = apriori_frequent(alice, bob, config_for(0.99), exact_estimator(db))
        assert result.levels == []

    def test_undetermined_excluded_from_joins(self):
        db = TransactionDatabase(3, ("111", "111", "110", "101"), 4)
        alice, bob = parties(db, 1)
        exact = exact_estimator(db)

        def flaky(z):
            est = exact(z)
            if z == frozenset({2}):
                return SupportEstimate(est.value, est.error_bound, 5, est.s1, est.s2, False)
            return est

        result = apriori_frequent(alice, bob, config_for(0.4), flaky)
        assert result.undetermined == [(2,)]
        mined = {frozenset(rec.items) for level in result.levels for rec in level}
        assert frozenset({2}) not in mined
        assert all(2 not in z for z in mined)  # nothing joined through {2}
        assert frozenset({1, 3}) in mined

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_subset_of_a_kept_itemset_is_kept(self, data):
        # generate_rules reads each antecedent from the kept itemsets, so
        # Apriori must keep every subset of what it keeps whatever the
        # estimates: random values, random acceptance, bands up to 2
        k = data.draw(st.integers(2, 7), label="k")
        split = data.draw(st.integers(1, k - 1), label="split")
        s = data.draw(st.floats(0.01, 0.99), label="s")
        band = data.draw(st.floats(0.01, 2.0), label="band")
        acceptance = data.draw(st.floats(0.0, 1.0), label="acceptance")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        def noisy(z):
            value = float(rng.random())
            return SupportEstimate(value, 0.01, 1, value, value, bool(rng.random() < acceptance))

        alice, bob = parties(TransactionDatabase(k, ("0" * k,) * 2, 2), split)
        result = apriori_frequent(alice, bob, config_for(s, band=band), noisy)
        kept = {rec.items for level in result.levels for rec in level}
        for items in kept:
            for size in range(1, len(items)):
                assert set(itertools.combinations(items, size)) <= kept, items


class TestGenerateRules:
    def test_four_row_example(self):
        report = exact_mine(FOUR_ROWS, 0.4, 0.6)
        pairs = {(r.antecedent, r.consequent): r for r in report.rules}
        rule = pairs[((1,), (2,))]
        assert rule.confidence == Fraction(2, 3)
        assert rule.support == Fraction(1, 2)
        # the reverse partition is evaluated against supp({2}) and also passes
        assert ((2,), (1,)) in pairs

    def test_high_confidence_threshold_empty(self):
        report = exact_mine(FOUR_ROWS, 0.4, 1.0)
        assert report.rules == []

    def test_singletons_make_no_rules(self):
        db = TransactionDatabase(2, ("10", "01"), 2)
        report = exact_mine(db, 0.3, 0.1)
        assert {rec.items for rec in report.frequent} == {(1,), (2,)}
        assert report.rules == []

    def test_confidence_and_its_error_bound(self):
        # conf = supp(X u Y) / supp(X),
        # bound = err(X u Y) / supp(X) + err(X) * supp(X u Y) / supp(X)^2,
        # with supp(X) and err(X) from the frequent itemsets
        singles = {(1,): (0.5, 0.03), (2,): (0.4, 0.02)}
        pair = FrequentItemset((1, 2), 0.3, 0.01, 2, False)
        listed = [FrequentItemset(x, v, e, 1, False) for x, (v, e) in singles.items()]
        rules = {(r.antecedent, r.consequent): r for r in generate_rules([*listed, pair], 0.5)}
        assert set(rules) == {((1,), (2,)), ((2,), (1,))}
        for x, y in rules:
            supp_x, err_x = singles[x]
            rule = rules[(x, y)]
            assert (rule.support, rule.support_error) == (0.3, 0.01)
            assert rule.confidence == 0.3 / supp_x
            assert rule.confidence_error == 0.01 / supp_x + err_x * 0.3 / (supp_x * supp_x)

    def test_missing_antecedent_skipped(self):
        # only a hand-built list can leave an antecedent out: its partitions
        # are skipped, and nothing is counted in its place
        pair = FrequentItemset((1, 2), 0.3, 0.01, 2, False)
        single = FrequentItemset((1,), 0.5, 0.03, 1, False)
        rules = generate_rules([single, pair], 0.5)
        assert [(r.antecedent, r.consequent) for r in rules] == [((1,), (2,))]
        assert generate_rules([pair], 0.5) == []

    def test_empty_frequent_gives_no_rules(self):
        assert generate_rules([], 0.5) == []

    def test_sorted_deterministically(self):
        db = TransactionDatabase(3, ("111",) * 4, 4)
        report = exact_mine(db, 0.5, 0.5)
        keys = [(len(r.antecedent) + len(r.consequent), r.antecedent, r.consequent) for r in report.rules]
        assert keys == sorted(keys)


class TestExactMine:
    def test_agrees_with_apriori_exact_estimator(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            k = int(rng.integers(3, 6))
            rows = tuple("".join(rng.choice(["0", "1"], size=k)) for _ in range(8))
            db = TransactionDatabase(k, rows, 8)
            s, c = 0.3, 0.6
            report = exact_mine(db, s, c)
            alice, bob = parties(db, 1)
            result = apriori_frequent(alice, bob, config_for(s, band=1e-9), exact_estimator(db))
            assert {rec.items for rec in report.frequent} == {
                rec.items for level in result.levels for rec in level
            }

    def test_zero_threshold_reports_all_supported(self):
        db = TransactionDatabase(2, ("11", "10"), 2)
        report = exact_mine(db, 0.0, 0.9)
        assert {rec.items for rec in report.frequent} == {(1,), (2,), (1, 2)}

    def test_threshold_above_one_empty(self):
        report = exact_mine(FOUR_ROWS, 1.1, 0.5)
        assert report.frequent == [] and report.rules == []

    def test_empty_db_rejected(self):
        db = TransactionDatabase(2, ("00",), 0)
        with pytest.raises(ValueError):
            exact_mine(db, 0.5, 0.5)

    def test_wide_db_refused(self):
        db = TransactionDatabase(21, ("0" * 21,), 1)
        with pytest.raises(ValueError):
            exact_mine(db, 0.5, 0.5)


class TestQuantumMining:
    def test_matches_exact_on_margin_safe_db(self):
        # every support is a multiple of 1/8, far from s = 0.3
        db = TransactionDatabase(
            3, ("111", "110", "110", "100", "101", "011", "010", "000"), 8
        )
        alice, bob = parties(db, 1)
        config = CountingConfig(p=13, s=0.3)
        truth = exact_mine(db, 0.3, 0.5)
        for seed in (0, 1):
            transcript = Transcript()
            estimator = quantum_estimator(alice, bob, config, seed, transcript)
            report = run_mining(alice, bob, config, 0.5, estimator, transcript, exact_db=db)
            assert {rec.items for rec in report.frequent} == {
                rec.items for rec in truth.frequent
            }
            assert {(r.antecedent, r.consequent) for r in report.rules} == {
                (r.antecedent, r.consequent) for r in truth.rules
            }
            assert report.exact_diff == {
                "frequent_missing": [],
                "frequent_extra": [],
                "rules_missing": [],
                "rules_extra": [],
            }
            assert report.total_qubits > 0

    def test_deterministic_per_seed(self):
        db = TransactionDatabase(3, ("111", "110", "100", "011"), 4)
        alice, bob = parties(db, 2)
        config = CountingConfig(p=9, s=0.3)
        reports = []
        for _ in range(2):
            estimator = quantum_estimator(alice, bob, config, 123)
            reports.append(run_mining(alice, bob, config, 0.5, estimator).to_json_dict())
        assert reports[0] == reports[1]


class TestReportJson:
    def test_schema_keys(self):
        report = exact_mine(FOUR_ROWS, 0.4, 0.6)
        data = report.to_json_dict()
        assert set(data) == {"frequent", "rules", "communication"}
        assert all(
            set(rec) == {"items", "estimate", "error_bound", "rounds", "borderline"}
            for rec in data["frequent"]
        )
        assert all(set(rule) == {"X", "Y", "support", "confidence"} for rule in data["rules"])
        assert data["communication"] == {"total_qubits": 0}

    def test_undetermined_listed(self):
        report = MiningReport(frequent=[], rules=[], undetermined=[(2,)])
        assert report.to_json_dict()["undetermined"] == [[2]]
