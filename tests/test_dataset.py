import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpdm.classical import index_set
from qpdm.dataset import (
    ParseError,
    TransactionDatabase,
    exact_confidence,
    exact_support,
    membership_flag,
    pad_to_power_of_two,
    parse_database,
    vertical_partition,
)
from qpdm.protocol import build_qram
from qpdm.qsim import label_dtype

FOUR_ROWS = TransactionDatabase(3, ("110", "100", "011", "111"), 4)


def brute_support(rows, z, denom):
    """Independent oracle: direct row enumeration via set containment."""
    contained = 0
    for row in rows:
        items = {i + 1 for i, ch in enumerate(row) if ch == "1"}
        if set(z) <= items:
            contained += 1
    return Fraction(contained, denom)


def random_db(rng, n_rows, k):
    rows = tuple("".join(rng.choice(["0", "1"], size=k)) for _ in range(n_rows))
    return TransactionDatabase(k, rows, n_rows)


class TestParse:
    def test_csv_header_and_rows(self):
        db = parse_database("I1,I2,I3\n1,1,0\n0,1,1\n")
        assert db.n_transactions == 2
        assert db.n_items == 3
        assert db.rows == ("110", "011")
        assert db.item_names == ("I1", "I2", "I3")

    def test_short_row_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_database("I1,I2,I3\n1,1,0\n1,0\n")
        assert err.value.line == 3

    def test_non_binary_cell(self):
        with pytest.raises(ParseError) as err:
            parse_database("I1,I2\n1,2\n")
        assert err.value.line == 2

    def test_original_count_is_row_count(self):
        db = parse_database("I1,I2\n1,0\n0,1\n1,1\n0,0\n")
        assert db.original_count == 4

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_database("")
        with pytest.raises(ParseError):
            parse_database("  \n\n")

    def test_bitstring_format(self):
        db = parse_database("110\n011\n")
        assert db.rows == ("110", "011")
        assert db.item_names == ("I1", "I2", "I3")

    def test_bitstring_bad_width(self):
        with pytest.raises(ParseError) as err:
            parse_database("110\n01\n")
        assert err.value.line == 2

    def test_header_only_csv(self):
        with pytest.raises(ParseError):
            parse_database("I1,I2\n")

    def test_constructor_checks_rows(self):
        for rows, message in (
            (("110", "01"), "'01' has 2 bits"),
            (("110", "1a0"), "'1a0' contains non-binary"),
            (("1\u00e90", "110"), "contains non-binary"),
            (("1100",), "expected 3"),
        ):
            with pytest.raises(ValueError, match=message):
                TransactionDatabase(3, rows, len(rows))

    def test_bits_read_only_and_out_of_eq(self):
        db = TransactionDatabase(3, ("110", "011"), 2)
        assert db.bits.tolist() == [[1, 1, 0], [0, 1, 1]]
        assert not db.bits.flags.writeable
        twin = TransactionDatabase(3, ("110", "011"), 2)
        assert db == twin and hash(db) == hash(twin)
        alice, bob = vertical_partition(db, 1)
        assert not alice.bits.flags.writeable and not bob.bits.flags.writeable
        assert alice == alice and alice != bob and hash(alice) != hash(bob)


class TestPad:
    def test_three_rows_get_one_blank(self):
        db = TransactionDatabase(2, ("10", "01", "11"), 3)
        padded = pad_to_power_of_two(db)
        assert padded.n_transactions == 4
        assert padded.rows[3] == "00"
        assert padded.original_count == 3

    def test_power_of_two_unchanged(self):
        db = TransactionDatabase(2, ("10", "01", "11", "00"), 4)
        assert pad_to_power_of_two(db) is db

    def test_one_row_pads_to_two(self):
        # a one-row database still needs a one-qubit address register
        db = TransactionDatabase(3, ("110",), 1)
        padded = pad_to_power_of_two(db)
        assert padded.rows == ("110", "000")
        assert padded.original_count == 1

    def test_five_rows_pad_to_eight(self):
        db = TransactionDatabase(2, ("10",) * 5, 5)
        padded = pad_to_power_of_two(db)
        assert padded.n_transactions == 8
        assert padded.rows[5:] == ("00", "00", "00")


class TestPartition:
    def test_string_split(self):
        db = TransactionDatabase(4, ("1101",), 1)
        alice, bob = vertical_partition(db, 2)
        assert alice.bits.tolist() == [[1, 1]]
        assert bob.bits.tolist() == [[0, 1]]
        assert (alice.width, bob.width) == (2, 2)

    def test_split_at_k_rejected(self):
        db = TransactionDatabase(3, ("101",), 1)
        with pytest.raises(ValueError):
            vertical_partition(db, 3)
        with pytest.raises(ValueError):
            vertical_partition(db, 0)

    def test_rejoin_is_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            db = random_db(rng, int(rng.integers(1, 9)), int(rng.integers(2, 7)))
            for l in range(1, db.n_items):
                alice, bob = vertical_partition(db, l)
                assert np.array_equal(np.hstack([alice.bits, bob.bits]), db.bits)
                # column slices of the database's matrix, not copies
                assert np.shares_memory(alice.bits, db.bits)
                assert np.shares_memory(bob.bits, db.bits)

    def test_item_part(self):
        db = TransactionDatabase(4, ("1101",), 1)
        alice, bob = vertical_partition(db, 2)
        assert alice.item_part(frozenset({1, 3, 4})) == (frozenset({1}), 0)
        assert bob.item_part(frozenset({1, 3, 4})) == (frozenset({3, 4}), 2)


class TestSupport:
    def test_four_row_example(self):
        # independent enumeration: rows 0 and 3 contain {1, 2}
        assert brute_support(FOUR_ROWS.rows, {1, 2}, 4) == Fraction(2, 4)
        assert exact_support(FOUR_ROWS, frozenset({1, 2})) == Fraction(2, 4)

    def test_all_zero_db(self):
        db = TransactionDatabase(2, ("00", "00"), 2)
        assert exact_support(db, frozenset({1})) == 0

    def test_all_ones_db(self):
        db = TransactionDatabase(3, ("111", "111"), 2)
        assert exact_support(db, frozenset({1, 2, 3})) == 1

    def test_empty_itemset_rejected(self):
        with pytest.raises(ValueError):
            exact_support(FOUR_ROWS, frozenset())

    def test_out_of_range_item(self):
        with pytest.raises(ValueError):
            exact_support(FOUR_ROWS, frozenset({4}))

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            db = random_db(rng, 8, 4)
            z = frozenset(int(i) for i in rng.choice(range(1, 5), size=2, replace=False))
            shuffled = tuple(db.rows[i] for i in rng.permutation(8))
            db2 = TransactionDatabase(4, shuffled, 8)
            assert exact_support(db, z) == exact_support(db2, z)

    def test_padding_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            db = random_db(rng, int(rng.integers(1, 8)), 3)
            padded = pad_to_power_of_two(db)
            for size in (1, 2, 3):
                for z in itertools.combinations(range(1, 4), size):
                    assert exact_support(db, frozenset(z)) == exact_support(padded, frozenset(z))

    def test_apriori_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            db = random_db(rng, 10, 5)
            for size in (1, 2, 3, 4):
                for z in itertools.combinations(range(1, 6), size):
                    for extra in set(range(1, 6)) - set(z):
                        bigger = frozenset(z) | {extra}
                        assert exact_support(db, frozenset(z)) >= exact_support(db, bigger)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            db = random_db(rng, int(rng.integers(1, 12)), 4)
            for size in (1, 2, 3, 4):
                for z in itertools.combinations(range(1, 5), size):
                    assert exact_support(db, frozenset(z)) == brute_support(db.rows, z, db.original_count)

    def test_wide_database_matches_brute_force(self):
        # 203 rows (not a whole number of packed bytes) over 70 items
        rng = np.random.default_rng(23)
        db = random_db(rng, 203, 70)
        for _ in range(30):
            z = frozenset(int(i) for i in rng.choice(range(1, 71), size=int(rng.integers(1, 4)), replace=False))
            got = exact_support(db, z)
            assert got == brute_support(db.rows, z, db.original_count)
            assert type(got.numerator) is int


class TestConfidence:
    def test_four_row_example(self):
        # supp({1,2}) = 2/4, supp({1}) = 3/4, so conf = 2/3
        assert exact_confidence(FOUR_ROWS, frozenset({1}), frozenset({2})) == Fraction(2, 3)

    def test_implication_gives_one(self):
        db = TransactionDatabase(2, ("11", "11", "01"), 3)
        assert exact_confidence(db, frozenset({1}), frozenset({2})) == 1

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            exact_confidence(FOUR_ROWS, frozenset({1}), frozenset({1, 2}))

    def test_zero_antecedent_rejected(self):
        db = TransactionDatabase(2, ("01", "01"), 2)
        with pytest.raises(ValueError):
            exact_confidence(db, frozenset({1}), frozenset({2}))


class TestMembershipFlag:
    def test_all_named_bits_set(self):
        assert membership_flag("1011", frozenset({1, 3, 4})) == 1

    def test_missing_bit(self):
        assert membership_flag("1011", frozenset({1, 2})) == 0

    def test_vacuous_empty_part(self):
        assert membership_flag("0000", frozenset()) == 1
        assert membership_flag("1", frozenset()) == 1

    def test_offset_positions(self):
        # bob-side view of "01" under split l=2: item 4 is position 2 of the view
        assert membership_flag("01", frozenset({4}), offset=2) == 1
        assert membership_flag("01", frozenset({3}), offset=2) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            membership_flag("10", frozenset({3}))

    def test_matches_all_ones_test(self):
        # containment of zpart == restriction of x to zpart is the all-ones string
        rng = np.random.default_rng(23)
        for _ in range(50):
            x = "".join(rng.choice(["0", "1"], size=6))
            size = int(rng.integers(1, 6))
            zpart = frozenset(int(i) for i in rng.choice(range(1, 7), size=size, replace=False))
            restricted = "".join(x[i - 1] for i in sorted(zpart))
            expected = int(int(restricted, 2) == (1 << len(zpart)) - 1)
            assert membership_flag(x, zpart) == expected


class TestRowStore:
    """The bit matrix, the views, the QRAM cells, index_set and
    exact_support, each against the string rows the database was built from."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_derived_data_match_string_rows(self, data):
        # k up to 70, so QRAM cells wider than 62 bits (object arrays) are drawn
        k = data.draw(st.integers(2, 70), label="k")
        n_rows = data.draw(st.integers(1, 20), label="rows")
        values = data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n_rows, max_size=n_rows))
        db = pad_to_power_of_two(TransactionDatabase(k, tuple(format(v, f"0{k}b") for v in values), n_rows))
        l = data.draw(st.integers(1, k - 1), label="split")
        z = frozenset(data.draw(st.sets(st.integers(1, k), min_size=1, max_size=4), label="z"))
        n = (db.n_transactions - 1).bit_length()
        alice, bob = (build_qram(view, n) for view in vertical_partition(db, l))

        assert db.bits.tolist() == [[int(c) for c in row] for row in db.rows]
        assert np.array_equal(np.hstack([alice.view.bits, bob.view.bits]), db.bits)
        for party, part in ((alice, slice(None, l)), (bob, slice(l, None))):
            view_rows = [row[part] for row in db.rows]
            assert party.memory_ints.dtype == label_dtype(party.data_width)
            assert party.memory_ints.tolist() == [int(row, 2) for row in view_rows]
            zpart, offset = party.view.item_part(z)
            expected = set()
            for j, row in enumerate(view_rows[:n_rows]):
                if all(row[i - offset - 1] == "1" for i in zpart):
                    expected.add(j + 1)
            assert index_set(party.view, z) == expected
        assert exact_support(db, z) == brute_support(db.rows, z, n_rows)
