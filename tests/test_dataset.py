import io
import itertools
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpdm import dataset
from qpdm.classical import index_set
from qpdm.dataset import (
    MAX_ADDRESS_WIDTH,
    ParseError,
    TransactionDatabase,
    exact_confidence,
    exact_support,
    itemset,
    pad_to_power_of_two,
    parse_database,
    rule_sides,
    vertical_partition,
)
from qpdm.protocol import build_qram, make_key

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
        for args, message in (
            ((3, ("110", "01"), 2), "^line 2: expected 3 bits, got 2$"),
            ((3, ("110", "1a0"), 2), "^line 2: non-binary character$"),
            ((3, ("1\u00e90", "110"), 2), "^line 1: non-binary character$"),
            ((3, ("1100",), 1), "^line 1: expected 3 bits, got 4$"),
            ((2.5, ("01",), 1), r"^n_items must be an integer, got 2\.5$"),
            ((2, ("01", "00"), 1.5), r"^original_count must be an integer, got 1\.5$"),
        ):
            with pytest.raises(ValueError, match=message):
                TransactionDatabase(*args)
        # the first bad row, read as lines by parse_database and as rows by
        # the constructor, is the reference's: the first, the last, one
        # holding "\r", a fullwidth "\uff11" and a lone surrogate
        for rows in (
            ("1a", "01"),
            ("10", "01", "0"),
            ("10", "1\r0", "11"),
            ("10", "0\uff11", "1"),
            ("10", "\ud8001", "1"),
        ):
            text = "".join(row + "\n" for row in rows)
            assert parse_outcome(parse_database, text) == parse_outcome(reference_parse_database, text)
            got = parse_outcome(lambda rows: TransactionDatabase(2, rows, len(rows)), rows)
            assert got == parse_outcome(_reference_parse_bitstrings, list(rows))

    def test_constructor_refuses_a_line_break_in_a_row(self):
        # read as lines, ("10\n00",) would be two rows, the second zero padding
        for rows, count, line in ((("10\n00",), 1, 1), (("11", "1\n"), 2, 2), (("\n",), 1, 1)):
            with pytest.raises(ParseError, match=f"^line {line}: row holds a line break$"):
                TransactionDatabase(2, rows, count)

    def test_padded_cells_crlf_and_trailing_blank_lines(self):
        db = parse_database("a,b\n 1 , 0 \r\n0,1\n\n")
        assert db.bits.tolist() == [[1, 0], [0, 1]]
        assert db.item_names == ("a", "b") and db.original_count == 2
        db = parse_database("\u00a0110 \r\n\t011\r\n \r\n")
        assert db.bits.tolist() == [[1, 1, 0], [0, 1, 1]]

    def test_bits_read_only_and_out_of_eq(self):
        db = TransactionDatabase(3, ("110", "011"), 2)
        assert db.bits.tolist() == [[1, 1, 0], [0, 1, 1]]
        assert not db.bits.flags.writeable
        twin = TransactionDatabase(3, ("110", "011"), 2)
        assert db == twin and hash(db) == hash(twin)
        alice, bob = vertical_partition(db, 1)
        assert not alice.bits.flags.writeable and not bob.bits.flags.writeable
        assert alice == alice and alice != bob and hash(alice) != hash(bob)


class TestFromBits:
    def test_equals_string_row_database(self):
        rows = ("110", "011", "000")
        bits = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 0]], dtype=np.uint8)
        for names in ((), ("a", "b", "c")):
            db = TransactionDatabase.from_bits(bits.copy(), 2, names)
            twin = TransactionDatabase(3, rows, 2, names)
            assert db == twin and hash(db) == hash(twin)
            assert db.rows == rows
            assert db.n_items == 3 and db.n_transactions == 3
            assert not db.bits.flags.writeable
        unlike = (
            TransactionDatabase(3, rows, 3),
            TransactionDatabase(3, rows[:2], 2),
            TransactionDatabase(3, rows, 2, ("a", "b", "d")),
        )
        assert all(TransactionDatabase.from_bits(bits.copy(), 2) != other for other in unlike)
        # a database that differs only in a non-zero padding row is not made
        with pytest.raises(ValueError, match="^padding row 2 is not all zero$"):
            TransactionDatabase(3, ("110", "011", "001"), 2)

    def test_rows_round_trip(self):
        rng = np.random.default_rng(29)
        for k in (1, 5, 70):
            db = random_db(rng, 9, k)
            again = TransactionDatabase.from_bits(db.bits.copy(), db.original_count)
            assert again.rows == db.rows
            assert TransactionDatabase(k, again.rows, 9) == db

    def test_checks_shape_and_counts(self):
        bits = np.zeros((4, 2), dtype=np.uint8)
        # a 2 counts as present in exact_support, but shifts into the
        # neighbouring item in a party's QRAM cell
        two = np.array([[1, 0, 2], [1, 1, 1]], dtype=np.uint8)
        padded = bits.copy()
        padded[3, 1] = 1
        for args, message in (
            ((np.zeros(4, dtype=np.uint8), 4), "2-d uint8"),
            ((bits.astype(np.int64), 4), "2-d uint8"),
            ((np.zeros((4, 0), dtype=np.uint8), 4), "at least one item"),
            ((two, 2), "^bits row 0 holds a value other than 0 or 1$"),
            ((bits, 5), "original_count"),
            ((bits, -1), "original_count"),
            ((bits, 0), "^database has no real rows$"),
            ((bits, 1.0), r"^original_count must be an integer, got 1\.0$"),
            ((padded, 2), "^padding row 3 is not all zero$"),
            ((bits, 4, ("a",)), "item_names"),
        ):
            with pytest.raises(ValueError, match=message):
                TransactionDatabase.from_bits(*args)

    def test_holds_a_copy_that_no_write_to_the_callers_array_reaches(self):
        cells = [[1, 0], [0, 1], [0, 0], [0, 0]]
        base = np.array(cells, dtype=np.uint8)
        db = TransactionDatabase.from_bits(base[:], 2)
        # through the base of the view the database was given: a 1 in a
        # padding row and a 2 in a cell, each refused where a database is
        # made; the rows and columns are first derived after the writes
        base[3, 0], base[0, 1] = 1, 2
        assert not np.shares_memory(db.bits, base)
        assert db.bits.tolist() == cells and db.rows == ("10", "01", "00", "00")
        assert db.columns.tolist() == [[True, False, False, False], [False, True, False, False]]
        assert exact_support(db, {1}) == exact_support(db, {2}) == Fraction(1, 2)

    def test_non_zero_padding_refused(self):
        # one real row and one padding row hold {1, 2}: exact_support would read 2
        with pytest.raises(ValueError, match="^padding row 1 is not all zero$"):
            TransactionDatabase(2, ("11", "11"), 1)

    def test_padding_keeps_count_and_names(self):
        bits = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        db = TransactionDatabase.from_bits(bits, 3, ("x", "y"))
        padded = pad_to_power_of_two(db)
        assert padded.bits.tolist() == [[1, 0], [0, 1], [1, 1], [0, 0]]
        assert padded.original_count == 3 and padded.item_names == ("x", "y")
        assert not padded.bits.flags.writeable
        assert padded == TransactionDatabase(2, ("10", "01", "11", "00"), 3, ("x", "y"))


class TestAddressWidth:
    def test_limit_admits_its_own_width(self):
        assert MAX_ADDRESS_WIDTH >= 20
        db = TransactionDatabase.from_bits(np.zeros((1 << MAX_ADDRESS_WIDTH, 1), dtype=np.uint8), 1)
        assert pad_to_power_of_two(db) is db

    def test_one_row_more_is_refused(self):
        db = TransactionDatabase.from_bits(np.zeros(((1 << MAX_ADDRESS_WIDTH) + 1, 1), dtype=np.uint8), 1)
        with pytest.raises(ValueError, match="MAX_ADDRESS_WIDTH"):
            pad_to_power_of_two(db)


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
        for l in (3, 0):
            with pytest.raises(ValueError, match=r"^split must lie in 1\.\.2$"):
                vertical_partition(db, l)

    def test_non_integer_split_rejected(self):
        db = TransactionDatabase(3, ("101",), 1)
        for l, shown in ((1.5, "1.5"), (1.0, "1.0"), ("1", "'1'")):
            with pytest.raises(ValueError, match=f"^split must be an integer, got {shown}$"):
                vertical_partition(db, l)
        alice, bob = vertical_partition(db, np.int64(1))
        assert (alice.width, bob.width) == (1, 2)

    def test_one_item_database_cannot_be_split(self):
        db = TransactionDatabase(1, ("1", "0"), 2)
        for l in (0, 1, 2):
            with pytest.raises(ValueError, match="^a database of one item cannot be split between two parties$"):
                vertical_partition(db, l)

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

    def test_with_key_keeps_the_cut(self):
        # a keyed view holds the same database and column slice, not a
        # fresh cut of them
        db = TransactionDatabase(4, ("1101", "0110"), 2)
        for view in vertical_partition(db, 2):
            keyed = view.with_key(make_key("bitflip", 1, 1))
            assert keyed.bits is view.bits and keyed.db is view.db
            assert (keyed.role, keyed.split_point, keyed.key) == (view.role, 2, make_key("bitflip", 1, 1))
            assert keyed.with_key(None).bits is view.bits

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
        with pytest.raises(ValueError, match="^empty itemset$"):
            exact_support(FOUR_ROWS, frozenset())

    def test_out_of_range_item(self):
        with pytest.raises(ValueError, match=r"^item index outside 1\.\.3$"):
            exact_support(FOUR_ROWS, frozenset({4}))
        with pytest.raises(ValueError, match="^item indices are 1-based$"):
            exact_support(FOUR_ROWS, frozenset({0}))
        # refused by the itemset rule, not by numpy's indexing
        for z in ({1.5}, {2.0}):
            with pytest.raises(ValueError, match="^item indices must be integers$"):
                exact_support(FOUR_ROWS, z)
        assert exact_support(FOUR_ROWS, {np.int64(2)}) == Fraction(3, 4)

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
        with pytest.raises(ValueError, match="^X and Y must be disjoint$"):
            exact_confidence(FOUR_ROWS, frozenset({1}), frozenset({1, 2}))

    def test_zero_antecedent_rejected(self):
        db = TransactionDatabase(2, ("01", "01"), 2)
        with pytest.raises(ValueError):
            exact_confidence(db, frozenset({1}), frozenset({2}))

    def test_itemsets_checked_by_the_gate(self):
        for x, y, message in (
            (set(), {2}, "^empty itemset$"),
            ({1}, set(), "^empty itemset$"),
            ({0}, {2}, "^item indices are 1-based$"),
            ({1}, {4}, r"^item index outside 1\.\.3$"),
        ):
            with pytest.raises(ValueError, match=message):
                exact_confidence(FOUR_ROWS, frozenset(x), frozenset(y))


class TestItemset:
    def test_refusals_in_the_command_line_words(self):
        for items, n_items, message in (
            ((), None, "^empty itemset$"),
            ((), 3, "^empty itemset$"),
            ({0, 2}, None, "^item indices are 1-based$"),
            ({0, 4}, 3, "^item indices are 1-based$"),
            ({1, 4}, 3, r"^item index outside 1\.\.3$"),
            ({1.5}, None, "^item indices must be integers$"),
            ({1, 2.0}, 3, "^item indices must be integers$"),
            (["1"], 3, "^item indices must be integers$"),
        ):
            with pytest.raises(ValueError, match=message):
                itemset(items, n_items)

    def test_returns_the_frozenset(self):
        assert itemset([3, 1, 3]) == frozenset({1, 3})
        assert itemset(frozenset({1, 3}), 3) == frozenset({1, 3})
        assert itemset([9]) == frozenset({9})  # no upper bound without n_items


class TestRuleSides:
    def test_each_side_an_itemset_and_the_two_disjoint(self):
        assert rule_sides([2, 1], {3}, 3) == (frozenset({1, 2}), frozenset({3}))
        for x, y, message in (
            (set(), {2}, "^empty itemset$"),
            ({1}, {0}, "^item indices are 1-based$"),
            ({1}, {4}, r"^item index outside 1\.\.3$"),
            ({1}, {1, 2}, "^X and Y must be disjoint$"),
        ):
            with pytest.raises(ValueError, match=message):
                rule_sides(x, y, 3)


class TestRowStore:
    """The bit matrix, the views, their containment columns, index_set and
    exact_support, each against the string rows the database was built from."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_derived_data_match_string_rows(self, data):
        # k up to 70: a party's data is its view's column slice, however wide
        k = data.draw(st.integers(2, 70), label="k")
        n_rows = data.draw(st.integers(1, 20), label="rows")
        values = data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n_rows, max_size=n_rows))
        db = pad_to_power_of_two(TransactionDatabase(k, tuple(format(v, f"0{k}b") for v in values), n_rows))
        assert_built_as_from_bits(db)
        l = data.draw(st.integers(1, k - 1), label="split")
        z = frozenset(data.draw(st.sets(st.integers(1, k), min_size=1, max_size=4), label="z"))
        n = (db.n_transactions - 1).bit_length()
        alice, bob = (build_qram(view, n) for view in vertical_partition(db, l))

        assert db.bits.tolist() == [[int(c) for c in row] for row in db.rows]
        assert np.array_equal(np.hstack([alice.bits, bob.bits]), db.bits)
        columns = db.columns
        assert np.array_equal(columns, db.bits.T) and columns.flags.c_contiguous
        assert not columns.flags.writeable and db.columns is columns
        for party, part in ((alice, slice(None, l)), (bob, slice(l, None))):
            view_rows = [row[part] for row in db.rows]
            assert ["".join(map(str, row)) for row in party.bits.tolist()] == view_rows
            zpart, offset = party.item_part(z)
            column = [all(row[i - offset - 1] == "1" for i in zpart) for row in view_rows]
            assert party.contains(z).tolist() == column
            assert index_set(party, z) == {j + 1 for j in range(n_rows) if column[j]}
            if zpart:  # an itemset lying wholly on one party
                assert db.contains(zpart).tolist() == column
        column = db.contains(z)
        assert column.dtype == bool and not column.flags.writeable
        assert column.tolist() == [all(row[i - 1] == "1" for i in z) for row in db.rows]
        assert exact_support(db, z) == brute_support(db.rows, z, n_rows)

    def test_set_up_forms_no_item_columns(self):
        # the item columns are formed on the first containment query, so
        # parsing, padding and cutting the parties' QRAM leave them unformed
        db = pad_to_power_of_two(parse_database("a,b,c\n1,0,1\n0,1,1\n1,1,0\n"))
        for view in vertical_partition(db, 1):
            build_qram(view, 2)
        assert "columns" not in db.__dict__


# The line-by-line parser that parse_database replaced, kept verbatim (bar
# the names) as the reference the whole-array parser is pinned to.
def reference_parse_database(text: str) -> TransactionDatabase:
    """Parse CSV (header of item names, then 0/1 cells) or one bitstring per line.

    Raises ParseError naming the offending line for malformed rows,
    non-binary cells, or empty input.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or not any(line.strip() for line in lines):
        raise ParseError(1, "empty input")
    if "," in lines[0]:
        return _reference_parse_csv(lines)
    return _reference_parse_bitstrings(lines)


def _reference_parse_csv(lines: list[str]) -> TransactionDatabase:
    names = tuple(cell.strip() for cell in lines[0].split(","))
    if any(not name for name in names):
        raise ParseError(1, "empty item name in header")
    k = len(names)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != k:
            raise ParseError(lineno, f"expected {k} cells, got {len(cells)}")
        for cell in cells:
            if cell not in ("0", "1"):
                raise ParseError(lineno, f"non-binary cell {cell!r}")
        rows.append("".join(cells))
    if not rows:
        raise ParseError(2, "no data rows")
    return TransactionDatabase(k, tuple(rows), len(rows), names)


def _reference_parse_bitstrings(lines: list[str]) -> TransactionDatabase:
    stripped = [line.strip() for line in lines]
    k = len(stripped[0])
    rows = []
    for lineno, row in enumerate(stripped, start=1):
        if len(row) != k:
            raise ParseError(lineno, f"expected {k} bits, got {len(row)}")
        if set(row) - {"0", "1"}:
            raise ParseError(lineno, "non-binary character")
        rows.append(row)
    return TransactionDatabase(k, tuple(rows), len(rows))


def parse_outcome(parse, text):
    """What a parser makes of text: the database's fields, or the error."""
    try:
        db = parse(text)
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    return ("ok", db.bits.tolist(), db.item_names, db.original_count)


def assert_built_as_from_bits(db):
    """db equals (matrix, row count and names) from_bits on a copy of its
    matrix, which checks every cell again, and its bits are read-only."""
    twin = TransactionDatabase.from_bits(db.bits.copy(), db.original_count, db.item_names)
    assert db == twin
    assert db.bits.dtype == np.uint8 and not db.bits.flags.writeable


PAD = st.text(alphabet=" \t\u00a0\u3000\x1f", max_size=2)
# line boundaries of str.splitlines, ASCII and not
LINE_END = st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028"])
NAME = st.text(alphabet="ab\u00e9 \t\u00a0", min_size=1, max_size=4).filter(str.strip)


@st.composite
def database_lines(draw):
    """A well-formed database as (lines, csv): cells, bit-string lines and
    header names padded with whitespace."""
    csv = draw(st.booleans())
    k = draw(st.integers(2 if csv else 1, 6))
    n_rows = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.sampled_from("01"), min_size=k, max_size=k), min_size=n_rows, max_size=n_rows))
    if csv:
        header = ",".join(draw(PAD) + draw(NAME) + draw(PAD) for _ in range(k))
        lines = [header] + [",".join(draw(PAD) + cell + draw(PAD) for cell in row) for row in rows]
    else:
        lines = [draw(PAD) + "".join(row) + draw(PAD) for row in rows]
    return lines, csv


def render(draw, lines):
    """The lines joined by drawn boundaries, with drawn trailing blank lines."""
    text = "".join(line + draw(LINE_END) for line in lines)
    text += "".join(draw(PAD) + draw(LINE_END) for _ in range(draw(st.integers(0, 3))))
    return text if draw(st.booleans()) else text.rstrip("\n")


class TestParserMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_well_formed(self, data):
        lines, csv = data.draw(database_lines())
        text = render(data.draw, lines)
        got = parse_outcome(parse_database, text)
        assert got == parse_outcome(reference_parse_database, text)
        assert got[0] == "ok"
        assert len(got[1]) == len(lines) - csv

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_malformed(self, data):
        lines, csv = data.draw(database_lines())
        first = 1 if csv else 0
        row = data.draw(st.integers(first, len(lines) - 1), label="row")
        fault = data.draw(st.sampled_from(
            ["cells", "cell", "name", "blank", "header only", "leading blank"] if csv
            else ["cells", "cell", "blank", "leading blank"]
        ))
        if fault == "cells":
            cells = lines[row].split(",") if csv else list(lines[row].strip())
            cells = cells[:-1] if len(cells) > 1 and data.draw(st.booleans()) else cells + ["1"]
            lines[row] = ",".join(cells) if csv else "".join(cells)
        elif fault == "cell":
            bad = data.draw(st.sampled_from(["2", "a", "\u00e9", "1 0", "", "01", "\x00"]))
            cells = lines[row].split(",") if csv else list(lines[row].strip())
            cells[data.draw(st.integers(0, len(cells) - 1))] = bad
            lines[row] = ",".join(cells) if csv else "".join(cells)
        elif fault == "name":
            names = lines[0].split(",")
            names[data.draw(st.integers(0, len(names) - 1))] = data.draw(PAD)
            lines[0] = ",".join(names)
        elif fault == "blank":
            lines.insert(row, data.draw(PAD))
            lines.append("1" if not csv else lines[-1])
        elif fault == "header only":
            lines = lines[:1]
        else:
            lines.insert(0, data.draw(PAD))
        text = render(data.draw, lines)
        got = parse_outcome(parse_database, text)
        assert got == parse_outcome(reference_parse_database, text)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bytes_str_and_read_text_agree(self, data):
        # the file's bytes, its text, and the text a universal-newline read
        # of the file gives parse alike: the same database or the same error
        if data.draw(st.booleans(), label="well formed"):
            text = render(data.draw, data.draw(database_lines())[0])
        else:
            text = data.draw(st.text(alphabet="0011,,, \t\r\n\n\v\f\x1c\x1f\x85\u00a0\u2028\u3000a2\u00e9", max_size=40))
        raw = text.encode("utf-8")
        read = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
        got = parse_outcome(parse_database, raw)
        assert got == parse_outcome(parse_database, text) == parse_outcome(parse_database, read)

    def test_blank_input_as_str_isspace_sees_it(self):
        for text in (b"", b" \t\r\n\x1c\x1f", " \u3000\n\x85".encode(), "\u2028".encode()):
            assert parse_outcome(parse_database, text) == ("error", 1, "line 1: empty input")

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\r\r\n1,0\n",  # a lone "\r" ends the header: line 2 is blank
            "10\r\r\n01\n",
            "a,b\r1,0\r0,1\r",
            "a,b\x1d1,0\x1e0,1\u2029",
            "a,b\n1,0\x1e\x1e\u2029 \u2029",
            "\x1e10\n01",
            "a,b\u20291,0\n0,1\u20280,0",
            "10\x1c01\x0c11\x0b00\x85",
            "a ,\u3000b\n 1\u2000,\u202f0\t\n",
        ],
    )
    def test_line_boundaries(self, text):
        assert parse_outcome(parse_database, text) == parse_outcome(reference_parse_database, text)

    @pytest.mark.parametrize(
        "text",
        [
            "ab,c\n1,0\n0,1\n",  # a 5-byte header: the cells start at an odd address
            "a,b\n1-0\n0,1\n",  # "-" (0x2D) where a comma belongs
            "a,b\n1,0\x0b0,1\n",  # "\v" (0x0B) where a newline belongs
            "a,b\n1,0\n/,1\n",  # "/" (0x2F) as a digit
            "a,b\n1,0\n0,2\n",  # "2" (0x32) as a digit
            "a,b\n",  # the header alone
            "a,b",
            "a,b\n1,a\n0,1\n",  # the first data line bad
            "a,b\n1,0\n0,1\n1\n",  # the last line bad
            "a,b\n1,0\n1,\r0\n",  # a "\r" ends a line
            "a,b\n1,0\n\uff11,0\n",  # a fullwidth one
            "a,b\n1,0\n0,\ud800\n",  # a lone surrogate
        ],
    )
    def test_canonical_csv_cells(self, text):
        assert parse_outcome(parse_database, text) == parse_outcome(reference_parse_database, text)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_canonical_csv_in_blocks(self, data):
        # canonical CSV with perhaps one byte replaced, its cells checked a
        # few lines at a time so that the fault can fall in any block
        k = data.draw(st.integers(2, 5), label="k")
        rows = data.draw(st.lists(st.lists(st.sampled_from("01"), min_size=k, max_size=k), max_size=8))
        text = ",".join(f"I{i}" for i in range(1, k + 1)) + "\n" + "".join(",".join(row) + "\n" for row in rows)
        if rows and data.draw(st.booleans()):
            at = data.draw(st.integers(text.index("\n") + 1, len(text) - 1), label="at")
            text = text[:at] + data.draw(st.sampled_from("01,\n-/2\x0b\x0c \x00")) + text[at + 1 :]
        block = data.draw(st.integers(1, 3 * k), label="block")
        with mock.patch.object(dataset, "_CELL_BLOCK", block):
            assert parse_outcome(parse_database, text) == parse_outcome(reference_parse_database, text)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_parsed_and_padded_as_from_bits(self, data):
        # parse_database and pad_to_power_of_two skip from_bits' cell check:
        # canonical CSV read in one cell block or in several, canonical bit
        # strings, CRLF lines, and padded cells through the fallback
        form = data.draw(st.sampled_from(["csv", "csv blocks", "bit strings", "crlf", "padded"]), label="form")
        if form == "padded":
            lines, _ = data.draw(database_lines())
            lines[-1] = "\t" + lines[-1]
            text = render(data.draw, lines)
        else:
            csv = form != "bit strings"
            k = data.draw(st.integers(2 if csv else 1, 6), label="k")
            rows = data.draw(st.lists(st.lists(st.sampled_from("01"), min_size=k, max_size=k), min_size=1, max_size=12))
            lines = [",".join(f"I{i}" for i in range(1, k + 1))] if csv else []
            lines += [("," if csv else "").join(row) for row in rows]
            text = "".join(line + ("\r\n" if form == "crlf" else "\n") for line in lines)
        block = data.draw(st.integers(1, 20), label="block") if form == "csv blocks" else dataset._CELL_BLOCK
        with mock.patch.object(dataset, "_CELL_BLOCK", block):
            db = parse_database(text)
        reference = reference_parse_database(text)
        assert db == reference
        assert_built_as_from_bits(db)
        padded = pad_to_power_of_two(db)
        assert padded == pad_to_power_of_two(reference)
        assert_built_as_from_bits(padded)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet="0011,,, \t\r\n\n\v\f\x1c\x1f\x85\u00a0\u2028\u3000a2\u00e9", max_size=40))
    def test_any_text(self, text):
        assert parse_outcome(parse_database, text) == parse_outcome(reference_parse_database, text)


class TestParserAtSize:
    """A 2^12-row CSV file with every cell padded, line boundaries of three
    kinds and trailing blank lines: past the few rows the hypothesis draws
    reach, the text goes through the plain-text fallback whole."""

    K = 8
    PADS = ["\t", " ", "\u3000", "\t \u3000"]
    ENDS = ["\r\n", "\x85", "\u2028"]

    def texts(self):
        """The rows of cells, header first, padded and bare."""
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2, size=(1 << 12, self.K)).astype(str)
        names = [f"I{i}" for i in range(1, self.K + 1)]
        pads = rng.choice(self.PADS, size=(len(bits) + 1, self.K, 2))
        padded = [[a + cell + b for cell, (a, b) in zip(row, pad)] for row, pad in zip([names, *bits], pads)]
        return padded, [names, *bits.tolist()]

    def render(self, padded):
        text = "".join(",".join(row) + self.ENDS[i % 3] for i, row in enumerate(padded))
        return text + " \n\u3000\r\n\x85\t"

    def test_parses_as_its_canonical_form_and_the_reference(self):
        padded, canonical = self.texts()
        text = self.render(padded)
        got = parse_database(text)
        assert got == parse_database("".join(",".join(row) + "\n" for row in canonical))
        assert got.bits.tolist() == [[int(cell) for cell in row] for row in canonical[1:]]
        assert parse_outcome(parse_database, text) == parse_outcome(reference_parse_database, text)
        assert parse_database(text.encode("utf-8")) == got

    @pytest.mark.parametrize("bad", ["2", "", "1\u30000", None])
    def test_bad_cell_near_the_end(self, bad):
        padded, _ = self.texts()
        row = len(padded) - 3
        if bad is None:
            del padded[row][-1]  # a short row
        else:
            padded[row][5] = f" {bad}\t"
        text = self.render(padded)
        got = parse_outcome(parse_database, text)
        assert got == parse_outcome(reference_parse_database, text)
        assert got[:2] == ("error", row + 1)


class TestParserMemory:
    # tracemalloc peak of parse_database on the file below (Python 3.11,
    # numpy 2.4): one block's masked cells (512 KiB) and its comma test
    # (256 KiB). Each checked block is freed before the next is masked and
    # before the 512 KiB output matrix is made; a block kept alive while the
    # output is made would raise the peak to 1 MiB.
    PEAK = 787_610
    # room for the interpreter's own objects, which differ between Python
    # and numpy versions; a new temporary of one byte per row is 64 KiB
    SLACK = 8 << 10

    def test_canonical_parse_adds_no_temporary(self):
        rows = np.random.default_rng(16).integers(0, 2, size=(1 << 16, 8), dtype=np.uint8)
        assert rows.size == 2 * dataset._CELL_BLOCK  # two cell blocks
        cells = np.full((len(rows), 16), ord(","), dtype=np.uint8)
        cells[:, 0::2] = rows + ord("0")
        cells[:, 15] = ord("\n")
        text = b"I1,I2,I3,I4,I5,I6,I7,I8\n" + cells.tobytes()
        del cells
        parse_database(text)  # warm-up: first-call allocations are not the parser's
        tracemalloc.start()
        try:
            db = parse_database(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(db.bits, rows)
        assert peak <= self.PEAK + self.SLACK, f"peak {peak} B"
