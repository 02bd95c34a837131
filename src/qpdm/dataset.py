"""Boolean transaction databases: parsing, padding, partitioning, and exact
support / confidence statistics.

A transaction is a k-character '0'/'1' string, leftmost character = item 1.
A database checks its rows once, as a whole array, and holds them as one
read-only 0/1 matrix ``bits`` (rows x k); column i - 1 is item i. A party's
view of a vertically partitioned database is a column slice of that matrix,
a numpy view rather than a copy.

All statistics in this module are exact rationals counted over the
unpadded rows; they are the ground truth every estimated quantity is judged
against. Padding rows (appended to reach a power-of-two row count) are
all-zero, so they can never contain a non-empty itemset and never touch a
numerator; the denominator is always the original row count.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

ItemSet = frozenset
"""An itemset is a frozenset of 1-based item indices."""


class ParseError(ValueError):
    """Malformed database text; ``line`` is the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _bit_matrix(rows: tuple[str, ...], k: int) -> np.ndarray:
    """The rows as a read-only uint8 0/1 matrix (rows x k), checked in whole
    arrays: every row has k characters, each "0" or "1"."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    bad = np.flatnonzero(lengths != k)
    if len(bad):
        row = rows[bad[0]]
        raise ValueError(f"row {row!r} has {len(row)} bits, expected {k}")
    # "replace" keeps one byte per character; in uint8, every character but
    # "0" and "1" lands above 1
    chars = np.frombuffer("".join(rows).encode("ascii", "replace"), dtype=np.uint8)
    bits = (chars - ord("0")).reshape(len(rows), k)
    bad = np.flatnonzero((bits > 1).any(axis=1))
    if len(bad):
        raise ValueError(f"row {rows[bad[0]]!r} contains non-binary characters")
    bits.flags.writeable = False
    return bits


@dataclass(frozen=True)
class TransactionDatabase:
    """N transactions over k items, possibly padded with all-zero rows.

    ``original_count`` is the number of real (non-padding) rows; it is the
    denominator of every support value.
    """

    n_items: int
    rows: tuple[str, ...]
    original_count: int
    item_names: tuple[str, ...] = ()
    bits: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_items < 1:
            raise ValueError("need at least one item")
        object.__setattr__(self, "bits", _bit_matrix(self.rows, self.n_items))
        if not 0 <= self.original_count <= len(self.rows):
            raise ValueError("original_count out of range")
        if not self.item_names:
            names = tuple(f"I{i}" for i in range(1, self.n_items + 1))
            object.__setattr__(self, "item_names", names)
        elif len(self.item_names) != self.n_items:
            raise ValueError("item_names length mismatch")

    @property
    def n_transactions(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, eq=False)
class PartitionedView:
    """One party's half of a vertically partitioned database.

    Alice holds columns 1..l, Bob columns l+1..k: ``bits`` is that column
    slice of the database's read-only bit matrix, checked when the database
    was built. ``original_count`` rides along so estimates over the padded
    space can be rescaled back. Views compare by identity.
    """

    role: str
    split_point: int
    bits: np.ndarray = field(repr=False)
    original_count: int

    def __post_init__(self):
        if self.role not in ("alice", "bob"):
            raise ValueError(f"unknown role {self.role!r}")

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def item_part(self, z: ItemSet) -> tuple[ItemSet, int]:
        """Restrict an itemset to this party's columns.

        Returns (sub-itemset, offset); positions minus offset, less one,
        index this view's columns. The sub-itemset may be empty (vacuously
        satisfied).
        """
        l = self.split_point
        if self.role == "alice":
            return frozenset(i for i in z if i <= l), 0
        return frozenset(i for i in z if i > l), l


def parse_database(text: str) -> TransactionDatabase:
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
        return _parse_csv(lines)
    return _parse_bitstrings(lines)


def _parse_csv(lines: list[str]) -> TransactionDatabase:
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


def _parse_bitstrings(lines: list[str]) -> TransactionDatabase:
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


def pad_to_power_of_two(db: TransactionDatabase) -> TransactionDatabase:
    """Append all-zero rows until the row count is a power of two, at least
    two, so that the address register is at least one qubit wide."""
    n = db.n_transactions
    target = 1 << max(1, (n - 1).bit_length())
    if target == n:
        return db
    blank = "0" * db.n_items
    return dataclasses.replace(db, rows=db.rows + (blank,) * (target - n))


def vertical_partition(db: TransactionDatabase, l: int) -> tuple[PartitionedView, PartitionedView]:
    """Split columns 1..l to Alice and l+1..k to Bob, preserving row order."""
    if not 1 <= l < db.n_items:
        raise ValueError(f"split point {l} must satisfy 1 <= l < {db.n_items}")
    alice = PartitionedView("alice", l, db.bits[:, :l], db.original_count)
    bob = PartitionedView("bob", l, db.bits[:, l:], db.original_count)
    return alice, bob


def _check_items(db: TransactionDatabase, z: ItemSet, label: str = "Z") -> None:
    if not z:
        raise ValueError(f"{label} must be non-empty")
    if any(not 1 <= i <= db.n_items for i in z):
        raise ValueError(f"{label} contains indices outside 1..{db.n_items}")


def exact_support(db: TransactionDatabase, z: ItemSet) -> Fraction:
    """Exact fraction of (non-padding) transactions containing every item of z.

    Padding rows are all-zero and cannot contain a non-empty z, so counting
    over all rows is safe; the denominator is the original row count.
    """
    _check_items(db, z)
    if db.original_count < 1:
        raise ValueError("database has no real rows")
    hits = db.bits[:, [i - 1 for i in z]].all(axis=1)
    return Fraction(int(np.count_nonzero(hits)), db.original_count)


def exact_confidence(db: TransactionDatabase, x: ItemSet, y: ItemSet) -> Fraction:
    """Exact conditional frequency of y given x: supp(x | y together) / supp(x)."""
    _check_items(db, x, "X")
    _check_items(db, y, "Y")
    if frozenset(x) & frozenset(y):
        raise ValueError("X and Y must be disjoint")
    supp_x = exact_support(db, x)
    if supp_x == 0:
        raise ValueError("antecedent has zero support")
    return exact_support(db, frozenset(x) | frozenset(y)) / supp_x


def membership_flag(x: str, zpart: ItemSet, offset: int = 0) -> int:
    """1 iff the bitstring x has a 1 at every position of zpart (shifted by offset).

    An empty zpart is vacuously contained, so the flag is 1 for any x.
    """
    for pos in zpart:
        q = pos - offset
        if not 1 <= q <= len(x):
            raise ValueError(f"position {pos} (offset {offset}) outside bitstring of length {len(x)}")
        if x[q - 1] != "1":
            return 0
    return 1
