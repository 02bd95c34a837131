"""Boolean transaction databases: parsing, padding, partitioning, and exact
support / confidence statistics.

A transaction is a row of k 0/1 cells; column i - 1 is item i. A database
holds its rows as one read-only uint8 matrix ``bits`` (rows x k), the only
row store. Its facts are decided where it is made, whichever way that is:
every cell is 0 or 1, it has at least one real row, and every row past the
real ones is all zero. A party's view of a vertically partitioned database
is cut only from a database, and its bits are a column slice of that
matrix, a numpy view rather than a copy; padding appends zero rows to it.
Derived from it on first access, read-only: the item-major ``columns``,
which ``TransactionDatabase.contains``, the one containment rule, ANDs for
every support, count and baseline; and the '0'/'1' strings of ``rows``.

``parse_database`` turns CSV or bit-string text into that matrix. A
canonical CSV line is k two-byte cells, each a digit and a comma, the last a
digit and the newline. The UTF-8 bytes are read as little-endian uint16
cells with the digit's low bit masked off; every k-th cell must then be "0"
and the newline, every other one "0" and the comma. Once they are, each
digit is the low bit of its cell's low byte, read from the cells in one
contiguous pass. A bit-string line is cut into one row of k + 1 bytes and
compared against "0", "1" and the newline. A file that fails this check is
read as the definitions say: decoded, cut by ``str.splitlines``, its
trailing blank lines dropped and each CSV cell (each bit-string line)
stripped by ``str.strip``, and joined back into canonical lines. Then the
check runs again, and only if it fails again is the first malformed line
found, by one pattern of the line rule over the decoded text.

All statistics in this module are exact rationals counted over the
unpadded rows; they are the ground truth every estimated quantity is judged
against. Padding rows (appended to reach a power-of-two row count) are
all-zero, so they can never contain a non-empty itemset and never touch a
numerator; the denominator is always the original row count.
"""
from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # protocol imports this module
    from .protocol import EncryptionKey

ItemSet = frozenset
"""An itemset is a frozenset of 1-based item indices."""


def _is_integer(value) -> bool:
    """Whether value is an integer, a numpy one included (operator.index)."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


class SimulationError(RuntimeError):
    """Internal consistency violation: a key or permutation that is not a
    bijection, a measurement on an empty or unnormalized state, a readout
    distribution that lost its norm. It lives here, not in ``qsim``,
    because ``counting`` raises it and no command loads the engine."""


def itemset(items, n_items: int | None = None) -> ItemSet:
    """``items`` as an itemset, refused unless it is non-empty and every
    index is an integer, at least 1 and, when ``n_items`` is given, at most
    n_items.

    The one check of an itemset wherever one enters, the command line's
    ``--items`` included, so every entry point refuses in the same words.
    """
    z = frozenset(items)
    if not z:
        raise ValueError("empty itemset")
    if not all(map(_is_integer, z)):
        raise ValueError("item indices must be integers")
    if min(z) < 1:
        raise ValueError("item indices are 1-based")
    if n_items is not None and max(z) > n_items:
        raise ValueError(f"item index outside 1..{n_items}")
    return z


def rule_sides(x, y, n_items: int | None = None) -> tuple[ItemSet, ItemSet]:
    """The two sides of a rule X => Y, each checked by ``itemset``, and
    refused unless they are disjoint."""
    x, y = itemset(x, n_items), itemset(y, n_items)
    if x & y:
        raise ValueError("X and Y must be disjoint")
    return x, y


# Widest address register a database may pad to. A count's marked count
# peaks at 1 B per address (tracemalloc, n = 16 and 20), beside the item
# columns the database holds once formed, k B per address. The cap stays at
# 20 until a footprint of the whole run, set-up included, sizes it. Checked
# before padding allocates.
MAX_ADDRESS_WIDTH = 20

NEWLINE, COMMA, ZERO = ord("\n"), ord(","), ord("0")


class Record:
    """A record over its ``__slots__``, shown and compared field by field:
    its repr is ``Class(name=value, ...)`` over ``_fields`` (the slots
    unless a class says otherwise), and two records are equal when they are
    of one class and their fields are. A Record is mutable and unhashable."""

    __slots__ = ()

    @property
    def _fields(self) -> tuple[str, ...]:
        return self.__slots__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A record whose slots are set once, by ``_init``: assigning or
    deleting an attribute raises AttributeError. It hashes by its fields."""

    __slots__ = ()

    def _init(self, *values) -> None:
        """Set the slots, in order, to ``values``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())

    def __setstate__(self, state):
        """Restore a copied or unpickled record's slots; a ``__dict__``
        holds only caches, which are left to be formed again."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class ParseError(ValueError):
    """Malformed database text; ``line`` is the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TransactionDatabase(FrozenRecord):
    """N transactions over k items, possibly padded with all-zero rows.

    ``bits`` is the read-only rows x k 0/1 matrix. ``original_count`` is
    the number of real (non-padding) rows, at least one; it is the
    denominator of every support value. The rows past it are padding and
    all zero. The constructor takes '0'/'1' row strings and reads them as
    ``parse_database`` reads bit-string lines, raising its ParseError for
    the first bad row (row i is line i); ``from_bits`` checks a copy of
    a uint8 matrix. ``parse_database`` and ``pad_to_power_of_two``
    hand the matrix they built, whose cells they have proved 0/1, to
    ``_of_cells``, which skips only that check. Databases are equal when
    their matrices, original counts and item names are, whichever way they
    were built.
    """

    # a __dict__ holds the cached rows and columns
    __slots__ = ("bits", "original_count", "item_names", "__dict__")
    _fields = ("original_count", "item_names")

    def __init__(
        self,
        n_items: int,
        rows: tuple[str, ...],
        original_count: int,
        item_names: tuple[str, ...] = (),
    ):
        if not _is_integer(n_items):
            raise ValueError(f"n_items must be an integer, got {n_items!r}")
        if n_items < 1:
            raise ValueError("need at least one item")
        # the rows as bit-string lines, read as parse_database reads them;
        # a line break inside a row would change the row count
        rows = tuple(rows)
        text = "".join(row + "\n" for row in rows)
        if text.count("\n") != len(rows):
            line = next(i for i, row in enumerate(rows, 1) if "\n" in row)
            raise ParseError(line, "row holds a line break")
        body = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
        bits = _cells(body, n_items, csv=False)
        if bits is None:
            raise _first_error(body, n_items, csv=False)
        self._set(bits, original_count, item_names)

    @classmethod
    def from_bits(
        cls, bits: np.ndarray, original_count: int, item_names: tuple[str, ...] = ()
    ) -> TransactionDatabase:
        """A database over a read-only copy of ``bits``, a rows x k uint8
        matrix of 0s and 1s: no later write to the caller's array reaches it.
        """
        if bits.ndim != 2 or bits.dtype != np.uint8:
            raise ValueError(f"bits must be a 2-d uint8 matrix, got {bits.ndim}-d {bits.dtype}")
        if bits.shape[1] < 1:
            raise ValueError("need at least one item")
        bits = bits.copy()
        if bits.max(initial=0) > 1:
            row = int(np.flatnonzero((bits > 1).any(axis=1))[0])
            raise ValueError(f"bits row {row} holds a value other than 0 or 1")
        return cls._of_cells(bits, original_count, item_names)

    @classmethod
    def _of_cells(
        cls, bits: np.ndarray, original_count: int, item_names: tuple[str, ...]
    ) -> TransactionDatabase:
        """A database over ``bits``, a rows x k uint8 matrix whose cells
        the caller has proved 0/1; the other facts are checked here."""
        db = object.__new__(cls)
        db._set(bits, original_count, item_names)
        return db

    def _set(self, bits: np.ndarray, original_count: int, item_names: tuple[str, ...]) -> None:
        if not _is_integer(original_count):
            raise ValueError(f"original_count must be an integer, got {original_count!r}")
        if not 0 <= original_count <= len(bits):
            raise ValueError("original_count out of range")
        if original_count < 1:
            raise ValueError("database has no real rows")
        if original_count < len(bits) and bits[original_count:].any():
            row = original_count + int(np.flatnonzero(bits[original_count:].any(axis=1))[0])
            raise ValueError(f"padding row {row} is not all zero")
        if not item_names:
            item_names = tuple(f"I{i}" for i in range(1, bits.shape[1] + 1))
        elif len(item_names) != bits.shape[1]:
            raise ValueError("item_names length mismatch")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "original_count", original_count)
        object.__setattr__(self, "item_names", tuple(item_names))

    def __eq__(self, other):
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return (
            self.original_count == other.original_count
            and self.item_names == other.item_names
            and np.array_equal(self.bits, other.bits)
        )

    def __hash__(self):
        """Hashes a copy of the whole matrix: a cache keyed on a database keys on identity."""
        return hash((self.original_count, self.item_names, self.bits.shape, self.bits.tobytes()))

    @property
    def n_items(self) -> int:
        return self.bits.shape[1]

    @property
    def n_transactions(self) -> int:
        return self.bits.shape[0]

    @cached_property
    def rows(self) -> tuple[str, ...]:
        """The rows as '0'/'1' strings, leftmost character = item 1."""
        text = (self.bits + ZERO).tobytes().decode("ascii")
        k = self.n_items
        return tuple(text[i : i + k] for i in range(0, len(text), k))

    @cached_property
    def columns(self) -> np.ndarray:
        """``bits`` item-major, a read-only k x rows bool matrix (row i - 1
        is item i), formed on first use: set-up forms none. It is copied
        ``_CELL_BLOCK`` cells at a time, which stay in cache: at 2^16 x 64
        that is 3-4 times faster than one strided copy of the transpose."""
        columns = np.empty(self.bits.shape[::-1], dtype=bool)
        step = max(1, _CELL_BLOCK // self.n_items)
        for start in range(0, len(self.bits), step):
            columns[:, start : start + step] = self.bits[start : start + step].view(bool).T
        columns.flags.writeable = False
        return columns

    def contains(self, z: ItemSet) -> np.ndarray:
        """The one containment rule: the read-only bool column of the rows
        that hold every item of z, ANDed in place from z's item columns."""
        first, *rest = (self.columns[i - 1] for i in itemset(z, self.n_items))
        column = first.copy()
        for other in rest:
            column &= other
        column.flags.writeable = False
        return column


class PartitionedView(FrozenRecord):
    """A party's view, carrying the responder's key for one run.

    Alice holds columns 1..l, Bob columns l+1..k, so a split leaves each
    party at least one column: l is an integer in 1..k-1. A view is cut
    only from a database and holds it: ``bits`` is the party's column slice
    of the database's read-only matrix, its QRAM (cell j is row j), and
    ``original_count`` the database's, so a view's cells are 0/1 and its
    padding rows zero because the database's are. ``key`` is present only
    on the party that answers as responder in a run (``with_key``); modules
    above the protocol never see key parameters. Views compare by identity.
    Two parties form one partitioned database only when their views are
    cut from the same database object at the same split point; the pair
    checks (``protocol.joint_column``), which every count and every oracle
    call makes, refuse any other pair.
    """

    __slots__ = ("role", "split_point", "db", "bits", "key")
    _fields = ("role", "split_point")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, role: str, split_point: int, db: TransactionDatabase, key: EncryptionKey | None = None
    ):
        if role not in ("alice", "bob"):
            raise ValueError(f"unknown role {role!r}")
        if not isinstance(db, TransactionDatabase):
            raise TypeError(f"a view is cut from a TransactionDatabase, not {type(db).__name__}")
        l, k = split_point, db.n_items
        if not _is_integer(l):
            raise ValueError(f"split must be an integer, got {l!r}")
        if k == 1:
            raise ValueError("a database of one item cannot be split between two parties")
        if not 1 <= l < k:
            raise ValueError(f"split must lie in 1..{k - 1}")
        bits = db.bits[:, :l] if role == "alice" else db.bits[:, l:]
        self._hold(role, split_point, db, bits, key)

    def _hold(
        self,
        role: str,
        split_point: int,
        db: TransactionDatabase,
        bits: np.ndarray,
        key: EncryptionKey | None,
    ) -> None:
        # slot by slot, about a third faster than _init's loop: views are cut
        # on the timed set-up path and keyed on every count
        object.__setattr__(self, "role", role)
        object.__setattr__(self, "split_point", split_point)
        object.__setattr__(self, "db", db)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "key", key)

    @property
    def original_count(self) -> int:
        return self.db.original_count

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def address_width(self) -> int:
        return (len(self.bits) - 1).bit_length()

    def with_key(self, key: EncryptionKey | None) -> PartitionedView:
        """This view holding ``key``: the same database, split and column
        slice, so the checks the view passed where it was cut are not made
        again."""
        view = object.__new__(PartitionedView)
        view._hold(self.role, self.split_point, self.db, self.bits, key)
        return view

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

    def contains(self, z: ItemSet) -> np.ndarray:
        """The database's read-only column (``TransactionDatabase.contains``)
        for this party's part of z, all True for an empty part: the oracle
        marks it and the classical baseline encrypts it."""
        items, _ = self.item_part(itemset(z, self.db.n_items))
        if items:
            return self.db.contains(items)
        column = np.ones(len(self.bits), dtype=bool)
        column.flags.writeable = False
        return column


def parse_database(text: str | bytes) -> TransactionDatabase:
    """Parse CSV (header of item names, then 0/1 cells) or one bit string per line.

    ``text`` is a str or its UTF-8 bytes. Its lines are those of
    ``str.splitlines``, trailing blank lines are ignored, and each CSV cell
    (each bit-string line) is stripped by ``str.strip``. A file whose first
    line ``splitlines`` leaves whole and whose rows are bare cells, each
    line ending in "\\n" or "\\r\\n", is read from its bytes as they are;
    any other is first rewritten into that form by ``_canonical``. Raises
    ParseError naming the first offending line for malformed rows,
    non-binary cells, or empty input.
    """
    data = text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")
    lines = data.replace(b"\r\n", b"\n") if b"\r" in data else data
    if not lines.endswith(b"\n"):
        lines += b"\n"
    # a blank first line (no items) does not pass, nor one that ends in a
    # lone "\r" or holds another line boundary
    first = lines[: lines.find(b"\n")].decode("utf-8", "surrogatepass")
    bits = None
    if first.splitlines() == [first]:
        names, k, csv, body = _layout(lines)
        bits = _cells(body, k, csv)
    if bits is None:
        names, k, csv, body = _layout(_canonical(data))
        bits = _cells(body, k, csv)
        if bits is None:
            raise _first_error(body, k, csv)
    if not len(bits):
        raise ParseError(2, "no data rows")
    return TransactionDatabase._of_cells(bits, len(bits), names)


def _canonical(data: bytes) -> bytes:
    """The lines of ``data`` as ``str.splitlines`` cuts them, the trailing
    blank ones dropped and each CSV cell (each bit-string line) stripped by
    ``str.strip``, each ending in a newline."""
    lines = data.decode("utf-8", "surrogatepass").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError(1, "empty input")
    if "," in lines[0]:
        lines = [",".join(map(str.strip, line.split(","))) for line in lines]
    else:
        lines = list(map(str.strip, lines))
    lines.append("")
    return "\n".join(lines).encode("utf-8", "surrogatepass")


def _layout(data: bytes) -> tuple[tuple[str, ...], int, bool, np.ndarray]:
    """The item names, the item count k, whether the text is CSV, and the
    lines the cells are read from, of ``data``, whose lines end in newlines."""
    head = data.find(b"\n")
    first = data[:head].decode("utf-8", "surrogatepass")
    if "," not in first:
        return (), len(first.strip()), False, np.frombuffer(data, dtype=np.uint8)
    names = tuple(name.strip() for name in first.split(","))
    if not all(names):
        raise ParseError(1, "empty item name in header")
    return names, len(names), True, np.frombuffer(data, dtype=np.uint8, offset=head + 1)


# "0," or "1,", and "0\n" or "1\n", as little-endian uint16 with the digit's
# low bit masked off; no other pair of bytes masks to either
_DIGIT_MASK = 0xFFFE
_COMMA_CELL, _NEWLINE_CELL = ZERO | COMMA << 8, ZERO | NEWLINE << 8
# CSV cells checked at a time, rounded down to whole lines: this bounds the
# temporaries of _cells (3 B per cell of a block, 768 KB) and keeps them in
# cache, where one pass over a large file's cells would take 3 B per cell
# of fresh memory.
_CELL_BLOCK = 1 << 18


def _cells(body: np.ndarray, k: int, csv: bool) -> np.ndarray | None:
    """The rows x k 0/1 matrix of ``body`` if every line of it is k cells
    ("0" or "1"; apart by "," in CSV) and a newline, else None."""
    width = 2 * k if csv else k + 1
    if len(body) % width:
        return None
    if csv:
        cells = body.view("<u2")
        step = k * max(1, _CELL_BLOCK // k)
        for start in range(0, len(cells), step):
            block = cells[start : start + step] & _DIGIT_MASK
            if (block[k - 1 :: k] != _NEWLINE_CELL).any():
                return None
            # the newline cells cannot equal _COMMA_CELL, so this count
            # leaves room for no other cell
            if np.count_nonzero(block == _COMMA_CELL) != len(block) - len(block) // k:
                return None
            # a checked block is freed before the next is masked and before
            # the digits are read
            del block
        # every cell is now a digit and a separator: the digit is the low
        # bit of the cell's low byte, read in one contiguous pass
        bits = cells.astype(np.uint8)
        bits &= 1
        return bits.reshape(-1, k)
    grid = body.reshape(-1, width)
    # in uint8, any byte but "0" and "1" lands above 1
    bits = grid[:, :k] - ZERO
    if bits.max(initial=0) > 1 or (grid[:, -1] != NEWLINE).any():
        return None
    return bits


def _first_error(body: np.ndarray, k: int, csv: bool) -> ParseError:
    """The error for the first line of ``body`` that is not k cells, found
    by one pattern over the text with a newline put in front: the first
    newline not followed by the line rule and a newline. Searching from
    newlines is faster than trying a multiline ``^`` at every position."""
    text = "\n" + body.tobytes().decode("utf-8", "surrogatepass")
    rule = f"(?:[01],){{{k - 1}}}[01]" if csv else f"[01]{{{k}}}"
    found = re.search(rf"\n(?!{rule}\n)(.*)", text)
    line, lineno = found[1], text.count("\n", 0, found.start(1)) + csv
    if csv:
        cells = line.split(",")
        if len(cells) != k:
            return ParseError(lineno, f"expected {k} cells, got {len(cells)}")
        cell = next(cell for cell in cells if cell not in ("0", "1"))
        return ParseError(lineno, f"non-binary cell {cell!r}")
    if len(line) != k:
        return ParseError(lineno, f"expected {k} bits, got {len(line)}")
    return ParseError(lineno, "non-binary character")


def pad_to_power_of_two(db: TransactionDatabase) -> TransactionDatabase:
    """Append all-zero rows to the matrix until the row count is a power of
    two, at least two, so that the address register is at least one qubit
    wide. A database that would need more than MAX_ADDRESS_WIDTH address
    qubits is refused before anything is allocated."""
    n = db.n_transactions
    width = max(1, (n - 1).bit_length())
    if width > MAX_ADDRESS_WIDTH:
        raise ValueError(
            f"{n} rows need a {width}-qubit address register, above "
            f"MAX_ADDRESS_WIDTH = {MAX_ADDRESS_WIDTH} ({1 << MAX_ADDRESS_WIDTH} rows)"
        )
    if n == 1 << width:
        return db
    bits = np.zeros((1 << width, db.n_items), dtype=np.uint8)
    bits[:n] = db.bits
    return TransactionDatabase._of_cells(bits, db.original_count, db.item_names)


def vertical_partition(db: TransactionDatabase, l: int) -> tuple[PartitionedView, PartitionedView]:
    """Split columns 1..l to Alice and l+1..k to Bob, preserving row order.

    The two views are cut from ``db`` itself at the one split l, the pair
    the oracle call accepts as one partitioned database."""
    return PartitionedView("alice", l, db), PartitionedView("bob", l, db)


def exact_support(db: TransactionDatabase, z: ItemSet) -> Fraction:
    """Exact fraction of (non-padding) transactions containing every item of z.

    Padding rows are all-zero and cannot contain a non-empty z, so counting
    over all rows is safe; the denominator is the original row count.
    """
    return Fraction(int(np.count_nonzero(db.contains(z))), db.original_count)


def exact_confidence(db: TransactionDatabase, x: ItemSet, y: ItemSet) -> Fraction:
    """Exact conditional frequency of y given x: supp(x | y together) / supp(x)."""
    x, y = rule_sides(x, y, db.n_items)
    supp_x = exact_support(db, x)
    if supp_x == 0:
        raise ValueError("antecedent has zero support")
    return exact_support(db, x | y) / supp_x
