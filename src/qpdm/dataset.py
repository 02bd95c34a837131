"""Boolean transaction databases: parsing, padding, partitioning, and exact
support / confidence statistics.

A transaction is a row of k 0/1 cells; column i - 1 is item i. A database
holds its rows as one read-only uint8 matrix ``bits`` (rows x k), the only
row store. Its facts are decided where it is made, whichever way that is:
every cell is 0 or 1, it has at least one real row, and every row past the
real ones is all zero. A party's view of a vertically partitioned database
is cut only from a database, and its bits are a column slice of that
matrix, a numpy view rather than a copy; padding appends zero rows to it;
and the '0'/'1' strings of ``rows`` are derived from it on first access,
for the string-level references and the tests.

``parse_database`` turns CSV or bit-string text into that matrix with
whole-array operations. A canonical CSV line is k two-byte cells, each a
digit and a comma, the last a digit and the newline. The UTF-8 bytes are
read as little-endian uint16 cells with the digit's low bit masked off;
every k-th cell must then be "0" and the newline, every other one "0" and
the comma, and the digits are the even bytes. A bit-string line is cut
into one row of k + 1 bytes and compared against "0", "1" and the
newline. If that check fails, the text is normalised in whole arrays
too: every line boundary ``str.splitlines`` knows becomes a newline, the
whitespace ``str.strip`` would take off a cell (or a bit-string line) is
removed, and trailing blank lines are dropped. Then the check runs again,
and the first malformed line is looked for only if it fails again.

All statistics in this module are exact rationals counted over the
unpadded rows; they are the ground truth every estimated quantity is judged
against. Padding rows (appended to reach a power-of-two row count) are
all-zero, so they can never contain a non-empty itemset and never touch a
numerator; the denominator is always the original row count.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

ItemSet = frozenset
"""An itemset is a frozenset of 1-based item indices."""


def itemset(items, n_items: int | None = None) -> ItemSet:
    """``items`` as an itemset, refused unless it is non-empty and every
    index is at least 1 and, when ``n_items`` is given, at most n_items.

    The one check of an itemset wherever one enters, the command line's
    ``--items`` included, so every entry point refuses in the same words.
    """
    z = frozenset(items)
    if not z:
        raise ValueError("empty itemset")
    if min(z) < 1:
        raise ValueError("item indices are 1-based")
    if n_items is not None and max(z) > n_items:
        raise ValueError(f"item index outside 1..{n_items}")
    return z


# Widest address register a database may pad to. One oracle extraction
# peaks at about 64 B per address and 2 MB of per-block buffers
# (tracemalloc, n = 16, 18 and 20): 66 MB at n = 20, and 1 GB at n = 24.
# Checked before padding allocates.
MAX_ADDRESS_WIDTH = 20

NEWLINE, COMMA, ZERO = ord("\n"), ord(","), ord("0")
# the ASCII characters str.isspace holds to be whitespace
_ASCII_ISSPACE = bytes(c for c in range(0x80) if chr(c).isspace())


class ParseError(ValueError):
    """Malformed database text; ``line`` is the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, init=False, eq=False)
class TransactionDatabase:
    """N transactions over k items, possibly padded with all-zero rows.

    ``bits`` is the read-only rows x k 0/1 matrix. ``original_count`` is
    the number of real (non-padding) rows, at least one; it is the
    denominator of every support value. The rows past it are padding and
    all zero. The constructor takes '0'/'1' row strings and reads them as
    ``parse_database`` reads bit-string lines, raising its ParseError for
    the first bad row (row i is line i); ``from_bits`` takes a uint8
    matrix and checks it. Databases are equal when their matrices,
    original counts and item names are, whichever way they were built.
    """

    bits: np.ndarray = field(repr=False)
    original_count: int
    item_names: tuple[str, ...]

    def __init__(
        self,
        n_items: int,
        rows: tuple[str, ...],
        original_count: int,
        item_names: tuple[str, ...] = (),
    ):
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
        """A database over ``bits``, a rows x k uint8 matrix of 0s and 1s.

        The database takes the matrix as it is, without a copy, and makes
        it read-only.
        """
        if bits.ndim != 2 or bits.dtype != np.uint8:
            raise ValueError(f"bits must be a 2-d uint8 matrix, got {bits.ndim}-d {bits.dtype}")
        if bits.shape[1] < 1:
            raise ValueError("need at least one item")
        if bits.max(initial=0) > 1:
            row = int(np.flatnonzero((bits > 1).any(axis=1))[0])
            raise ValueError(f"bits row {row} holds a value other than 0 or 1")
        db = object.__new__(cls)
        db._set(bits, original_count, item_names)
        return db

    def _set(self, bits: np.ndarray, original_count: int, item_names: tuple[str, ...]) -> None:
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


@dataclass(frozen=True, eq=False)
class PartitionedView:
    """One party's half of a vertically partitioned database.

    Alice holds columns 1..l, Bob columns l+1..k, so a split leaves each
    party at least one column: l lies in 1..k-1. A view is cut only from a
    database and holds it: ``bits`` is the party's column slice of the
    database's read-only matrix and ``original_count`` the database's, so a
    view's cells are 0/1 and its padding rows zero because the database's
    are. Views compare by identity.
    """

    role: str
    split_point: int
    db: TransactionDatabase = field(repr=False)
    bits: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.role not in ("alice", "bob"):
            raise ValueError(f"unknown role {self.role!r}")
        if not isinstance(self.db, TransactionDatabase):
            raise TypeError(f"a view is cut from a TransactionDatabase, not {type(self.db).__name__}")
        l, k = self.split_point, self.db.n_items
        if k == 1:
            raise ValueError("a database of one item cannot be split between two parties")
        if not 1 <= l < k:
            raise ValueError(f"split must lie in 1..{k - 1}")
        bits = self.db.bits[:, :l] if self.role == "alice" else self.db.bits[:, l:]
        object.__setattr__(self, "bits", bits)

    @property
    def original_count(self) -> int:
        return self.db.original_count

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


def parse_database(text: str | bytes) -> TransactionDatabase:
    """Parse CSV (header of item names, then 0/1 cells) or one bit string per line.

    ``text`` is a str or its UTF-8 bytes. Lines are split as
    ``str.splitlines`` splits them, CSV cells and bit-string lines are
    stripped of whitespace as ``str.strip`` strips, and trailing blank
    lines are ignored. Raises ParseError naming the first offending line for
    malformed rows, non-binary cells, or empty input.
    """
    data = text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")
    rest = data.lstrip(_ASCII_ISSPACE)
    if not rest or (rest[0] >= 0x80 and rest.decode("utf-8", "surrogatepass").isspace()):
        raise ParseError(1, "empty input")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    head = data.find(b"\n")
    # the closing "\v" keeps a trailing lone "\r" a line boundary of its own
    first, *more = (data[:head].decode("utf-8", "surrogatepass") + "\v").splitlines()
    csv = "," in first
    if csv:
        names = tuple(cell.strip() for cell in first.split(","))
        if any(not name for name in names):
            raise ParseError(1, "empty item name in header")
        k = len(names)
    else:
        names, k = (), len(first.strip())

    start = head + 1 if csv else 0
    bits = None if more else _cells(np.frombuffer(data, dtype=np.uint8, offset=start), k, csv)
    if bits is None:
        data = _one_line_end(data)
        body = _stripped(data[data.find(b"\n") + 1 if csv else 0 :], csv)
        bits = _cells(body, k, csv)
        if bits is None:
            raise _first_error(body, k, csv)
    if not len(bits):
        raise ParseError(2, "no data rows")
    return TransactionDatabase.from_bits(bits, len(bits), names)


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
        return (body[0::2] - ZERO).reshape(-1, k)
    grid = body.reshape(-1, width)
    # in uint8, any byte but "0" and "1" lands above 1
    bits = grid[:, :k] - ZERO
    if bits.max(initial=0) > 1 or (grid[:, -1] != NEWLINE).any():
        return None
    return bits


# every line boundary of str.splitlines but the newline and "\r\n"
_LINE_ENDS = bytes.maketrans(b"\v\f\r\x1c\x1d\x1e", b"\n" * 6)


def _one_line_end(data: bytes) -> bytes:
    """``data`` (with "\\r\\n" already made "\\n") with every line boundary
    of ``str.splitlines`` made a newline, so that its lines are those of
    ``splitlines``."""
    data = data.translate(_LINE_ENDS)
    if data.isascii():
        return data
    text = data.decode("utf-8", "surrogatepass")
    for boundary in "\x85\u2028\u2029":
        text = text.replace(boundary, "\n")
    return text.encode("utf-8", "surrogatepass")


# Bytes of text stripped at a time, cut at a newline: this bounds the masks
# of _strip_runs, about 11 B per byte of ASCII text and 15 B otherwise.
_BLOCK = 1 << 20
# Whitespace that str.strip removes but str.splitlines does not cut at, up
# to U+3000, the last whitespace character (the tests check this against
# str.isspace), as a lookup table indexed by code point.
_SPACES = [9, 31, 32, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x202F, 0x205F, 0x3000]
_IS_SPACE = np.zeros(_SPACES[-1] + 2, dtype=bool)
_IS_SPACE[_SPACES] = True
_ASCII_SPACES = [c for c in _SPACES if c < 0x80]


def _stripped(data: bytes, csv: bool) -> np.ndarray:
    """The lines of ``data`` (each ending in a newline) with the whitespace
    ``str.strip`` takes off each cell (each line of bit strings) removed,
    and the trailing blank lines dropped, as UTF-8 bytes."""
    blocks, start = [], 0
    while start < len(data):
        stop = data.find(b"\n", start + _BLOCK) + 1 or len(data)
        blocks.append(_strip_runs(data[start:stop], csv))
        start = stop
    body = b"".join(blocks).rstrip(b"\n")
    return np.frombuffer(body + b"\n" if body else body, dtype=np.uint8)


def _strip_runs(block: bytes, csv: bool) -> bytes:
    """``block`` (whole lines) without the runs of whitespace that touch its
    start, a newline, or a comma in CSV. Non-ASCII text is handled as an
    array of code points."""
    if block.isascii():
        chars = np.frombuffer(block, dtype=np.uint8)
        space = chars == _ASCII_SPACES[0]
        for c in _ASCII_SPACES[1:]:
            space |= chars == c
    else:
        text = block.decode("utf-8", "surrogatepass").encode("utf-32-le", "surrogatepass")
        chars = np.frombuffer(text, dtype=np.uint32)
        space = np.take(_IS_SPACE, chars, mode="clip")
    if not space.any():
        return block
    edge = chars == NEWLINE
    if csv:
        edge |= chars == COMMA
    # A run of spaces goes when the character before it (or the block's
    # start) or the one after it is an edge. Each test marks the run's first
    # or last position, and the marks are spread along the runs by doubling:
    # the pass that spreads by d reaches d positions further, and the passes
    # stop once no run is as long as the next d.
    after_edge = space.copy()
    after_edge[1:] &= edge[:-1]
    before_edge = space.copy()  # the block ends in a newline, not a space
    before_edge[:-1] &= edge[1:]
    run, d = space, 1  # run[i]: the d positions up to i are all spaces
    while run.any():
        after_edge[d:] |= run[d:] & after_edge[:-d]
        before_edge[:-d] |= run[d - 1 : -1] & before_edge[d:]
        longer = np.zeros_like(run)
        np.logical_and(run[d:], run[:-d], out=longer[d:])
        run, d = longer, 2 * d
    after_edge |= before_edge
    chars = np.compress(~after_edge, chars)
    if chars.dtype == np.uint8:
        return chars.tobytes()
    return chars.tobytes().decode("utf-32-le", "surrogatepass").encode("utf-8", "surrogatepass")


def _first_error(body: np.ndarray, k: int, csv: bool) -> ParseError:
    """The error for the first line of ``body`` that is not k cells."""
    width = 2 * k if csv else k + 1
    ends = np.flatnonzero(body == NEWLINE)
    short = np.flatnonzero(np.diff(ends, prepend=-1) != width)
    fits = short[0] if len(short) else len(ends)
    grid = body[: fits * width].reshape(fits, width)
    bad = (grid[:, : width - 1 : 2 if csv else 1] - ZERO > 1).any(axis=1)
    if csv:
        bad |= (grid[:, 1:-1:2] != COMMA).any(axis=1)
    row = int(np.argmax(bad) if bad.any() else fits)
    line = body[ends[row - 1] + 1 if row else 0 : ends[row]].tobytes()
    line = line.decode("utf-8", "surrogatepass")
    lineno = row + 1 + csv
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
    return TransactionDatabase.from_bits(bits, db.original_count, db.item_names)


def vertical_partition(db: TransactionDatabase, l: int) -> tuple[PartitionedView, PartitionedView]:
    """Split columns 1..l to Alice and l+1..k to Bob, preserving row order."""
    return PartitionedView("alice", l, db), PartitionedView("bob", l, db)


def exact_support(db: TransactionDatabase, z: ItemSet) -> Fraction:
    """Exact fraction of (non-padding) transactions containing every item of z.

    Padding rows are all-zero and cannot contain a non-empty z, so counting
    over all rows is safe; the denominator is the original row count.
    """
    z = itemset(z, db.n_items)
    hits = db.bits[:, [i - 1 for i in z]].all(axis=1)
    return Fraction(int(np.count_nonzero(hits)), db.original_count)


def exact_confidence(db: TransactionDatabase, x: ItemSet, y: ItemSet) -> Fraction:
    """Exact conditional frequency of y given x: supp(x | y together) / supp(x)."""
    x, y = itemset(x, db.n_items), itemset(y, db.n_items)
    if x & y:
        raise ValueError("X and Y must be disjoint")
    supp_x = exact_support(db, x)
    if supp_x == 0:
        raise ValueError("antecedent has zero support")
    return exact_support(db, x | y) / supp_x
