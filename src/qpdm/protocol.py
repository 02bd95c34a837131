"""Two-party protocol machinery: encryption keys, the seven-step oracle
construction, the controlled Grover iteration, and qubit-transfer
accounting.

A party is its view (``dataset.PartitionedView``): its column slice of the
padded database, whose bit matrix is its QRAM, and, on the party that
answers as responder in a run, its secret key (``with_key``).

One oracle call realizes, on the address register, the diagonal map

    |j>  ->  (-1)^(c(u(j))) |j>

where u is the responder's secret bijection on the address space and
c(i) = 1 exactly when transaction i contains the whole target itemset
(the AND of the two parties' containment flags). The call proceeds in
seven steps: the responder encrypts the travelling address register,
each party in turn marks its containment flag; the initiator applies the
phase of the AND of the two flags (gated on an optional control qubit);
the marks are undone in reverse and the responder undoes the encryption.
The flags and the ancilla are zero at entry and, as each mark is undone
by the same containment bit that set it and the key is a bijection,
every label leaves the call where it entered.

In the paper's construction a party marks its flag by loading its rows
from QRAM into a data register, XORing whether they hold its part of the
itemset, and querying again to erase the load, all within its step. So
between steps a label holds only the address, the two flags and the
ancilla, and each query, mark and unquery is, on the labels, one XOR of
the flag with the party's containment column (``PartitionedView.contains``)
at the encrypted address. The layout has no data registers, and a party's
bit matrix is its only copy of its data. The gate-level reference
the plan is tested against, which loads rows into data registers one qsim
primitive per query, mark, phase and permutation, lives in the tests.

``joint_column`` makes every check of a pair that is not about a state (a
key checks its family, width and parameter where it is made, so it is a
bijection) and returns the database's containment column of z, no key
applied. The oracle's diagonal, ``oracle_phase``, is that column at the
key's 2^n images, once the engine's ``qsim.check_bijection`` finds them a
bijection on the address register. A count reads the column alone, since a
bijection keeps the number of marked entries, so no command applies a key
or builds a state. The key matters where a state is: in ``run_oracle_u``,
the call the statevector reference, the tests and the demos run, which
checks the state, gathers ``oracle_phase`` onto the labels' address field
and negates those amplitudes on the control's 1 branches with
``qsim.negate_where``; in the tests' gate-level reference, which permutes
the labels by it; and in what a transfer reveals, as the address travels
encrypted. No label moves, so the output reuses the entry label array; a
SparseState is built at exit, and after each step when a record is asked
for. ``oracle_layout``, ``oracle_phase``, ``run_oracle_u`` and
``controlled_grover`` import ``qsim`` on first use, so no command loads it.

Register transfers happen in steps 1, 3, 6 and 7 and carry (n, n+1, n+1,
n) qubits, 4n+2 per call. A transcript holds one (initiator role, n,
calls) record per run of identical oracle calls, so totals are arithmetic
and the four-transfer layout lives only in this module; the transfer
events are expanded from the records on demand, and a JSON dump of more
than MAX_DUMP_EVENTS of them is refused. Calls are logged even
when the control is zero everywhere: the physical protocol sends the
registers regardless of the control qubit's state.

The mirrored, responder-initiated protocol is the same code path with
the party arguments swapped; a party's role decides which flag it
drives, and the initiator's counterpart holds the secret key.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from .dataset import (
    FrozenRecord,
    PartitionedView,
    Record,
    TransactionDatabase,
    _is_integer,
    itemset,
)

if TYPE_CHECKING:  # the gate-level engine is imported where a state is built
    from . import qsim

KEY_FAMILIES = ("bitflip", "modadd", "cyclic")
# Largest transcript that to_json expands: an event costs about 200 B of
# Python objects while the dump is built and 74 B of indented JSON text
# (tracemalloc, 262k events), so 2^21 events is about 420 MB and 155 MB.
MAX_DUMP_EVENTS = 1 << 21

REGISTER_ORDER = ("counting", "address", "b_flag", "a_flag", "kick_ancilla")
# registers that must read zero on every basis label at oracle entry and exit
AUX_REGISTERS = REGISTER_ORDER[2:]


def _check_address_width(n: int) -> None:
    """Refuse an address width that is not an integer of at least 1."""
    if not _is_integer(n):
        raise ValueError(f"address width must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("address width must be at least 1")


def _key_space(family: str, n: int) -> int:
    """Number of keys of a family at a checked width n: the parameter lies in [0, this)."""
    _check_address_width(n)
    return n if family == "cyclic" else 1 << n


class EncryptionKey(FrozenRecord):
    """A secret bijection u on the n-bit address space.

    Families: bitflip u(j) = j XOR lam; modadd u(j) = j + lam mod 2^n;
    cyclic u(j1..jn) = j2..jn j1 iterated ``parameter`` times.
    A key is checked where it is made: a known family, an integer n >= 1,
    and an integer parameter in [0, key space). Each such key is a
    bijection.
    """

    __slots__ = ("family", "parameter", "n")

    def __init__(self, family: str, parameter: int, n: int):
        self._init(family, parameter, n)
        if self.family not in KEY_FAMILIES:
            raise ValueError(f"unknown key family {self.family!r}")
        bound = _key_space(self.family, self.n)
        if not _is_integer(self.parameter):
            raise ValueError(f"{self.family} parameter must be an integer, got {self.parameter!r}")
        if not 0 <= self.parameter < bound:
            raise ValueError(f"{self.family} parameter {self.parameter} outside [0, {bound})")

    def apply(self, j: int | np.ndarray) -> int | np.ndarray:
        """u(j), for an address or an int64 array of addresses."""
        if self.family == "bitflip":
            return j ^ self.parameter
        mask = (1 << self.n) - 1
        if self.family == "modadd":
            return (j + self.parameter) & mask
        r = self.parameter
        return ((j << r) | (j >> (self.n - r))) & mask

    def invert(self, j: int | np.ndarray) -> int | np.ndarray:
        """u^-1(j), for an address or an int64 array: the same family under
        the inverse parameter, lam for bitflip (its own inverse) and
        -parameter modulo the key space for modadd and cyclic."""
        size = _key_space(self.family, self.n)
        inverse = self.parameter if self.family == "bitflip" else -self.parameter % size
        return EncryptionKey(self.family, inverse, self.n).apply(j)


# The constructor holds a key's rules; make_key is its name in the API.
make_key = EncryptionKey


def sample_key(family: str, n: int, rng) -> EncryptionKey:
    """Draw a key parameter uniformly from its family's range. ``rng`` is
    any generator with ``random()`` and ``integers(low, high)``, numpy's
    included."""
    return EncryptionKey(family, int(rng.integers(0, _key_space(family, n))), n)


def all_keys(family: str, n: int) -> list[EncryptionKey]:
    """Every key of one family at width n (enumerable at desk scale)."""
    return [EncryptionKey(family, par, n) for par in range(_key_space(family, n))]


def build_qram(view: PartitionedView, n: int) -> PartitionedView:
    """The party of a padded view, whose bit matrix is its QRAM (cell j =
    row j), checked to hold 2^n rows."""
    _check_address_width(n)
    if len(view.bits) != 1 << n:
        raise ValueError(f"view has {len(view.bits)} rows, expected 2^{n}")
    return view


class TransferEvent(FrozenRecord):
    __slots__ = ("direction", "qubits", "step")

    def __init__(self, direction: str, qubits: int, step: str):
        # direction: "alice_to_bob" | "bob_to_alice"; step: step1 | step3 | step6 | step7
        self._init(direction, qubits, step)


class Transcript(Record):
    """Ordered log of the oracle calls between the parties.

    Each record (initiator role, n, calls) stands for ``calls`` identical
    oracle calls in a row, each the four transfers of oracle_call_events.
    """

    __slots__ = ("records",)

    def __init__(self, records: list[tuple[str, int, int]] | None = None):
        self.records = [] if records is None else records

    def log_calls(self, initiator_role: str, n: int, calls: int = 1) -> None:
        if initiator_role not in ("alice", "bob"):
            raise ValueError(f"unknown initiator role {initiator_role!r}")
        _check_address_width(n)
        if not (_is_integer(calls) and calls >= 1):
            raise ValueError(f"a record logs a whole number of oracle calls, at least one, got {calls!r}")
        self.records.append((initiator_role, n, calls))

    @property
    def oracle_calls(self) -> int:
        return sum(calls for _, _, calls in self.records)

    @property
    def events(self) -> list[TransferEvent]:
        """Every transfer, expanded from the records in protocol order."""
        return [
            event
            for role, n, calls in self.records
            for event in oracle_call_events(role, n) * calls
        ]

    def to_json(self) -> list[dict]:
        if 4 * self.oracle_calls > MAX_DUMP_EVENTS:
            raise ValueError(
                f"transcript of {4 * self.oracle_calls} transfers exceeds the "
                f"dump limit of {MAX_DUMP_EVENTS}"
            )
        return [{"dir": e.direction, "qubits": e.qubits, "step": e.step} for e in self.events]


def transcript_total(transcript: Transcript) -> tuple[int, int]:
    """(total qubits sent, max qubits over any single oracle call).

    A call sends (n, n+1, n+1, n) qubits, 4n+2 in all; (0, 0) when empty.
    """
    records = transcript.records
    total = sum(calls * (4 * n + 2) for _, n, calls in records)
    return total, max((4 * n + 2 for _, n, _ in records), default=0)


def oracle_layout(n: int, l: int, k: int, p: int = 0) -> qsim.RegisterLayout:
    """The canonical composite layout, n + p + 3 qubits; zero-width
    counting register when p=0. A label holds no data register, so the
    split point l and the item count k set no width. Two layouts of one
    shape compare equal by their registers."""
    from . import qsim

    widths = {"counting": p, "address": n, "b_flag": 1, "a_flag": 1, "kick_ancilla": 1}
    return qsim.RegisterLayout(tuple((name, widths[name]) for name in REGISTER_ORDER))


def oracle_call_events(initiator_role: str, n: int) -> tuple[TransferEvent, ...]:
    """The four transfers of one oracle call, in protocol order."""
    if initiator_role == "alice":
        out, back = "alice_to_bob", "bob_to_alice"
    else:
        out, back = "bob_to_alice", "alice_to_bob"
    return (
        TransferEvent(out, n, "step1"),
        TransferEvent(back, n + 1, "step3"),
        TransferEvent(out, n + 1, "step6"),
        TransferEvent(back, n, "step7"),
    )


def joint_column(initiator: PartitionedView, responder: PartitionedView, z: frozenset, n: int) -> np.ndarray:
    """The rows both parties hold z on, ``TransactionDatabase.contains``
    of z, no key applied. Every check of a pair that is not about a
    state is made first: z is an itemset over the two views' columns
    (``dataset.itemset``), the roles are distinct, the views are cut from
    one database object at one split point (so of one row count), the
    responder holds a key, the views hold 2^n rows and the key is n bits
    wide."""
    z = itemset(z, initiator.width + responder.width)
    if initiator.role == responder.role:
        raise ValueError("initiator and responder must have distinct roles")
    if initiator.db is not responder.db or initiator.split_point != responder.split_point:
        raise ValueError("parties are not cut from one database at one split")
    key = responder.key
    if key is None:
        raise ValueError("responder holds no encryption key")
    if len(initiator.bits) != 1 << n:
        raise ValueError("party QRAM size does not match the address register")
    if key.n != n:
        raise ValueError(f"key of width {key.n} does not fit the {n}-qubit address register")
    return initiator.db.contains(z)


def oracle_phase(initiator: PartitionedView, responder: PartitionedView, z: frozenset, n: int) -> np.ndarray:
    """The oracle's diagonal over the 2^n addresses: entry j is True where
    the call negates |j>, ``joint_column`` (which makes every check of the
    pair) at u(j). ``qsim.check_bijection`` marks the values the key's 2^n
    images reach, to check that they fit the address register and are a
    bijection on it, so that distinct labels stay distinct and each mark is
    undone where it was made."""
    from . import qsim

    column = joint_column(initiator, responder, z, n)
    images = responder.key.apply(np.arange(1 << n))
    qsim.check_bijection(images, n, "address")
    return column[images]


def run_oracle_u(
    state: qsim.SparseState,
    initiator: PartitionedView,
    responder: PartitionedView,
    z: frozenset,
    transcript: Transcript,
    control: int | None = None,
    record: list | None = None,
) -> qsim.SparseState:
    """One oracle call: |j> -> (-1)^(c(u(j))) |j> on control=1 branches.

    The state's preconditions are checked first: the flags and the ancilla
    are zero on every basis label, and the control, if any, is a qubit of
    the layout, neither phase qubit, outside the address register
    (``RegisterLayout.check_qubits``). Every other check, and the phase of
    each address, is ``oracle_phase``'s; the phase is gathered onto the
    labels, which keep their places. A count reads its marked count from
    ``joint_column`` alone and never calls this.
    ``record``, if given, collects ("stepX", state) snapshots after each
    step for tracing. The call is logged on the transcript once it has run.
    """
    from . import qsim

    layout = state.layout
    n = layout.width("address")
    aux = 0
    for name in AUX_REGISTERS:
        aux |= layout.mask(name)
    labels = state.labels
    if (labels & aux).any():
        raise ValueError("auxiliary registers must be zero at oracle entry")
    # step 4's phase qubits are the two flags, whichever party drives which,
    # and a control inside the address register would be read before u
    flags = {"alice": layout.qubit("a_flag"), "bob": layout.qubit("b_flag")}
    layout.check_qubits(a_flag=flags["alice"], b_flag=flags["bob"], control=control, outside="address")

    # Steps 2-6 leave the address u(j) and the flags only, and step 4 negates
    # where both flags are set: so the phase of address j is oracle_phase's
    # entry j, gathered onto the labels.
    addr = layout.extract(labels, "address")
    out = qsim.negate_where(state, oracle_phase(initiator, responder, z, n)[addr], control)

    if record is not None:
        # Step 1 encrypts the address; steps 2 and 3 mark the responder's,
        # then the initiator's flag; steps 5 to 7 undo them in reverse.
        encrypted = responder.key.apply(addr)
        step1 = (labels & ~layout.mask("address")) | encrypted << layout.offset("address")
        step2 = step1 | responder.contains(z)[encrypted].astype(np.int64) << flags[responder.role]
        step3 = step2 | initiator.contains(z)[encrypted].astype(np.int64) << flags[initiator.role]
        for step, step_labels in enumerate((step1, step2, step3, step3, step2, step1, labels), start=1):
            step_amps = state.amplitudes if step < 4 else out.amplitudes
            record.append((f"step{step}", qsim.SparseState.from_arrays(layout, step_labels, step_amps)))
    transcript.log_calls(initiator.role, n)
    return out


def reference_phase_oracle(
    db: TransactionDatabase, z: frozenset, u: Callable[[int], int]
) -> np.ndarray:
    """Directly constructed diagonal of the oracle: entry j = (-1)^(c(u(j))).

    c(i) = 1 iff transaction i contains all of z; padding rows are all-zero
    and never marked for a non-empty z. Independent of the protocol path.
    """
    z = itemset(z, db.n_items)
    n_rows = db.n_transactions
    if n_rows & (n_rows - 1):
        raise ValueError("database must be padded to a power of two")
    signs = np.ones(n_rows, dtype=np.int8)
    for j in range(n_rows):
        row = db.rows[u(j)]
        if all(row[i - 1] == "1" for i in z):
            signs[j] = -1
    return signs


def controlled_grover(
    state: qsim.SparseState,
    initiator: PartitionedView,
    responder: PartitionedView,
    z: frozenset,
    control: int | None,
    transcript: Transcript,
) -> qsim.SparseState:
    """One Grover iteration G = -(W U0 W) U on the address register.

    With a control qubit, the oracle's phase and U0 are gated on it and the
    global -1 becomes a phase on the control; the Hadamard walls run
    unconditioned (they cancel on control=0 branches). With control=None
    this is plain G including a true global phase of -1.
    """
    from . import qsim

    state = run_oracle_u(state, initiator, responder, z, transcript, control=control)
    state = qsim.apply_w(state, "address")
    state = qsim.apply_u0(state, "address", control=control)
    state = qsim.apply_w(state, "address")
    return qsim.apply_phase_flip(state, control)
