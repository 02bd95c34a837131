"""Two-party protocol machinery: encryption keys, QRAM-backed party state,
the seven-step oracle construction, the controlled Grover iteration, and
qubit-transfer accounting.

One oracle call realizes, on the address register, the diagonal map

    |j>  ->  (-1)^(c(u(j))) |j>

where u is the responder's secret bijection on the address space and
c(i) = 1 exactly when transaction i contains the whole target itemset
(the AND of the two parties' containment flags). The call proceeds in
seven steps: the responder encrypts the travelling address register,
each party in turn loads its rows from QRAM, XORs its containment flag,
and erases the load by querying again; the initiator applies the phase
of the AND of the two flags (gated on an optional control qubit); the
erasures run in reverse and the responder undoes the encryption. Every
query / unquery pair is executed explicitly, and the call verifies at
exit that all auxiliary registers disentangled back to zero.

A call runs as a plan over the state's bare label and amplitude arrays,
and builds a SparseState only at exit, and after each step when a record
is asked for. Its inputs are checked once per call, before any label
moves: Z, the roles, the key and the QRAM sizes, and the auxiliary
registers at entry; then the key, whose 2^n images one scatter checks to
fit the address register and to be a bijection on it (so it keeps
distinct labels distinct, and its inverse table serves step 7); then
that each party's data register is exactly as wide as its view (its
cells fit that width because its database's bits are 0/1, and are not
passed over), its membership selector and flag position, and the phase
qubits, each with the check code the qsim primitives use. The labels
then go through all seven steps a block at a time, each block a fresh
copy that every step changes in place while it stays in cache. The
address register does not change between steps 1 and 7, so u(j) and each
party's cells gathered at u(j) and shifted into its data register are
computed once per block, in step 1 and when the party first queries.
Every query, mark and unquery still runs as its own XOR on the labels,
and every mark reads the data register from the labels. Step 4 negates
amplitudes. The gate-level reference the plan is tested against, one
qsim primitive per query, mark, phase and permutation, lives in the
tests.

A party's QRAM holds one read-only integer cell per row of its view,
computed once from the view's column slice of the database's bit matrix,
leftmost column most significant. The database's cells are 0/1, so every
cell fits the view's width, and no pass checks them again.

Register transfers happen in steps 1, 3, 6 and 7 and carry (n, n+1, n+1,
n) qubits, 4n+2 per call. A transcript holds one (initiator role, n,
calls) record per run of identical oracle calls, so totals are arithmetic
and the four-transfer layout lives only in this module; the transfer
events are expanded from the records on demand, and a JSON dump of more
than MAX_DUMP_EVENTS of them is refused. Calls are logged even
when the control is zero everywhere: the physical protocol sends the
registers regardless of the control qubit's state.

The mirrored, responder-initiated protocol is the same code path with
the party arguments swapped; the party object's role decides which data
register and flag it drives, and the initiator's counterpart holds the
secret key.
"""
from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import qsim
from .dataset import PartitionedView, TransactionDatabase, itemset

KEY_FAMILIES = ("bitflip", "modadd", "cyclic")
# Largest transcript that to_json expands: an event costs about 200 B of
# Python objects while the dump is built and 74 B of indented JSON text
# (tracemalloc, 262k events), so 2^21 events is about 420 MB and 155 MB.
MAX_DUMP_EVENTS = 1 << 21

REGISTER_ORDER = (
    "counting",
    "address",
    "bob_data",
    "alice_data",
    "b_flag",
    "a_flag",
    "kick_ancilla",
)
# registers that must read zero on every basis label at oracle entry and exit
AUX_REGISTERS = REGISTER_ORDER[2:]


def _key_space(family: str, n: int) -> int:
    """Number of keys of a family at width n: the parameter lies in [0, this)."""
    return n if family == "cyclic" else 1 << n


@dataclass(frozen=True)
class EncryptionKey:
    """A secret bijection u on the n-bit address space.

    Families: bitflip u(j) = j XOR lam; modadd u(j) = j + lam mod 2^n;
    cyclic u(j1..jn) = j2..jn j1 iterated ``parameter`` times.
    All three are bijections by construction.
    """

    family: str
    parameter: int
    n: int

    def apply(self, j: int) -> int:
        if self.family == "bitflip":
            return j ^ self.parameter
        if self.family == "modadd":
            return (j + self.parameter) & ((1 << self.n) - 1)
        r = self.parameter % self.n
        mask = (1 << self.n) - 1
        return ((j << r) | (j >> (self.n - r))) & mask if r else j

    def invert(self, j: int) -> int:
        """u^-1(j): the same family applied under the inverse parameter, lam
        for bitflip (its own inverse) and -parameter modulo the key space
        for modadd and cyclic."""
        size = _key_space(self.family, self.n)
        inverse = self.parameter if self.family == "bitflip" else -self.parameter % size
        return EncryptionKey(self.family, inverse, self.n).apply(j)


def make_key(family: str, parameter: int, n: int) -> EncryptionKey:
    if family not in KEY_FAMILIES:
        raise ValueError(f"unknown key family {family!r}")
    if n < 1:
        raise ValueError("address width must be at least 1")
    bound = _key_space(family, n)
    if not 0 <= parameter < bound:
        raise ValueError(f"{family} parameter {parameter} outside [0, {bound})")
    return EncryptionKey(family, parameter, n)


def sample_key(family: str, n: int, rng: np.random.Generator) -> EncryptionKey:
    """Draw a key parameter uniformly from its family's range."""
    return make_key(family, int(rng.integers(0, _key_space(family, n))), n)


def all_keys(family: str, n: int) -> list[EncryptionKey]:
    """Every key of one family at width n (enumerable at desk scale)."""
    return [make_key(family, par, n) for par in range(_key_space(family, n))]


@dataclass(frozen=True)
class PartyState:
    """One party's handle: its view, its QRAM contents, optionally its key.

    QRAM cell j holds row j of the view as an integer, leftmost column most
    significant. The key is present only on the party acting as
    responder-encryptor for a given run; modules above the protocol never
    see key parameters.
    """

    view: PartitionedView
    key: EncryptionKey | None = None
    # the QRAM cells as one read-only integer array, built only from the
    # view's bit matrix: the first column cast to the label dtype, then for
    # each further column a shift left by one and an OR of the column (an
    # object array stays Python ints). The view's bits are 0/1 because its
    # database's are, so every cell fits the view's width.
    memory_ints: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bits = self.view.bits
        cells = bits[:, 0].astype(qsim.label_dtype(self.data_width))
        for c in range(1, self.data_width):
            cells <<= 1
            cells |= bits[:, c]
        cells.flags.writeable = False
        object.__setattr__(self, "memory_ints", cells)

    @property
    def role(self) -> str:
        return self.view.role

    @property
    def address_width(self) -> int:
        return (len(self.view.bits) - 1).bit_length()

    @property
    def data_width(self) -> int:
        return self.view.width

    def with_key(self, key: EncryptionKey | None) -> "PartyState":
        keyed = copy.copy(self)  # shares the cells, where replace() would rebuild them
        object.__setattr__(keyed, "key", key)
        return keyed


def build_qram(view: PartitionedView, n: int) -> PartyState:
    """Load a padded view into a party's QRAM, cell j = row j."""
    if len(view.bits) != 1 << n:
        raise ValueError(f"view has {len(view.bits)} rows, expected 2^{n}")
    return PartyState(view)


@dataclass(frozen=True)
class TransferEvent:
    direction: str  # "alice_to_bob" | "bob_to_alice"
    qubits: int
    step: str  # step1 | step3 | step6 | step7


@dataclass
class Transcript:
    """Ordered log of the oracle calls between the parties.

    Each record (initiator role, n, calls) stands for ``calls`` identical
    oracle calls in a row, each the four transfers of oracle_call_events.
    """

    records: list[tuple[str, int, int]] = field(default_factory=list)

    def log_calls(self, initiator_role: str, n: int, calls: int = 1) -> None:
        if initiator_role not in ("alice", "bob"):
            raise ValueError(f"unknown initiator role {initiator_role!r}")
        if n < 1:
            raise ValueError("address width must be at least 1")
        if calls < 1:
            raise ValueError("a record logs at least one oracle call")
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


@functools.lru_cache(maxsize=64)
def oracle_layout(n: int, l: int, k: int, p: int = 0) -> qsim.RegisterLayout:
    """The canonical composite layout; zero-width counting register when p=0.
    Layouts are immutable, so one is built per shape and shared: a count
    asks for its layout each time."""
    widths = {
        "counting": p,
        "address": n,
        "bob_data": k - l,
        "alice_data": l,
        "b_flag": 1,
        "a_flag": 1,
        "kick_ancilla": 1,
    }
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


def _party_registers(party: PartyState) -> tuple[str, str]:
    if party.role == "alice":
        return "alice_data", "a_flag"
    return "bob_data", "b_flag"


class _PartyPlan(NamedTuple):
    """One party's part of an oracle call: its cells, the offset of its data
    register, its membership selector and its flag qubit."""

    cells: np.ndarray
    shift: int
    sel: int  # the data-register bits containment needs, in place in the label
    flag: int

    @classmethod
    def build(cls, party: PartyState, z: frozenset, layout):
        data, flag_register = _party_registers(party)
        width = layout.width(data)
        if width != party.data_width:  # the width its cells fit
            raise ValueError(f"{data} register has {width} qubits, its view {party.data_width} items")
        flag = layout.qubit(flag_register)
        items, offset = party.view.item_part(z)
        sel = qsim.membership_selector(layout, data, flag, items, offset)
        shift = layout.offset(data)
        return cls(party.memory_ints, shift, sel << shift, flag)

    def load(self, index: np.ndarray, dtype) -> np.ndarray:
        """The cells at the encrypted addresses, shifted into the data register."""
        load = self.cells[index].astype(dtype, copy=False)
        load <<= self.shift
        return load

    def mark(self, labels: np.ndarray, load: np.ndarray, scratch: np.ndarray) -> None:
        """Query, mark and unquery in place: XOR the loaded cells into the
        data register, XOR into the flag whether it contains the part, and
        XOR the cells out again. ``scratch`` is an array like ``labels``."""
        labels ^= load
        np.bitwise_and(labels, self.sel, out=scratch)
        np.equal(scratch, self.sel, out=scratch)  # 1 where the part is contained
        scratch <<= self.flag
        labels ^= scratch
        labels ^= load


# Labels an oracle call carries through all seven steps at a time: each
# block stays in cache from step 1 to step 7, where whole-array steps would
# stream every label through memory some thirty times.
_LABEL_BLOCK = 1 << 15


def run_oracle_u(
    state: qsim.SparseState,
    initiator: PartyState,
    responder: PartyState,
    z: frozenset,
    transcript: Transcript,
    control: int | None = None,
    record: list | None = None,
) -> qsim.SparseState:
    """One oracle call: |j> -> (-1)^(c(u(j))) |j> on control=1 branches.

    Preconditions: all auxiliary registers (data, flags, ancilla) are zero
    on every basis label, z is an itemset over the two views' columns
    (``dataset.itemset``), and the responder holds the key.
    ``record``, if given, collects ("stepX", state) snapshots after each
    step for tracing. The call is logged on the transcript once its exit
    check has passed.
    """
    z = itemset(z, initiator.view.width + responder.view.width)
    if initiator.role == responder.role:
        raise ValueError("initiator and responder must have distinct roles")
    key = responder.key
    if key is None:
        raise ValueError("responder holds no encryption key")
    layout = state.layout
    n = layout.width("address")
    if len(responder.memory_ints) != 1 << n or len(initiator.memory_ints) != 1 << n:
        raise ValueError("party QRAM size does not match the address register")
    aux = 0
    for name in AUX_REGISTERS:
        aux |= layout.mask(name)
    labels, amps = state.labels, state.amplitudes
    if (labels & aux).any():
        raise ValueError("auxiliary registers must be zero at oracle entry")

    # What each step needs is checked and set up before any label moves, in
    # step order. Step 1: the key's 2^n images are checked once to be a
    # bijection, which keeps distinct labels distinct, and inverted for
    # step 7. Steps 2 and 3: each party's registers and selector.
    # Step 4: the phase qubits.
    images = key.apply(np.arange(1 << n))
    inverse = qsim.inverse_permutation(images, n, "address")
    resp = _PartyPlan.build(responder, z, layout)
    init = _PartyPlan.build(initiator, z, layout)
    qsim.check_phase_qubits(init.flag, resp.flag, control)
    gate = (1 << init.flag) | (1 << resp.flag) | (0 if control is None else 1 << control)

    address, shift, dtype = layout.mask("address"), layout.offset("address"), labels.dtype
    out_labels, out_amps = np.empty_like(labels), amps.copy()
    # the labels after steps 1-6 when a record is asked for; step 7's are the output
    steps = [np.empty_like(labels) for _ in range(6)] if record is not None else []
    scratch = np.empty(min(len(labels), _LABEL_BLOCK), dtype=dtype)
    dirty = False
    for start in range(0, len(labels), _LABEL_BLOCK):
        part = slice(start, start + _LABEL_BLOCK)
        block = labels[part]
        spare = scratch[: len(block)]

        # Step 1: the address register travels to the responder, who
        # encrypts it. No later step touches the address register, so u(j)
        # is computed here once, and each party's cells are gathered at u(j)
        # once, at its first query.
        index = images[layout.extract(block, "address").astype(np.int64, copy=False)]
        block = block & ~address
        block |= index.astype(dtype, copy=False) << shift
        if steps:
            steps[0][part] = block

        # Step 2: responder loads its rows, marks containment of its part, erases.
        resp_load = resp.load(index, dtype)
        resp.mark(block, resp_load, spare)
        if steps:
            steps[1][part] = block

        # Step 3: address + flag travel back; initiator does the same for its part.
        init_load = init.load(index, dtype)
        init.mark(block, init_load, spare)
        if steps:
            steps[2][part] = block

        # Step 4: phase kickback of the AND of the two flags, gated on the control.
        np.bitwise_and(block, gate, out=spare)
        np.negative(amps[part], out=out_amps[part], where=spare == gate)
        if steps:
            steps[3][part] = block

        # Step 5: initiator loads its rows again, erases its flag, erases the load.
        init.mark(block, init_load, spare)
        if steps:
            steps[4][part] = block

        # Step 6: back to the responder, who erases its flag the same way.
        resp.mark(block, resp_load, spare)
        if steps:
            steps[5][part] = block

        # Step 7: responder undoes the encryption of the register it holds
        # and returns it.
        back = inverse[layout.extract(block, "address").astype(np.int64, copy=False)]
        block &= ~address
        block |= back.astype(dtype, copy=False) << shift
        out_labels[part] = block
        dirty = dirty or bool(np.bitwise_and(block, aux, out=spare).any())

    if record is not None:
        for step, step_labels in enumerate(steps + [out_labels], start=1):
            step_amps = amps if step < 4 else out_amps
            record.append((f"step{step}", qsim.SparseState.from_arrays(layout, step_labels, step_amps)))
    if dirty:
        raise qsim.SimulationError("auxiliary registers failed to disentangle")
    transcript.log_calls(initiator.role, n)
    return qsim.SparseState.from_arrays(layout, out_labels, out_amps)


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
    initiator: PartyState,
    responder: PartyState,
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
    state = run_oracle_u(state, initiator, responder, z, transcript, control=control)
    state = qsim.apply_w(state, "address")
    state = qsim.apply_u0(state, "address", control=control)
    state = qsim.apply_w(state, "address")
    return qsim.apply_phase_flip(state, control)
