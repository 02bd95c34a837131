"""Sparse state-vector engine for the two-party mining protocol.

A state lives over a fixed composite register layout and is stored as two
parallel read-only numpy arrays: the distinct composite basis labels that
carry amplitude, and their complex amplitudes. Labels are int64, and a
layout wider than INT_LABEL_BITS is refused where it is made, so no label
can overflow. ``SparseState.amps`` gives the same state as a read-only
{label: amplitude} mapping, built from the arrays on first use.

A command (estimate, mine, compare) builds no SparseState and never
imports this module: a count reads its marked count from the keyless
column of ``TransactionDatabase.contains``, and the oracle's diagonal
(``protocol.oracle_phase``) adds only check_bijection, the key's range
and bijection check. That check, the integer rule ``_fitting_integers``
it builds on and SimulationError live in ``dataset`` and are imported
here, so the gate primitives share them; ``protocol``, ``counting`` and
the package root load this engine on first use. The seven-step oracle
call on a state (``protocol.run_oracle_u``) gathers the diagonal onto
bare label arrays, negates with negate_where and checks its qubits with
RegisterLayout.check_qubits, the one check of every qubit position; it
runs in the statevector reference, the demos and the tests.

The primitives are each a handful of whole-array operations, and they fall
in two classes:

* signed basis permutations: encryption permutations, QRAM queries (XOR
  loads of integer memory cells, hence self-inverse), membership marks, and
  the zero reflection, phase kickback and phase flip, each a negate_where.
  These map the label array position by position and never grow the state.
* spreading operations: the Hadamard wall on a register and the inverse QFT.
  Only these can enlarge the state, by at most a factor of 2^(register
  width). Both group the labels by the content of the other registers
  (np.unique), transform a grid of one row of 2^width amplitudes per
  distinct content, and read the labels back from the grid's cells.

Four of them (apply_permutation, qram_query with its cell check
memory_cells, apply_membership_mark, and apply_phase_and, negate_where on
the AND of two qubits) are the gate-level reference the oracle call is
tested against, on a layout the tests give data registers for the loaded
rows. The Hadamard wall, the zero reflection, the phase flip and the
inverse QFT serve the controlled Grover iteration and the statevector
counting path, the reference the readout is tested against.

Operations are pure: each returns a fresh SparseState and leaves its input
untouched. Amplitudes with magnitude below ``PRUNE_EPS`` are dropped after
spreading operations to bound floating-point dust.

Conventions. Registers are declared most-significant first; within a
register the content is read as an unsigned integer, and "qubit i" of a
register is the bit of significance 2^i. The inverse QFT is the adjoint of
F: |m> -> sum_f exp(+2*pi*i*m*f/P)|f> / sqrt(P); the counting readout is
invariant under the opposite sign choice.
"""
from __future__ import annotations

import math
import types
from collections.abc import Mapping
from typing import Callable, Sequence

import numpy as np

from .dataset import FrozenRecord, SimulationError, _fitting_integers, _is_integer, check_bijection

PRUNE_EPS = 1e-14
INT_LABEL_BITS = 62  # widest layout a RegisterLayout admits: its labels are int64


class RegisterLayout(FrozenRecord):
    """Named bit fields inside a composite basis label.

    ``registers`` lists (name, width) pairs, first entry occupying the most
    significant bits. Zero-width registers are allowed and act as inert
    placeholders so a single canonical ordering can serve every run. One
    table, built at construction, holds each register's (offset, width);
    a width that is not a non-negative integer and a layout wider than
    INT_LABEL_BITS are refused there, so that every label fits an int64.
    """

    __slots__ = ("registers", "total_width", "_table")
    _fields = ("registers",)

    def __init__(self, registers: tuple[tuple[str, int], ...]):
        table, pos = {}, 0
        for name, width in reversed(registers):
            if not (_is_integer(width) and width >= 0):
                raise ValueError(f"register {name!r} width must be a non-negative integer, got {width!r}")
            if name in table:
                raise ValueError(f"duplicate register {name!r}")
            table[name] = (pos, width)
            pos += width
        if pos > INT_LABEL_BITS:
            raise ValueError(f"layout of {pos} qubits is wider than INT_LABEL_BITS = {INT_LABEL_BITS}")
        self._init(registers, pos, table)

    def _lookup(self, name: str) -> tuple[int, int]:
        if name not in self._table:
            raise ValueError(f"unknown register {name!r}")
        return self._table[name]

    def width(self, name: str) -> int:
        return self._lookup(name)[1]

    def offset(self, name: str) -> int:
        return self._lookup(name)[0]

    def mask(self, name: str) -> int:
        offset, width = self._lookup(name)
        return ((1 << width) - 1) << offset

    def qubit(self, name: str, i: int = 0) -> int:
        """Absolute bit position of qubit i (significance 2^i) of a register."""
        offset, width = self._lookup(name)
        if not (_is_integer(i) and 0 <= i < width):
            raise ValueError(f"register {name!r} has no qubit {i}")
        return offset + i

    def check_qubits(self, outside: str | None = None, **qubits) -> None:
        """Refuse the qubit positions, given by role, unless each that is not
        None is an integer position in the layout, none lies inside the
        register named ``outside``, if one is, and they are distinct."""
        given = {role: q for role, q in qubits.items() if q is not None}
        for role, q in given.items():
            if not (_is_integer(q) and 0 <= q < self.total_width):
                raise ValueError(f"{role} qubit must be an integer in [0, {self.total_width}), got {q!r}")
            if outside is not None and self.mask(outside) >> q & 1:
                raise ValueError(f"{role} qubit must lie outside the {outside} register")
        if len(set(given.values())) != len(given):
            raise ValueError(f"qubits must be distinct, got {given}")

    def extract(self, label, name: str):
        """Register content of one label, or elementwise of a label array."""
        offset, width = self._lookup(name)
        return (label >> offset) & ((1 << width) - 1)

    def replace(self, label: int, name: str, value: int) -> int:
        offset, width = self._lookup(name)
        if not (_is_integer(value) and 0 <= value < 1 << width):
            raise ValueError(f"value {value!r} does not fit register {name!r}")
        return (label & ~self.mask(name)) | (value << offset)


class SparseState:
    """Distinct basis labels and their complex amplitudes, as two parallel
    read-only arrays over one register layout.

    ``SparseState(layout, {label: amplitude})`` builds a state from a
    mapping, refusing a label that is not an integer inside the layout as
    memory_cells refuses a cell; the primitives use ``from_arrays``, unchecked.
    """

    __slots__ = ("layout", "labels", "amplitudes", "_amps")

    def __init__(self, layout: RegisterLayout, amps: Mapping[int, complex]):
        words = "labels must be integers, got dtype {dtype}", "label {value} outside {width}-bit space"
        labels = _fitting_integers(list(amps), layout.total_width, *words)
        self._set(layout, labels, np.array(list(amps.values()), dtype=complex))

    @classmethod
    def from_arrays(
        cls, layout: RegisterLayout, labels: np.ndarray, amplitudes: np.ndarray
    ) -> "SparseState":
        """A state over given arrays; labels must be distinct and int64.
        The arrays are frozen, not copied."""
        state = cls.__new__(cls)
        state._set(layout, labels, amplitudes)
        return state

    def _set(self, layout, labels, amplitudes):
        labels.flags.writeable = False
        amplitudes.flags.writeable = False
        self.layout = layout
        self.labels = labels
        self.amplitudes = amplitudes
        self._amps = None

    @property
    def amps(self) -> Mapping[int, complex]:
        """The state as a read-only {label: amplitude} mapping."""
        if self._amps is None:
            table = dict(zip(self.labels.tolist(), self.amplitudes.tolist()))
            self._amps = types.MappingProxyType(table)
        return self._amps

    def __reduce__(self):
        # copied and pickled as its arrays, frozen again on the way back;
        # the amplitude mapping, a cache, is formed again when read
        return SparseState.from_arrays, (self.layout, self.labels, self.amplitudes)

    def __repr__(self) -> str:
        return f"SparseState({self.layout!r}, {dict(self.amps)!r})"

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def dump(self) -> str:
        """One line per basis label: binary label grouped by register, then
        real and imaginary amplitude parts at 17 significant digits."""
        order = np.argsort(self.labels)
        lines = []
        for label, a in zip(self.labels[order].tolist(), self.amplitudes[order].tolist()):
            groups = [
                format(self.extract(label, name), f"0{w}b")
                for name, w in self.layout.registers
                if w > 0
            ]
            lines.append(f"{' '.join(groups)} {a.real:.17g} {a.imag:.17g}")
        return "\n".join(lines)

    def extract(self, label, name: str):
        return self.layout.extract(label, name)

    def _with(self, labels: np.ndarray, amplitudes: np.ndarray) -> "SparseState":
        return SparseState.from_arrays(self.layout, labels, amplitudes)


class MeasurementOutcome(FrozenRecord):
    __slots__ = ("value", "probability", "post_state")

    def __init__(self, value: int, probability: float, post_state: SparseState):
        self._init(value, probability, post_state)


def negate_where(state: SparseState, mask: np.ndarray, control: int | None = None) -> SparseState:
    """Negate the amplitudes where the bool mask over the labels holds and,
    when a control qubit is given, the control is 1: the one conditional
    sign change every phase operation is. No label moves."""
    labels, amps = state.labels, state.amplitudes
    state.layout.check_qubits(control=control)
    if control is not None:
        mask = mask & ((labels >> control & 1) == 1)
    return state._with(labels, np.where(mask, -amps, amps))


def _grid(state: SparseState, register: str) -> tuple[np.ndarray, np.ndarray]:
    """(rests, grid): the distinct contents of the other registers,
    ascending, and one row of 2^width amplitudes per rest, indexed by the
    register's content."""
    layout, labels = state.layout, state.labels
    rests, row = np.unique(labels & ~layout.mask(register), return_inverse=True)
    grid = np.zeros((len(rests), 1 << layout.width(register)), dtype=complex)
    grid[row, layout.extract(labels, register)] = state.amplitudes
    return rests, grid


def _from_grid(state: SparseState, register: str, rests: np.ndarray, grid: np.ndarray) -> SparseState:
    """The state a grid holds, amplitudes below PRUNE_EPS dropped."""
    keep = np.abs(grid) >= PRUNE_EPS
    rows, values = np.nonzero(keep)
    labels = rests[rows] | (values.astype(np.int64) << state.layout.offset(register))
    return state._with(labels, grid[keep])


def max_deviation(a: SparseState, b: SparseState) -> float:
    """Largest amplitude difference between two states over all basis labels."""
    if a.layout != b.layout:
        raise ValueError(f"states over different layouts: {a.layout!r} and {b.layout!r}")
    labels, which = np.unique(np.concatenate([a.labels, b.labels]), return_inverse=True)
    diff = np.zeros(len(labels), dtype=complex)
    np.add.at(diff, which, np.concatenate([a.amplitudes, -b.amplitudes]))
    return float(np.max(np.abs(diff), initial=0.0))


def prepare_basis(layout: RegisterLayout, label: int = 0) -> SparseState:
    """Single-amplitude state |label>."""
    return SparseState(layout, {label: 1})


def apply_w(state: SparseState, register: str) -> SparseState:
    """Hadamard on every qubit of a register (the wall W = H^(x)w)."""
    rests, grid = _grid(state, register)
    inv = 1.0 / math.sqrt(2.0)
    for q in range(state.layout.width(register)):
        # pairs[:, 0] and pairs[:, 1]: the contents with qubit q at 0 and at 1
        pairs = grid.reshape(-1, 2, 1 << q)
        lo, hi = pairs[:, 0] * inv, pairs[:, 1] * inv
        pairs[:, 0] = lo + hi
        pairs[:, 1] = lo - hi
    return _from_grid(state, register, rests, grid)


def apply_u0(state: SparseState, register: str, control: int | None = None) -> SparseState:
    """Reflection about the all-zero register content: negate amplitudes with
    register content 0, on branches where the control qubit (if any) is 1."""
    state.layout.check_qubits(control=control, outside=register)
    return negate_where(state, (state.labels & state.layout.mask(register)) == 0, control)


def memory_cells(memory: Sequence[int], count: int, width: int) -> np.ndarray:
    """QRAM memory as an int64 array (uncopied when it already is one),
    checked to hold ``count`` integer cells that each fit ``width`` bits."""
    if len(memory) != count:
        raise ValueError(f"memory must have {count} cells, got {len(memory)}")
    words = "memory cells must be integers, got dtype {dtype}", "memory cells do not all fit {width} bits"
    return _fitting_integers(memory, width, *words)


def apply_permutation(state: SparseState, register: str, u: Callable) -> SparseState:
    """Replace register content j by u(j) on every basis label.

    u is evaluated once on the int64 array of the register's 2^width values
    and must return an array of the same shape (or a scalar). That table is
    refused by check_bijection unless u is a bijection on the register, so
    out-of-range outputs and collisions are trapped whichever labels the
    state holds; each label then takes its new content from the table.
    """
    labels, layout = state.labels, state.layout
    width = layout.width(register)
    table = np.broadcast_to(np.asarray(u(np.arange(1 << width))), (1 << width,))
    check_bijection(table, width, register)
    uj = table[layout.extract(labels, register)].astype(labels.dtype, copy=False)
    new = (labels & ~layout.mask(register)) | (uj << layout.offset(register))
    return state._with(new, state.amplitudes)


def qram_query(state: SparseState, address: str, data: str, memory: Sequence[int]) -> SparseState:
    """XOR the addressed memory cell into the data register (self-inverse).

    On every basis label with address content j, the data register content
    is XORed with memory[j]; querying twice therefore erases the load.
    ``memory`` holds one integer cell per address, each in [0, 2^width) of
    the data register; an int64 array is used uncopied.
    """
    layout = state.layout
    labels = state.labels
    cells = memory_cells(memory, 1 << layout.width(address), layout.width(data))
    index = layout.extract(labels, address)
    return state._with(labels ^ (cells[index] << layout.offset(data)), state.amplitudes)


def apply_membership_mark(
    state: SparseState,
    data: str,
    flag: int,
    zpart: frozenset,
    offset: int = 0,
) -> SparseState:
    """XOR into the flag qubit whether the data register contains zpart.

    Containment means a 1 bit at every position of zpart (positions are
    1-based item indices, shifted down by ``offset`` into the register's
    bitstring). An empty zpart is vacuously contained, so the flag toggles
    on every label. Self-inverse. The flag qubit must lie outside the data
    register, ``offset`` must be an integer, and every integer position,
    less ``offset``, inside the register.
    """
    layout = state.layout
    layout.check_qubits(flag=flag, outside=data)
    if not _is_integer(offset):
        raise ValueError(f"offset must be an integer, got {offset!r}")
    d_off, width = layout.offset(data), layout.width(data)
    sel = 0
    for pos in zpart:
        if not (_is_integer(pos) and 1 <= pos - offset <= width):
            raise ValueError(f"position {pos!r} (offset {offset}) names no qubit of register {data!r}")
        sel |= 1 << (width - pos + offset)
    labels = state.labels
    hit = ((labels >> d_off) & sel) == sel
    return state._with(np.where(hit, labels ^ (1 << flag), labels), state.amplitudes)


def apply_phase_and(state: SparseState, a: int, b: int, control: int | None = None) -> SparseState:
    """Multiply each amplitude by (-1)^(bit_a AND bit_b), gated on the control.

    This is the Toffoli-onto-|-> phase kickback applied directly as a phase;
    the ancilla never entangles, so the external behaviour is identical.
    """
    state.layout.check_qubits(a=a, b=b, control=control)
    labels = state.labels
    return negate_where(state, (labels >> a & labels >> b & 1) == 1, control)


def apply_phase_flip(state: SparseState, qubit: int | None = None) -> SparseState:
    """Negate amplitudes where the qubit is 1; with no qubit, a global -1."""
    return negate_where(state, np.ones(len(state.labels), dtype=bool), qubit)


def inverse_qft(state: SparseState, register: str) -> SparseState:
    """Inverse discrete Fourier transform of size 2^width on one register:
    |m> -> sum_f exp(-2*pi*i*m*f/P) |f> / sqrt(P)."""
    rests, grid = _grid(state, register)
    out = np.fft.fft(grid, axis=1) * (1.0 / math.sqrt(grid.shape[1]))
    return _from_grid(state, register, rests, out)


def measure_register(state: SparseState, register: str, rng) -> MeasurementOutcome:
    """Projective measurement of one register in the computational basis.

    Exactly one uniform draw is consumed; outcomes are walked in ascending
    value order, so results are reproducible for a given rng state.
    ``rng`` is any generator with ``random()`` and ``integers(low, high)``,
    numpy's included.
    """
    contents = state.extract(state.labels, register)
    if not len(contents):
        raise SimulationError("measurement on an empty state")
    values, which = np.unique(contents, return_inverse=True)
    probs = np.bincount(which, weights=np.abs(state.amplitudes) ** 2)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-8:
        raise SimulationError(f"measurement on unnormalized state (norm^2 = {total!r})")
    r = rng.random() * total
    # the first value whose cumulative probability exceeds the draw
    i = min(int(np.searchsorted(np.cumsum(probs), r, side="right")), len(values) - 1)
    value, p = int(values[i]), float(probs[i])
    keep = contents == value
    post = state._with(state.labels[keep], state.amplitudes[keep] * (1.0 / math.sqrt(p)))
    return MeasurementOutcome(value, p, post)
