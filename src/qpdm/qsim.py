"""Sparse state-vector engine for the two-party mining protocol.

A state lives over a fixed composite register layout and is stored as two
parallel read-only numpy arrays: the distinct composite basis labels that
carry amplitude, and their complex amplitudes. Labels are int64 while the
layout is at most 62 bits wide; wider layouts (a database of about 60 or
more items) use object arrays of Python ints, and every primitive runs the
same array code on both. ``SparseState.amps`` gives the same state as a
read-only {label: amplitude} mapping, built from the arrays on first use.

The engine provides exactly the primitives the protocol needs, each a
handful of whole-array operations, and they fall in two classes:

* signed basis permutations: encryption permutations, QRAM queries (XOR
  loads of integer memory cells, hence self-inverse), membership marks, the
  zero reflection, phase kickback. These map the label array position by
  position and never grow the state.
* spreading operations: the Hadamard wall on a register and the inverse QFT.
  Only these can enlarge the state, by at most a factor of 2^(register
  width); equal labels they produce are merged by a sort.

The oracle call in ``protocol`` runs its seven steps over bare label arrays
and calls none of the four oracle primitives (apply_permutation,
qram_query, apply_membership_mark, apply_phase_and); they are the
gate-level reference it is tested against. It shares their checks, which
live in helpers both call: relabel (a register permutation's range and
bijection checks), memory_cells, membership_selector and
check_phase_qubits. The Hadamard wall, the zero reflection, the phase flip
and the inverse QFT serve the controlled Grover iteration and the
statevector counting path.

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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

PRUNE_EPS = 1e-14
INT_LABEL_BITS = 62  # widest layout whose labels are held as int64


def label_dtype(width: int) -> np.dtype:
    """Array dtype of values `width` bits wide: int64 up to INT_LABEL_BITS,
    Python ints (object) beyond, where int64 would overflow."""
    return np.dtype(np.int64) if width <= INT_LABEL_BITS else np.dtype(object)


class SimulationError(RuntimeError):
    """Internal consistency violation (norm drift, failed disentanglement)."""


@dataclass(frozen=True)
class RegisterLayout:
    """Named bit fields inside a composite basis label.

    ``registers`` lists (name, width) pairs, first entry occupying the most
    significant bits. Zero-width registers are allowed and act as inert
    placeholders so a single canonical ordering can serve every run. The
    width, offset and mask of every register are tabulated at construction.
    """

    registers: tuple[tuple[str, int], ...]
    total_width: int = field(init=False, repr=False, compare=False)
    label_dtype: np.dtype = field(init=False, repr=False, compare=False)
    _widths: dict = field(init=False, repr=False, compare=False)
    _offsets: dict = field(init=False, repr=False, compare=False)
    _masks: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        widths, offsets, masks = {}, {}, {}
        total = sum(w for _, w in self.registers)
        pos = total
        for name, width in self.registers:
            if width < 0:
                raise ValueError(f"register {name!r} has negative width")
            if name in widths:
                raise ValueError(f"duplicate register {name!r}")
            pos -= width
            widths[name], offsets[name] = width, pos
            masks[name] = ((1 << width) - 1) << pos
        object.__setattr__(self, "total_width", total)
        object.__setattr__(self, "label_dtype", label_dtype(total))
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_masks", masks)

    def _lookup(self, table: dict, name: str) -> int:
        value = table.get(name)
        if value is None:
            raise ValueError(f"unknown register {name!r}")
        return value

    def width(self, name: str) -> int:
        return self._lookup(self._widths, name)

    def offset(self, name: str) -> int:
        return self._lookup(self._offsets, name)

    def mask(self, name: str) -> int:
        return self._lookup(self._masks, name)

    def qubit(self, name: str, i: int = 0) -> int:
        """Absolute bit position of qubit i (significance 2^i) of a register."""
        if not 0 <= i < self.width(name):
            raise ValueError(f"register {name!r} has no qubit {i}")
        return self._offsets[name] + i

    def extract(self, label, name: str):
        """Register content of one label, or elementwise of a label array."""
        return (label >> self.offset(name)) & ((1 << self._widths[name]) - 1)

    def replace(self, label: int, name: str, value: int) -> int:
        w = self.width(name)
        if not 0 <= value < 1 << w:
            raise ValueError(f"value {value} does not fit register {name!r}")
        return (label & ~self._masks[name]) | (value << self._offsets[name])


class SparseState:
    """Distinct basis labels and their complex amplitudes, as two parallel
    read-only arrays over one register layout.

    ``SparseState(layout, {label: amplitude})`` builds a state from a
    mapping; the primitives build theirs with ``from_arrays``.
    """

    __slots__ = ("layout", "labels", "amplitudes", "_amps")

    def __init__(self, layout: RegisterLayout, amps: Mapping[int, complex]):
        self._set(
            layout,
            np.array(list(amps), dtype=layout.label_dtype),
            np.array(list(amps.values()), dtype=complex),
        )

    @classmethod
    def from_arrays(
        cls, layout: RegisterLayout, labels: np.ndarray, amplitudes: np.ndarray
    ) -> "SparseState":
        """A state over given arrays; labels must be distinct and of the
        layout's label dtype. The arrays are frozen, not copied."""
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


@dataclass(frozen=True)
class MeasurementOutcome:
    value: int
    probability: float
    post_state: SparseState


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, ordered, first): the stable sort order of keys, the keys in
    that order, and a mask of the first element of each run of equal keys."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return order, ordered, first


def _merge(labels: np.ndarray, amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the amplitudes of equal labels; the labels come back ascending."""
    if not len(labels):
        return labels, amplitudes
    order, ordered, first = _runs(labels)
    starts = np.flatnonzero(first)
    return ordered[starts], np.add.reduceat(amplitudes[order], starts)


def _bit_set(labels: np.ndarray, qubit: int) -> np.ndarray:
    return (labels & (1 << qubit)) != 0


def max_deviation(a: SparseState, b: SparseState) -> float:
    """Largest amplitude difference between two states over all basis labels."""
    _, diff = _merge(
        np.concatenate([a.labels, b.labels]), np.concatenate([a.amplitudes, -b.amplitudes])
    )
    return float(np.max(np.abs(diff), initial=0.0))


def prepare_basis(layout: RegisterLayout, label: int = 0) -> SparseState:
    """Single-amplitude state |label>."""
    if not 0 <= label < 1 << layout.total_width:
        raise ValueError(f"label {label} outside {layout.total_width}-bit space")
    return SparseState.from_arrays(
        layout, np.array([label], dtype=layout.label_dtype), np.array([1.0 + 0j])
    )


def apply_w(state: SparseState, register: str) -> SparseState:
    """Hadamard on every qubit of a register (the wall W = H^(x)w)."""
    off = state.layout.offset(register)
    width = state.layout.width(register)
    inv = 1.0 / math.sqrt(2.0)
    labels, amps = state.labels, state.amplitudes
    for q in range(off, off + width):
        mask = 1 << q
        one = _bit_set(labels, q)
        c = amps * inv
        lo = labels & ~mask
        labels = np.concatenate([lo, lo | mask])
        amps = np.concatenate([c, np.where(one, -c, c)])
        # with the qubit 0 on every label, the 2N new labels are distinct
        if one.any():
            labels, amps = _merge(labels, amps)
    keep = np.abs(amps) >= PRUNE_EPS
    return state._with(labels[keep], amps[keep])


def apply_u0(state: SparseState, register: str, control: int | None = None) -> SparseState:
    """Reflection about the all-zero register content: negate amplitudes with
    register content 0, on branches where the control qubit (if any) is 1."""
    rmask = state.layout.mask(register)
    if control is not None and rmask >> control & 1:
        raise ValueError("control qubit must lie outside the reflected register")
    labels, amps = state.labels, state.amplitudes
    flip = (labels & rmask) == 0
    if control is not None:
        flip &= _bit_set(labels, control)
    return state._with(labels, np.where(flip, -amps, amps))


def relabel(labels: np.ndarray, layout: RegisterLayout, register: str, values) -> np.ndarray:
    """The labels with the register's content replaced, position by position,
    by ``values`` (an array of the labels' dtype and shape), checked: every
    value fits the register, and the new labels are distinct, so the
    replacement was a bijection on the register."""
    width = layout.width(register)
    if (values >> width).any():  # some value is negative or wider than the register
        bad = values[np.flatnonzero(values >> width)[0]]
        raise ValueError(f"permutation output {bad} does not fit register {register!r}")
    new = (labels & ~layout.mask(register)) | (
        values.astype(labels.dtype, copy=False) << layout.offset(register)
    )
    ordered = np.sort(new)
    if (ordered[1:] == ordered[:-1]).any():
        raise SimulationError("permutation is not a bijection on the register")
    return new


def memory_cells(memory: Sequence[int], count: int, width: int, dtype: np.dtype) -> np.ndarray:
    """QRAM memory as an array of ``dtype`` (uncopied when it already is one),
    checked to hold ``count`` integer cells that each fit ``width`` bits."""
    if len(memory) != count:
        raise ValueError(f"memory must have {count} cells, got {len(memory)}")
    cells = np.asarray(memory)
    if cells.dtype.kind not in "iuO":
        raise ValueError(f"memory cells must be integers, got dtype {cells.dtype}")
    cells = cells.astype(dtype, copy=False)
    # the OR of all cells has a bit at or above `width` exactly when some cell
    # is negative or wider than the register; one reduction, no temporary
    if np.bitwise_or.reduce(cells) >> width:
        raise ValueError(f"memory cells do not all fit {width} bits")
    return cells


def membership_selector(
    layout: RegisterLayout, data: str, flag: int, zpart: frozenset, offset: int = 0
) -> int:
    """The data-register bits that must all be 1 for the content to contain
    zpart, checked: the flag qubit lies outside the register and every
    position, shifted down by ``offset``, inside it."""
    d_off = layout.offset(data)
    width = layout.width(data)
    if d_off <= flag < d_off + width:
        raise ValueError("flag qubit must lie outside the data register")
    sel = 0
    for pos in zpart:
        q = pos - offset
        if not 1 <= q <= width:
            raise ValueError(f"position {pos} (offset {offset}) outside data register of width {width}")
        sel |= 1 << (width - q)
    return sel


def check_phase_qubits(a: int, b: int, control: int | None = None) -> None:
    """The two phase qubits and the control, if any, must be distinct."""
    if a == b or control in (a, b):
        raise ValueError("phase qubits must be distinct")


def apply_permutation(state: SparseState, register: str, u: Callable) -> SparseState:
    """Replace register content j by u(j) on every basis label.

    u is applied elementwise to an integer array of register contents (of
    the state's label dtype) and must return an array of the same shape
    (or a scalar). u must be a bijection on the register's value range; the
    caller (key constructor) guarantees that, but out-of-range outputs and
    collisions are still trapped.
    """
    labels = state.labels
    uj = np.asarray(u(state.layout.extract(labels, register)))
    if uj.shape != labels.shape:
        uj = np.broadcast_to(uj, labels.shape)
    return state._with(relabel(labels, state.layout, register, uj), state.amplitudes)


def qram_query(state: SparseState, address: str, data: str, memory: Sequence[int]) -> SparseState:
    """XOR the addressed memory cell into the data register (self-inverse).

    On every basis label with address content j, the data register content
    is XORed with memory[j]; querying twice therefore erases the load.
    ``memory`` holds one integer cell per address, each in [0, 2^width) of
    the data register; an array of the label dtype is used uncopied.
    """
    layout = state.layout
    labels = state.labels
    cells = memory_cells(memory, 1 << layout.width(address), layout.width(data), labels.dtype)
    index = layout.extract(labels, address).astype(np.int64, copy=False)
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
    on every label. Self-inverse.
    """
    sel = membership_selector(state.layout, data, flag, zpart, offset)
    labels = state.labels
    hit = ((labels >> state.layout.offset(data)) & sel) == sel
    return state._with(np.where(hit, labels ^ (1 << flag), labels), state.amplitudes)


def apply_phase_and(state: SparseState, a: int, b: int, control: int | None = None) -> SparseState:
    """Multiply each amplitude by (-1)^(bit_a AND bit_b), gated on the control.

    This is the Toffoli-onto-|-> phase kickback applied directly as a phase;
    the ancilla never entangles, so the external behaviour is identical.
    """
    check_phase_qubits(a, b, control)
    labels, amps = state.labels, state.amplitudes
    flip = _bit_set(labels, a) & _bit_set(labels, b)
    if control is not None:
        flip &= _bit_set(labels, control)
    return state._with(labels, np.where(flip, -amps, amps))


def apply_phase_flip(state: SparseState, qubit: int | None = None) -> SparseState:
    """Negate amplitudes where the qubit is 1; with no qubit, a global -1."""
    labels, amps = state.labels, state.amplitudes
    if qubit is None:
        return state._with(labels, -amps)
    return state._with(labels, np.where(_bit_set(labels, qubit), -amps, amps))


def inverse_qft(state: SparseState, register: str) -> SparseState:
    """Inverse discrete Fourier transform of size 2^width on one register:
    |m> -> sum_f exp(-2*pi*i*m*f/P) |f> / sqrt(P)."""
    layout = state.layout
    off = layout.offset(register)
    size = 1 << layout.width(register)
    labels = state.labels
    # one row of `size` amplitudes per distinct content of the other registers
    order, ordered, first = _runs(labels & ~layout.mask(register))
    rests = ordered[first]
    row = np.cumsum(first) - 1
    grid = np.zeros((len(rests), size), dtype=complex)
    grid[row, layout.extract(labels[order], register).astype(np.int64)] = state.amplitudes[order]
    out = np.fft.fft(grid, axis=1) * (1.0 / math.sqrt(size))
    keep = np.abs(out) >= PRUNE_EPS
    rows, fs = np.nonzero(keep)
    new = rests[rows] | (fs.astype(labels.dtype) << off)
    return state._with(new, out[keep])


def measure_register(state: SparseState, register: str, rng: np.random.Generator) -> MeasurementOutcome:
    """Projective measurement of one register in the computational basis.

    Exactly one uniform draw is consumed; outcomes are walked in ascending
    value order, so results are reproducible for a given rng state.
    """
    contents = state.extract(state.labels, register)
    if not len(contents):
        raise SimulationError("measurement on an empty state")
    order, ordered, first = _runs(contents)
    starts = np.flatnonzero(first)
    values = ordered[starts]
    probs = np.add.reduceat(np.abs(state.amplitudes[order]) ** 2, starts)
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
