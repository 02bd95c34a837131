import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpdm.qsim import (
    RegisterLayout,
    SimulationError,
    SparseState,
    apply_membership_mark,
    apply_permutation,
    apply_phase_and,
    apply_phase_flip,
    apply_u0,
    apply_w,
    inverse_qft,
    label_dtype,
    max_deviation,
    measure_register,
    memory_cells,
    prepare_basis,
    qram_query,
)


def single(width, name="r"):
    return RegisterLayout(((name, width),))


def random_state(layout, rng, terms=None):
    dim = 1 << layout.total_width
    terms = terms or dim
    labels = rng.choice(dim, size=min(terms, dim), replace=False)
    amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    amps /= np.linalg.norm(amps)
    return SparseState(layout, {int(l): complex(a) for l, a in zip(labels, amps)})


class TestLayout:
    def test_offsets_msb_first(self):
        layout = RegisterLayout((("a", 2), ("b", 3), ("c", 1)))
        assert layout.total_width == 6
        assert layout.offset("a") == 4
        assert layout.offset("b") == 1
        assert layout.offset("c") == 0

    def test_extract_replace_roundtrip(self):
        layout = RegisterLayout((("a", 2), ("b", 3)))
        label = layout.replace(0, "a", 0b10)
        label = layout.replace(label, "b", 0b011)
        assert layout.extract(label, "a") == 0b10
        assert layout.extract(label, "b") == 0b011
        assert label == 0b10011

    def test_zero_width_register(self):
        layout = RegisterLayout((("empty", 0), ("r", 2)))
        assert layout.width("empty") == 0
        assert layout.extract(0b11, "empty") == 0
        assert layout.extract(0b11, "r") == 0b11

    def test_unknown_register(self):
        layout = single(2)
        with pytest.raises(ValueError):
            layout.offset("nope")

    def test_qubit_positions(self):
        layout = RegisterLayout((("hi", 2), ("lo", 3)))
        assert layout.qubit("lo", 0) == 0
        assert layout.qubit("lo", 2) == 2
        assert layout.qubit("hi", 0) == 3
        with pytest.raises(ValueError):
            layout.qubit("lo", 3)


class TestPrepareBasis:
    def test_all_zero(self):
        st = prepare_basis(single(3), 0)
        assert st.amps == {0: 1.0 + 0j}
        assert abs(st.norm_sq() - 1) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            prepare_basis(single(2), 4)

    def test_single_term(self):
        st = prepare_basis(single(4), 9)
        assert len(st.amps) == 1


class TestHadamardWall:
    def test_uniform_from_zero(self):
        st = apply_w(prepare_basis(single(3)), "r")
        assert len(st.amps) == 8
        for a in st.amps.values():
            assert abs(a - 2 ** -1.5) < 1e-12

    def test_self_inverse(self):
        rng = np.random.default_rng(1)
        layout = single(3)
        st = random_state(layout, rng)
        back = apply_w(apply_w(st, "r"), "r")
        assert max_deviation(st, back) < 1e-12

    def test_single_qubit_on_one(self):
        st = apply_w(prepare_basis(single(1), 1), "r")
        assert abs(st.amps[0] - 1 / math.sqrt(2)) < 1e-12
        assert abs(st.amps[1] + 1 / math.sqrt(2)) < 1e-12

    def test_only_touches_named_register(self):
        layout = RegisterLayout((("a", 1), ("b", 1)))
        st = apply_w(prepare_basis(layout, 0b10), "b")
        assert set(st.amps) == {0b10, 0b11}


class TestZeroReflection:
    def test_flips_zero(self):
        st = apply_u0(prepare_basis(single(3), 0), "r")
        assert st.amps[0] == -1.0

    def test_leaves_nonzero(self):
        st = apply_u0(prepare_basis(single(3), 5), "r")
        assert st.amps[5] == 1.0

    def test_controlled_noop_on_zero_control(self):
        layout = RegisterLayout((("c", 1), ("r", 2)))
        st = prepare_basis(layout, 0)  # control 0, register 0
        out = apply_u0(st, "r", control=layout.qubit("c"))
        assert out.amps[0] == 1.0
        st1 = prepare_basis(layout, layout.replace(0, "c", 1))
        out1 = apply_u0(st1, "r", control=layout.qubit("c"))
        assert out1.amps[layout.replace(0, "c", 1)] == -1.0

    def test_control_inside_register_rejected(self):
        layout = single(2)
        with pytest.raises(ValueError):
            apply_u0(prepare_basis(layout), "r", control=1)


class TestPermutation:
    def test_bit_flip(self):
        st = apply_permutation(prepare_basis(single(2), 0b01), "r", lambda j: j ^ 0b11)
        assert st.amps == {0b10: 1.0 + 0j}

    def test_modular_add_wraparound(self):
        st = apply_permutation(prepare_basis(single(2), 3), "r", lambda j: (j + 1) % 4)
        assert st.amps == {0: 1.0 + 0j}

    def test_cyclic_shift(self):
        # j1 j2 j3 -> j2 j3 j1: 110 -> 101
        def rot(j):
            return ((j << 1) | (j >> 2)) & 0b111

        st = apply_permutation(prepare_basis(single(3), 0b110), "r", rot)
        assert st.amps == {0b101: 1.0 + 0j}

    def test_collision_trapped(self):
        layout = single(2)
        st = apply_w(prepare_basis(layout), "r")
        with pytest.raises(SimulationError):
            apply_permutation(st, "r", lambda j: 0)


class TestQramQuery:
    layout = RegisterLayout((("addr", 1), ("data", 2)))

    def test_load_into_zeros(self):
        memory = np.array([0b01, 0b10])
        for j in (0, 1):
            st = prepare_basis(self.layout, self.layout.replace(0, "addr", j))
            out = qram_query(st, "addr", "data", memory)
            label = next(iter(out.amps))
            assert out.extract(label, "data") == memory[j]

    def test_self_inverse(self):
        rng = np.random.default_rng(2)
        st = random_state(self.layout, rng)
        memory = np.array([0b11, 0b01])
        back = qram_query(qram_query(st, "addr", "data", memory), "addr", "data", memory)
        assert max_deviation(st, back) < 1e-15

    def test_superposed_load(self):
        st = apply_w(prepare_basis(self.layout), "addr")
        out = qram_query(st, "addr", "data", np.array([0b01, 0b10]))
        inv = 1 / math.sqrt(2)
        expect = {
            self.layout.replace(self.layout.replace(0, "addr", 0), "data", 0b01): inv,
            self.layout.replace(self.layout.replace(0, "addr", 1), "data", 0b10): inv,
        }
        assert max_deviation(out, SparseState(self.layout, expect)) < 1e-12

    def test_width_mismatch(self):
        st = prepare_basis(self.layout)
        with pytest.raises(ValueError):
            qram_query(st, "addr", "data", np.array([1]))
        with pytest.raises(ValueError):
            qram_query(st, "addr", "data", [4, 0])
        with pytest.raises(ValueError):
            qram_query(st, "addr", "data", np.array([0, -1]))
        # cells are integers only: bit strings are refused, not parsed
        with pytest.raises(ValueError):
            qram_query(st, "addr", "data", ["01", "10"])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_cells_refused_exactly_when_one_does_not_fit(self, data):
        # widths up to 70 draw both label tiers; a cell fits when c >> width
        # is 0, so negative cells never fit
        width = data.draw(st.integers(1, 70), label="width")
        top = 1 << min(width + 2, 62 if label_dtype(width) != object else 72)
        cells = data.draw(st.lists(st.integers(-3, top), min_size=1, max_size=6), label="cells")
        memory = np.array(cells, dtype=label_dtype(width))
        fits = all(c >> width == 0 for c in cells)
        if fits:
            assert memory_cells(memory, len(cells), width, memory.dtype) is memory
        else:
            with pytest.raises(ValueError, match=f"memory cells do not all fit {width} bits"):
                memory_cells(memory, len(cells), width, memory.dtype)
        with pytest.raises(ValueError, match="memory cells must be integers"):
            memory_cells(memory.astype(float), len(cells), width, memory.dtype)

    def test_all_zero_memory_is_identity(self):
        rng = np.random.default_rng(3)
        st = random_state(self.layout, rng)
        out = qram_query(st, "addr", "data", np.zeros(2, dtype=np.int64))
        assert max_deviation(st, out) == 0.0


class TestMembershipMark:
    layout = RegisterLayout((("data", 2), ("flag", 1)))

    def test_all_bits_present_sets_flag(self):
        st = prepare_basis(self.layout, self.layout.replace(0, "data", 0b11))
        out = apply_membership_mark(st, "data", self.layout.qubit("flag"), frozenset({1, 2}))
        label = next(iter(out.amps))
        assert out.extract(label, "flag") == 1

    def test_missing_bit_leaves_flag(self):
        st = prepare_basis(self.layout, self.layout.replace(0, "data", 0b10))
        out = apply_membership_mark(st, "data", self.layout.qubit("flag"), frozenset({1, 2}))
        label = next(iter(out.amps))
        assert out.extract(label, "flag") == 0

    def test_self_inverse(self):
        rng = np.random.default_rng(4)
        st = random_state(self.layout, rng)
        flag = self.layout.qubit("flag")
        out = apply_membership_mark(
            apply_membership_mark(st, "data", flag, frozenset({2})), "data", flag, frozenset({2})
        )
        assert max_deviation(st, out) == 0.0

    def test_empty_part_toggles_everywhere(self):
        rng = np.random.default_rng(5)
        st = random_state(self.layout, rng)
        out = apply_membership_mark(st, "data", self.layout.qubit("flag"), frozenset())
        fmask = 1 << self.layout.qubit("flag")
        for label, a in st.amps.items():
            assert out.amps[label ^ fmask] == a

    def test_flag_inside_data_rejected(self):
        st = prepare_basis(self.layout)
        with pytest.raises(ValueError):
            apply_membership_mark(st, "data", self.layout.qubit("data", 0), frozenset({1}))

    def test_offset_positions(self):
        # positions {3} with offset 2 test bit 1 of the register
        st = prepare_basis(self.layout, self.layout.replace(0, "data", 0b10))
        out = apply_membership_mark(
            st, "data", self.layout.qubit("flag"), frozenset({3}), offset=2
        )
        label = next(iter(out.amps))
        assert out.extract(label, "flag") == 1


class TestPhaseAnd:
    layout = RegisterLayout((("c", 1), ("a", 1), ("b", 1)))

    def label(self, c, a, b):
        l = self.layout.replace(0, "c", c)
        l = self.layout.replace(l, "a", a)
        return self.layout.replace(l, "b", b)

    def test_both_one_negates(self):
        st = prepare_basis(self.layout, self.label(0, 1, 1))
        out = apply_phase_and(st, self.layout.qubit("a"), self.layout.qubit("b"))
        assert out.amps[self.label(0, 1, 1)] == -1.0

    def test_and_false_unchanged(self):
        st = prepare_basis(self.layout, self.label(0, 1, 0))
        out = apply_phase_and(st, self.layout.qubit("a"), self.layout.qubit("b"))
        assert out.amps[self.label(0, 1, 0)] == 1.0

    def test_zero_control_is_noop(self):
        st = prepare_basis(self.layout, self.label(0, 1, 1))
        out = apply_phase_and(
            st, self.layout.qubit("a"), self.layout.qubit("b"), control=self.layout.qubit("c")
        )
        assert out.amps[self.label(0, 1, 1)] == 1.0

    def test_coincident_qubits_rejected(self):
        st = prepare_basis(self.layout)
        with pytest.raises(ValueError):
            apply_phase_and(st, 1, 1)
        with pytest.raises(ValueError):
            apply_phase_and(st, 1, 2, control=2)


class TestPhaseFlip:
    def test_global(self):
        st = apply_phase_flip(prepare_basis(single(2), 1))
        assert st.amps[1] == -1.0

    def test_on_qubit(self):
        layout = single(2)
        st = SparseState(layout, {0b01: 0.6 + 0j, 0b10: 0.8 + 0j})
        out = apply_phase_flip(st, qubit=1)
        assert out.amps[0b01] == 0.6
        assert out.amps[0b10] == -0.8


class TestInverseQft:
    def test_uniform_to_zero(self):
        st = apply_w(prepare_basis(single(3)), "r")
        out = inverse_qft(st, "r")
        assert set(out.amps) == {0}
        assert abs(out.amps[0] - 1.0) < 1e-12

    def test_forward_then_inverse_is_identity(self):
        # forward transform built directly from the documented convention:
        # F x has coefficients (1/sqrt(P)) * sum_m exp(+2 pi i m f / P) x_m
        rng = np.random.default_rng(6)
        layout = single(4)
        size = 16
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        x /= np.linalg.norm(x)
        fx = np.fft.ifft(x) * math.sqrt(size)
        st = SparseState(layout, {i: complex(fx[i]) for i in range(size)})
        out = inverse_qft(st, "r")
        expect = SparseState(layout, {i: complex(x[i]) for i in range(size)})
        assert max_deviation(out, expect) < 1e-10

    def test_single_fourier_mode(self):
        layout = single(3)
        size, f = 8, 5
        amps = {
            m: complex(np.exp(2j * np.pi * f * m / size) / math.sqrt(size))
            for m in range(size)
        }
        out = inverse_qft(SparseState(layout, amps), "r")
        assert abs(out.amps[f] - 1.0) < 1e-10
        assert all(l == f for l in out.amps)

    def test_leaves_other_registers(self):
        layout = RegisterLayout((("count", 2), ("rest", 1)))
        st = SparseState(layout, {0b001: 1.0 + 0j})
        out = inverse_qft(st, "count")
        for label in out.amps:
            assert layout.extract(label, "rest") == 1


class TestMeasure:
    def test_basis_state_deterministic(self):
        rng = np.random.default_rng(7)
        st = prepare_basis(single(3), 5)
        out = measure_register(st, "r", rng)
        assert out.value == 5
        assert out.probability == 1.0

    def test_born_frequencies(self):
        rng = np.random.default_rng(8)
        layout = single(1)
        inv = 1 / math.sqrt(2)
        st = SparseState(layout, {0: inv + 0j, 1: inv + 0j})
        ones = sum(measure_register(st, "r", rng).value for _ in range(10_000))
        assert abs(ones / 10_000 - 0.5) < 0.02

    def test_collapse_keeps_partner_register(self):
        layout = RegisterLayout((("addr", 1), ("data", 1)))
        inv = 1 / math.sqrt(2)
        amps = {0b00: inv + 0j, 0b11: inv + 0j}
        st = SparseState(layout, amps)
        out = measure_register(st, "addr", np.random.default_rng(9))
        label = next(iter(out.post_state.amps))
        assert layout.extract(label, "data") == out.value
        assert abs(out.post_state.norm_sq() - 1) < 1e-12

    def test_unnormalized_rejected(self):
        st = SparseState(single(1), {0: 0.5 + 0j})
        with pytest.raises(SimulationError):
            measure_register(st, "r", np.random.default_rng(0))

    def test_chi_square_on_uneven_state(self):
        layout = single(2)
        amps = np.array([0.1, 0.5, 0.3, 0.1]) ** 0.5
        st = SparseState(layout, {i: complex(a) for i, a in enumerate(amps)})
        rng = np.random.default_rng(10)
        counts = np.zeros(4)
        n = 10_000
        for _ in range(n):
            counts[measure_register(st, "r", rng).value] += 1
        expected = np.abs(amps) ** 2 * n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-square critical value, 3 dof, alpha = 0.001
        assert chi2 < 16.27


class TestProperties:
    layout = RegisterLayout((("addr", 2), ("data", 2), ("flag", 1)))

    def ops(self):
        memory = np.array([0b01, 0b10, 0b11, 0b00])
        flag = self.layout.qubit("flag")
        return [
            ("w", lambda s: apply_w(s, "addr"), True),
            ("u0", lambda s: apply_u0(s, "addr"), True),
            ("perm", lambda s: apply_permutation(s, "addr", lambda j: (j + 1) % 4), False),
            ("qram", lambda s: qram_query(s, "addr", "data", memory), True),
            ("mark", lambda s: apply_membership_mark(s, "data", flag, frozenset({2})), True),
            ("phase", lambda s: apply_phase_and(s, flag, self.layout.qubit("data", 0)), True),
        ]

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        for _, op, _ in self.ops():
            st = random_state(self.layout, rng, terms=12)
            assert abs(op(st).norm_sq() - 1.0) < 1e-10

    def test_self_inverse_ops(self):
        rng = np.random.default_rng(12)
        for name, op, self_inv in self.ops():
            if not self_inv:
                continue
            st = random_state(self.layout, rng, terms=12)
            assert max_deviation(op(op(st)), st) < 1e-12, name

    def test_permutation_inverse(self):
        rng = np.random.default_rng(13)
        st = random_state(self.layout, rng, terms=12)
        fwd = apply_permutation(st, "addr", lambda j: (j + 1) % 4)
        back = apply_permutation(fwd, "addr", lambda j: (j - 1) % 4)
        assert max_deviation(back, st) == 0.0

    def test_signed_permutations_never_grow_map(self):
        rng = np.random.default_rng(14)
        for name, op, _ in self.ops():
            if name == "w":
                continue
            st = random_state(self.layout, rng, terms=12)
            assert len(op(st).amps) <= len(st.amps), name

    def test_wall_growth_bounded(self):
        st = prepare_basis(self.layout, 0)
        out = apply_w(st, "addr")
        assert len(out.amps) <= len(st.amps) * 4


class TestWideLabels:
    """Layouts wider than int64 run the same array code on Python-int labels."""

    narrow = single(3)
    wide = RegisterLayout((("hi", 70), ("r", 3)))
    high = ((1 << 69) | 5) << 3

    def lift(self, state):
        return SparseState(self.wide, {self.high | l: a for l, a in state.amps.items()})

    def test_operations_agree_with_int64_labels(self):
        rng = np.random.default_rng(15)
        st = random_state(self.narrow, rng, terms=5)
        wide = self.lift(st)
        assert st.labels.dtype == np.int64 and wide.labels.dtype == object
        ops = [
            lambda s: apply_w(s, "r"),
            lambda s: inverse_qft(s, "r"),
            lambda s: apply_u0(s, "r"),
            lambda s: apply_permutation(s, "r", lambda j: (j + 3) % 8),
            lambda s: apply_phase_flip(s, 0),
        ]
        for op in ops:
            assert max_deviation(self.lift(op(st)), op(wide)) == 0.0
        a = measure_register(st, "r", np.random.default_rng(1))
        b = measure_register(wide, "r", np.random.default_rng(1))
        assert (a.value, a.probability) == (b.value, b.probability)
        assert max_deviation(self.lift(a.post_state), b.post_state) == 0.0

    def test_qram_cells_wider_than_int64(self):
        layout = RegisterLayout((("addr", 1), ("data", 66)))
        memory = [(1 << 65) | 3, 7]
        st = apply_w(prepare_basis(layout), "addr")
        out = qram_query(st, "addr", "data", memory)
        assert sorted(layout.extract(l, "data") for l in out.amps) == sorted(memory)
        with pytest.raises(ValueError):
            qram_query(st, "addr", "data", [1 << 66, 0])


def test_dump_format():
    layout = RegisterLayout((("a", 2), ("b", 1)))
    st = SparseState(layout, {0b101: 0.25 + 0j})
    line = st.dump()
    assert line == "10 1 0.25 0"
