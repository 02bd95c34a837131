import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpdm.qsim import (
    INT_LABEL_BITS,
    RegisterLayout,
    SimulationError,
    SparseState,
    apply_membership_mark,
    apply_permutation,
    apply_phase_and,
    apply_phase_flip,
    apply_u0,
    apply_w,
    check_bijection,
    inverse_qft,
    max_deviation,
    measure_register,
    memory_cells,
    negate_where,
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


THREE = RegisterLayout((("a", 2), ("b", 3), ("c", 2)))


def rowed_state(layout, register, rng):
    """A random state over half the contents of the other registers (at
    least three), where the first row (the register's contents at one such
    content) is full, the second holds one label and the rest are random."""
    off, size = layout.offset(register), 1 << layout.width(register)
    rests = np.unique(np.arange(1 << layout.total_width) & ~layout.mask(register))
    labels = []
    for i, rest in enumerate(rng.permutation(rests)[: max(3, len(rests) // 2)]):
        if i == 0:
            values = np.arange(size)
        elif i == 1:
            values = rng.integers(size, size=1)
        else:
            values = rng.choice(size, size=rng.integers(1, size + 1), replace=False)
        labels += [int(rest) | int(v) << off for v in values]
    amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    amps /= np.linalg.norm(amps)
    return SparseState(layout, dict(zip(labels, amps.tolist())))


def dense(state):
    """The state as a vector over all 2^total_width labels."""
    assert len(np.unique(state.labels)) == len(state.labels)
    vec = np.zeros(1 << state.layout.total_width, dtype=complex)
    vec[state.labels] = state.amplitudes
    return vec


def on_register(layout, register, matrix):
    """kron(I_hi, matrix, I_lo): matrix acting on one register."""
    lo = 1 << layout.offset(register)
    hi = 1 << (layout.total_width - layout.offset(register) - layout.width(register))
    return np.kron(np.eye(hi), np.kron(matrix, np.eye(lo)))


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

    @pytest.mark.parametrize("width", [1.0, 2.5, "1", None])
    def test_non_integer_width_refused(self, width):
        with pytest.raises(ValueError, match="^register 'r' width must be a non-negative integer"):
            RegisterLayout((("hi", 2), ("r", width)))

    def test_non_integer_qubit_refused(self):
        layout = RegisterLayout((("hi", 2), ("lo", 3)))
        assert layout.qubit("hi", np.int64(1)) == 4
        for i in (0.5, 1.0, "1"):
            with pytest.raises(ValueError, match="^register 'hi' has no qubit"):
                layout.qubit("hi", i)

    def test_non_integer_value_refused(self):
        layout = RegisterLayout((("hi", 2), ("lo", 3)))
        assert layout.replace(0, "hi", np.int64(3)) == 0b11000
        for value in (1.5, 1.0, "1"):
            with pytest.raises(ValueError, match=f"^value {value!r} does not fit register 'hi'$"):
                layout.replace(0, "hi", value)


class TestPrepareBasis:
    def test_all_zero(self):
        st = prepare_basis(single(3), 0)
        assert st.amps == {0: 1.0 + 0j}
        assert abs(st.norm_sq() - 1) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            prepare_basis(single(2), 4)

    @pytest.mark.parametrize("label", [4, 7, -1, 1 << 40])
    def test_mapping_label_outside_layout_refused(self, label):
        # a state built from a mapping obeys prepare_basis' fit rule, in its words
        message = f"^label {label} outside 2-bit space$"
        with pytest.raises(ValueError, match=message):
            SparseState(single(2), {0: 0.6 + 0j, label: 0.8 + 0j})
        with pytest.raises(ValueError, match=message):
            prepare_basis(single(2), label)
        assert SparseState(single(2), {3: 1.0 + 0j}).amps == {3: 1.0 + 0j}

    @pytest.mark.parametrize(
        "label, message",
        [
            (1.5, "^labels must be integers, got dtype float64$"),
            (1.0, "^labels must be integers, got dtype float64$"),
            (1 << 63, f"^label {1 << 63} outside 2-bit space$"),
            (1 << 70, f"^label {1 << 70} outside 2-bit space$"),
        ],
    )
    def test_non_integer_or_too_wide_label_refused(self, label, message):
        # labels obey memory_cells' rule: integers only, and an integer past
        # int64 is a misfit, not a bare OverflowError
        with pytest.raises(ValueError, match=message):
            SparseState(single(2), {0: 0.6 + 0j, label: 0.8 + 0j})
        with pytest.raises(ValueError, match=message):
            prepare_basis(single(2), label)

    def test_empty_mapping_is_the_empty_state(self):
        st = SparseState(single(2), {})
        assert st.labels.dtype == np.int64 and len(st.labels) == 0 and st.amps == {}

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

    @pytest.mark.parametrize("register", ["a", "b", "c"])
    def test_matches_dense_operator(self, register):
        # top, middle and bottom register, over several rests at once
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        wall = np.ones((1, 1))
        for _ in range(THREE.width(register)):
            wall = np.kron(wall, h)
        op = on_register(THREE, register, wall)
        rng = np.random.default_rng(21)
        for _ in range(5):
            st = rowed_state(THREE, register, rng)
            assert np.max(np.abs(dense(apply_w(st, register)) - op @ dense(st))) < 1e-12


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

    def test_non_bijection_refused_whatever_the_labels(self):
        # one label stays one label under j -> 0, but u is no bijection
        st = prepare_basis(single(2), 0b10)
        with pytest.raises(SimulationError, match="^permutation is not a bijection on the register$"):
            apply_permutation(st, "r", lambda j: 0)
        with pytest.raises(ValueError, match="^permutation output 4 does not fit register 'r'$"):
            apply_permutation(st, "r", lambda j: j + 1)


class TestInversePermutation:
    # a map on a register's values has an inverse exactly when
    # check_bijection accepts its images

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_accepts_permutations_refuses_changed_images(self, data):
        width = data.draw(st.integers(1, 8), label="width")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        images = np.random.default_rng(seed).permutation(1 << width)
        assert check_bijection(images, width, "r") is None
        j = data.draw(st.integers(0, len(images) - 1), label="changed image")
        other = data.draw(st.integers(0, len(images) - 2), label="image it copies")
        collided = images.copy()
        collided[j] = images[other + (other >= j)]
        with pytest.raises(SimulationError, match="^permutation is not a bijection on the register$"):
            check_bijection(collided, width, "r")
        bad = data.draw(
            st.one_of(st.integers(-(1 << 62), -1), st.integers(1 << width, (1 << 62) - 1)),
            label="out-of-range image",
        )
        outside = images.copy()
        outside[j] = bad
        with pytest.raises(ValueError, match=f"^permutation output {bad} does not fit register 'r'$"):
            check_bijection(outside, width, "r")

    @pytest.mark.parametrize(
        "images, error, message",
        [
            ([0, 0, 2, 3], SimulationError, "permutation is not a bijection on the register"),
            ([3, 2, 1, 4], ValueError, "permutation output 4 does not fit register 'r'"),
            ([1, -1, 2, 3], ValueError, "permutation output -1 does not fit register 'r'"),
            ([True] * 4, ValueError, "permutation outputs must be integers, got dtype bool"),
            ([0.0, 1.0, 2.0, 3.0], ValueError, "permutation outputs must be integers, got dtype float64"),
        ],
    )
    def test_refusals_as_apply_permutation(self, images, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            check_bijection(np.array(images), 2, "r")
        table = np.array(images)
        st = apply_w(prepare_basis(single(2)), "r")
        with pytest.raises(error, match=f"^{message}$"):
            apply_permutation(st, "r", lambda j: table[j])


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
        # a cell fits when c >> width is 0, so negative cells never fit;
        # widths up to 60 leave a data register room in a 62-bit layout
        width = data.draw(st.integers(1, 60), label="width")
        top = 1 << (width + 2)
        cells = data.draw(st.lists(st.integers(-3, top), min_size=1, max_size=6), label="cells")
        memory = np.array(cells, dtype=np.int64)
        fits = all(c >> width == 0 for c in cells)
        if fits:
            assert memory_cells(memory, len(cells), width) is memory
        else:
            with pytest.raises(ValueError, match=f"memory cells do not all fit {width} bits"):
                memory_cells(memory, len(cells), width)
        with pytest.raises(ValueError, match="memory cells must be integers"):
            memory_cells(memory.astype(float), len(cells), width)
        # Python ints past int64, which numpy holds as object or float64
        for wide in ([1 << 70, 0], [1 << 63, 0]):
            with pytest.raises(ValueError, match=f"memory cells do not all fit {width} bits"):
                memory_cells(wide, 2, width)

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

    def test_non_integer_position_refused(self):
        st = prepare_basis(self.layout)
        for zpart in ({1.5}, {1.0}, {1, 2.0}):
            with pytest.raises(ValueError, match=r"^position \S+ \(offset 0\) names no qubit of register 'data'$"):
                apply_membership_mark(st, "data", self.layout.qubit("flag"), frozenset(zpart))

    @pytest.mark.parametrize("offset", [0.5, 1.5])
    def test_non_integer_offset_refused(self, offset):
        st = prepare_basis(self.layout)
        with pytest.raises(ValueError, match=rf"^offset must be an integer, got {offset}$"):
            apply_membership_mark(st, "data", self.layout.qubit("flag"), frozenset({2}), offset=offset)

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


class TestNegateWhere:
    def test_negates_masked_labels_on_control_branches(self):
        rng = np.random.default_rng(4)
        st = random_state(THREE, rng, terms=60)
        mask = rng.integers(0, 2, size=len(st.labels)).astype(bool)
        for control in (None, 0, 5):
            out = negate_where(st, mask, control)
            hit = mask if control is None else mask & ((st.labels >> control & 1) == 1)
            assert np.array_equal(out.labels, st.labels)
            assert np.array_equal(out.amplitudes, np.where(hit, -st.amplitudes, st.amplitudes))


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

    @pytest.mark.parametrize("register", ["a", "b", "c"])
    def test_matches_dense_operator(self, register):
        size = 1 << THREE.width(register)
        f, m = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        idft = np.exp(-2j * np.pi * f * m / size) / math.sqrt(size)
        op = on_register(THREE, register, idft)
        rng = np.random.default_rng(22)
        for _ in range(5):
            st = rowed_state(THREE, register, rng)
            assert np.max(np.abs(dense(inverse_qft(st, register)) - op @ dense(st))) < 1e-12


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
    """Labels of the widest layout admitted, with their top bits set, run
    the same int64 array code as narrow ones."""

    narrow = single(3)
    wide = RegisterLayout((("hi", INT_LABEL_BITS - 3), ("r", 3)))
    high = ((1 << (INT_LABEL_BITS - 4)) | 5) << 3

    def lift(self, state):
        return SparseState(self.wide, {self.high | l: a for l, a in state.amps.items()})

    def test_operations_agree_with_int64_labels(self):
        rng = np.random.default_rng(15)
        st = random_state(self.narrow, rng, terms=5)
        wide = self.lift(st)
        assert st.labels.dtype == wide.labels.dtype == np.int64
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

    def test_layout_wider_than_int64_labels_refused(self):
        # 62 bits is the widest layout; one qubit more is refused where the
        # layout is made, so no label can overflow an int64
        layout = RegisterLayout((("addr", 1), ("data", INT_LABEL_BITS - 1)))
        memory = [(1 << 60) | 3, 7]
        out = qram_query(apply_w(prepare_basis(layout), "addr"), "addr", "data", memory)
        assert sorted(layout.extract(l, "data") for l in out.amps) == sorted(memory)
        with pytest.raises(ValueError, match="memory cells do not all fit 61 bits"):
            qram_query(out, "addr", "data", [1 << 61, 0])
        with pytest.raises(ValueError, match="^layout of 63 qubits is wider than INT_LABEL_BITS = 62$"):
            RegisterLayout((("addr", 1), ("data", INT_LABEL_BITS)))
        with pytest.raises(ValueError, match="^layout of 73 qubits"):
            RegisterLayout((("hi", 70), ("r", 3)))


def test_max_deviation_refuses_different_layouts():
    # label 1 is b = 1 in one layout and r = 1 in the other
    two = RegisterLayout((("a", 1), ("b", 1)))
    with pytest.raises(ValueError, match="^states over different layouts"):
        max_deviation(prepare_basis(two, 1), prepare_basis(single(2), 1))
    assert max_deviation(prepare_basis(single(2), 1), prepare_basis(single(2), 1)) == 0.0


def test_dump_format():
    layout = RegisterLayout((("a", 2), ("b", 1)))
    st = SparseState(layout, {0b101: 0.25 + 0j})
    line = st.dump()
    assert line == "10 1 0.25 0"
