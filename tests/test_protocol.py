import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qpdm import qsim
from qpdm.dataset import PartitionedView, TransactionDatabase, itemset, vertical_partition
from qpdm.protocol import (
    AUX_REGISTERS,
    EncryptionKey,
    KEY_FAMILIES,
    MAX_DUMP_EVENTS,
    Transcript,
    all_keys,
    build_qram,
    controlled_grover,
    make_key,
    oracle_call_events,
    oracle_layout,
    reference_phase_oracle,
    run_oracle_u,
    sample_key,
    transcript_total,
)
from qpdm.qsim import check_bijection

DB8 = TransactionDatabase(
    4, ("1100", "1111", "0110", "1010", "0011", "1101", "0000", "1011"), 8
)


def make_parties(db, l, key=None, key_holder="bob"):
    n = (db.n_transactions - 1).bit_length()
    alice_view, bob_view = vertical_partition(db, l)
    alice = build_qram(alice_view, n)
    bob = build_qram(bob_view, n)
    if key is not None:
        if key_holder == "bob":
            bob = bob.with_key(key)
        else:
            alice = alice.with_key(key)
    return alice, bob


def address_state(layout, amps_by_j):
    off = layout.offset("address")
    return qsim.SparseState(layout, {j << off: complex(a) for j, a in amps_by_j.items()})


def random_address_state(layout, rng):
    n = layout.width("address")
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    vec /= np.linalg.norm(vec)
    return address_state(layout, dict(enumerate(vec)))


def address_vector(state):
    layout = state.layout
    off = layout.offset("address")
    vec = np.zeros(1 << layout.width("address"), dtype=complex)
    for label, a in state.amps.items():
        assert label & ~layout.mask("address") & ~layout.mask("counting") == 0
        vec[(label >> off) & ((1 << layout.width("address")) - 1)] += a
    return vec


# The registers a gate-level oracle call loads rows into, which the plan's
# layout does not hold: a label carries them only within a step.
DATA_REGISTERS = ("bob_data", "alice_data")


def gate_layout(layout, l, k):
    """``layout`` (an oracle_layout) with Bob's and Alice's data registers,
    k - l and l qubits, between the address and the flags."""
    registers = list(layout.registers)
    at = registers.index(("address", layout.width("address"))) + 1
    registers[at:at] = [("bob_data", k - l), ("alice_data", l)]
    return qsim.RegisterLayout(tuple(registers))


def relabel(state, layout):
    """``state`` over ``layout``: every register of the target that the
    source has is copied, the others read zero; the source's data
    registers must be zero on every label."""
    source = state.layout
    for name in DATA_REGISTERS:
        if name in dict(source.registers):
            assert not (state.labels & source.mask(name)).any(), f"{name} holds a load between steps"
    labels = np.zeros_like(state.labels)
    for name, _ in layout.registers:
        if name in dict(source.registers):
            labels |= source.extract(state.labels, name) << layout.offset(name)
    return qsim.SparseState.from_arrays(layout, labels, state.amplitudes)


def party_cells(party):
    """A party's QRAM cells: row j of its view as an integer, leftmost
    column most significant."""
    return [int("".join(map(str, row)), 2) for row in party.bits.tolist()]


def gate_reference_oracle_u(
    state, initiator, responder, z, transcript, control=None, record=None
):
    """The seven-step oracle call built gate by gate from the qsim primitives,
    each step a primitive call that builds its own state: the reference
    run_oracle_u is pinned to. It runs on ``state``'s layout widened by the
    two data registers, loads each party's rows from cells built from its
    view's bits, and maps every step's state back to ``state``'s layout,
    checking first that the data registers are zero."""
    z = itemset(z, initiator.width + responder.width)
    if initiator.role == responder.role:
        raise ValueError("initiator and responder must have distinct roles")
    key = responder.key
    if key is None:
        raise ValueError("responder holds no encryption key")
    plan_layout = state.layout
    n = plan_layout.width("address")
    if len(responder.bits) != 1 << n or len(initiator.bits) != 1 << n:
        raise ValueError("party QRAM size does not match the address register")
    alice = initiator if initiator.role == "alice" else responder
    layout = gate_layout(plan_layout, alice.split_point, initiator.width + responder.width)
    if control is not None:  # the same qubit of the same register in the wider layout
        name = next(name for name, _ in plan_layout.registers if plan_layout.mask(name) >> control & 1)
        control += layout.offset(name) - plan_layout.offset(name)
    state = relabel(state, layout)

    def aux_dirty(state):
        mask = 0
        for name in ("bob_data", "alice_data", "b_flag", "a_flag", "kick_ancilla"):
            mask |= state.layout.mask(name)
        return bool((state.labels & mask).any())

    def registers(party):
        return ("alice_data", "a_flag") if party.role == "alice" else ("bob_data", "b_flag")

    if aux_dirty(state):
        raise ValueError("auxiliary registers must be zero at oracle entry")

    init_items, init_off = initiator.item_part(z)
    resp_items, resp_off = responder.item_part(z)
    init_data, init_flag = registers(initiator)
    resp_data, resp_flag = registers(responder)
    init_fq = layout.qubit(init_flag)
    resp_fq = layout.qubit(resp_flag)
    init_cells, resp_cells = party_cells(initiator), party_cells(responder)

    def snap(tag):
        if record is not None:
            record.append((tag, relabel(state, plan_layout)))

    def query(state, cells, data):
        return qsim.qram_query(state, "address", data, cells)

    state = qsim.apply_permutation(state, "address", key.apply)
    snap("step1")

    state = query(state, resp_cells, resp_data)
    state = qsim.apply_membership_mark(state, resp_data, resp_fq, resp_items, resp_off)
    state = query(state, resp_cells, resp_data)
    snap("step2")

    state = query(state, init_cells, init_data)
    state = qsim.apply_membership_mark(state, init_data, init_fq, init_items, init_off)
    state = query(state, init_cells, init_data)
    snap("step3")

    state = qsim.apply_phase_and(state, init_fq, resp_fq, control=control)
    snap("step4")

    state = query(state, init_cells, init_data)
    state = qsim.apply_membership_mark(state, init_data, init_fq, init_items, init_off)
    state = query(state, init_cells, init_data)
    snap("step5")

    state = query(state, resp_cells, resp_data)
    state = qsim.apply_membership_mark(state, resp_data, resp_fq, resp_items, resp_off)
    state = query(state, resp_cells, resp_data)
    snap("step6")

    state = qsim.apply_permutation(state, "address", key.invert)
    snap("step7")

    if aux_dirty(state):
        raise qsim.SimulationError("auxiliary registers failed to disentangle")
    transcript.log_calls(initiator.role, n)
    return relabel(state, plan_layout)


class TestKeys:
    def test_bitflip_zero_is_identity(self):
        key = make_key("bitflip", 0, 3)
        assert all(key.apply(j) == j for j in range(8))

    def test_modadd_wraparound(self):
        key = make_key("modadd", 1, 2)
        assert key.apply(3) == 0

    def test_cyclic_definition(self):
        # j1 j2 j3 -> j2 j3 j1
        key = make_key("cyclic", 1, 3)
        assert key.apply(0b110) == 0b101
        assert key.apply(0b100) == 0b001

    def test_bijection_round_trip(self):
        rng = np.random.default_rng(0)
        for family, n in (("bitflip", 5), ("modadd", 5), ("cyclic", 5)):
            for _ in range(10):
                key = sample_key(family, n, rng)
                for j in rng.integers(0, 32, size=100):
                    assert key.invert(key.apply(int(j))) == int(j)
                    assert key.apply(key.invert(int(j))) == int(j)

    @pytest.mark.parametrize("family", KEY_FAMILIES)
    def test_every_key_is_a_bijection_on_the_address_register(self, family):
        # a count applies no key and checks no bijection, since a key is a
        # bijection wherever it is made: that fact is proved here, for
        # every key of each width up to 10
        for n in range(1, 11):
            addresses = np.arange(1 << n)
            for key in all_keys(family, n):
                assert check_bijection(key.apply(addresses), n, "address") is None, key

    def test_inverse_on_label_arrays(self):
        # run_oracle_u applies keys to whole int64 arrays, and the gate
        # reference inverts them on int64 register contents
        for n in range(1, 6):
            a = np.arange(1 << n, dtype=np.int64)
            for family in KEY_FAMILIES:
                for key in all_keys(family, n):
                    back = key.invert(key.apply(a))
                    assert back.dtype == a.dtype
                    assert np.array_equal(back, a), key

    def test_out_of_range_parameter(self):
        with pytest.raises(ValueError):
            make_key("bitflip", 8, 3)
        with pytest.raises(ValueError):
            make_key("cyclic", 4, 4)
        with pytest.raises(ValueError):
            make_key("unknown", 0, 3)
        # the rules are the constructor's, so a key built directly obeys them
        for args, message in (
            (("foo", 1, 3), "unknown key family 'foo'"),
            (("cyclic", 0, 0), "address width must be at least 1"),
            (("bitflip", 0, 0), "address width must be at least 1"),
            (("bitflip", 8, 3), r"bitflip parameter 8 outside \[0, 8\)"),
            (("bitflip", -1, 3), r"bitflip parameter -1 outside \[0, 8\)"),
            (("modadd", 8, 3), r"modadd parameter 8 outside \[0, 8\)"),
            (("modadd", -1, 3), r"modadd parameter -1 outside \[0, 8\)"),
            (("cyclic", 3, 3), r"cyclic parameter 3 outside \[0, 3\)"),
            (("cyclic", -1, 3), r"cyclic parameter -1 outside \[0, 3\)"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                EncryptionKey(*args)
        assert make_key is EncryptionKey

    def test_non_integer_parameter_or_width_refused(self):
        # refused where the key is made, not by apply's numpy ufunc or by
        # 1 << n; numpy integers pass, and so does bool, as a Python int
        for args, message in (
            (("modadd", 1.5, 3), "modadd parameter must be an integer, got 1.5"),
            (("bitflip", "1", 3), "bitflip parameter must be an integer, got '1'"),
            (("bitflip", 1, 2.0), "address width must be an integer, got 2.0"),
            (("cyclic", 1, 3.5), "address width must be an integer, got 3.5"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                make_key(*args)
        # the key space and the QRAM check a width the way the key does
        rng = np.random.default_rng(0)
        for call in (
            lambda: sample_key("bitflip", 2.5, rng),
            lambda: sample_key("cyclic", 2.5, rng),
            lambda: all_keys("bitflip", 2.5),
            lambda: build_qram(vertical_partition(DB8, 2)[0], 2.5),
        ):
            with pytest.raises(ValueError, match="^address width must be an integer, got 2.5$"):
                call()
        key = make_key("modadd", np.int64(5), np.int32(3))
        assert key.apply(np.arange(8)).tolist() == [5, 6, 7, 0, 1, 2, 3, 4]
        assert make_key("bitflip", True, 3).apply(0) == 1

    def test_sample_uniformity_bitflip(self):
        rng = np.random.default_rng(1)
        counts = np.zeros(8)
        for _ in range(10_000):
            counts[sample_key("bitflip", 3, rng).parameter] += 1
        assert np.all(np.abs(counts / 10_000 - 1 / 8) < 0.02)

    def test_sample_determinism(self):
        k1 = sample_key("modadd", 4, np.random.default_rng(42))
        k2 = sample_key("modadd", 4, np.random.default_rng(42))
        assert k1 == k2

    def test_cyclic_sample_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert 0 <= sample_key("cyclic", 4, rng).parameter < 4

    def test_image_uniformity_bitflip_modadd(self):
        # enumerating all parameters, any fixed j0 maps onto the full space
        for family in ("bitflip", "modadd"):
            for n in (2, 3, 4):
                for j0 in range(1 << n):
                    images = sorted(key.apply(j0) for key in all_keys(family, n))
                    assert images == list(range(1 << n))

    def test_cyclic_orbit_is_small(self):
        # the cyclic family cannot be uniform: the orbit of j0 has size <= n
        n = 4
        images = {key.apply(0b0001) for key in all_keys("cyclic", n)}
        assert len(images) <= n


class TestBuildQram:
    def test_copies_rows(self):
        alice, bob = make_parties(DB8, 2)
        assert np.array_equal(bob.bits, DB8.bits[:, 2:])
        assert party_cells(bob) == [int(r[2:], 2) for r in DB8.rows]
        assert party_cells(alice) == [int(r[:2], 2) for r in DB8.rows]
        assert bob.width == 2
        assert bob.address_width == 3

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_contains_is_the_and_of_the_part_columns(self, data):
        # widths up to 70 and views cut from a wider matrix, so the view's
        # rows are not contiguous
        width = data.draw(st.integers(1, 70), label="width")
        n = data.draw(st.integers(0, 4), label="n")
        other = data.draw(st.integers(1, 3), label="the other party's columns")
        role = data.draw(st.sampled_from(["alice", "bob"]), label="role")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        wide = rng.integers(0, 2, size=(1 << n, other + width), dtype=np.uint8)
        db = TransactionDatabase.from_bits(wide, 1 << n)
        split = width if role == "alice" else other
        view = PartitionedView(role, split, db)
        assert view.width == width
        assert not view.bits.flags.c_contiguous or n == 0
        z = frozenset(data.draw(st.sets(st.integers(1, other + width), min_size=1, max_size=4), label="z"))

        column = view.contains(z)
        assert column.dtype == bool and not column.flags.writeable
        part = {i for i in z if (i <= split) == (role == "alice")}
        assert column.tolist() == [all(row[i - 1] == "1" for i in part) for row in db.rows]

    def test_cells_that_do_not_fit_refused(self):
        # bits that are not all 0/1 are refused where the database is made,
        # and a view is cut only from a database, never from a bare matrix
        bits = np.array([[2, 0], [0, 1]], dtype=np.uint8)
        with pytest.raises(ValueError, match="^bits row 0 holds a value other than 0 or 1$"):
            TransactionDatabase.from_bits(bits, 2)
        with pytest.raises(ValueError, match="2-d uint8"):
            TransactionDatabase.from_bits(bits.astype(np.int64), 2)
        with pytest.raises(TypeError, match="cut from a TransactionDatabase"):
            PartitionedView("alice", 1, bits)

    def test_cells_built_without_a_check_pass(self, monkeypatch):
        # the database's invariants make every cell fit: a party keeps its
        # view's column slice of the database's matrix, uncopied, and no
        # party passes over its cells
        def refuse(*args, **kwargs):
            raise AssertionError("build_qram passed over the cells")

        monkeypatch.setattr(qsim, "memory_cells", refuse)
        alice, bob = (build_qram(view, 3) for view in vertical_partition(DB8, 2))
        assert np.shares_memory(alice.bits, DB8.bits) and np.shares_memory(bob.bits, DB8.bits)
        assert party_cells(alice) == [int(r[:2], 2) for r in DB8.rows]
        assert party_cells(bob) == [int(r[2:], 2) for r in DB8.rows]

    def test_cells_read_only_and_shared_by_with_key(self):
        _, bob = make_parties(DB8, 2)
        with pytest.raises(ValueError):
            bob.bits[0, 0] = 1
        keyed = bob.with_key(make_key("bitflip", 5, 3))
        assert keyed.key == make_key("bitflip", 5, 3) and bob.key is None
        assert keyed.with_key(None).key is None
        # a keyed copy shares the database and its bit matrix, at one split,
        # and its repr shows no key
        for copy in (keyed, keyed.with_key(None)):
            assert (copy.role, copy.split_point) == (bob.role, bob.split_point) and copy.db is bob.db
            assert np.shares_memory(copy.bits, bob.bits) and np.array_equal(copy.bits, bob.bits)
            assert repr(copy) == repr(bob)

    def test_unpadded_rejected(self):
        db = TransactionDatabase(3, ("101",) * 3, 3)
        view, _ = vertical_partition(db, 1)
        with pytest.raises(ValueError):
            build_qram(view, 2)

    def test_roundtrip_through_qram_query(self):
        # the gate reference's query loads row j of the view into the data register
        alice, bob = make_parties(DB8, 2)
        layout = gate_layout(oracle_layout(3, 2, 4), 2, 4)
        for j in range(8):
            st = qsim.prepare_basis(layout, layout.replace(0, "address", j))
            out = qsim.qram_query(st, "address", "bob_data", party_cells(bob))
            label = next(iter(out.amps))
            assert layout.extract(label, "bob_data") == int(DB8.rows[j][2:], 2)


class TestReferenceOracle:
    def test_single_flip(self):
        db = TransactionDatabase(2, ("00", "01", "00", "11"), 4)
        signs = reference_phase_oracle(db, frozenset({1, 2}), lambda j: j)
        assert signs.tolist() == [1, 1, 1, -1]

    def test_flip_count_is_key_invariant(self):
        rng = np.random.default_rng(3)
        z = frozenset({1, 3})
        base = reference_phase_oracle(DB8, z, lambda j: j)
        flips = int((base == -1).sum())
        for family in ("bitflip", "modadd", "cyclic"):
            for key in all_keys(family, 3):
                signs = reference_phase_oracle(DB8, z, key.apply)
                assert int((signs == -1).sum()) == flips
                assert sorted(signs.tolist()) == sorted(base.tolist())

    def test_empty_itemset_rejected(self):
        with pytest.raises(ValueError, match="^empty itemset$"):
            reference_phase_oracle(DB8, frozenset(), lambda j: j)

    def test_items_outside_the_columns_refused(self):
        # an item 0 would read the last column, an item k + 1 past it
        for z, message in (({0}, "^item indices are 1-based$"), ({5}, r"^item index outside 1\.\.4$")):
            with pytest.raises(ValueError, match=message):
                reference_phase_oracle(DB8, frozenset(z), lambda j: j)


class TestOracle:
    def run(self, db, l, z, key, state=None, control=None, key_holder="bob", **kw):
        alice, bob = make_parties(db, l, key, key_holder)
        n = alice.address_width
        layout = oracle_layout(n, l, db.n_items, p=0)
        if state is None:
            state = qsim.apply_w(qsim.prepare_basis(layout), "address")
        transcript = Transcript()
        if key_holder == "bob":
            out = run_oracle_u(state, alice, bob, z, transcript, control=control, **kw)
        else:
            out = run_oracle_u(state, bob, alice, z, transcript, control=control, **kw)
        return state, out, transcript

    def test_unsupported_itemset_is_identity(self):
        db = TransactionDatabase(2, ("10", "01", "10", "00"), 4)
        key = make_key("bitflip", 3, 2)
        st, out, _ = self.run(db, 1, frozenset({1, 2}), key)
        assert qsim.max_deviation(st, out) == 0.0

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            rows = tuple("".join(rng.choice(["0", "1"], size=4)) for _ in range(8))
            db = TransactionDatabase(4, rows, 8)
            z = frozenset({1, 4}) if trial % 2 else frozenset({2, 3, 4})
            key = make_key("bitflip", 5, 3)
            alice, bob = make_parties(db, 2, key)
            layout = oracle_layout(3, 2, 4)
            st = random_address_state(layout, rng)
            out = run_oracle_u(st, alice, bob, z, Transcript())
            signs = reference_phase_oracle(db, z, key.apply)
            off = layout.offset("address")
            expected = qsim.SparseState(
                layout, {l: a * signs[l >> off] for l, a in st.amps.items()}
            )
            assert qsim.max_deviation(out, expected) <= 1e-12

    def test_all_key_families_match_reference(self):
        rng = np.random.default_rng(5)
        rows = tuple("".join(rng.choice(["0", "1"], size=3)) for _ in range(4))
        db = TransactionDatabase(3, rows, 4)
        z = frozenset({1, 3})
        layout = oracle_layout(2, 1, 3)
        st = random_address_state(layout, rng)
        off = layout.offset("address")
        for family in ("bitflip", "modadd", "cyclic"):
            for key in all_keys(family, 2):
                alice, bob = make_parties(db, 1, key)
                out = run_oracle_u(st, alice, bob, z, Transcript())
                signs = reference_phase_oracle(db, z, key.apply)
                expected = qsim.SparseState(
                    layout, {l: a * signs[l >> off] for l, a in st.amps.items()}
                )
                assert qsim.max_deviation(out, expected) <= 1e-12

    def test_mirrored_initiator_matches_reference(self):
        # Bob initiates, Alice encrypts with her own key; same diagonal c o u.
        rng = np.random.default_rng(6)
        z = frozenset({2, 3})
        key = make_key("modadd", 3, 3)
        layout = oracle_layout(3, 2, 4)
        st = random_address_state(layout, rng)
        alice, bob = make_parties(DB8, 2, key, key_holder="alice")
        out = run_oracle_u(st, bob, alice, z, Transcript())
        signs = reference_phase_oracle(DB8, z, key.apply)
        off = layout.offset("address")
        expected = qsim.SparseState(
            layout, {l: a * signs[l >> off] for l, a in st.amps.items()}
        )
        assert qsim.max_deviation(out, expected) <= 1e-12

    def test_zero_control_is_exact_identity(self):
        rng = np.random.default_rng(7)
        key = make_key("cyclic", 2, 3)
        layout = oracle_layout(3, 2, 4)
        st = random_address_state(layout, rng)  # control qubit absent -> 0
        alice, bob = make_parties(DB8, 2, key)
        ctrl = layout.qubit("kick_ancilla")  # any qubit fixed at 0 works
        out = run_oracle_u(st, alice, bob, frozenset({1, 3}), Transcript(), control=ctrl)
        assert qsim.max_deviation(st, out) == 0.0

    def test_dirty_aux_rejected(self):
        key = make_key("bitflip", 1, 3)
        alice, bob = make_parties(DB8, 2, key)
        layout = oracle_layout(3, 2, 4)
        dirty = qsim.prepare_basis(layout, layout.replace(0, "b_flag", 1))
        with pytest.raises(ValueError):
            run_oracle_u(dirty, alice, bob, frozenset({1}), Transcript())

    def test_empty_itemset_rejected(self):
        key = make_key("bitflip", 1, 3)
        alice, bob = make_parties(DB8, 2, key)
        layout = oracle_layout(3, 2, 4)
        st = qsim.prepare_basis(layout)
        with pytest.raises(ValueError, match="^empty itemset$"):
            run_oracle_u(st, alice, bob, frozenset(), Transcript())

    def test_missing_key_rejected(self):
        alice, bob = make_parties(DB8, 2)
        layout = oracle_layout(3, 2, 4)
        st = qsim.prepare_basis(layout)
        with pytest.raises(ValueError):
            run_oracle_u(st, alice, bob, frozenset({1}), Transcript())

    def test_layout_does_not_depend_on_the_views(self):
        # a label holds no data register, so a layout asked for with another
        # split or item count is the same layout, and a call on it reads z
        # = {3} from Bob's view and marks the reference's five rows
        alice, bob = make_parties(DB8, 2, make_key("bitflip", 0, 3))
        z = frozenset({3})
        signs = reference_phase_oracle(DB8, z, lambda j: j)
        assert (signs == -1).sum() == 5
        layout = oracle_layout(3, 2, 5)
        assert layout == oracle_layout(3, 1, 70) == oracle_layout(3, 2, 4)
        assert layout.total_width == 3 + 3
        st = address_state(layout, {j: 0.5 for j in range(8)})
        out = run_oracle_u(st, alice, bob, z, Transcript())
        assert np.array_equal(out.amplitudes * 2, signs)

    def test_no_pass_over_the_cells(self, monkeypatch):
        # the views' cells are 0/1 where the database is made; a call
        # gathers its containment columns at u(j) and checks nothing else
        key = make_key("modadd", 3, 3)
        z = frozenset({2, 3})
        alice, bob = make_parties(DB8, 2, key)
        layout = oracle_layout(3, 2, 4)
        st = random_address_state(layout, np.random.default_rng(10))

        def refuse(*args, **kwargs):
            raise AssertionError("an oracle call passed over the cells")

        monkeypatch.setattr(qsim, "memory_cells", refuse)
        out = run_oracle_u(st, alice, bob, z, Transcript())
        signs = reference_phase_oracle(DB8, z, key.apply)
        off = layout.offset("address")
        expected = qsim.SparseState(layout, {l: a * signs[l >> off] for l, a in st.amps.items()})
        assert qsim.max_deviation(out, expected) <= 1e-12

    @pytest.mark.parametrize(
        "image, error, message",
        [
            # 0 and 1 both go to 0: no bijection
            (lambda j: j & ~1, qsim.SimulationError, "permutation is not a bijection on the register"),
            # 7 goes to 8, outside the 3-qubit register
            (lambda j: j + 1, ValueError, "permutation output 8 does not fit register 'address'"),
        ],
    )
    @pytest.mark.parametrize("addresses", [range(8), [3]])
    def test_key_that_is_no_permutation_refused(self, monkeypatch, image, error, message, addresses):
        # the key's 2^n images are checked, whichever addresses the state holds
        alice, bob = make_parties(DB8, 2, make_key("bitflip", 0, 3))
        monkeypatch.setattr(EncryptionKey, "apply", lambda self, j: image(j))
        layout = oracle_layout(3, 2, 4)
        st = address_state(layout, {j: 1 / math.sqrt(len(addresses)) for j in addresses})
        transcript, record = Transcript(), []
        with pytest.raises(error, match=f"^{message}$"):
            run_oracle_u(st, alice, bob, frozenset({1}), transcript, record=record)
        assert transcript.records == [] and record == []

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_label_order_matches_gates(self, data):
        # the phase is formed per address and gathered onto the labels: every
        # address in any label order, with the control set on every other
        # label, must give the gate-level reference's arrays after every
        # step. k is as wide as the reference's layout, with its data
        # registers, can hold: n + k + 4 <= 62
        n = data.draw(st.integers(1, 5), label="n")
        k = data.draw(st.integers(2, 58 - n), label="k")
        split = data.draw(st.integers(1, k - 1), label="split")
        z = frozenset(data.draw(st.sets(st.integers(1, k), min_size=1, max_size=3), label="z"))
        family = data.draw(st.sampled_from(KEY_FAMILIES), label="family")
        controlled = data.draw(st.booleans(), label="controlled")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        bits = rng.random((1 << n, k)) < 0.8
        db = TransactionDatabase(k, tuple("".join("01"[int(b)] for b in row) for row in bits), 1 << n)
        key = sample_key(family, n, rng)
        alice, bob = make_parties(db, split, key)
        layout = oracle_layout(n, split, k, p=1 if controlled else 0)
        control = layout.qubit("counting", 0) if controlled else None
        off = layout.offset("address")
        labels = [int(j) << off for j in rng.permutation(1 << n)]
        if controlled:
            labels += [layout.replace(label, "counting", 1) for label in labels[::2]]
        vec = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
        state = qsim.SparseState(layout, dict(zip(labels, vec.tolist())))

        want_record, got_record = [], []
        want = gate_reference_oracle_u(state, alice, bob, z, Transcript(), control, want_record)
        got = run_oracle_u(state, alice, bob, z, Transcript(), control, got_record)
        for (tag, a), (_, b) in zip(got_record + [("exit", got)], want_record + [("exit", want)]):
            assert np.array_equal(a.labels, b.labels), tag
            assert a.amplitudes.tobytes() == b.amplitudes.tobytes(), tag
        assert [tag for tag, _ in got_record] == [tag for tag, _ in want_record]

    def test_control_inside_the_address_register_refused(self):
        # the phase of address j is read at u(j): a control on an address
        # qubit would be read before the key, so it is refused as apply_u0
        # refuses one inside the register it reflects
        alice, bob = make_parties(DB8, 2, make_key("modadd", 1, 3))
        layout = oracle_layout(3, 2, 4, p=1)
        state = random_address_state(layout, np.random.default_rng(11))
        transcript, record = Transcript(), []
        for i in range(3):
            with pytest.raises(ValueError, match="^control qubit must lie outside the address register$"):
                run_oracle_u(state, alice, bob, frozenset({1, 3}), transcript, layout.qubit("address", i), record)
        assert transcript.records == [] and record == []

    @pytest.mark.parametrize("qubit", [0.5, -1, "width", 70])
    @pytest.mark.parametrize(
        "call",
        [
            lambda st, q, t: qsim.negate_where(st, np.ones(len(st.labels), dtype=bool), q),
            lambda st, q, t: qsim.apply_u0(st, "address", control=q),
            lambda st, q, t: qsim.apply_phase_and(st, q, st.layout.qubit("b_flag")),
            lambda st, q, t: qsim.apply_phase_flip(st, q),
            lambda st, q, t: qsim.apply_membership_mark(st, "address", q, frozenset({1})),
            lambda st, q, t: run_oracle_u(st, *make_parties(DB8, 2, make_key("modadd", 1, 3)), frozenset({1}), t, q),
        ],
        ids=["negate_where", "apply_u0", "apply_phase_and", "apply_phase_flip", "apply_membership_mark",
             "run_oracle_u"],
    )
    def test_qubit_outside_the_layout_refused(self, call, qubit):
        # one check decides every qubit position: an integer in the layout,
        # refused before any label is formed or a call is logged
        layout = oracle_layout(3, 2, 4, p=1)
        qubit = layout.total_width if qubit == "width" else qubit
        transcript = Transcript()
        message = rf"^\w+ qubit must be an integer in \[0, 7\), got {qubit!r}$"
        with pytest.raises(ValueError, match=message):
            call(random_address_state(layout, np.random.default_rng(13)), qubit, transcript)
        assert transcript.records == []

    @pytest.mark.parametrize("family", KEY_FAMILIES)
    @pytest.mark.parametrize("width", [2, 4])
    def test_key_of_another_width_refused(self, family, width):
        # a 2-bit bit-flip key would run on 3 qubits with address 5's four
        # images {4, 5, 6, 7}, half the space: every family is refused at
        # entry, before a label is formed or the call is logged
        alice, bob = make_parties(DB8, 2, make_key(family, 1, width))
        layout = oracle_layout(3, 2, 4)
        state = random_address_state(layout, np.random.default_rng(12))
        transcript, record = Transcript(), []
        message = f"^key of width {width} does not fit the 3-qubit address register$"
        with pytest.raises(ValueError, match=message):
            run_oracle_u(state, alice, bob, frozenset({1, 3}), transcript, record=record)
        assert transcript.records == [] and record == []

    def test_views_not_cut_from_one_database_at_one_split_refused(self):
        # Alice's view split at 1 and Bob's at 3 leave item 2 to neither
        # party, so every address would be negated though one row holds it
        db = TransactionDatabase(4, ("1000", "0100", "0010", "0001"), 4)
        twin = TransactionDatabase.from_bits(db.bits.copy(), db.original_count)
        assert twin == db and twin is not db
        three_real = TransactionDatabase(2, ("11", "10", "01", "00"), 3)
        four_real = TransactionDatabase(2, ("11", "10", "01", "11"), 4)
        key = make_key("bitflip", 1, 2)
        pairs = (
            (vertical_partition(db, 1)[0], vertical_partition(db, 3)[1], frozenset({2})),
            (vertical_partition(db, 2)[0], vertical_partition(twin, 2)[1], frozenset({1, 3})),
            (vertical_partition(three_real, 1)[0], vertical_partition(four_real, 1)[1], frozenset({1, 2})),
        )
        layout = oracle_layout(2, 1, 2)
        state = address_state(layout, {j: 0.5 for j in range(4)})
        message = "^parties are not cut from one database at one split$"
        for alice_view, bob_view, z in pairs:
            alice, bob = build_qram(alice_view, 2), build_qram(bob_view, 2)
            for init, resp in ((alice, bob.with_key(key)), (bob, alice.with_key(key))):
                transcript, record = Transcript(), []
                with pytest.raises(ValueError, match=message):
                    run_oracle_u(state, init, resp, z, transcript, record=record)
                assert transcript.records == [] and record == []

    def test_transcript_shape(self):
        key = make_key("bitflip", 6, 3)
        _, _, transcript = self.run(DB8, 2, frozenset({2, 4}), key)
        assert [(e.direction, e.qubits, e.step) for e in transcript.events] == [
            ("alice_to_bob", 3, "step1"),
            ("bob_to_alice", 4, "step3"),
            ("alice_to_bob", 4, "step6"),
            ("bob_to_alice", 3, "step7"),
        ]

    def test_mirrored_transcript_starts_with_bob(self):
        key = make_key("bitflip", 6, 3)
        _, _, transcript = self.run(DB8, 2, frozenset({2, 4}), key, key_holder="alice")
        assert [e.direction for e in transcript.events] == [
            "bob_to_alice",
            "alice_to_bob",
            "bob_to_alice",
            "alice_to_bob",
        ]

    def test_one_sided_itemset_degenerates_gracefully(self):
        # Z entirely on Bob's side: Alice's flag is vacuously 1 on every row
        key = make_key("bitflip", 2, 3)
        z = frozenset({3, 4})
        alice, bob = make_parties(DB8, 2, key)
        layout = oracle_layout(3, 2, 4)
        rng = np.random.default_rng(9)
        st = random_address_state(layout, rng)
        out = run_oracle_u(st, alice, bob, z, Transcript())
        signs = reference_phase_oracle(DB8, z, key.apply)
        off = layout.offset("address")
        expected = qsim.SparseState(
            layout, {l: a * signs[l >> off] for l, a in st.amps.items()}
        )
        assert qsim.max_deviation(out, expected) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_reference_property(self, data):
        # k up to 70 items: the layout holds no data register, so its
        # width, n + 3 or n + 4, does not grow with k
        n = data.draw(st.integers(1, 6), label="n")
        k = data.draw(st.integers(2, 70), label="k")
        split = data.draw(st.integers(1, k - 1), label="split")
        z = frozenset(data.draw(st.sets(st.integers(1, k), min_size=1, max_size=4), label="z"))
        family = data.draw(st.sampled_from(KEY_FAMILIES), label="family")
        initiator = data.draw(st.sampled_from(["alice", "bob"]), label="initiator")
        controlled = data.draw(st.booleans(), label="controlled")
        density = data.draw(st.sampled_from([0.5, 0.8, 0.95]), label="density")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        bits = rng.random((1 << n, k)) < density
        db = TransactionDatabase(k, tuple("".join("01"[int(b)] for b in row) for row in bits), 1 << n)
        key = sample_key(family, n, rng)
        alice, bob = make_parties(db, split, key, key_holder="bob" if initiator == "alice" else "alice")
        init, resp = (alice, bob) if initiator == "alice" else (bob, alice)
        layout = oracle_layout(n, split, k, p=1 if controlled else 0)
        assert layout.total_width == n + 3 + controlled
        control = layout.qubit("counting", 0) if controlled else None
        off = layout.offset("address")
        labels = [j << off for j in range(1 << n)]
        if controlled:
            labels += [layout.replace(label, "counting", 1) for label in labels]
        vec = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
        if data.draw(st.booleans(), label="real amplitudes"):
            vec = vec.real + 0j  # +0.0 imaginary parts: negation must give -0.0
        vec /= np.linalg.norm(vec)
        state = qsim.SparseState(layout, dict(zip(labels, vec.tolist())))

        transcript = Transcript()
        out = run_oracle_u(state, init, resp, z, transcript, control=control)

        signs = reference_phase_oracle(db, z, key.apply)
        expected = {}
        for label, a in state.amps.items():
            on = control is None or layout.extract(label, "counting") == 1
            expected[label] = a * signs[layout.extract(label, "address")] if on else a
        assert qsim.max_deviation(out, qsim.SparseState(layout, expected)) == 0.0
        for name in AUX_REGISTERS:
            assert all(layout.extract(label, name) == 0 for label in out.amps), name
        assert len(transcript.events) == 4


ORACLE_FAULTS = ("dirty_aux", "empty_z", "z_out_of_range", "missing_key")


def outcome(call):
    """(result, None) or (None, (exception type, message))."""
    try:
        return call(), None
    except (ValueError, qsim.SimulationError) as exc:
        return None, (type(exc), str(exc))


class TestOraclePlanAgainstGates:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_arrays_equal_after_every_step(self, data):
        # k is as wide as the reference's layout, with its data registers,
        # can hold: n + k + 4 <= 62
        n = data.draw(st.integers(1, 6), label="n")
        k = data.draw(st.integers(2, 58 - n), label="k")
        split = data.draw(st.integers(1, k - 1), label="split")
        z = frozenset(data.draw(st.sets(st.integers(1, k), min_size=1, max_size=4), label="z"))
        family = data.draw(st.sampled_from(KEY_FAMILIES), label="family")
        initiator = data.draw(st.sampled_from(["alice", "bob"]), label="initiator")
        controlled = data.draw(st.booleans(), label="controlled")
        fault = data.draw(st.sampled_from((None,) + ORACLE_FAULTS), label="fault")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        bits = rng.random((1 << n, k)) < 0.8
        db = TransactionDatabase(k, tuple("".join("01"[int(b)] for b in row) for row in bits), 1 << n)
        key = sample_key(family, n, rng)
        alice, bob = make_parties(db, split, key, key_holder="bob" if initiator == "alice" else "alice")
        init, resp = (alice, bob) if initiator == "alice" else (bob, alice)
        layout = oracle_layout(n, split, k, p=1 if controlled else 0)
        event(f"fault {fault}")
        control = layout.qubit("counting", 0) if controlled else None
        # a random subset of the addresses, in random order, on both control
        # branches when there is a control
        off = layout.offset("address")
        addresses = rng.permutation(1 << n)[: data.draw(st.integers(1, 1 << n), label="size")]
        labels = [int(j) << off for j in addresses]
        if controlled:
            labels += [layout.replace(label, "counting", 1) for label in labels]
        vec = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
        if data.draw(st.booleans(), label="real amplitudes"):
            vec = vec.real + 0j  # +0.0 imaginary parts: negation must give -0.0

        if fault == "dirty_aux":
            register = AUX_REGISTERS[int(rng.integers(len(AUX_REGISTERS)))]
            labels[0] |= 1 << layout.qubit(register)
        elif fault == "empty_z":
            z = frozenset()
        elif fault == "z_out_of_range":
            z = z | {0 if rng.random() < 0.5 else k + 1}
        elif fault == "missing_key":
            resp = resp.with_key(None)
        state = qsim.SparseState(layout, dict(zip(labels, vec.tolist())))

        runs = []
        for oracle in (run_oracle_u, gate_reference_oracle_u):
            record, transcript = [], Transcript()
            out, error = outcome(
                lambda: oracle(
                    state, init, resp, z, transcript,
                    control=control, record=record,
                )
            )
            runs.append((out, error, record, transcript))
        (plan, plan_error, plan_record, plan_log), (gates, gate_error, gate_record, gate_log) = runs

        assert plan_error == gate_error
        if fault is not None:
            assert plan_error is not None
            assert plan_log.records == gate_log.records == []
            return
        assert [tag for tag, _ in plan_record] == [tag for tag, _ in gate_record]
        assert len(plan_record) == 7
        for (tag, got), (_, want) in zip(plan_record + [("exit", plan)], gate_record + [("exit", gates)]):
            assert got.labels.dtype == want.labels.dtype, tag
            assert np.array_equal(got.labels, want.labels), tag
            assert np.array_equal(got.amplitudes, want.amplitudes), tag
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes(), tag  # signed zeros
        assert plan_log.records == gate_log.records == [(init.role, n, 1)]


class TestTableOneTrace:
    def test_states_after_each_step(self):
        db = DB8
        l, n = 2, 3
        z = frozenset({2, 3})  # Z1 = {2}, Z2 = {3}
        key = make_key("bitflip", 5, 3)
        alice, bob = make_parties(db, l, key)
        layout = oracle_layout(n, l, 4)
        # distinct amplitudes pin the permutation direction
        raw = np.arange(1, 9, dtype=float)
        raw /= np.linalg.norm(raw)
        st = address_state(layout, dict(enumerate(raw)))
        record = []
        run_oracle_u(st, alice, bob, z, Transcript(), record=record)

        u = key.apply
        uinv = key.invert
        a_of = {j: 1 if db.rows[u(j)][1] == "1" else 0 for j in range(8)}  # f_Z(d1_u(j))
        b_of = {j: 1 if db.rows[u(j)][2] == "1" else 0 for j in range(8)}  # g_Z(d2_u(j))
        c_of = {j: a_of[j] * b_of[j] for j in range(8)}

        def lab(addr, b=0, a=0):
            label = layout.replace(0, "address", addr)
            label = layout.replace(label, "b_flag", b)
            return layout.replace(label, "a_flag", a)

        expected = {
            "step1": {lab(u(j)): raw[j] for j in range(8)},
            "step2": {lab(u(j), b=b_of[j]): raw[j] for j in range(8)},
            "step3": {lab(u(j), b=b_of[j], a=a_of[j]): raw[j] for j in range(8)},
            "step4": {
                lab(u(j), b=b_of[j], a=a_of[j]): (-1) ** c_of[j] * raw[j] for j in range(8)
            },
            "step5": {lab(u(j), b=b_of[j]): (-1) ** c_of[j] * raw[j] for j in range(8)},
            "step6": {lab(u(j)): (-1) ** c_of[j] * raw[j] for j in range(8)},
            "step7": {lab(j): (-1) ** c_of[j] * raw[j] for j in range(8)},
        }
        assert [tag for tag, _ in record] == list(expected)
        for tag, state in record:
            want = qsim.SparseState(layout, {k: complex(v) for k, v in expected[tag].items()})
            assert qsim.max_deviation(state, want) <= 1e-12, tag


class TestControlledGrover:
    def grover_matrix(self, db, l, z, key, control_value=1):
        """Column-by-column matrix of controlled-G on the address register."""
        n = (db.n_transactions - 1).bit_length()
        alice, bob = make_parties(db, l, key)
        layout = oracle_layout(n, l, db.n_items, p=1)
        ctrl = layout.qubit("counting", 0)
        m = 1 << n
        mat = np.zeros((m, m), dtype=complex)
        for j in range(m):
            label = layout.replace(0, "address", j)
            label = layout.replace(label, "counting", control_value)
            st = qsim.prepare_basis(layout, label)
            out = controlled_grover(st, alice, bob, z, ctrl, Transcript())
            for lab, a in out.amps.items():
                assert layout.extract(lab, "counting") == control_value
                mat[layout.extract(lab, "address"), j] = a
        return mat

    def test_zero_control_identity_but_transcript_logged(self):
        key = make_key("bitflip", 3, 3)
        alice, bob = make_parties(DB8, 2, key)
        layout = oracle_layout(3, 2, 4, p=1)
        ctrl = layout.qubit("counting", 0)
        rng = np.random.default_rng(10)
        st = random_address_state(layout, rng)  # counting qubit 0 everywhere
        transcript = Transcript()
        out = controlled_grover(st, alice, bob, frozenset({1, 3}), ctrl, transcript)
        # the oracle cancels exactly; W W = I only up to 1/sqrt(2) rounding
        assert qsim.max_deviation(st, out) < 1e-15
        assert len(transcript.events) == 4

    def test_eigenphases_of_restriction(self):
        # restricted to span{uniform-marked, uniform-unmarked}, G has
        # eigenvalues exp(+-2i*theta) with sin^2(theta) = t / 2^n
        key = make_key("modadd", 2, 3)
        z = frozenset({1, 3})
        mat = self.grover_matrix(DB8, 2, z, key)
        signs = reference_phase_oracle(DB8, z, key.apply)
        marked = np.flatnonzero(signs == -1)
        unmarked = np.flatnonzero(signs == 1)
        t, m = len(marked), len(signs)
        assert 0 < t < m
        good = np.zeros(m)
        good[marked] = 1 / math.sqrt(t)
        bad = np.zeros(m)
        bad[unmarked] = 1 / math.sqrt(m - t)
        basis = np.stack([bad, good], axis=1)
        restricted = basis.conj().T @ mat @ basis
        eig = np.linalg.eigvals(restricted)
        theta = math.asin(math.sqrt(t / m))
        want = {np.exp(2j * theta), np.exp(-2j * theta)}
        for val in eig:
            assert min(abs(val - w) for w in want) < 1e-10

    def test_two_iterations_match_textbook_grover(self):
        # db with t = 2^(n-2) marked rows out of 2^n
        db = TransactionDatabase(
            3, ("101", "101", "010", "001", "100", "011", "110", "000"), 8
        )
        z = frozenset({1, 3})
        key = make_key("bitflip", 4, 3)
        alice, bob = make_parties(db, 2, key)
        layout = oracle_layout(3, 2, 3)
        st = qsim.apply_w(qsim.prepare_basis(layout), "address")
        for _ in range(2):
            st = controlled_grover(st, alice, bob, z, None, Transcript())
        signs = reference_phase_oracle(db, z, key.apply).astype(float)
        assert int((signs == -1).sum()) == 2
        m = len(signs)
        diffusion = 2 / m * np.ones((m, m)) - np.eye(m)
        textbook = diffusion @ np.diag(signs)
        vec = np.linalg.matrix_power(textbook, 2) @ np.full(m, m**-0.5)
        assert np.max(np.abs(address_vector(st) - vec)) < 1e-12

    def test_uncontrolled_includes_global_phase(self):
        # with t = 0 the oracle is the identity and G = -W U0 W fixes the
        # uniform state; the two global -1 factors must cancel exactly
        db = TransactionDatabase(2, ("00", "00", "00", "00"), 4)
        key = make_key("bitflip", 0, 2)
        alice, bob = make_parties(db, 1, key)
        layout = oracle_layout(2, 1, 2)
        st = qsim.apply_w(qsim.prepare_basis(layout), "address")
        out = controlled_grover(st, alice, bob, frozenset({1, 2}), None, Transcript())
        assert qsim.max_deviation(st, out) < 1e-12


class TestTranscriptTotals:
    def test_one_call_total(self):
        key = make_key("bitflip", 1, 3)
        alice, bob = make_parties(DB8, 2, key)
        layout = oracle_layout(3, 2, 4)
        st = qsim.apply_w(qsim.prepare_basis(layout), "address")
        transcript = Transcript()
        run_oracle_u(st, alice, bob, frozenset({1}), transcript)
        total, per_call = transcript_total(transcript)
        n = 3
        assert total == 4 * n + 2 == 14
        assert per_call == 14 <= 4 * (n + 1)

    def test_empty(self):
        assert transcript_total(Transcript()) == (0, 0)

    def test_many_calls_arithmetic(self):
        key = make_key("modadd", 1, 3)
        alice, bob = make_parties(DB8, 2, key)
        layout = oracle_layout(3, 2, 4)
        st = qsim.apply_w(qsim.prepare_basis(layout), "address")
        transcript = Transcript()
        calls = 7
        for _ in range(calls):
            st = run_oracle_u(st, alice, bob, frozenset({2}), transcript)
        total, per_call = transcript_total(transcript)
        assert total == calls * (4 * 3 + 2)
        assert per_call == 14

    def test_bad_record_rejected(self):
        # a record holds whole calls, so a partial call cannot be logged
        transcript = Transcript()
        bad = [("carol", 3, 1), ("alice_to_bob", 3, 1), ("alice", 0, 1), ("bob", 3, 0), ("alice", 1.5, 1), ("alice", 3, 2.5)]
        for role, n, calls in bad:
            with pytest.raises(ValueError):
                transcript.log_calls(role, n, calls)
        assert transcript.records == []

    def test_json_export(self):
        transcript = Transcript()
        transcript.log_calls("alice", 3)
        assert transcript.to_json() == [
            {"dir": "alice_to_bob", "qubits": 3, "step": "step1"},
            {"dir": "bob_to_alice", "qubits": 4, "step": "step3"},
            {"dir": "alice_to_bob", "qubits": 4, "step": "step6"},
            {"dir": "bob_to_alice", "qubits": 3, "step": "step7"},
        ]

    def test_dump_refused_over_limit(self):
        # refused before any dict is built: 2^19 + 1 calls are 2^21 + 4 events
        transcript = Transcript()
        transcript.log_calls("alice", 3, MAX_DUMP_EVENTS // 4 + 1)
        with pytest.raises(ValueError, match="dump limit"):
            transcript.to_json()

    def test_records_expand_in_order(self):
        transcript = Transcript()
        transcript.log_calls("bob", 2, 3)
        transcript.log_calls("alice", 5)
        events = transcript.events
        assert transcript.oracle_calls == 4
        assert events == [*oracle_call_events("bob", 2) * 3, *oracle_call_events("alice", 5)]
        assert transcript_total(transcript) == (3 * 10 + 22, 22)
        assert transcript_total(transcript)[0] == sum(e.qubits for e in events)
