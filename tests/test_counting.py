import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpdm import counting, qsim
from qpdm.counting import (
    MAX_COUNTING_WIDTH,
    CountingConfig,
    EstimationError,
    SupportEstimate,
    counting_distribution,
    default_counting_width,
    estimate_confidence,
    estimate_error_bound,
    joint_support,
    phase_readout,
    quantum_count,
    statevector_distribution,
)
from qpdm.counting import _marked_count, _readout_distribution, _statevector_prepared
from qpdm.dataset import (
    TransactionDatabase,
    exact_confidence,
    exact_support,
    pad_to_power_of_two,
    parse_database,
    vertical_partition,
)
from qpdm.protocol import (
    KEY_FAMILIES,
    Transcript,
    build_qram,
    make_key,
    oracle_layout,
    reference_phase_oracle,
    run_oracle_u,
    sample_key,
    transcript_total,
)

DB16_T4 = TransactionDatabase(
    2,
    ("11", "11", "11", "11", "10", "10", "10", "01", "01", "01", "00", "00", "00", "10", "01", "00"),
    16,
)

FOUR_ROWS = TransactionDatabase(3, ("110", "100", "011", "111"), 4)


def parties(db, l):
    n = (db.n_transactions - 1).bit_length()
    alice_view, bob_view = vertical_partition(db, l)
    return build_qram(alice_view, n), build_qram(bob_view, n)


def db_with_marked(n, t, seed=0):
    """2^n rows over 2 items with exactly t rows containing {1, 2}."""
    rng = np.random.default_rng(seed)
    rest = [rng.choice(["10", "01", "00"]) for _ in range((1 << n) - t)]
    rows = ["11"] * t + [str(r) for r in rest]
    return TransactionDatabase(2, tuple(rows), 1 << n)


def fourier_readout_distribution(marked: int, n: int, P: int) -> np.ndarray:
    """The readout distribution by the discrete Fourier transform of the
    eigenphase waves, as it was formed before the closed form."""
    theta = math.asin(math.sqrt(marked / (1 << n)))
    wave = 2j * theta * np.arange(P)
    np.exp(wave, out=wave)
    np.fft.fft(wave, out=wave)
    wave /= P
    kernel = np.abs(wave)
    del wave  # the transform is freed before the kernel is squared and mirrored
    kernel **= 2
    # the -2 theta kernel is the +2 theta kernel mirrored, f -> -f mod P
    probs = np.roll(kernel[::-1], 1)
    probs += kernel
    del kernel
    probs *= 0.5
    if abs(probs.sum() - 1.0) > 1e-9:
        raise qsim.SimulationError("counting distribution lost normalization")
    return probs


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountingConfig(p=0, s=0.5)
        with pytest.raises(ValueError):
            CountingConfig(p=MAX_COUNTING_WIDTH + 1, s=0.5)
        with pytest.raises(ValueError):
            CountingConfig(p=3, s=1.5)
        # a nan band would make every round disagree
        for band in (0, math.nan, math.inf):
            with pytest.raises(ValueError):
                CountingConfig(p=3, s=0.5, agreement_band=band)
        with pytest.raises(ValueError):
            CountingConfig(p=3, s=0.5, key_family="rot13")

    def test_default_width_matches_recommended_scaling(self):
        # P ~ 2000 / s rounded up to a power of two
        assert default_counting_width(0.25) == 13
        assert 1 << default_counting_width(0.5) >= 2000 / 0.5


class TestDistribution:
    def test_no_marked_rows_reads_zero(self):
        db = db_with_marked(3, 0)
        alice, bob = parties(db, 1)
        bob = bob.with_key(make_key("bitflip", 3, 3))
        config = CountingConfig(p=4, s=0.25)
        probs = counting_distribution("alice", alice, bob, frozenset({1, 2}), config)
        assert probs[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("initiator", ["alice", "bob"])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_statevector_equals_trajectory(self, initiator, p):
        rng = np.random.default_rng(p)
        rows = tuple("".join(rng.choice(["0", "1"], size=3)) for _ in range(8))
        db = TransactionDatabase(3, rows, 8)
        alice, bob = parties(db, 2)
        key = make_key("modadd", 3, 3)
        alice, bob = alice.with_key(key), bob.with_key(key)
        config = CountingConfig(p=p, s=0.3)
        z = frozenset({1, 3})
        t_sv, t_cf = Transcript(), Transcript()
        sv = statevector_distribution(initiator, alice, bob, z, config, t_sv)
        cf = counting_distribution(initiator, alice, bob, z, config, t_cf)
        assert np.max(np.abs(sv - cf)) < 1e-10
        assert t_sv.events == t_cf.events
        assert len(t_sv.events) == (config.P - 1) * 4

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(2, 8).flatmap(
            lambda k: st.lists(
                st.text("01", min_size=k, max_size=k), min_size=2, max_size=8
            )
        ),
        data=st.data(),
    )
    def test_closed_form_matches_statevector_property(self, rows, data):
        k = len(rows[0])
        db = pad_to_power_of_two(TransactionDatabase(k, tuple(rows), len(rows)))
        split = data.draw(st.integers(1, k - 1), label="split")
        z = frozenset(data.draw(st.sets(st.integers(1, k), min_size=1), label="z"))
        family = data.draw(st.sampled_from(KEY_FAMILIES), label="family")
        initiator = data.draw(st.sampled_from(["alice", "bob"]), label="initiator")
        config = CountingConfig(p=data.draw(st.integers(1, 4), label="p"), s=0.3)
        alice, bob = parties(db, split)
        key_rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="key_seed"))
        key = sample_key(family, alice.address_width, key_rng)
        if initiator == "alice":
            bob = bob.with_key(key)
        else:
            alice = alice.with_key(key)
        t_sv, t_cf = Transcript(), Transcript()
        sv = statevector_distribution(initiator, alice, bob, z, config, t_sv)
        cf = counting_distribution(initiator, alice, bob, z, config, t_cf)
        assert np.max(np.abs(sv - cf)) < 1e-10
        assert t_sv.events == t_cf.events

    @pytest.mark.parametrize("split", [3, 35, 67])
    def test_wide_labels_match_references(self, split):
        # 70 items make the composite label wider than int64, so the engine
        # runs on Python-int labels
        rng = np.random.default_rng(70)
        bits = rng.random((64, 70)) < 0.7
        db = TransactionDatabase(70, tuple("".join("01"[int(b)] for b in row) for row in bits), 64)
        assert oracle_layout(6, split, 70).total_width > 64
        z = frozenset({1, split, split + 1, 70})
        key = make_key("modadd", int(rng.integers(64)), 6)
        alice, bob = parties(db, split)
        bob = bob.with_key(key)
        signs = reference_phase_oracle(db, z, key.apply)
        assert 0 < np.count_nonzero(signs < 0) < 64
        # position by position: the oracle run on the uniform state keeps
        # every label and negates exactly the reference's marked addresses
        layout = oracle_layout(6, split, 70)
        labels = np.arange(64, dtype=layout.label_dtype) << layout.offset("address")
        uniform = qsim.SparseState.from_arrays(layout, labels, np.full(64, 1 / 8, dtype=complex))
        out = run_oracle_u(uniform, alice, bob, z, Transcript())
        assert np.array_equal(out.labels, labels)
        assert np.array_equal(out.amplitudes * 8, signs)
        assert _marked_count(alice, bob, z) == np.count_nonzero(signs < 0)
        config = CountingConfig(p=3, s=0.3)
        sv = statevector_distribution("alice", alice, bob, z, config)
        cf = counting_distribution("alice", alice, bob, z, config)
        assert np.max(np.abs(sv - cf)) < 1e-12

    @pytest.mark.parametrize(
        "n, p, marked, family",
        [
            (3, 4, 3, "modadd"),
            (2, 3, 0, "bitflip"),
            (2, 5, 4, "cyclic"),
            (3, 8, 1, "cyclic"),
            (4, 6, 16, "modadd"),
            (4, 8, 0, "modadd"),
            (4, 8, 7, "bitflip"),
            (5, 7, 11, "bitflip"),
        ],
    )
    def test_matches_independent_dense_phase_estimation(self, n, p, marked, family):
        # fully independent route: dense textbook matrices, no simulator
        db = db_with_marked(n, marked, seed=n + p)
        z = frozenset({1, 2})
        key = make_key(family, 1, n)
        alice, bob = parties(db, 1)
        config = CountingConfig(p=p, s=0.3)
        got = counting_distribution("alice", alice, bob.with_key(key), z, config)

        signs = reference_phase_oracle(db, z, key.apply).astype(float)
        assert np.count_nonzero(signs < 0) == marked
        m, P = 1 << n, config.P
        grover = (2 / m * np.ones((m, m)) - np.eye(m)) @ np.diag(signs)
        psi = np.full(m, m**-0.5)
        walk = np.stack(
            [np.linalg.matrix_power(grover, step) @ psi for step in range(P)]
        ) / math.sqrt(P)
        dft = np.exp(-2j * np.pi * np.outer(np.arange(P), np.arange(P)) / P) / math.sqrt(P)
        expected = (np.abs(dft @ walk) ** 2).sum(axis=1)
        assert np.max(np.abs(got - expected)) < 1e-12

    @pytest.mark.parametrize("p", [1, 2, 5, 8, 13])
    def test_closed_form_matches_fourier_transform(self, p):
        for n in range(1, 13):
            size = 1 << n
            for marked in sorted({0, 1, 2, size // 3, size // 2, size - 1, size}):
                got = _readout_distribution(marked, n, 1 << p)
                expected = fourier_readout_distribution(marked, n, 1 << p)
                assert np.max(np.abs(got - expected)) < 1e-12, (n, marked)

    def test_exact_phase_sharpness(self):
        # t/2^n = 1/2 has eigenphase exactly 1/4: all mass on P/4 and 3P/4
        db = db_with_marked(3, 4)
        alice, bob = parties(db, 1)
        bob = bob.with_key(make_key("cyclic", 1, 3))
        config = CountingConfig(p=3, s=0.25)
        probs = counting_distribution("alice", alice, bob, frozenset({1, 2}), config)
        on_peak = probs[2] + probs[6]
        assert on_peak == pytest.approx(1.0, abs=1e-10)

    def test_all_marked_reads_half(self):
        db = TransactionDatabase(2, ("11",) * 8, 8)
        alice, bob = parties(db, 1)
        bob = bob.with_key(make_key("bitflip", 0, 3))
        config = CountingConfig(p=4, s=0.25)
        probs = counting_distribution("alice", alice, bob, frozenset({1, 2}), config)
        assert probs[config.P // 2] == pytest.approx(1.0, abs=1e-10)

    def test_mirror_symmetry(self):
        for n, p, t in ((3, 4, 3), (4, 6, 5), (4, 5, 2)):
            db = db_with_marked(n, t, seed=n + p)
            alice, bob = parties(db, 1)
            bob = bob.with_key(make_key("bitflip", 1, n))
            config = CountingConfig(p=p, s=0.25)
            probs = counting_distribution("alice", alice, bob, frozenset({1, 2}), config)
            mirrored = np.concatenate([probs[:1], probs[1:][::-1]])
            assert np.max(np.abs(probs - mirrored)) < 1e-12

    def test_initiator_symmetry_exact_distributions(self):
        db = db_with_marked(3, 3, seed=5)
        alice, bob = parties(db, 1)
        key = make_key("bitflip", 5, 3)
        alice, bob = alice.with_key(key), bob.with_key(key)
        config = CountingConfig(p=5, s=0.25)
        z = frozenset({1, 2})
        d1 = counting_distribution("alice", alice, bob, z, config)
        d2 = counting_distribution("bob", alice, bob, z, config)
        assert np.max(np.abs(d1 - d2)) < 1e-15

    def test_key_invariance_all_bitflip_keys(self):
        db = db_with_marked(3, 3, seed=6)
        alice, bob = parties(db, 1)
        config = CountingConfig(p=5, s=0.25)
        z = frozenset({1, 2})
        base = None
        for lam in range(8):
            probs = counting_distribution(
                "alice", alice, bob.with_key(make_key("bitflip", lam, 3)), z, config
            )
            if base is None:
                base = probs
            else:
                assert np.max(np.abs(probs - base)) < 1e-12

    def test_n16_t4_p64_concentration(self):
        alice, bob = parties(DB16_T4, 1)
        bob = bob.with_key(make_key("bitflip", 9, 4))
        config = CountingConfig(p=6, s=0.25)
        probs = counting_distribution("alice", alice, bob, frozenset({1, 2}), config)
        # eigenphase 1/6: nearest readouts 10, 11 and mirrors 53, 54
        peak = probs[10] + probs[11] + probs[53] + probs[54]
        assert peak > 8 / math.pi**2
        for f in (10, 11, 53, 54):
            assert abs(phase_readout(f, 64) - 0.25) <= estimate_error_bound(0.25, 64)


class TestMarkedCount:
    @pytest.mark.parametrize("family", KEY_FAMILIES)
    def test_matches_reference_phase_oracle(self, family):
        rng = np.random.default_rng(len(family))
        for n, k in ((1, 2), (3, 4), (5, 3)):
            rows = tuple("".join("01"[int(b)] for b in row) for row in rng.random((1 << n, k)) < 0.6)
            db = TransactionDatabase(k, rows, 1 << n)
            alice, bob = parties(db, 1)
            for z in (frozenset({1}), frozenset({2, k}), frozenset(range(1, k + 1))):
                key = sample_key(family, n, rng)
                marked = np.count_nonzero(reference_phase_oracle(db, z, key.apply) < 0)
                assert _marked_count(alice, bob.with_key(key), z) == marked
                assert _marked_count(bob, alice.with_key(key), z) == marked

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_exact_support_however_the_database_is_made(self, data):
        # Built from string rows, from CSV text or from a bit matrix, then
        # padded; the draws may put a 2 in a cell or a 1 in a padding row
        # (only text makes every row real). Every database that is made has
        # as many marked addresses as real rows containing z.
        k = data.draw(st.integers(2, 5), label="k")
        real = data.draw(st.integers(1, 6), label="real rows")
        way = data.draw(st.sampled_from(["rows", "text", "bits"]), label="way")
        extra = 0 if way == "text" else data.draw(st.integers(0, 3), label="padding rows")
        cells = data.draw(
            st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                     min_size=real + extra, max_size=real + extra),
            label="cells",
        )
        bits = np.array(cells, dtype=np.uint8)
        two = data.draw(st.booleans(), label="a 2 in a cell")
        if two:
            bits[data.draw(st.integers(0, real + extra - 1)), data.draw(st.integers(0, k - 1))] = 2
        defective = two or bits[real:].any()
        try:
            if way == "rows":
                rows = tuple("".join(map(str, row)) for row in bits.tolist())
                db = TransactionDatabase(k, rows, real)
            elif way == "text":
                header = ",".join(f"I{i}" for i in range(1, k + 1))
                db = parse_database("\n".join([header, *(",".join(map(str, row)) for row in bits.tolist())]))
            else:
                db = TransactionDatabase.from_bits(bits, real)
        except ValueError:
            assert defective
            return
        assert not defective
        padded = pad_to_power_of_two(db)
        split = data.draw(st.integers(1, k - 1), label="split")
        z = frozenset(data.draw(st.sets(st.integers(1, k), min_size=1), label="z"))
        family = data.draw(st.sampled_from(KEY_FAMILIES), label="family")
        initiator = data.draw(st.sampled_from(["alice", "bob"]), label="initiator")
        alice, bob = parties(padded, split)
        key_rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="key_seed"))
        key = sample_key(family, alice.address_width, key_rng)
        init, resp = (alice, bob.with_key(key)) if initiator == "alice" else (bob, alice.with_key(key))
        support = exact_support(db, z)
        assert support == exact_support(padded, z) <= 1
        assert _marked_count(init, resp, z) == support * db.original_count

    @pytest.mark.parametrize("label_moved", [True, False], ids=["moved-label", "scaled-amplitude"])
    def test_inexact_oracle_output_refused(self, monkeypatch, label_moved):
        def tampered(state, *args, **kwargs):
            out = run_oracle_u(state, *args, **kwargs)
            labels, amps = out.labels.copy(), out.amplitudes.copy()
            if label_moved:
                labels[5] ^= 1 << (out.layout.total_width - 1)
            else:
                amps[5] *= 2
            return qsim.SparseState.from_arrays(out.layout, labels, amps)

        monkeypatch.setattr(counting, "run_oracle_u", tampered)
        alice, bob = parties(DB16_T4, 1)
        key = make_key("bitflip", 3, 4)
        z = frozenset({1, 2})
        # amplitude 1/4 at n = 4, scaled to +-1/2 at address 5
        scaled = np.complex128(0.5 * reference_phase_oracle(DB16_T4, z, key.apply)[5])
        message = (
            "oracle output moved basis labels"
            if label_moved
            else f"oracle output is not a sign flip: {scaled!r}"
        )
        config = CountingConfig(p=6, s=0.25)
        transcript = Transcript()
        with pytest.raises(qsim.SimulationError) as err:
            quantum_count(
                "alice", alice, bob.with_key(key), z, config, np.random.default_rng(0), transcript
            )
        assert str(err.value) == message
        assert transcript.records == []


class TestQuantumCount:
    def test_deterministic_per_seed(self):
        alice, bob = parties(DB16_T4, 1)
        bob = bob.with_key(make_key("bitflip", 3, 4))
        config = CountingConfig(p=6, s=0.25)
        e1 = quantum_count("alice", alice, bob, frozenset({1, 2}), config, np.random.default_rng(7))
        e2 = quantum_count("alice", alice, bob, frozenset({1, 2}), config, np.random.default_rng(7))
        assert e1 == e2

    def test_methods_agree_per_seed(self):
        # a seeded count reads what measuring the simulated circuit reads
        db = db_with_marked(3, 2, seed=8)
        alice, bob = parties(db, 1)
        bob = bob.with_key(make_key("modadd", 5, 3))
        config = CountingConfig(p=3, s=0.25)
        z = frozenset({1, 2})
        circuit = _statevector_prepared(alice, bob, z, config, None)
        for seed in range(20):
            f = qsim.measure_register(circuit, "counting", np.random.default_rng(seed)).value
            sv = phase_readout(f, config.P)  # all 8 rows are real: no rescaling
            cf = quantum_count("alice", alice, bob, z, config, np.random.default_rng(seed))
            assert sv == pytest.approx(cf, abs=1e-12)

    def test_rescaling_to_original_count(self):
        # 8 padded rows but only 5 real ones; all real rows contain {1}
        db = TransactionDatabase(2, ("10", "11", "10", "10", "11", "00", "00", "00"), 5)
        alice, bob = parties(db, 1)
        bob = bob.with_key(make_key("bitflip", 0, 3))
        config = CountingConfig(p=6, s=0.3)
        est = quantum_count("alice", alice, bob, frozenset({1}), config, np.random.default_rng(11))
        # padded-space fraction 5/8 estimated, then rescaled by 8/5 toward 1.0
        assert est == pytest.approx(1.0, abs=0.05)

    def test_count_logs_one_record(self):
        alice, bob = parties(db_with_marked(3, 2), 1)
        bob = bob.with_key(make_key("bitflip", 5, 3))
        config = CountingConfig(p=12, s=0.25)
        transcript = Transcript()
        counting_distribution("alice", alice, bob, frozenset({1, 2}), config, transcript)
        assert transcript.records == [("alice", 3, config.P - 1)]
        assert transcript.oracle_calls == config.P - 1
        assert len(transcript.events) == 4 * (config.P - 1)

    def test_no_real_rows_refused_before_the_oracle(self):
        # the database is refused where it is made, unpadded or padded, so no
        # count can rescale by a zero row count
        with pytest.raises(ValueError, match="^database has no real rows$"):
            TransactionDatabase(2, (), 0)
        with pytest.raises(ValueError, match="^database has no real rows$"):
            TransactionDatabase.from_bits(np.zeros((2, 2), dtype=np.uint8), 0)

    def test_transcript_full_count_total(self):
        alice, bob = parties(DB16_T4, 1)
        bob = bob.with_key(make_key("bitflip", 3, 4))
        config = CountingConfig(p=5, s=0.25)
        transcript = Transcript()
        quantum_count("alice", alice, bob, frozenset({1, 2}), config, np.random.default_rng(0), transcript)
        total, per_call = transcript_total(transcript)
        n = 4
        assert total == (config.P - 1) * (4 * n + 2)
        assert per_call == 4 * n + 2 <= 4 * (n + 1)


class TestReadoutMemo:
    """The readout distribution is formed once per (M, n, P) and held, with
    its cumulative sum, as read-only arrays; at most one is held."""

    def test_alternating_marked_counts_match_fresh(self):
        config = CountingConfig(p=7, s=0.25)
        z = frozenset({1, 2})
        for marked in (2, 5, 2, 2, 0, 5, 8, 0):
            alice, bob = parties(db_with_marked(3, marked, seed=marked), 1)
            bob = bob.with_key(make_key("modadd", 3, 3))
            got = counting_distribution("alice", alice, bob, z, config)
            assert got.tobytes() == _readout_distribution(marked, 3, config.P).tobytes()
            # read-only, not a copy: a write must fail rather than change the held one
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 1.0
            assert counting._readout.cache_info().currsize == 1
            probs, cdf = counting._readout(marked, 3, config.P)
            assert probs is got and not cdf.flags.writeable
            assert cdf.tobytes() == np.cumsum(got).tobytes()

    def test_one_readout_per_marked_count(self, monkeypatch):
        formed = []

        def spy(marked, n, P):
            formed.append((marked, n, P))
            return _readout_distribution(marked, n, P)

        monkeypatch.setattr(counting, "_readout_distribution", spy)
        counting._readout.cache_clear()
        alice, bob = parties(DB16_T4, 1)
        config = CountingConfig(p=6, s=0.25, agreement_band=1e-9, max_rounds=3)
        rng = np.random.default_rng(5)
        est = joint_support(alice, bob, frozenset({1, 2}), config, rng)
        assert est.rounds_used == 3  # six counts
        joint_support(alice, bob, frozenset({1}), config, rng)
        joint_support(alice, bob, frozenset({1, 2}), config, rng)
        assert formed == [(4, 4, 64), (8, 4, 64), (4, 4, 64)]


class TestJointSupport:
    def test_different_address_spaces_refused(self):
        # alice over 2^2 rows, bob over 2^3: refused before any oracle call
        alice, _ = parties(FOUR_ROWS, 2)
        _, bob = parties(TransactionDatabase(3, FOUR_ROWS.rows * 2, 8), 2)
        config = CountingConfig(p=4, s=0.4)
        z = frozenset({1, 3})
        refusal = "parties are built over different address spaces"
        transcript = Transcript()
        with pytest.raises(ValueError, match=refusal):
            joint_support(alice, bob, z, config, np.random.default_rng(0), transcript)
        for initiator, a, b in (
            ("alice", alice, bob.with_key(make_key("bitflip", 0, 3))),
            ("bob", alice.with_key(make_key("bitflip", 0, 2)), bob),
        ):
            with pytest.raises(ValueError, match=refusal):
                quantum_count(initiator, a, b, z, config, np.random.default_rng(0), transcript)
        assert transcript.records == []

    def test_agreement_rule_accepts(self, monkeypatch):
        values = iter([0.250, 0.252])
        monkeypatch.setattr(
            "qpdm.counting.quantum_count", lambda *a, **k: next(values)
        )
        alice, bob = parties(DB16_T4, 1)
        config = CountingConfig(p=6, s=0.25, agreement_band=0.01)
        est = joint_support(alice, bob, frozenset({1, 2}), config, np.random.default_rng(0))
        assert est.accepted
        assert est.rounds_used == 1
        assert est.value == pytest.approx(0.251)
        assert (est.s1, est.s2) == (0.250, 0.252)

    def test_agreement_rule_retries(self, monkeypatch):
        values = iter([0.25, 0.30, 0.25, 0.251])
        monkeypatch.setattr(
            "qpdm.counting.quantum_count", lambda *a, **k: next(values)
        )
        alice, bob = parties(DB16_T4, 1)
        config = CountingConfig(p=6, s=0.25, agreement_band=0.01)
        est = joint_support(alice, bob, frozenset({1, 2}), config, np.random.default_rng(0))
        assert est.accepted
        assert est.rounds_used == 2

    def test_exhaustion_reports_last_round(self, monkeypatch):
        monkeypatch.setattr(
            "qpdm.counting.quantum_count",
            lambda *a, **k: 0.1 if getattr(quantum_count, "_flip", False) else 0.9,
        )
        calls = []

        def fake(*a, **k):
            calls.append(1)
            return 0.1 if len(calls) % 2 else 0.9

        monkeypatch.setattr("qpdm.counting.quantum_count", fake)
        alice, bob = parties(DB16_T4, 1)
        config = CountingConfig(p=6, s=0.25, max_rounds=3)
        est = joint_support(alice, bob, frozenset({1, 2}), config, np.random.default_rng(0))
        assert not est.accepted
        assert est.rounds_used == 3
        assert {est.s1, est.s2} == {0.1, 0.9}

    def test_round_statistics_at_recommended_precision(self):
        # P ~ 2000/s: near-exact estimates, so rounds stay small
        alice, bob = parties(DB16_T4, 1)
        config = CountingConfig(p=13, s=0.25)
        rounds = []
        hits = 0
        n_runs = 25
        for seed in range(n_runs):
            est = joint_support(
                alice, bob, frozenset({1, 2}), config, np.random.default_rng(seed)
            )
            assert est.accepted
            rounds.append(est.rounds_used)
            if abs(est.value - 0.25) <= 0.01 * config.s:
                hits += 1
        assert sum(rounds) / n_runs < 2.2
        assert hits >= 0.8 * n_runs

    def test_fresh_keys_never_leak(self):
        # the parties passed in stay keyless; keys live only inside the round
        alice, bob = parties(DB16_T4, 1)
        config = CountingConfig(p=6, s=0.25, agreement_band=0.5)
        joint_support(alice, bob, frozenset({1, 2}), config, np.random.default_rng(1))
        assert alice.key is None and bob.key is None


class TestConfidence:
    def test_four_row_example_within_bound(self):
        alice, bob = parties(FOUR_ROWS, 2)
        config = CountingConfig(p=8, s=0.4, agreement_band=0.05)
        exact = float(exact_confidence(FOUR_ROWS, frozenset({1}), frozenset({2})))
        hits = 0
        n_runs = 60
        for seed in range(n_runs):
            est = estimate_confidence(
                alice, bob, frozenset({1}), frozenset({2}), config, np.random.default_rng(seed)
            )
            if abs(est.value - exact) <= est.error_bound:
                hits += 1
        # each support lands in its own bound with prob > 8/pi^2
        assert hits >= 0.6 * n_runs

    def test_implication_reads_near_one(self):
        db = TransactionDatabase(2, ("11", "11", "11", "00"), 4)
        alice, bob = parties(db, 1)
        config = CountingConfig(p=8, s=0.4, agreement_band=0.05)
        est = estimate_confidence(
            alice, bob, frozenset({1}), frozenset({2}), config, np.random.default_rng(2)
        )
        assert est.value == pytest.approx(1.0, abs=2 * est.error_bound + 0.02)

    def test_overlap_rejected(self):
        alice, bob = parties(FOUR_ROWS, 2)
        config = CountingConfig(p=4, s=0.4)
        with pytest.raises(ValueError):
            estimate_confidence(
                alice, bob, frozenset({1}), frozenset({1, 2}), config, np.random.default_rng(0)
            )

    def test_itemsets_checked_by_the_gate(self):
        # refused before any count runs
        alice, bob = parties(FOUR_ROWS, 2)
        config = CountingConfig(p=4, s=0.4)
        for x, y, message in (
            (set(), {2}, "^empty itemset$"),
            ({1}, set(), "^empty itemset$"),
            ({0}, {2}, "^item indices are 1-based$"),
            ({1}, {4}, r"^item index outside 1\.\.3$"),
        ):
            transcript = Transcript()
            with pytest.raises(ValueError, match=message):
                estimate_confidence(
                    alice, bob, frozenset(x), frozenset(y), config, np.random.default_rng(0), transcript
                )
            assert transcript.records == []

    def test_rare_antecedent_rejected(self):
        db = TransactionDatabase(2, ("00", "01", "01", "00"), 4)
        alice, bob = parties(db, 1)
        config = CountingConfig(p=6, s=0.3, agreement_band=0.5)
        with pytest.raises(EstimationError):
            estimate_confidence(
                alice, bob, frozenset({1}), frozenset({2}), config, np.random.default_rng(3)
            )

    def test_reports_both_bounds(self):
        alice, bob = parties(FOUR_ROWS, 2)
        config = CountingConfig(p=8, s=0.4, agreement_band=0.05)
        est = estimate_confidence(
            alice, bob, frozenset({1}), frozenset({2}), config, np.random.default_rng(4)
        )
        assert est.error_bound > 0
        assert est.error_bound_sum > 0
        num, den = est.numerator, est.antecedent
        assert est.value == num.value / den.value
        assert est.error_bound == (
            num.error_bound / den.value + den.error_bound * num.value / (den.value * den.value)
        )
        assert est.error_bound_sum == num.error_bound + den.error_bound
        assert isinstance(est.numerator, SupportEstimate)
        assert isinstance(est.antecedent, SupportEstimate)
