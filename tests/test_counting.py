import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpdm import counting, protocol, qsim
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
    EncryptionKey,
    Transcript,
    build_qram,
    joint_column,
    make_key,
    oracle_layout,
    oracle_phase,
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


def roll_readout_distribution(marked: int, n: int, P: int) -> np.ndarray:
    """The closed-form readout distribution as it was formed before its
    mirror was taken in place: the +2 theta kernel, then a rolled reversed
    copy of it added and halved."""
    theta = math.asin(math.sqrt(marked / (1 << n)))
    r = P * theta / math.pi
    m = math.floor(r)
    phi = r - m
    if phi == 0:
        kernel = np.zeros(P)
        kernel[m] = 1.0
    else:
        kernel = np.arange(P // 2 - m, P + P // 2 - m, dtype=float)
        np.mod(kernel, P, out=kernel)
        kernel -= P // 2
        kernel -= phi
        kernel *= math.pi / P
        np.sin(kernel, out=kernel)
        np.square(kernel, out=kernel)
        np.divide((math.sin(math.pi * phi) / P) ** 2, kernel, out=kernel)
    probs = np.roll(kernel[::-1], 1, axis=0)
    probs += kernel
    probs *= 0.5
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
        # a fractional p or max_rounds is refused where the config is made,
        # not by 1 << p or range() at the first count; numpy integers pass
        for kwargs, message in (
            ({"p": 8.5}, "counting width p must be an integer, got 8.5"),
            ({"p": "8"}, "counting width p must be an integer, got '8'"),
            ({"p": 3, "max_rounds": 2.5}, "max_rounds must be an integer, got 2.5"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                CountingConfig(s=0.3, **kwargs)
        config = CountingConfig(p=np.int64(8), s=0.3, max_rounds=np.int32(3))
        assert config.P == 256

    def test_default_width_matches_recommended_scaling(self):
        # P ~ 2000 / s rounded up to a power of two
        assert default_counting_width(0.25) == 13
        assert 1 << default_counting_width(0.5) >= 2000 / 0.5

    def test_default_width_unchanged_where_the_quotient_is_finite(self):
        # goldens depend on the default p: wherever 2000/s is a finite float
        # it is ceil(log2(2000/s)), as it always was, here at s = 2000/2^k
        # and its float neighbours, where the quotient rounds to 2^k or not
        for k in range(11, 61):
            s = 2000 / 2**k
            thresholds = (math.nextafter(s, 0), s, math.nextafter(s, 1))
            widths = [default_counting_width(t) for t in thresholds]
            assert widths == [max(1, math.ceil(math.log2(2000.0 / t))) for t in thresholds] == [k] * 3

    def test_default_width_past_the_float_range(self):
        # below s ~ 1.1e-305, 2000/s overflows to inf: p is read from the
        # exact quotient, and meets the float one's 1024 at the overflow
        limit = 2000 / sys.float_info.max
        assert math.isinf(2000.0 / math.nextafter(limit, 0))
        assert default_counting_width(limit) == default_counting_width(math.nextafter(limit, 0)) == 1024
        assert default_counting_width(1e-306) == 1028
        assert default_counting_width(5e-324) == 1085  # 2^1084 < 2000 * 2^1074 < 2^1085
        for s in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="^support threshold s must be positive and finite, got "):
                default_counting_width(s)


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
        # 70 items, where n + k + 3 > 62: the layout holds no data
        # register, so its labels are n + 3 bits whatever k is
        rng = np.random.default_rng(70)
        bits = rng.random((64, 70)) < 0.7
        db = TransactionDatabase(70, tuple("".join("01"[int(b)] for b in row) for row in bits), 64)
        assert oracle_layout(6, split, 70).total_width == 6 + 3
        z = frozenset({1, split, split + 1, 70})
        key = make_key("modadd", int(rng.integers(64)), 6)
        alice, bob = parties(db, split)
        bob = bob.with_key(key)
        signs = reference_phase_oracle(db, z, key.apply)
        assert 0 < np.count_nonzero(signs < 0) < 64
        # position by position: the oracle run on the uniform state keeps
        # every label and negates exactly the reference's marked addresses
        layout = oracle_layout(6, split, 70)
        labels = np.arange(64, dtype=np.int64) << layout.offset("address")
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

    def test_in_place_mirror_matches_rolled_copy_bit_for_bit(self):
        # P = 2 up to 2^20; M = 0 and M = 2^n, whose kernel is a point mass
        # (phi = 0), M = 2^(n-1), and random M; the held cumulative sum is
        # the cumulative sum of the same bytes
        rng = np.random.default_rng(38)
        sizes = [(n, p) for n in (1, 2, 3, 5, 8, 13, 20) for p in (1, 2, 3, 4, 7, 11)]
        point_masses = 0
        for n, p in sizes + [(7, 20), (20, 20)]:
            P = 1 << p
            for marked in sorted({0, 1 << n, 1 << (n - 1), *rng.integers(0, (1 << n) + 1, 2).tolist()}):
                r = P * math.asin(math.sqrt(marked / (1 << n))) / math.pi
                point_masses += r == math.floor(r)
                got = _readout_distribution(marked, n, P)
                assert got.tobytes() == roll_readout_distribution(marked, n, P).tobytes(), (marked, n, P)
                assert counting._readout_cdf(marked, n, P).tobytes() == np.cumsum(got).tobytes()
        assert point_masses >= 2 * (len(sizes) + 2)

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
                negated = reference_phase_oracle(db, z, key.apply) < 0
                for init, resp in ((alice, bob.with_key(key)), (bob, alice.with_key(key))):
                    assert np.array_equal(oracle_phase(init, resp, z, n), negated)
                    assert _marked_count(init, resp, z) == np.count_nonzero(negated)

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
        # the joint column is the database's containment column, whichever party initiates
        n = alice.address_width
        for pair in ((alice, bob.with_key(key)), (bob, alice.with_key(key))):
            assert np.array_equal(joint_column(*pair, z, n), padded.contains(z))

    # tracemalloc peak of one count at n = 16 (Python 3.11, numpy 2.4): the
    # joint column, 1 B per address, ANDed in place from the database's item
    # columns, which the warm-up count forms and the database holds. No key
    # is applied, so the family sets no term; an int64 array over the
    # addresses, such as the key's images, would add 8 B per address.
    PEAK_PER_ADDRESS = 1
    # room for the interpreter's own objects; one more byte per address is 64 KiB
    SLACK = 8 << 10

    @pytest.mark.parametrize("family", KEY_FAMILIES)
    def test_footprint_per_address(self, family):
        self.assert_count_footprint(8, 4, frozenset({1, 2, 5}), family)

    def test_footprint_per_address_is_one_column_however_many_items(self):
        # 64 items, and z of 5 lying on both parties: the count's peak does
        # not grow with |z| or with the item count
        self.assert_count_footprint(64, 32, frozenset({3, 17, 30, 41, 60}), "bitflip")

    def assert_count_footprint(self, k, split, z, family):
        n = 16
        bits = (np.random.default_rng(16).random((1 << n, k)) < 0.5).astype(np.uint8)
        alice, bob = parties(TransactionDatabase.from_bits(bits, 1 << n), split)
        resp = bob.with_key(make_key(family, 1, n))
        _marked_count(alice, resp, z)  # warm-up: first-call allocations are not the count's
        tracemalloc.start()
        try:
            _marked_count(alice, resp, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_PER_ADDRESS * (1 << n) + self.SLACK, f"peak {peak} B"

    @pytest.mark.parametrize("width", [3, 5])
    def test_count_refuses_a_key_of_another_width(self, width):
        # the pair checks a count makes are an oracle call's, in its words,
        # before a readout is formed or a call is logged
        alice, bob = parties(DB16_T4, 1)
        key = make_key("modadd", 1, width)
        message = f"^key of width {width} does not fit the 4-qubit address register$"
        self.assert_count_refuses(message, (("alice", alice, bob.with_key(key)), ("bob", alice.with_key(key), bob)))

    def test_count_refuses_a_responder_without_a_key(self):
        alice, bob = parties(DB16_T4, 1)
        keyed = make_key("bitflip", 1, 4)
        runs = (("alice", alice, bob), ("bob", alice, bob), ("alice", alice.with_key(keyed), bob))
        self.assert_count_refuses("^responder holds no encryption key$", runs)

    @staticmethod
    def assert_count_refuses(message, runs):
        config = CountingConfig(p=4, s=0.25)
        z = frozenset({1, 2})
        transcript = Transcript()
        for initiator, alice, bob in runs:
            with pytest.raises(ValueError, match=message):
                quantum_count(initiator, alice, bob, z, config, np.random.default_rng(0), transcript)
            with pytest.raises(ValueError, match=message):
                counting_distribution(initiator, alice, bob, z, config, transcript)
        assert transcript.records == []

    @pytest.mark.parametrize("family", KEY_FAMILIES)
    def test_count_applies_no_key(self, family, monkeypatch):
        # M is the joint column's count, which the key's bijection keeps, so
        # a seeded estimate reads the same with every key image and every
        # bijection check made to raise
        db = db_with_marked(5, 9, seed=3)
        alice, bob = parties(db, 1)
        config = CountingConfig(p=6, s=0.2, agreement_band=0.05, key_family=family)
        z = frozenset({1, 2})

        def run():
            transcript = Transcript()
            estimate = joint_support(alice, bob, z, config, np.random.default_rng(36), transcript)
            probs = counting_distribution("bob", alice.with_key(make_key(family, 1, 5)), bob, z, config, transcript)
            return estimate, probs.copy(), transcript.records

        expected = run()

        def refuse(*args, **kwargs):
            raise AssertionError("a count applied a key or checked a bijection")

        monkeypatch.setattr(EncryptionKey, "apply", refuse)
        monkeypatch.setattr(protocol, "check_bijection", refuse)
        estimate, probs, records = run()
        assert estimate == expected[0] and records == expected[2]
        assert np.array_equal(probs, expected[1])
        assert expected[0].rounds_used > 1


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

    def test_a_zero_draw_reads_the_first_readout_it_falls_below(self):
        # every row holds {1, 2}, so M = 2^n and the readout is a point mass
        # at P/2: the cumulative sum is 0 below it and 1 from it on. A draw
        # of 0.0 reads the first readout whose cumulative sum exceeds it,
        # P/2 and an estimate of 1.0, never readout 0, of probability 0
        class ZeroDraw:
            def random(self):
                return 0.0

        alice, bob = parties(TransactionDatabase(2, ("11",) * 4, 4), 1)
        bob = bob.with_key(make_key("bitflip", 1, 2))
        config = CountingConfig(p=4, s=0.25)
        assert quantum_count("alice", alice, bob, frozenset({1, 2}), config, ZeroDraw()) == 1.0

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
    """A count reads only the readout's cumulative sum, formed once per
    (M, n, P) and held as one read-only array; at most one is held.
    counting_distribution forms its distribution afresh for the caller."""

    def test_alternating_marked_counts_match_fresh(self):
        config = CountingConfig(p=7, s=0.25)
        z = frozenset({1, 2})
        for marked in (2, 5, 2, 2, 0, 5, 8, 0):
            alice, bob = parties(db_with_marked(3, marked, seed=marked), 1)
            bob = bob.with_key(make_key("modadd", 3, 3))
            quantum_count("alice", alice, bob, z, config, np.random.default_rng(marked))
            assert counting._readout_cdf.cache_info().currsize == 1
            cdf = counting._readout_cdf(marked, 3, config.P)
            # read-only: a write must fail rather than change the held one
            assert not cdf.flags.writeable
            with pytest.raises(ValueError):
                cdf[0] = 1.0
            fresh = _readout_distribution(marked, 3, config.P)
            assert cdf.tobytes() == np.cumsum(fresh).tobytes()
            held = counting._readout_cdf.cache_info()
            got = counting_distribution("alice", alice, bob, z, config)
            # the caller's own array, formed without touching the held sum
            assert counting._readout_cdf.cache_info() == held
            assert got.tobytes() == fresh.tobytes()
            assert got.flags.writeable and got.flags.owndata and not np.shares_memory(got, cdf)
            got[0] = 1.0
            again = counting_distribution("alice", alice, bob, z, config)
            assert again is not got and again.tobytes() == fresh.tobytes()
            assert counting._readout_cdf(marked, 3, config.P).tobytes() == np.cumsum(fresh).tobytes()

    def test_one_readout_per_marked_count(self, monkeypatch):
        formed = []

        def spy(marked, n, P):
            formed.append((marked, n, P))
            return _readout_distribution(marked, n, P)

        monkeypatch.setattr(counting, "_readout_distribution", spy)
        counting._readout_cdf.cache_clear()
        alice, bob = parties(DB16_T4, 1)
        config = CountingConfig(p=6, s=0.25, agreement_band=1e-9, max_rounds=3)
        rng = np.random.default_rng(5)
        est = joint_support(alice, bob, frozenset({1, 2}), config, rng)
        assert est.rounds_used == 3  # six counts
        joint_support(alice, bob, frozenset({1}), config, rng)
        joint_support(alice, bob, frozenset({1, 2}), config, rng)
        assert formed == [(4, 4, 64), (8, 4, 64), (4, 4, 64)]

    # tracemalloc at p = 20 (Python 3.11, numpy 2.4): the readout is formed
    # in one array of 8 B per value, its mirror takes a half-length sum
    # (4 B) and its cumulative sum is summed in place, so 8 B per value is
    # held; a second array for the distribution would add 8 B to both.
    PEAK_PER_VALUE, HELD_PER_VALUE = 12, 8
    # room for the interpreter's own objects; one more byte per value is 1 MiB
    SLACK = 8 << 10

    def test_footprint_per_readout_value(self):
        P = 1 << 20
        counting._readout_cdf.cache_clear()
        tracemalloc.start()
        try:
            counting._readout_cdf(123457, 20, P)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_PER_VALUE * P + self.SLACK, f"peak {peak / P:.3f} B per value"
        assert held <= self.HELD_PER_VALUE * P + self.SLACK, f"held {held / P:.3f} B per value"


class TestJointSupport:
    def test_different_address_spaces_refused(self):
        # alice over 2^2 rows, bob over 2^3, so over two databases: refused
        # before any oracle call
        alice, _ = parties(FOUR_ROWS, 2)
        _, bob = parties(TransactionDatabase(3, FOUR_ROWS.rows * 2, 8), 2)
        config = CountingConfig(p=4, s=0.4)
        z = frozenset({1, 3})
        refusal = "parties are not cut from one database at one split"
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

    def test_views_cut_at_two_splits_refused(self):
        # Alice's view split at 1 and Bob's at 3 leave item 2, of exact
        # support 1/4, to neither party: the count would read 1.0
        db = TransactionDatabase(4, ("1000", "0100", "0010", "0001"), 4)
        alice, _ = parties(db, 1)
        _, bob = parties(db, 3)
        config = CountingConfig(p=4, s=0.2)
        z = frozenset({2})
        refusal = "^parties are not cut from one database at one split$"
        transcript = Transcript()
        with pytest.raises(ValueError, match=refusal):
            joint_support(alice, bob, z, config, np.random.default_rng(0), transcript)
        for initiator, a, b in (
            ("alice", alice, bob.with_key(make_key("bitflip", 1, 2))),
            ("bob", alice.with_key(make_key("bitflip", 1, 2)), bob),
        ):
            with pytest.raises(ValueError, match=refusal):
                quantum_count(initiator, a, b, z, config, np.random.default_rng(0), transcript)
            with pytest.raises(ValueError, match=refusal):
                counting_distribution(initiator, a, b, z, config, transcript)
            with pytest.raises(ValueError, match=refusal):
                statevector_distribution(initiator, a, b, z, CountingConfig(p=2, s=0.2), transcript)
        assert transcript.records == []

    def test_views_of_two_databases_refused(self):
        # an equal-valued copy is another database; and a count over views
        # of 3 and of 4 real rows would divide by Alice's 3
        db = FOUR_ROWS
        twin = TransactionDatabase.from_bits(db.bits.copy(), db.original_count)
        assert twin == db
        three_real = TransactionDatabase(2, ("11", "10", "01", "00"), 3)
        four_real = TransactionDatabase(2, ("11", "10", "01", "11"), 4)
        config = CountingConfig(p=4, s=0.3)
        refusal = "^parties are not cut from one database at one split$"
        transcript = Transcript()
        for (alice, _), (_, bob), z in (
            (parties(db, 2), parties(twin, 2), frozenset({1, 3})),
            (parties(three_real, 1), parties(four_real, 1), frozenset({1, 2})),
        ):
            with pytest.raises(ValueError, match=refusal):
                joint_support(alice, bob, z, config, np.random.default_rng(0), transcript)
            with pytest.raises(ValueError, match=refusal):
                estimate_confidence(alice, bob, {1}, {2}, config, np.random.default_rng(0), transcript)
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

    def test_agreement_rule_refuses_a_gap_of_exactly_the_band(self, monkeypatch):
        # s = 0.5 and band 0.5: agreement_band * s = 0.25 = |0.25 - 0.5|,
        # and the estimates must differ by less
        values = iter([0.25, 0.5])
        monkeypatch.setattr(
            "qpdm.counting.quantum_count", lambda *a, **k: next(values)
        )
        alice, bob = parties(DB16_T4, 1)
        config = CountingConfig(p=6, s=0.5, agreement_band=0.5, max_rounds=1)
        est = joint_support(alice, bob, frozenset({1, 2}), config, np.random.default_rng(0))
        assert not est.accepted
        assert (est.rounds_used, est.s1, est.s2) == (1, 0.25, 0.5)

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
        with pytest.raises(ValueError, match="^X and Y must be disjoint$"):
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
