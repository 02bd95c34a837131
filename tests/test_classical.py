import math
from fractions import Fraction

import numpy as np
import pytest

from qpdm.classical import (
    BitLog,
    ClassicalKey,
    classical_support,
    exhaustive_key_attack,
    index_set,
    is_prime,
    next_prime,
    valid_exponents,
)
from qpdm.dataset import TransactionDatabase, vertical_partition


def key_space_reference(p):
    """The key space as first written: one gcd per odd exponent."""
    return [e for e in range(3, p - 1, 2) if math.gcd(e, p - 1) == 1]


class TestKey:
    def test_known_values(self):
        key_a = ClassicalKey(11, 9)
        assert key_a.encrypt(2) == 6
        assert key_a.encrypt(8) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassicalKey(10, 3)  # not prime
        with pytest.raises(ValueError):
            ClassicalKey(11, 5)  # 5 divides p-1 = 10
        with pytest.raises(ValueError):
            ClassicalKey(11, 4)  # even
        with pytest.raises(ValueError):
            ClassicalKey(11, 11)  # out of range
        # a float p or e is refused before math.gcd or pow can see it
        for p, e, message in ((7, 3.0, "exponent must be an integer, got 3.0"),
                              (7.0, 5, "prime must be an integer, got 7.0")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                ClassicalKey(p, e)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ClassicalKey(11, 3).encrypt(0)
        with pytest.raises(ValueError):
            ClassicalKey(11, 3).encrypt(11)
        with pytest.raises(ValueError, match="^value must be an integer, got 1.5$"):
            ClassicalKey(11, 3).encrypt(1.5)

    def test_commutativity(self):
        rng = np.random.default_rng(0)
        p = 101
        exponents = valid_exponents(p)
        for _ in range(100):
            e_a, e_b = rng.choice(exponents, size=2)
            x = int(rng.integers(1, p))
            key_a, key_b = ClassicalKey(p, int(e_a)), ClassicalKey(p, int(e_b))
            assert key_b.encrypt(key_a.encrypt(x)) == key_a.encrypt(key_b.encrypt(x))

    def test_key_space_matches_gcd_definition(self):
        # composites, p <= 2 and the default prime of a 2^20-row file included
        for p in [*range(-3, 3000), 1048583]:
            got = valid_exponents(p)
            assert got.dtype == np.int64
            assert got.tolist() == key_space_reference(p), p

    def test_prime_helpers(self):
        assert is_prime(2) and is_prime(11) and not is_prime(1) and not is_prime(9)
        assert next_prime(16) == 17
        assert next_prime(11) == 13


class TestSupport:
    def keys(self, p=11):
        return ClassicalKey(p, 9), ClassicalKey(p, 3)

    def test_identical_sets(self):
        key_a, key_b = self.keys()
        bits = BitLog()
        assert classical_support({2, 5, 8}, {2, 5, 8}, key_a, key_b, 10, bits) == Fraction(3, 10)

    def test_known_double_encryption_chain(self):
        key_a, key_b = self.keys()
        ua = {key_a.encrypt(x) for x in {2, 8}}
        assert ua == {6, 7}
        assert {key_b.encrypt(x) for x in ua} == {2, 7}

    def test_matches_direct_intersection(self):
        rng = np.random.default_rng(1)
        p = 103
        exponents = valid_exponents(p)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            s1 = {int(x) for x in rng.choice(range(1, n + 1), size=n // 2, replace=False)}
            s2 = {int(x) for x in rng.choice(range(1, n + 1), size=n // 3 + 1, replace=False)}
            key_a = ClassicalKey(p, int(rng.choice(exponents)))
            key_b = ClassicalKey(p, int(rng.choice(exponents)))
            got = classical_support(s1, s2, key_a, key_b, n, BitLog())
            assert got == Fraction(len(s1 & s2), n)

    def test_double_encryption_commutes_as_sets(self):
        key_a, key_b = self.keys(101)
        s = {3, 17, 42}
        ab = {key_b.encrypt(key_a.encrypt(x)) for x in s}
        ba = {key_a.encrypt(key_b.encrypt(x)) for x in s}
        assert ab == ba

    def test_bit_accounting(self):
        key_a, key_b = self.keys()
        bits = BitLog()
        s1, s2 = {2, 8}, {3, 5, 7}
        classical_support(s1, s2, key_a, key_b, 10, bits)
        per = 4  # ceil(log2 11)
        assert bits.total == 2 * (len(s1) + len(s2)) * per
        assert [d for d, _ in bits.events] == [
            "alice_to_bob",
            "bob_to_alice",
            "bob_to_alice",
            "alice_to_bob",
        ]

    def test_prime_mismatch(self):
        with pytest.raises(ValueError):
            classical_support({1}, {1}, ClassicalKey(11, 3), ClassicalKey(13, 5), 5, BitLog())

    def test_non_integer_n_or_value_refused(self):
        key_a, key_b = self.keys()
        with pytest.raises(ValueError, match="^N must be an integer, got 2.5$"):
            classical_support({1}, {1}, key_a, key_b, 2.5, BitLog())
        with pytest.raises(ValueError, match="^value must be an integer, got 1.5$"):
            classical_support({1.5}, {1}, key_a, key_b, 5, BitLog())

    def test_index_set_from_view(self):
        db = TransactionDatabase(3, ("110", "100", "011", "111"), 4)
        alice, bob = vertical_partition(db, 2)
        assert index_set(alice, frozenset({1})) == {1, 2, 4}
        assert index_set(bob, frozenset({3})) == {3, 4}
        # empty part on this side: every real row qualifies
        assert index_set(bob, frozenset({1})) == {1, 2, 3, 4}

    def test_index_set_refuses_items_outside_the_columns(self):
        # an item 0 would read Alice's last column, an item 4 past Bob's one
        db = TransactionDatabase(3, ("110", "100", "011", "111"), 4)
        for view in vertical_partition(db, 2):
            for z, message in (
                (set(), "^empty itemset$"),
                ({0}, "^item indices are 1-based$"),
                ({4}, r"^item index outside 1\.\.3$"),
            ):
                with pytest.raises(ValueError, match=message):
                    index_set(view, frozenset(z))


class TestAttack:
    def test_worked_example(self):
        assert exhaustive_key_attack(11, {6, 7}, {2, 7}) == [3]

    def test_degenerate_fixed_point(self):
        # {1} -> {1} under every exponent
        assert exhaustive_key_attack(11, {1}, {1}) == valid_exponents(11).tolist()

    def test_true_key_always_recovered(self):
        rng = np.random.default_rng(2)
        for p in (11, 23, 47, 101):
            exponents = valid_exponents(p)
            for _ in range(10):
                e_b = int(rng.choice(exponents))
                size = int(rng.integers(1, 5))
                singly = {int(x) for x in rng.choice(range(1, p), size=size, replace=False)}
                doubly = {pow(x, e_b, p) for x in singly}
                assert e_b in exhaustive_key_attack(p, singly, doubly)

    def test_inconsistent_input_rejected(self):
        # no admissible exponent maps {6, 7} onto {1, 2} mod 11
        with pytest.raises(ValueError):
            exhaustive_key_attack(11, {6, 7}, {1, 2})
        with pytest.raises(ValueError, match="^prime must be an integer, got 11.0$"):
            exhaustive_key_attack(11.0, {2}, {8})
        for singly, doubly, name in (({1.5}, {2}, "singly"), ({2}, {8.0}, "doubly")):
            with pytest.raises(ValueError, match=rf"^{name} must be a non-empty set of integers in \[1, 10\]$"):
                exhaustive_key_attack(11, singly, doubly)

    def test_large_prime_guard(self):
        with pytest.raises(ValueError):
            exhaustive_key_attack(1_000_003, {2}, {8})
