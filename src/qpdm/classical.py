"""Classical commutative-encryption baseline and the attack that breaks it.

Both parties encrypt index sets with modular exponentiation over a shared
prime p: u(x) = x^e mod p with e odd, coprime to p-1. The two encryptions
commute, so comparing doubly-encrypted sets computes the intersection size
(and hence a support value) without revealing the raw indices. Security
rests on the attacker being limited to polynomial time; the exhaustive-key
attack here simply tries every admissible exponent and recovers the key at
desk scale.

Transaction indices are 0-based everywhere else in this package; this
protocol cannot encrypt 0, so index j enters as the value j + 1.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .dataset import MAX_ADDRESS_WIDTH, FrozenRecord, PartitionedView, Record, _is_integer

MAX_ATTACK_PRIME = 10**6
# Largest prime ``compare`` accepts, checked before any trial division.
# valid_exponents filters int64 arrays of the odd numbers below p, 36 MB
# traced at p near 2^22. Four times the largest row count, so the default
# prime, the next one above the row count, always fits.
MAX_CLASSICAL_PRIME = 4 << MAX_ADDRESS_WIDTH


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(p: int) -> None:
    """Refuse p unless it is an integer prime with a valid exponent. The key
    space {3, 5, ..., p-2} is empty for 2 and 3; above them p-2 is odd and
    coprime to p-1."""
    if not _is_integer(p):
        raise ValueError(f"prime must be an integer, got {p!r}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p < 5:
        raise ValueError(f"prime {p} admits no valid exponents")


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    candidate = n + 1
    while not is_prime(candidate):
        candidate += 1
    return candidate


def valid_exponents(p: int) -> np.ndarray:
    """The key space {3, 5, ..., p-2} restricted to gcd(e, p-1) = 1, in
    increasing order: the odd e that no odd prime factor of p-1 divides."""
    exponents = np.arange(3, p - 1, 2, dtype=np.int64)
    m, q = p - 1, 3
    while m > 0 and m % 2 == 0:
        m //= 2
    while q * q <= m:
        if m % q == 0:
            exponents = exponents[exponents % q != 0]
            while m % q == 0:
                m //= q
        q += 2
    if m > 1:
        exponents = exponents[exponents % m != 0]
    return exponents


class ClassicalKey(FrozenRecord):
    __slots__ = ("p", "e")

    def __init__(self, p: int, e: int):
        self._init(p, e)
        check_prime(self.p)
        if not _is_integer(self.e):
            raise ValueError(f"exponent must be an integer, got {self.e!r}")
        if self.e % 2 == 0 or not 3 <= self.e <= self.p - 2:
            raise ValueError(f"exponent {self.e} outside {{3, 5, ..., {self.p - 2}}}")
        if math.gcd(self.e, self.p - 1) != 1:
            raise ValueError(f"exponent {self.e} not coprime to p-1 = {self.p - 1}")

    def encrypt(self, x: int) -> int:
        """x^e mod p; commutes with any other key over the same prime."""
        if not _is_integer(x):
            raise ValueError(f"value must be an integer, got {x!r}")
        if not 1 <= x <= self.p - 1:
            raise ValueError(f"value {x} outside [1, {self.p - 1}]")
        return pow(x, self.e, self.p)


class BitLog(Record):
    """Accumulator of (direction, bits) transfers for one protocol run."""

    __slots__ = ("events",)

    def __init__(self, events: list[tuple[str, int]] | None = None):
        self.events = [] if events is None else events

    def log(self, direction: str, bits: int) -> None:
        self.events.append((direction, bits))

    @property
    def total(self) -> int:
        return sum(bits for _, bits in self.events)


def index_set(view: PartitionedView, z: frozenset) -> set[int]:
    """1-based encryptable values of the real transactions whose view rows
    contain this party's part of z."""
    hits = view.contains(z)[: view.original_count]
    return set((np.flatnonzero(hits) + 1).tolist())


def classical_support(
    s1: set[int],
    s2: set[int],
    key_a: ClassicalKey,
    key_b: ClassicalKey,
    n: int,
    bits: BitLog,
) -> Fraction:
    """|S1 intersect S2| / N via the doubly-encrypted images.

    Four transfers are logged: Alice sends u_A(S1), Bob returns
    u_B(u_A(S1)), and symmetrically for S2, each element costing
    ceil(log2 p) bits.
    """
    if key_a.p != key_b.p:
        raise ValueError("keys must share the same prime")
    if not _is_integer(n):
        raise ValueError(f"N must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("N must be positive")
    for name, s in (("S1", s1), ("S2", s2)):
        if any(not 1 <= x <= n for x in s):
            raise ValueError(f"{name} contains values outside [1, {n}]")
    if n >= key_a.p:
        raise ValueError("prime must exceed N")
    per_element = max(1, math.ceil(math.log2(key_a.p)))
    ua_s1 = {key_a.encrypt(x) for x in s1}
    bits.log("alice_to_bob", len(s1) * per_element)
    ub_ua_s1 = {key_b.encrypt(x) for x in ua_s1}
    bits.log("bob_to_alice", len(s1) * per_element)
    ub_s2 = {key_b.encrypt(x) for x in s2}
    bits.log("bob_to_alice", len(s2) * per_element)
    ua_ub_s2 = {key_a.encrypt(x) for x in ub_s2}
    bits.log("alice_to_bob", len(s2) * per_element)
    return Fraction(len(ub_ua_s1 & ua_ub_s2), n)


def exhaustive_key_attack(p: int, singly: set[int], doubly: set[int]) -> list[int]:
    """All admissible exponents w with {x^w mod p : x in singly} = doubly.

    ``singly`` is one party's singly-encrypted set as seen by the other;
    ``doubly`` its image under the victim's secret key. The true exponent
    is always among the candidates; the search is exponential in log p and
    guarded to p <= 10^6.
    """
    if p > MAX_ATTACK_PRIME:
        raise ValueError(f"attack guarded to primes <= {MAX_ATTACK_PRIME}")
    check_prime(p)
    for name, s in (("singly", singly), ("doubly", doubly)):
        if not s or any(not (_is_integer(x) and 1 <= x <= p - 1) for x in s):
            raise ValueError(f"{name} must be a non-empty set of integers in [1, {p - 1}]")
    target = set(doubly)
    candidates = [
        w for w in valid_exponents(p).tolist() if {pow(x, w, p) for x in singly} == target
    ]
    if not candidates:
        raise ValueError("no admissible exponent maps singly onto doubly; inconsistent input")
    return candidates
