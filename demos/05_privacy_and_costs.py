"""What the encryption permutation hides and what it does not, how the
classical scheme falls to an exhaustive-key search, and what each protocol
pays in communication.

Part 1 enumerates every key of the bit-flip and modular-add families and
shows that the encrypted image of any fixed transaction index is exactly
uniform over the whole address space. That holds for a key of the
register's width, which the oracle call enforces: a 2-bit bit-flip key
on 3 qubits would send index 5 only to {4, 5, 6, 7}, half the space, and
the call refuses it. That hides which row a measured
address is, but not the flag that travels with it: on the uniform input,
the (address, flag) pairs the initiator receives after step 3 are
(i, c_B(i)) for every address i, whatever the key, because
sum_j |u(j)>|c_B(u(j))> = sum_i |i>|c_B(i)> for any bijection u. Whether
that breaks the paper's privacy claim depends on its threat model; this
demo does not measure it.

Part 2 replays the commutative-encryption baseline and recovers Bob's
secret exponent by brute force from one observed exchange.

Part 3 compares the logged costs: qubits for the quantum protocol, bits
for the classical one, on the same support query.
"""
import numpy as np

from qpdm import (
    ClassicalKey,
    CountingConfig,
    Transcript,
    build_qram,
    classical_support,
    exhaustive_key_attack,
    joint_support,
    parse_database,
    vertical_partition,
)
from qpdm.classical import BitLog, index_set, next_prime, valid_exponents
from qpdm.dataset import exact_support, pad_to_power_of_two
from qpdm.protocol import all_keys, transcript_total
from pathlib import Path

DB_PATH = Path(__file__).parent / "data" / "market.csv"


def key_uniformity():
    print("1. key-image uniformity")
    n = 3
    for family in ("bitflip", "modadd"):
        j0 = 5
        images = sorted(key.apply(j0) for key in all_keys(family, n))
        print(f"   {family:<8} images of j0={j0} over all 2^{n} keys: {images}")
    cyclic_images = sorted({key.apply(1) for key in all_keys("cyclic", n)})
    print(f"   cyclic   orbit of j0=1 is only {cyclic_images} (documented caveat:")
    print("            the cyclic family is not uniform over indices)")
    print()


def classical_attack():
    print("2. exhaustive-key attack on the classical protocol")
    p, e_a, e_b = 11, 9, 3
    s1 = {2, 8}
    key_a, key_b = ClassicalKey(p, e_a), ClassicalKey(p, e_b)
    singly = {key_a.encrypt(x) for x in s1}
    doubly = {key_b.encrypt(x) for x in singly}
    print(f"   Alice sends u_A(S1) = {sorted(singly)}; Bob returns u_B(u_A(S1)) = {sorted(doubly)}")
    candidates = exhaustive_key_attack(p, singly, doubly)
    print(f"   trying every admissible exponent w in {valid_exponents(p).tolist()}: only w = {candidates}")
    print(f"   satisfies the observed mapping, so Bob's key e_B = {candidates[0]} is exposed")
    print()


def communication_costs():
    print("3. communication on one support query")
    db = parse_database(DB_PATH.read_text())
    padded = pad_to_power_of_two(db)
    n = (padded.n_transactions - 1).bit_length()
    alice_view, bob_view = vertical_partition(padded, 2)
    alice, bob = build_qram(alice_view, n), build_qram(bob_view, n)
    z = frozenset({1, 2})
    config = CountingConfig(p=9, s=0.25)
    transcript = Transcript()
    est = joint_support(alice, bob, z, config, np.random.default_rng(1), transcript)
    qubits, per_call = transcript_total(transcript)
    print(f"   quantum:   estimate {est.value:.4f} (exact {float(exact_support(db, z)):.4f})")
    print(f"              {transcript.oracle_calls} oracle calls, {per_call} qubits per call, {qubits} qubits total")

    prime = next_prime(db.original_count)
    exponents = valid_exponents(prime)
    key_a = ClassicalKey(prime, int(exponents[0]))
    key_b = ClassicalKey(prime, int(exponents[-1]))
    bits = BitLog()
    value = classical_support(
        index_set(alice_view, z), index_set(bob_view, z), key_a, key_b, db.original_count, bits
    )
    print(f"   classical: support {float(value):.4f}, {bits.total} bits total")
    print("              (grows with the number of matching transactions, not log N)")


def main():
    key_uniformity()
    classical_attack()
    communication_costs()


if __name__ == "__main__":
    main()
