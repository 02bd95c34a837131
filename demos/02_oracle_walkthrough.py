"""Step-by-step walk through one oracle call between the two parties.

Alice holds the first two item columns, Bob the rest. The address register
starts in a skewed superposition so every move is visible: Bob encrypts the
addresses with his secret bijection, each party loads its rows from QRAM,
XORs its containment flag and erases the load within its step, Alice
applies the phase of the AND of the two flags, the flags are erased in
reverse, and Bob undoes the encryption. A load lives only inside a step,
so the per-step dump shows the address, the two flags and the ancilla.
The final state is the input with a sign flipped exactly on the
transactions that contain the whole itemset, and the flags return to zero.
"""
import numpy as np

from qpdm import TransactionDatabase, Transcript, build_qram, make_key, run_oracle_u, vertical_partition
from qpdm.protocol import oracle_layout
from qpdm.qsim import SparseState

DB = TransactionDatabase(
    4, ("1100", "1111", "0110", "1010", "0011", "1101", "0000", "1011"), 8
)
SPLIT = 2
Z = frozenset({2, 3})  # one item on each side
KEY = make_key("bitflip", 5, 3)


def main():
    alice_view, bob_view = vertical_partition(DB, SPLIT)
    alice = build_qram(alice_view, 3)
    bob = build_qram(bob_view, 3).with_key(KEY)
    layout = oracle_layout(3, SPLIT, DB.n_items)

    print("rows (items 1..4):", " ".join(DB.rows))
    print(f"itemset Z = {sorted(Z)}: Alice tests item 2, Bob tests item 3")
    print(f"Bob's secret key: bit flip with lambda = {KEY.parameter}")
    print()

    amps = np.arange(1, 9, dtype=float)
    amps /= np.linalg.norm(amps)
    off = layout.offset("address")
    state = SparseState(layout, {j << off: complex(amps[j]) for j in range(8)})

    record = []
    transcript = Transcript()
    final = run_oracle_u(state, alice, bob, Z, transcript, record=record)

    print("register columns: counting(absent) address b a ancilla")
    print("input:")
    print(state.dump())
    for tag, snapshot in record:
        print(f"after {tag}:")
        print(snapshot.dump())
        print()

    flipped = sorted(
        j for j in range(8) if final.amps[j << off].real * state.amps[j << off].real < 0
    )
    marked = sorted(j for j in range(8) if DB.rows[j][1] == "1" and DB.rows[j][2] == "1")
    print(f"sign flipped on addresses {flipped}")
    print(f"transactions containing Z  {marked}  (equal: the oracle is exact)")
    print()
    print("communication transcript (direction, qubits, step):")
    for event in transcript.events:
        print(f"  {event.direction:<13} {event.qubits}  {event.step}")


if __name__ == "__main__":
    main()
