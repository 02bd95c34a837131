"""qpdm's own PCG64 stream, which the commands draw from, equals numpy's
``default_rng`` draw for draw: the same SeedSequence seeding, the same
64-bit outputs, and the same 32-bit words for ``integers``, the upper half
of an output held for the next one."""
import os

import numpy as np
import pytest

from qpdm._pcg64 import Generator
from qpdm.classical import next_prime, valid_exponents

# 3 << 30 rejects about a quarter of its words, so Lemire's retry runs too
BOUNDS = (1, 2, 3, 20, 1 << 20, 3 << 30, 1 << 31)
# the key space of the widest prime a compare admits, about 2^20 exponents
EXPONENTS = valid_exponents(next_prime(1 << 22))
SEEDS = [0, 11, 1 << 32, 1 << 70, [], [11, 3], [5, 1, 2], [3, (1 << 32) + 5, 7], [1 << 40, 9, 10, 11, 12, 13]]


def draws(rng, rounds=60):
    # seven 32-bit words a round, so random() alternately finds an upper
    # half held and none
    out = []
    for _ in range(rounds):
        out.append(rng.random())
        out.extend(int(rng.integers(0, b)) for b in BOUNDS)
        out.append(int(rng.choice(EXPONENTS)))
    return out


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_draws_equal_numpys(seed):
    assert draws(Generator(seed)) == draws(np.random.default_rng(seed))


def test_first_draws_of_seed_zero():
    # pinned as numbers too, so a later numpy cannot move them unseen
    rng = Generator(0)
    assert (rng.random(), rng.integers(0, 1 << 20), rng.integers(0, 20)) == (0.6369616873214543, 535965, 5)


def test_no_seed_takes_128_bits_from_urandom(monkeypatch):
    entropy = bytes(range(1, 17))
    sizes = []
    monkeypatch.setattr(os, "urandom", lambda size: sizes.append(size) or entropy[:size])
    rng = Generator()
    assert sizes == [16]
    assert draws(rng) == draws(np.random.default_rng(int.from_bytes(entropy, "little")))


@pytest.mark.parametrize("seed", [-1, [3, -1]], ids=str)
def test_negative_seed_refused_as_numpy_refuses_it(seed):
    with pytest.raises(ValueError):
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        Generator(seed)


@pytest.mark.parametrize("low, high", [(0, 0), (5, 5), (3, 2), (0, 1 << 32), (-1, (1 << 32) - 1)])
def test_range_empty_or_of_2_32_refused(low, high):
    with pytest.raises(ValueError, match=r"^integers needs 0 < high - low < 2\^32"):
        Generator(1).integers(low, high)


def test_range_of_one_draws_nothing():
    rng, fresh = Generator(5), Generator(5)
    first = rng.integers(0, 2)  # holds the upper half of one output
    assert [rng.integers(7, 8) for _ in range(3)] == [7, 7, 7]
    assert (first, rng.integers(0, 2), rng.random()) == (
        fresh.integers(0, 2), fresh.integers(0, 2), fresh.random()
    )
