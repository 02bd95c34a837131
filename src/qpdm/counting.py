"""Quantum counting over the two-party oracle, the two-sided agreement rule
for accepting a support value, and confidence estimation.

A count is phase estimation of the Grover iteration built from one party's
initiated oracle: counting and address registers go to uniform
superposition, counting qubit i controls 2^i Grover iterations, the
counting register goes through the inverse QFT and is measured, and the
readout f becomes the estimate sin^2(pi f / P) of the marked fraction of
the padded address space, rescaled to the database's real row count.

The readout distribution is computed in closed form. The Grover iteration
G keeps the uniform address state inside span{|marked>, |unmarked>}, where
it is a rotation with eigenvalues exp(+-2i theta), sin^2(theta) = M / 2^n,
and the uniform state has weight 1/2 on each eigenvector (Brassard, Hoyer
and Tapp, quant-ph/9805082). Phase estimation of the eigenphase 2 theta
reads f with the probability of the Fejer kernel around r = P theta / pi,
sin^2(pi phi) / (P sin(pi d / P))^2, where phi = r - floor(r) and d = f - r
is reduced mod P to [-P/2, P/2); when phi = 0, as at M = 0 or M = 2^n, the
kernel is a point mass on r. The -2 theta kernel is its mirror f -> -f mod
P, and their mean, formed in O(P) with no transform, depends on the
marked count M alone. M is the count of ``protocol.joint_column``, the
column of ``TransactionDatabase.contains``: the oracle's diagonal is that
column permuted by the responder's key, which keeps its count, so a count
makes the pair checks of an oracle call but applies no key, checks no
bijection (every key is one where it is made) and builds no state. A
party is its ``PartitionedView``; the responder's carries the count's key
(``with_key``), which sets the oracle call on a state, the gate-level
reference and what a transfer reveals.

A count reads only the distribution's cumulative sum, formed once per
(M, n, P) and held, read-only, until a count needs another: all 2R counts
of an R-round joint_support share one marked count, whatever the key or
the initiator, and so share one cumulative sum; at most one is held.
Every count logs the transcript of the circuit it stands for as one
record of its P-1 logical oracle calls, and consumes one uniform draw,
compared against the held cumulative sum. statevector_distribution runs
the circuit itself, every controlled Grover call over the full counting
register; it is exponential in p and is the reference the tests pin this
module to. It alone needs the gate-level engine, ``qsim``, and imports it
on first use, so a command never loads it.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .dataset import FrozenRecord, PartitionedView, SimulationError, _is_integer, rule_sides
from .protocol import (
    KEY_FAMILIES,
    Transcript,
    controlled_grover,
    joint_column,
    oracle_layout,
    run_oracle_u,  # noqa: F401 -- unused; perfbench/tracing.py wraps counting.run_oracle_u
    sample_key,
)

if TYPE_CHECKING:  # the statevector reference imports the engine on first use
    from . import qsim

# The cumulative sum held for the next count takes 8 B per readout value;
# forming one peaks at 12 B per value, and at 20 B while it is formed
# beside the held one (tracemalloc, p = 20).
MAX_COUNTING_WIDTH = 24


class EstimationError(RuntimeError):
    """An estimate is unusable (too rare an antecedent, no agreement)."""


class CountingConfig(FrozenRecord):
    """Counting width, preset support threshold, and the agreement rule.

    P = 2^p counting values; a round's two estimates are accepted when they
    differ by less than agreement_band * s.
    """

    __slots__ = ("p", "s", "agreement_band", "max_rounds", "key_family")

    def __init__(
        self,
        p: int,
        s: float,
        agreement_band: float = 0.01,
        max_rounds: int = 20,
        key_family: str = "bitflip",
    ):
        self._init(p, s, agreement_band, max_rounds, key_family)
        if not _is_integer(self.p):
            raise ValueError(f"counting width p must be an integer, got {self.p!r}")
        if not 1 <= self.p <= MAX_COUNTING_WIDTH:
            raise ValueError(f"counting width p must lie in 1..{MAX_COUNTING_WIDTH}, got {self.p}")
        if not 0 < self.s < 1:
            raise ValueError("support threshold s must lie in (0, 1)")
        if not (math.isfinite(self.agreement_band) and self.agreement_band > 0):
            raise ValueError("agreement band must be positive and finite")
        if not _is_integer(self.max_rounds):
            raise ValueError(f"max_rounds must be an integer, got {self.max_rounds!r}")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.key_family not in KEY_FAMILIES:
            raise ValueError(f"unknown key family {self.key_family!r}")

    @property
    def P(self) -> int:
        return 1 << self.p


def default_counting_width(s: float) -> int:
    """p with 2^p >= 2000/s, the recommended precision for a threshold
    s > 0. Where 2000/s overflows a float, p is read from the exact
    quotient; elsewhere from the float one."""
    if not 0 < s < math.inf:
        raise ValueError(f"support threshold s must be positive and finite, got {s!r}")
    ratio = 2000.0 / s
    if math.isinf(ratio):
        return (math.ceil(Fraction(2000) / Fraction(s)) - 1).bit_length()
    return max(1, math.ceil(math.log2(ratio)))


class SupportEstimate(FrozenRecord):
    """An accepted (or exhausted) support value with its error bound."""

    __slots__ = ("value", "error_bound", "rounds_used", "s1", "s2", "accepted")

    def __init__(
        self,
        value: float | Fraction,
        error_bound: float,
        rounds_used: int,
        s1: float,
        s2: float,
        accepted: bool,
    ):
        self._init(value, error_bound, rounds_used, s1, s2, accepted)


class ConfidenceEstimate(FrozenRecord):
    """Estimated confidence with first-order and plain-sum error bounds."""

    __slots__ = ("value", "error_bound", "error_bound_sum", "numerator", "antecedent", "accepted")

    def __init__(
        self,
        value: float,
        error_bound: float,
        error_bound_sum: float,
        numerator: SupportEstimate,
        antecedent: SupportEstimate,
        accepted: bool,
    ):
        self._init(value, error_bound, error_bound_sum, numerator, antecedent, accepted)


def phase_readout(f: int, P: int) -> float:
    """Marked-fraction estimate from the counting readout f."""
    return math.sin(math.pi * f / P) ** 2


def estimate_error_bound(value: float, P: int) -> float:
    """Per-count error bound 2*pi*sqrt(value)/P + pi^2/P^2."""
    return 2 * math.pi * math.sqrt(max(value, 0.0)) / P + math.pi**2 / P**2


def confidence_bound(
    supp_xy: float, err_xy: float, supp_x: float, err_x: float
) -> tuple[float, float]:
    """(conf, bound): conf(X => Y) = supp(X u Y) / supp(X) and its first-order
    quotient error bound err_xy / supp(X) + err_x * supp(X u Y) / supp(X)^2.
    Exact (Fraction) supports give an exact confidence."""
    return supp_xy / supp_x, err_xy / supp_x + err_x * supp_xy / (supp_x * supp_x)


def _resolve_parties(initiator: str, alice: PartitionedView, bob: PartitionedView):
    if initiator == "alice":
        return alice, bob
    if initiator == "bob":
        return bob, alice
    raise ValueError(f"initiator must be 'alice' or 'bob', got {initiator!r}")


def _marked_count(init: PartitionedView, resp: PartitionedView, z: frozenset) -> int:
    """M: the rows both parties hold z on, a count the key's bijection keeps."""
    return int(np.count_nonzero(joint_column(init, resp, z, init.address_width)))


def _statevector_prepared(
    init: PartitionedView,
    resp: PartitionedView,
    z: frozenset,
    config: CountingConfig,
    transcript: Transcript | None,
) -> qsim.SparseState:
    from . import qsim

    # joint_column refuses a pair not cut from one database: one width fits both
    layout = oracle_layout(init.address_width, init.split_point, init.width + resp.width, p=config.p)
    transcript = transcript if transcript is not None else Transcript()
    st = qsim.prepare_basis(layout)
    st = qsim.apply_w(st, "counting")
    st = qsim.apply_w(st, "address")
    for i in range(config.p):
        ctrl = layout.qubit("counting", i)
        for _ in range(1 << i):
            st = controlled_grover(st, init, resp, z, ctrl, transcript)
    return qsim.inverse_qft(st, "counting")


def _readout_distribution(marked: int, n: int, P: int) -> np.ndarray:
    """Exact readout distribution of a count with `marked` of 2^n addresses
    marked: the mean of the Fejer kernels around the eigenphases +-2 theta,
    formed in place in one real length-P array."""
    theta = math.asin(math.sqrt(marked / (1 << n)))
    r = P * theta / math.pi  # the +2 theta kernel peaks at readout r
    m = math.floor(r)
    phi = r - m
    if phi == 0:
        probs = np.zeros(P)
        probs[m] = 1.0
    else:
        # d = f - r: f - m is reduced exactly mod P before phi is subtracted
        probs = np.arange(P // 2 - m, P + P // 2 - m, dtype=float)
        np.mod(probs, P, out=probs)
        probs -= P // 2
        probs -= phi
        probs *= math.pi / P
        np.sin(probs, out=probs)
        np.square(probs, out=probs)
        np.divide((math.sin(math.pi * phi) / P) ** 2, probs, out=probs)
    # the -2 theta kernel is this one mirrored, f -> -f mod P: each pair
    # (f, P - f) takes its mean; f = 0 and P/2 are their own mirrors
    half = P // 2
    mean = probs[1:half] + probs[:half:-1]
    mean *= 0.5
    probs[1:half] = probs[:half:-1] = mean
    if abs(probs.sum() - 1.0) > 1e-9:
        raise SimulationError("counting distribution lost normalization")
    return probs


# The readout depends on (M, n, P) alone, and every count of a joint_support
# has the same M, so the last cumulative sum is held, read-only, for the next.
@functools.lru_cache(maxsize=1)
def _readout_cdf(marked: int, n: int, P: int) -> np.ndarray:
    """The cumulative sum of the readout distribution, summed in place."""
    cdf = _readout_distribution(marked, n, P)
    np.cumsum(cdf, out=cdf)
    cdf.flags.writeable = False
    return cdf


def _count_readout(
    initiator: str,
    alice: PartitionedView,
    bob: PartitionedView,
    z: frozenset,
    config: CountingConfig,
    transcript: Transcript | None,
) -> tuple[int, int]:
    """(M, n) of one count: reads the marked count from the joint column
    and logs the transcript of all P-1 oracle calls of the counting
    circuit."""
    init, resp = _resolve_parties(initiator, alice, bob)
    marked = _marked_count(init, resp, z)
    if transcript is not None:
        transcript.log_calls(init.role, init.address_width, config.P - 1)
    return marked, init.address_width


def counting_distribution(
    initiator: str,
    alice: PartitionedView,
    bob: PartitionedView,
    z: frozenset,
    config: CountingConfig,
    transcript: Transcript | None = None,
) -> np.ndarray:
    """Exact probability vector over the counting readout f = 0 .. P-1,
    formed afresh, 8 B per value, as an array the caller owns. Reads M from
    the joint column and logs all P-1 oracle calls, as a count does."""
    marked, n = _count_readout(initiator, alice, bob, z, config, transcript)
    return _readout_distribution(marked, n, config.P)


def statevector_distribution(
    initiator: str,
    alice: PartitionedView,
    bob: PartitionedView,
    z: frozenset,
    config: CountingConfig,
    transcript: Transcript | None = None,
) -> np.ndarray:
    """The readout distribution of the counting circuit simulated gate by
    gate, every controlled Grover call over the full counting register.

    The reference counting_distribution is tested against; its cost grows
    as 2^p state labels times P oracle calls.
    """
    init, resp = _resolve_parties(initiator, alice, bob)
    st = _statevector_prepared(init, resp, z, config, transcript)
    readouts = st.extract(st.labels, "counting")
    return np.bincount(readouts, weights=np.abs(st.amplitudes) ** 2, minlength=config.P)


def quantum_count(
    initiator: str,
    alice: PartitionedView,
    bob: PartitionedView,
    z: frozenset,
    config: CountingConfig,
    rng,
    transcript: Transcript | None = None,
) -> float:
    """One count: run phase estimation, measure, and return the support
    estimate rescaled from the padded space to the real row count (at
    least one in every database). ``rng`` is any generator with
    ``random()`` and ``integers(low, high)``, numpy's included.
    """
    cdf = _readout_cdf(*_count_readout(initiator, alice, bob, z, config, transcript), config.P)
    # the first readout whose cumulative probability exceeds one uniform
    # draw; the clamp catches a cumulative sum that rounds to just below 1
    f = min(int(np.searchsorted(cdf, rng.random(), side="right")), config.P - 1)
    scale = (1 << alice.address_width) / alice.original_count
    return min(1.0, phase_readout(f, config.P) * scale)


def joint_support(
    alice: PartitionedView,
    bob: PartitionedView,
    z: frozenset,
    config: CountingConfig,
    rng,
    transcript: Transcript | None = None,
) -> SupportEstimate:
    """Alternate Alice- and Bob-initiated counts with fresh keys each round
    until the two estimates agree within agreement_band * s.

    On exhaustion the last round's estimates are reported with
    accepted=False; the caller decides what to do with them.

    ``rng`` is any generator with ``random()`` and ``integers(low, high)``,
    numpy's included.
    """
    n = alice.address_width
    band = config.agreement_band * config.s
    s1 = s2 = math.nan
    rounds, accepted = 0, False
    for rounds in range(1, config.max_rounds + 1):
        bob_keyed = bob.with_key(sample_key(config.key_family, n, rng))
        s1 = quantum_count("alice", alice, bob_keyed, z, config, rng, transcript)
        alice_keyed = alice.with_key(sample_key(config.key_family, n, rng))
        s2 = quantum_count("bob", alice_keyed, bob, z, config, rng, transcript)
        accepted = abs(s1 - s2) < band
        if accepted:
            break
    value = (s1 + s2) / 2
    return SupportEstimate(value, estimate_error_bound(value, config.P), rounds, s1, s2, accepted)


def estimate_confidence(
    alice: PartitionedView,
    bob: PartitionedView,
    x: frozenset,
    y: frozenset,
    config: CountingConfig,
    rng,
    transcript: Transcript | None = None,
) -> ConfidenceEstimate:
    """Estimated conf(X => Y) = supp(X u Y) / supp(X) from two joint counts.

    The reported error_bound is confidence_bound's first-order quotient
    propagation; the plain sum of the two support bounds is reported
    alongside as error_bound_sum.

    ``rng`` is any generator with ``random()`` and ``integers(low, high)``,
    numpy's included.
    """
    x, y = rule_sides(x, y, alice.width + bob.width)
    antecedent = joint_support(alice, bob, x, config, rng, transcript)
    if not antecedent.accepted:
        raise EstimationError("antecedent support estimate was not accepted")
    if antecedent.value <= antecedent.error_bound:
        raise EstimationError(
            "antecedent too rare: support estimate does not exceed its error bound"
        )
    numerator = joint_support(alice, bob, x | y, config, rng, transcript)
    value, bound = confidence_bound(
        numerator.value, numerator.error_bound, antecedent.value, antecedent.error_bound
    )
    return ConfidenceEstimate(
        value=value,
        error_bound=bound,
        error_bound_sum=numerator.error_bound + antecedent.error_bound,
        numerator=numerator,
        antecedent=antecedent,
        accepted=numerator.accepted,
    )
