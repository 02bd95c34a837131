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
marked count M alone. M is taken from one full seven-step protocol
execution per count on the uniform address state, built directly as
labels j << offset with amplitude 2^(-n/2): every query, mark and erasure
runs, and since the oracle only negates amplitudes, the output is checked
exactly to keep every label in place with amplitude +-2^(-n/2); M is the
number of negated ones, read as one integer.

The distribution is computed once per (M, n, P) and held, read-only with
its cumulative sum, until a count needs another: all 2R counts of an
R-round joint_support share one marked count, since u is a bijection, and
so share one distribution; at most one is held. Every count logs the
transcript of the circuit it stands for as one record of its P-1 logical
oracle calls, and consumes one uniform draw, compared against the held
cumulative sum. statevector_distribution runs the circuit itself, every
controlled Grover call over the full counting register; it is exponential
in p and is the reference the tests pin this module to.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import qsim
from .dataset import itemset
from .protocol import (
    KEY_FAMILIES,
    PartyState,
    Transcript,
    controlled_grover,
    oracle_layout,
    run_oracle_u,
    sample_key,
)

# A readout distribution and its cumulative sum, held for the next count,
# take about 16 B of peak RSS per readout value (measured above the
# interpreter's 29 MiB: 71 MiB at p = 22, 263 MiB at p = 24), and twice
# that while a new one is formed beside the held one.
MAX_COUNTING_WIDTH = 24


class EstimationError(RuntimeError):
    """An estimate is unusable (too rare an antecedent, no agreement)."""


@dataclass(frozen=True)
class CountingConfig:
    """Counting width, preset support threshold, and the agreement rule.

    P = 2^p counting values; a round's two estimates are accepted when they
    differ by less than agreement_band * s.
    """

    p: int
    s: float
    agreement_band: float = 0.01
    max_rounds: int = 20
    key_family: str = "bitflip"

    def __post_init__(self):
        if not 1 <= self.p <= MAX_COUNTING_WIDTH:
            raise ValueError(f"counting width p must lie in 1..{MAX_COUNTING_WIDTH}, got {self.p}")
        if not 0 < self.s < 1:
            raise ValueError("support threshold s must lie in (0, 1)")
        if not (math.isfinite(self.agreement_band) and self.agreement_band > 0):
            raise ValueError("agreement band must be positive and finite")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.key_family not in KEY_FAMILIES:
            raise ValueError(f"unknown key family {self.key_family!r}")

    @property
    def P(self) -> int:
        return 1 << self.p


def default_counting_width(s: float) -> int:
    """p with 2^p >= 2000/s, the recommended precision for threshold s."""
    return max(1, math.ceil(math.log2(2000.0 / s)))


@dataclass(frozen=True)
class SupportEstimate:
    """An accepted (or exhausted) support value with its error bound."""

    value: float | Fraction
    error_bound: float
    rounds_used: int
    s1: float
    s2: float
    accepted: bool


@dataclass(frozen=True)
class ConfidenceEstimate:
    """Estimated confidence with first-order and plain-sum error bounds."""

    value: float
    error_bound: float
    error_bound_sum: float
    numerator: SupportEstimate
    antecedent: SupportEstimate
    accepted: bool


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


def _resolve_parties(initiator: str, alice: PartyState, bob: PartyState):
    if initiator == "alice":
        return alice, bob
    if initiator == "bob":
        return bob, alice
    raise ValueError(f"initiator must be 'alice' or 'bob', got {initiator!r}")


def _layout_for(init: PartyState, resp: PartyState, p: int):
    if init.address_width != resp.address_width:
        raise ValueError("parties are built over different address spaces")
    alice_view = init.view if init.role == "alice" else resp.view
    bob_view = resp.view if init.role == "alice" else init.view
    n = init.address_width
    k = alice_view.width + bob_view.width
    return oracle_layout(n, alice_view.split_point, k, p=p), n


def _marked_count(init: PartyState, resp: PartyState, z: frozenset) -> int:
    """The marked count M, from one full protocol execution on the uniform
    address state (every query, mark and erasure actually runs)."""
    layout, n = _layout_for(init, resp, p=0)
    labels = np.arange(1 << n, dtype=layout.label_dtype) << layout.offset("address")
    amp = 2.0 ** (-n / 2)
    st = qsim.SparseState.from_arrays(layout, labels, np.full(1 << n, amp, dtype=complex))
    out = run_oracle_u(st, init, resp, z, Transcript())
    # the oracle only ever negates amplitudes, so it must leave every label
    # where it was and every amplitude exactly +-amp
    if not np.array_equal(out.labels, labels):
        raise qsim.SimulationError("oracle output moved basis labels")
    marked = int(np.count_nonzero(out.amplitudes == -amp))
    if marked + int(np.count_nonzero(out.amplitudes == amp)) != 1 << n:
        bad = out.amplitudes[(out.amplitudes != amp) & (out.amplitudes != -amp)]
        raise qsim.SimulationError(f"oracle output is not a sign flip: {bad[0]!r}")
    return marked


def _statevector_prepared(
    init: PartyState,
    resp: PartyState,
    z: frozenset,
    config: CountingConfig,
    transcript: Transcript | None,
) -> qsim.SparseState:
    layout, _ = _layout_for(init, resp, p=config.p)
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
    formed in place in one real length-P array and mirrored into a second."""
    theta = math.asin(math.sqrt(marked / (1 << n)))
    r = P * theta / math.pi  # the +2 theta kernel peaks at readout r
    m = math.floor(r)
    phi = r - m
    if phi == 0:
        kernel = np.zeros(P)
        kernel[m] = 1.0
    else:
        # d = f - r: f - m is reduced exactly mod P before phi is subtracted
        kernel = np.arange(P // 2 - m, P + P // 2 - m, dtype=float)
        np.mod(kernel, P, out=kernel)
        kernel -= P // 2
        kernel -= phi
        kernel *= math.pi / P
        np.sin(kernel, out=kernel)
        np.square(kernel, out=kernel)
        np.divide((math.sin(math.pi * phi) / P) ** 2, kernel, out=kernel)
    # the -2 theta kernel is the +2 theta kernel mirrored, f -> -f mod P
    probs = np.roll(kernel[::-1], 1, axis=0)  # axis=0: no flattened copy
    probs += kernel
    del kernel
    probs *= 0.5
    if abs(probs.sum() - 1.0) > 1e-9:
        raise qsim.SimulationError("counting distribution lost normalization")
    return probs


# The readout depends on (M, n, P) alone, and every count of a joint_support
# has the same M, so the last one formed is held, read-only, for the next.
@functools.lru_cache(maxsize=1)
def _readout(marked: int, n: int, P: int) -> tuple[np.ndarray, np.ndarray]:
    """(probs, cdf): the readout distribution and its cumulative sum."""
    probs = _readout_distribution(marked, n, P)
    cdf = np.cumsum(probs)
    probs.flags.writeable = cdf.flags.writeable = False
    return probs, cdf


def _count_readout(
    initiator: str,
    alice: PartyState,
    bob: PartyState,
    z: frozenset,
    config: CountingConfig,
    transcript: Transcript | None,
) -> tuple[np.ndarray, np.ndarray]:
    """(probs, cdf) of one count: runs the protocol once to find the marked
    count and logs the transcript of all P-1 oracle calls of the counting
    circuit."""
    init, resp = _resolve_parties(initiator, alice, bob)
    marked = _marked_count(init, resp, z)
    if transcript is not None:
        transcript.log_calls(init.role, init.address_width, config.P - 1)
    return _readout(marked, init.address_width, config.P)


def counting_distribution(
    initiator: str,
    alice: PartyState,
    bob: PartyState,
    z: frozenset,
    config: CountingConfig,
    transcript: Transcript | None = None,
) -> np.ndarray:
    """Exact probability vector over the counting readout f = 0 .. P-1, as a
    read-only array that later counts with the same (M, n, P) share. Runs
    the protocol once and logs all P-1 oracle calls, as a count does."""
    return _count_readout(initiator, alice, bob, z, config, transcript)[0]


def statevector_distribution(
    initiator: str,
    alice: PartyState,
    bob: PartyState,
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
    readouts = st.extract(st.labels, "counting").astype(np.int64)
    return np.bincount(readouts, weights=np.abs(st.amplitudes) ** 2, minlength=config.P)


def quantum_count(
    initiator: str,
    alice: PartyState,
    bob: PartyState,
    z: frozenset,
    config: CountingConfig,
    rng: np.random.Generator,
    transcript: Transcript | None = None,
) -> float:
    """One count: run phase estimation, measure, and return the support
    estimate rescaled from the padded space to the real row count (at
    least one in every database)."""
    _, cdf = _count_readout(initiator, alice, bob, z, config, transcript)
    # the first readout whose cumulative probability exceeds one uniform
    # draw; the clamp catches a cumulative sum that rounds to just below 1
    f = min(int(np.searchsorted(cdf, rng.random(), side="right")), config.P - 1)
    scale = (1 << alice.address_width) / alice.view.original_count
    return min(1.0, phase_readout(f, config.P) * scale)


def joint_support(
    alice: PartyState,
    bob: PartyState,
    z: frozenset,
    config: CountingConfig,
    rng: np.random.Generator,
    transcript: Transcript | None = None,
) -> SupportEstimate:
    """Alternate Alice- and Bob-initiated counts with fresh keys each round
    until the two estimates agree within agreement_band * s.

    On exhaustion the last round's estimates are reported with
    accepted=False; the caller decides what to do with them.
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
    alice: PartyState,
    bob: PartyState,
    x: frozenset,
    y: frozenset,
    config: CountingConfig,
    rng: np.random.Generator,
    transcript: Transcript | None = None,
) -> ConfidenceEstimate:
    """Estimated conf(X => Y) = supp(X u Y) / supp(X) from two joint counts.

    The reported error_bound is confidence_bound's first-order quotient
    propagation; the plain sum of the two support bounds is reported
    alongside as error_bound_sum.
    """
    k = alice.data_width + bob.data_width
    x, y = itemset(x, k), itemset(y, k)
    if x & y:
        raise ValueError("X and Y must be disjoint")
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
