"""qpdm: a deterministic desk-scale simulator of a two-party quantum
privacy-preserving association-rule mining protocol on vertically
partitioned boolean databases, with exact classical ground truth and the
commutative-encryption baseline it is measured against.

Importing the package loads numpy with a one-thread OpenBLAS pool, unless
numpy is loaded already or one of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS
and OMP_NUM_THREADS is set. qpdm makes no BLAS call, and starting a pool of
one thread per CPU takes longer than most qpdm commands run. A caller who
wants a threaded BLAS in the same process imports numpy first or sets one
of those variables. The environment is left as it was either way."""

import os
import sys

# The variables OpenBLAS reads for its pool size, in its order of precedence.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .classical import (
    BitLog,
    ClassicalKey,
    classical_support,
    exhaustive_key_attack,
)
from .counting import (
    ConfidenceEstimate,
    CountingConfig,
    SupportEstimate,
    counting_distribution,
    default_counting_width,
    estimate_confidence,
    joint_support,
    quantum_count,
)
from .dataset import (
    ItemSet,
    ParseError,
    PartitionedView,
    TransactionDatabase,
    exact_confidence,
    exact_support,
    itemset,
    pad_to_power_of_two,
    parse_database,
    vertical_partition,
)
from .miner import (
    AssociationRule,
    MiningReport,
    apriori_frequent,
    exact_estimator,
    exact_mine,
    generate_rules,
    quantum_estimator,
    run_mining,
)
from .protocol import (
    EncryptionKey,
    PartyState,
    Transcript,
    build_qram,
    controlled_grover,
    make_key,
    reference_phase_oracle,
    run_oracle_u,
    sample_key,
    transcript_total,
)
from .qsim import MeasurementOutcome, RegisterLayout, SparseState

__version__ = "0.1.0"
