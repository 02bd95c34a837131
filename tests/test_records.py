"""The package's value records behave as the frozen and mutable records they
model: constructed by position or keyword with the same defaults, compared
and hashed by value (a view by identity), shown by the same repr, frozen
where they are values, copied and pickled whole, and each given a fresh
list where one is defaulted."""
import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from qpdm.classical import BitLog, ClassicalKey
from qpdm.counting import ConfidenceEstimate, CountingConfig, SupportEstimate
from qpdm.dataset import PartitionedView, TransactionDatabase
from qpdm.miner import AprioriResult, AssociationRule, FrequentItemset, MiningReport
from qpdm.protocol import EncryptionKey, Transcript, TransferEvent
from qpdm.qsim import MeasurementOutcome, RegisterLayout, SparseState

DB = TransactionDatabase(3, ("110", "011"), 2)
ESTIMATE = SupportEstimate(Fraction(1, 2), 0.01, 2, 0.49, 0.51, True)
ESTIMATE_REPR = (
    "SupportEstimate(value=Fraction(1, 2), error_bound=0.01, rounds_used=2, s1=0.49, s2=0.51, accepted=True)"
)
LAYOUT = RegisterLayout((("c", 1), ("a", 2)))
STATE = SparseState(LAYOUT, {2: 1.0})
FREQUENT = FrequentItemset((1,), 0.5, 0.0, 1, True)

# (class, every constructor argument by name in order, how many are
# required, the attributes the defaults give, the repr, and how instances
# compare: "frozen" by value and hashed, "mutable" by value and unhashable,
# "identity" as objects)
CASES = [
    (ClassicalKey, {"p": 11, "e": 3}, 2, {}, "ClassicalKey(p=11, e=3)", "frozen"),
    (BitLog, {"events": [("alice_to_bob", 8)]}, 0, {"events": []},
     "BitLog(events=[('alice_to_bob', 8)])", "mutable"),
    (CountingConfig, {"p": 8, "s": 0.25, "agreement_band": 0.02, "max_rounds": 5, "key_family": "modadd"}, 2,
     {"agreement_band": 0.01, "max_rounds": 20, "key_family": "bitflip"},
     "CountingConfig(p=8, s=0.25, agreement_band=0.02, max_rounds=5, key_family='modadd')", "frozen"),
    (SupportEstimate,
     {"value": Fraction(1, 2), "error_bound": 0.01, "rounds_used": 2, "s1": 0.49, "s2": 0.51, "accepted": True},
     6, {}, ESTIMATE_REPR, "frozen"),
    (ConfidenceEstimate,
     {"value": 0.5, "error_bound": 0.02, "error_bound_sum": 0.03, "numerator": ESTIMATE,
      "antecedent": ESTIMATE, "accepted": False},
     6, {},
     f"ConfidenceEstimate(value=0.5, error_bound=0.02, error_bound_sum=0.03, numerator={ESTIMATE_REPR},"
     f" antecedent={ESTIMATE_REPR}, accepted=False)",
     "frozen"),
    (TransactionDatabase,
     {"n_items": 2, "rows": ("10", "00"), "original_count": 1, "item_names": ("milk", "bread")}, 3,
     {"item_names": ("I1", "I2")},
     "TransactionDatabase(original_count=1, item_names=('milk', 'bread'))", "frozen"),
    (PartitionedView, {"role": "bob", "split_point": 1, "db": DB, "key": EncryptionKey("bitflip", 1, 1)}, 3,
     {"key": None}, "PartitionedView(role='bob', split_point=1)", "identity"),
    (FrequentItemset,
     {"items": (1, 2), "estimate": Fraction(1, 2), "error_bound": 0.0, "rounds": 1, "borderline": False}, 5, {},
     "FrequentItemset(items=(1, 2), estimate=Fraction(1, 2), error_bound=0.0, rounds=1, borderline=False)",
     "frozen"),
    (AssociationRule,
     {"antecedent": (1,), "consequent": (2,), "support": 0.5, "confidence": 0.75,
      "support_error": 0.01, "confidence_error": 0.02},
     6, {},
     "AssociationRule(antecedent=(1,), consequent=(2,), support=0.5, confidence=0.75,"
     " support_error=0.01, confidence_error=0.02)",
     "frozen"),
    (AprioriResult, {"levels": [[FREQUENT]], "undetermined": [(2, 3)]}, 2, {},
     "AprioriResult(levels=[[FrequentItemset(items=(1,), estimate=0.5, error_bound=0.0, rounds=1,"
     " borderline=True)]], undetermined=[(2, 3)])",
     "mutable"),
    (MiningReport,
     {"frequent": [FREQUENT], "rules": [], "undetermined": [(1,)], "total_qubits": 40,
      "exact_diff": {"frequent_missing": []}},
     2, {"undetermined": [], "total_qubits": 0, "exact_diff": None},
     "MiningReport(frequent=[FrequentItemset(items=(1,), estimate=0.5, error_bound=0.0, rounds=1,"
     " borderline=True)], rules=[], undetermined=[(1,)], total_qubits=40,"
     " exact_diff={'frequent_missing': []})",
     "mutable"),
    (EncryptionKey, {"family": "bitflip", "parameter": 3, "n": 4}, 3, {},
     "EncryptionKey(family='bitflip', parameter=3, n=4)", "frozen"),
    (TransferEvent, {"direction": "alice_to_bob", "qubits": 5, "step": "step1"}, 3, {},
     "TransferEvent(direction='alice_to_bob', qubits=5, step='step1')", "frozen"),
    (Transcript, {"records": [("alice", 2, 3)]}, 0, {"records": []},
     "Transcript(records=[('alice', 2, 3)])", "mutable"),
    (RegisterLayout, {"registers": (("c", 1), ("a", 2))}, 1, {},
     "RegisterLayout(registers=(('c', 1), ('a', 2)))", "frozen"),
    (MeasurementOutcome, {"value": 1, "probability": 0.5, "post_state": STATE}, 3, {},
     "MeasurementOutcome(value=1, probability=0.5, post_state=SparseState(RegisterLayout(registers="
     "(('c', 1), ('a', 2))), {2: (1+0j)}))",
     "frozen"),
]


def read(record, name):
    # a database keeps its rows as a matrix; ``rows`` reads them back
    return record.rows if name == "rows" else getattr(record, name)


@pytest.mark.parametrize(
    "cls, arguments, required, defaults, text, kind", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_record(cls, arguments, required, defaults, text, kind):
    names, values = list(arguments), list(arguments.values())
    by_position, by_keyword = cls(*values), cls(**arguments)
    for record in (by_position, by_keyword):
        assert repr(record) == text
        assert all(read(record, name) == value for name, value in arguments.items())
    for twin in (copy.copy(by_position), pickle.loads(pickle.dumps(by_position))):
        assert repr(twin) == text
        if cls is MeasurementOutcome and twin.post_state is not STATE:
            # a state compares by identity: an unpickled outcome holds its own
            # twin of the state, which the repr above has shown whole
            twin = MeasurementOutcome(twin.value, twin.probability, STATE)
        assert kind == "identity" or twin == by_position
    shortest = cls(*values[:required])
    assert {name: read(shortest, name) for name in defaults} == defaults
    assert repr(cls(**dict(zip(names[:required], values)))) == repr(shortest)

    if kind == "identity":
        assert by_position != by_keyword and by_position == by_position
        assert hash(by_position) != hash(by_keyword)
    else:
        assert by_position == by_keyword
        assert by_position != tuple(values)
    if kind == "frozen":
        assert hash(by_position) == hash(by_keyword)
    if kind == "mutable":
        with pytest.raises(TypeError):
            hash(by_position)
        for name, value in arguments.items():
            setattr(by_position, name, value)
    else:
        for name, value in arguments.items():
            with pytest.raises(AttributeError):
                setattr(by_position, name, value)
        assert repr(by_position) == text


def test_records_of_two_classes_with_equal_values_differ():
    assert BitLog() != Transcript()
    assert BitLog([("a", 1)]) != Transcript([("a", 1)])
    assert EncryptionKey("bitflip", 3, 4) != TransferEvent("bitflip", 3, 4)


def test_defaulted_lists_are_fresh():
    assert Transcript().records is not Transcript().records
    assert BitLog().events is not BitLog().events
    assert MiningReport([], []).undetermined is not MiningReport([], []).undetermined


def test_layout_compares_on_registers_only():
    twin = RegisterLayout((("c", 1), ("a", 2)))
    assert twin == LAYOUT and hash(twin) == hash(LAYOUT)
    assert (twin.total_width, twin.width("a")) == (3, 2)
    assert RegisterLayout((("a", 2), ("c", 1))) != LAYOUT


def test_state_pickles_after_its_amplitudes_are_read():
    state = SparseState(LAYOUT, {2: 1.0, 5: -0.5j})
    assert dict(state.amps) == {2: 1.0, 5: -0.5j}  # the mapping is now cached
    twin = pickle.loads(pickle.dumps(state))
    assert repr(twin) == repr(state)
    assert (twin.labels.tolist(), twin.amplitudes.tolist()) == ([2, 5], [1.0, -0.5j])
    assert not (twin.labels.flags.writeable or twin.amplitudes.flags.writeable)
    with pytest.raises(TypeError):
        twin.amps[2] = 0.0


def test_database_copies_form_their_caches_again():
    db = TransactionDatabase(3, ("110", "011"), 2)
    columns, rows = db.columns, db.rows  # both now cached
    for twin in (copy.copy(db), pickle.loads(pickle.dumps(db))):
        assert twin == db and not twin.__dict__
        assert np.array_equal(twin.columns, columns) and twin.rows == rows
        assert not twin.columns.flags.writeable
