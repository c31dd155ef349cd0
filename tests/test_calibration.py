from frdkit.calibration import _sweep_key, auxiliary_records, corpus_records, run_sweep
from frdkit import calibration
from frdkit.constants import CALIBRATION, SWEPT_CONSTANTS
from frdkit.verification import regularity_suite


def test_sweep_reproduces_the_frozen_constants():
    # exact equality: the sweep rounds to three significant digits
    assert run_sweep() == SWEPT_CONSTANTS


def test_records_carry_the_frozen_constants():
    stated = {"caccioppoli": 2.0, "weak_le_strong": 1.0}
    records = corpus_records(0) + auxiliary_records()
    assert {rec.check for rec in records} >= set(stated)
    for rec in records:
        expected = stated.get(rec.check)
        if expected is None:
            expected = SWEPT_CONSTANTS[_sweep_key(rec.check)]
        assert rec.constant == expected, rec.check


def test_regularity_suite_runs_the_swept_corpus(monkeypatch):
    seeds = []
    monkeypatch.setattr(calibration, "corpus_records", lambda i: seeds.append(i) or [])
    monkeypatch.setitem(CALIBRATION, "corpus_seeds", 3)
    regularity_suite()
    assert seeds == [0, 1, 2]
