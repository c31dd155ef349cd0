from frdkit.calibration import _sweep_key, auxiliary_records, corpus_records, run_sweep
from frdkit.constants import SWEPT_CONSTANTS


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
