from frdkit.calibration import run_sweep
from frdkit.constants import SWEPT_CONSTANTS


def test_sweep_reproduces_the_frozen_constants():
    # exact equality: the sweep rounds to three significant digits
    assert run_sweep() == SWEPT_CONSTANTS
