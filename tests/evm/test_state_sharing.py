"""State-sharing policy validation: a misspelled mode must not run.

The runtime only tests ``mode != "passive"``, so an unchecked typo
would silently run active sharing while the run record still names
the typo.
"""

import pytest

from repro.evm.runtime import StateSharingPolicy
from repro.scenarios import Scenario, run_scenario
from repro.scenarios.stock import fast_hil


def test_unknown_mode_raises():
    with pytest.raises(ValueError, match="'active' or 'passive'"):
        StateSharingPolicy(mode="pasive")


def test_scenario_with_unknown_mode_raises():
    spec = Scenario("typo", hil=fast_hil(state_sharing_mode="pasive"),
                    duration_sec=1.0)
    with pytest.raises(ValueError, match="'pasive'"):
        run_scenario(spec)
