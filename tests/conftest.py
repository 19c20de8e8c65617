import sys

import pytest

from mricascade import sampling


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    """Every test starts from the default of one worker, whatever the session
    environment holds; tests that want threads set CASCADE_RECON_THREADS."""
    monkeypatch.delenv("CASCADE_RECON_THREADS", raising=False)


@pytest.fixture
def zero_filled_calls(monkeypatch):
    """Count calls of ``sampling.zero_filled`` made through any mricascade
    module name bound to it; returns the list of measurements it was given."""
    calls = []
    original = sampling.zero_filled

    def spy(meas):
        calls.append(meas)
        return original(meas)

    for name, mod in list(sys.modules.items()):
        if name == "mricascade" or name.startswith("mricascade."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, spy)
    return calls
