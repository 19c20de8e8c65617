import sys

import pytest

from mricascade import fourier, sampling


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    """Every test starts from the default of one worker, whatever the session
    environment holds; tests that want threads set CASCADE_RECON_THREADS."""
    monkeypatch.delenv("CASCADE_RECON_THREADS", raising=False)


def spy_on_bindings(monkeypatch, original):
    """Route every mricascade module name bound to ``original`` through a spy
    that records each call's first argument; returns the record."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "mricascade" or name.startswith("mricascade."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, spy)
    return calls


@pytest.fixture
def zero_filled_calls(monkeypatch):
    """The measurements of every ``sampling.zero_filled`` call, through any
    mricascade module name bound to it."""
    return spy_on_bindings(monkeypatch, sampling.zero_filled)


@pytest.fixture
def full_dft_calls(monkeypatch):
    """The input of every ``fourier.fft2_complex`` call, through any
    mricascade module name bound to it; ``fft2`` and ``ifft2`` call it too."""
    return spy_on_bindings(monkeypatch, fourier.fft2_complex)
