"""Test-session settings: Hypothesis runs derandomized, so every run of
the suite draws the same examples and a pass or failure repeats.  Also a
fixture that counts calls of package functions."""

import sys

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def count_calls(monkeypatch):
    """Count the calls of a package function, in every module that holds
    it: ``calls = count_calls(params, "weights_from_couplings")``; or of a
    method, on its class: ``count_calls(EllipticKernel, "sncndn")``."""
    def install(module, name):
        orig = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "rectising"
                    and getattr(mod, name, None) is orig):
                monkeypatch.setattr(mod, name, counted)
        return calls
    return install
