"""Native-kernel switch for the backend tests.

Tests that request ``native_mode`` run twice: with the compiled kernels of
:mod:`repro.backend.native` and with ``REPRO_NATIVE=0`` (the NumPy
fallback).  Every other test runs in the mode the environment selects; CI
runs the whole suite once more with ``REPRO_NATIVE=0``.
"""

import pytest

from repro.backend import native


@pytest.fixture(params=["native", "fallback"])
def native_mode(request, monkeypatch):
    if request.param == "native":
        monkeypatch.delenv(native.ENV_VAR, raising=False)
        if native.kernels() is None:
            pytest.skip("the compiled kernels are unavailable on this host")
    else:
        monkeypatch.setenv(native.ENV_VAR, "0")
    return request.param
