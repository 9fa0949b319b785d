"""Fixtures shared across test modules."""

import pytest

from repro.core import ooo_core


@pytest.fixture(params=["c", "python"])
def tick(request, monkeypatch):
    """Run the test under each core tick implementation."""
    if request.param == "python":
        monkeypatch.setattr(ooo_core, "_kernel", None)
    elif ooo_core._kernel is None:
        pytest.skip("the C tick kernel did not build")
    return request.param
