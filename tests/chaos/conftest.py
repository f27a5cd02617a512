"""Shared fixtures of the chaos tests."""

import pytest


@pytest.fixture
def break_device(monkeypatch):
    """Make ``cluster.device(device_id)`` raise ``error`` for one id."""

    def _break(cluster, device_id, error):
        lookup = cluster.device

        def device(wanted):
            if wanted == device_id:
                raise error
            return lookup(wanted)

        monkeypatch.setattr(cluster, "device", device)

    return _break
