"""Fixtures shared by the service tests."""

import pytest

from repro.service.asgi import create_async_server


@pytest.fixture(scope="module")
def server():
    """An async ``/v1`` server on an ephemeral port, thread executor."""
    server = create_async_server(
        host="127.0.0.1", port=0, workers=2, solve_processes=0,
    ).start()
    yield server
    server.close()
