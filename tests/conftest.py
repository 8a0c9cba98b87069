import pytest

from rclstm import linalg


@pytest.fixture
def one_thread_pool(monkeypatch):
    """``linalg``'s pool built afresh at ``WORKERS = 2``: one thread beside
    the caller's, whatever the machine."""
    monkeypatch.setattr(linalg, "WORKERS", 2)
    monkeypatch.setattr(linalg, "_pool", None)
    yield
    if linalg._pool is not None:
        linalg._pool.shutdown()
