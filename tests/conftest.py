import pytest

from scbandits import engine


@pytest.fixture
def empty_k_grids(monkeypatch):
    """The process's per-d K grid table, empty for one test and restored after it."""
    grids = {}
    monkeypatch.setattr(engine, "_K_GRIDS", grids)
    return grids
