import pytest

from dimred import frsd
from helpers import InProcessPool, make_blobs_with_noise, write_dataset_csv


@pytest.fixture
def demo_csv(tmp_path):
    """Small clusterable CSV: 3 blobs in 3 informative columns + 1 noise column."""
    ds = make_blobs_with_noise(seed=21, n_samples=30, n_noise=1)
    return write_dataset_csv(ds, tmp_path / "demo.csv")


@pytest.fixture
def fake_pools(monkeypatch):
    """The pools opened while the test runs, each an ``InProcessPool``; a
    sweep of any size may open one."""
    pools = []

    def open_pool(workers):
        pools.append(InProcessPool(workers))
        return pools[-1]

    monkeypatch.setattr(frsd, "_process_pool", open_pool)
    monkeypatch.setattr(frsd, "_POOL_MIN_WORK", 0)
    return pools
