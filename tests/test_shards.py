"""`experiments.in_shards`: work over shards of a list, the first here and
each other one in a forked child that only computes."""

import os
import subprocess
import sys
import time

import pytest

import piece
from piece import experiments as ex
from piece import netcore as nc


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):  # none running, none unreaped
        os.waitpid(-1, os.WNOHANG)


def shard_pids(shard: list) -> list:
    """Each item with the process that worked on it."""
    return [(item, os.getpid()) for item in shard]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_in_item_order(monkeypatch, workers):
    monkeypatch.setattr(nc, "worker_count", lambda: workers)
    out = ex.in_shards(shard_pids, list(range(7)))
    assert [item for item, _ in out] == list(range(7))
    pids = [pid for _, pid in out]
    # contiguous shards, the first and smallest here, one child per other one
    assert pids[: 7 // workers] == [os.getpid()] * (7 // workers)
    assert len(set(pids)) == workers


def test_fewer_items_than_workers(monkeypatch):
    monkeypatch.setattr(nc, "worker_count", lambda: 3)
    assert ex.in_shards(shard_pids, [5]) == [(5, os.getpid())]
    assert ex.in_shards(shard_pids, []) == []


def test_without_fork_one_shard_runs_here(monkeypatch):
    monkeypatch.setattr(nc, "worker_count", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert ex.in_shards(shard_pids, [1, 2, 3]) == [(i, os.getpid()) for i in (1, 2, 3)]


def test_error_of_a_child_is_raised_here(monkeypatch):
    parent = os.getpid()

    def work(shard):
        if os.getpid() != parent:
            raise nc.NumericsError(f"overflow in items {shard}")
        return shard

    monkeypatch.setattr(nc, "worker_count", lambda: 2)
    with pytest.raises(nc.NumericsError, match=r"overflow in items \[2, 3\]"):
        ex.in_shards(work, [0, 1, 2, 3])


def test_error_here_kills_the_children(monkeypatch):
    parent = os.getpid()

    def work(shard):
        if os.getpid() != parent:
            time.sleep(600)
        raise ValueError("the first shard failed")

    monkeypatch.setattr(nc, "worker_count", lambda: 3)
    start = time.monotonic()
    with pytest.raises(ValueError, match="the first shard failed"):
        ex.in_shards(work, [0, 1, 2])
    assert time.monotonic() - start < 60


def test_child_that_ends_early(monkeypatch):
    parent = os.getpid()

    def work(shard):
        if os.getpid() != parent:
            os._exit(0)  # a clean exit, but nothing sent
        return shard

    monkeypatch.setattr(nc, "worker_count", lambda: 2)
    with pytest.raises(ex.ShardError, match=r"shard 2 of 2 ended without its results "
                                            r"\(exit code 0\)"):
        ex.in_shards(work, [0, 1])


# a parent that forks one child and is then killed: the child prints its
# pid, waits for the file named by argv[1], and then tries to send more
# than a pipe holds, which would block it for good if a reader were left
ORPHAN = r"""
import os, sys, time
from piece import experiments as ex
from piece import netcore as nc

nc.worker_count = lambda: 2
parent, go = os.getpid(), sys.argv[1]


def work(shard):
    if os.getpid() == parent:
        time.sleep(600)  # killed here
    print(os.getpid(), flush=True)
    while not os.path.exists(go):
        time.sleep(0.01)
    return [bytes(1 << 20) for _ in shard]


ex.in_shards(work, [0, 1])
"""


def gone(pid: int) -> bool:
    """Whether process `pid` has ended (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_orphan_dies_at_its_write(tmp_path):
    go = tmp_path / "go"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(piece.__file__)))
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN, str(go)], stdout=subprocess.PIPE,
                            env=env)
    try:
        child = int(proc.stdout.readline())
        proc.kill()
        proc.wait()
        assert not gone(child)  # orphaned, still computing
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        go.touch()  # so that the child goes on to send, whatever happened
    deadline = time.monotonic() + 30
    while not gone(child) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert gone(child)
