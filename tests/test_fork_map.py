"""dynamics.fork_map and its two callers: the flow check's path blocks and the
stability instances of `estimates` give the same results, byte for byte, for
any number of worker processes."""

import contextlib
import os
import signal
import sys

import numpy as np
import pytest

from geodp import dynamics
from geodp.cli import main as cli_main
from geodp.config import ExperimentConfig
from geodp.dynamics import fork_map
from geodp.errors import ConfigError, WorkerLost
from geodp.harness import run

from test_dynamics import _flow_case

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="fork_map forks on Linux only")


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k): make fork_map see k usable CPUs; returns the list that counts
    the forks this process makes from then on."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        monkeypatch.setattr(os, "fork", counted_fork)
        forks.clear()
        return forks

    return set_cpus


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds=60):
    """Fail instead of hanging: SIGALRM raises in this process after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"fork_map did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_results_come_back_in_index_order(cpus, n):
    """Below, at and above the worker count (3): the serial list, with the
    units spread over min(n, 3) processes other than this one."""
    forks = cpus(3)
    got = fork_map(lambda ks: ((i, os.getpid(), np.full(3, i / 7.0)) for i in ks), n)
    assert [g[0] for g in got] == list(range(n))
    for i, _, a in got:
        np.testing.assert_array_equal(a, np.full(3, i / 7.0))
    pids = {pid for _, pid, _ in got}
    if n >= 2:
        assert len(forks) == len(pids) == min(n, 3) and os.getpid() not in pids
        assert all(got[i][1] == got[i % 3][1] for i in range(n))  # worker w took w, w + 3, ...
    else:
        assert forks == [] and pids <= {os.getpid()}
    _assert_no_child_left()


def test_one_cpu_runs_serially_in_this_process(cpus):
    forks = cpus(1)
    assert fork_map(lambda ks: (os.getpid() for _ in ks), 5) == [os.getpid()] * 5
    assert forks == []


def test_a_nested_call_runs_serially_in_its_worker(cpus):
    forks = cpus(2)

    def pids(ks):
        return (os.getpid() for _ in ks)

    got = fork_map(lambda ks: ((os.getpid(), fork_map(pids, 3)) for _ in ks), 2)
    assert len(forks) == 2 and len({pid for pid, _ in got}) == 2
    for pid, nested in got:
        assert pid != os.getpid() and nested == [pid] * 3
    _assert_no_child_left()


def test_the_error_of_the_lowest_failing_index_is_raised(cpus):
    """Worker 0 of 2 fails at index 4 and worker 1 at index 3: the serial loop
    would have stopped at 3.  The error keeps its class, message and fields."""
    cpus(2)

    def units(ks):
        for i in ks:
            if i >= 3:
                raise ConfigError(f"key{i}", "bad")
            yield i

    with pytest.raises(ConfigError) as info:
        fork_map(units, 6)
    assert str(info.value) == "config field 'key3': bad" and info.value.field == "key3"
    _assert_no_child_left()


def test_a_worker_that_dies_without_a_result_raises_worker_lost(cpus):
    cpus(2)

    def units(ks):
        for i in ks:
            if i == 1:
                os._exit(7)
            yield i

    with _deadline(), pytest.raises(WorkerLost, match=r"worker 1 of 2 ended with exit code 7"):
        fork_map(units, 4)
    _assert_no_child_left()


def test_a_worker_error_that_does_not_pickle_raises_worker_lost(cpus):
    """A local exception class cannot be pickled: the worker leaves with exit
    code 1 and the parent names the lost worker instead of hanging."""
    cpus(2)

    class Local(Exception):
        pass

    def units(ks):
        yield from ()
        raise Local("unpicklable")

    with _deadline(), pytest.raises(WorkerLost, match=r"exit code 1"):
        fork_map(units, 2)
    _assert_no_child_left()


@pytest.mark.parametrize("name", ["circle", "sphere2", "torus2"])
def test_flow_check_is_identical_at_one_and_two_cpus(cpus, monkeypatch, name):
    """Seven blocks of six paths (the last one short) on one CPU and on two."""
    monkeypatch.setattr(dynamics, "CHUNK", 6)
    reports = {}
    for k in (1, 2):
        forks = cpus(k)
        m, fields, x, x2, pol, pol2, noise = _flow_case(name, 40)
        reports[k] = dynamics.flow_continuity_check(m, fields, x, x2, pol, pol2, noise, C=50.0)
        assert len(forks) == (0 if k == 1 else 2)
    assert reports[1] == reports[2]
    _assert_no_child_left()


ESTIMATES = {
    "circle": {},
    "sphere2": {"manifold": "sphere2", "fields": ["zero", "rot_x", "rot_y", "rot_z"],
                "control_set": {"lower": [0, 1, 1, 1], "upper": [0, 1, 1, 1]}},
    "torus2": {"manifold": "torus2", "fields": ["zero", "rot1", "rot2"],
               "control_set": {"lower": [0, 1, 1], "upper": [0, 1, 1]}},
}


@pytest.mark.parametrize("name", sorted(ESTIMATES))
def test_estimates_reports_are_identical_at_one_and_two_cpus(cpus, tmp_path, name):
    """Three flow-check blocks and five stability instances: every report file
    is the same on one CPU, where nothing forks, and on two."""
    cfg = ExperimentConfig.from_dict(dict(
        ESTIMATES[name], experiment="estimates",
        mc={"n_paths": 2 * dynamics.CHUNK + 100}, estimates={"n_instances": 5},
    ))
    files = {}
    for k in (1, 2):
        forks = cpus(k)
        out = tmp_path / f"cpus{k}"
        rep = run(cfg, out_dir=str(out))
        assert rep.passed and len(forks) == (0 if k == 1 else 4)
        files[k] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(files[1]) == ["csv_schema.txt", "metrics.json", "stability.csv"]
    assert files[1] == files[2]
    _assert_no_child_left()


@pytest.mark.parametrize("k", [1, 2])
def test_estimates_overflow_exits_3_with_singular_projection(cpus, tmp_path, capsys, k):
    """The projection guard raised in a worker reaches the CLI as itself."""
    cpus(k)
    f = tmp_path / "c.yaml"
    f.write_text("experiment: estimates\nfields: [zero, 'scale:1e200:rot']\n"
                 "mc:\n  n_paths: 256\nestimates:\n  n_instances: 3\n")
    assert cli_main(["run", str(f), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run error: SingularProjection: ") and "non-finite" in err
    _assert_no_child_left()
