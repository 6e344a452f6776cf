"""dynamics.fork_map and its callers: the flow check's path blocks, the
stability instances of `estimates` and the dpp-check probe windows give the
same results, byte for byte, for any number of worker processes."""

import contextlib
import csv
import json
import os
import select
import signal
import sys

import numpy as np
import pytest

from geodp import dynamics, rng, value
from geodp.bsde import RegressionBasis
from geodp.cli import main as cli_main
from geodp.config import ExperimentConfig
from geodp.dynamics import fork_map
from geodp.errors import ComparisonViolated, ConfigError, WorkerLost
from geodp.harness import _probe_points, run

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


def test_a_wide_host_forks_at_most_the_worker_cap(cpus):
    """64 usable CPUs and 16 units: _MAX_WORKERS workers, worker w taking
    units w, w + 8.  Even with no cap, 16 units fork at most 16 processes."""
    forks = cpus(64)
    got = fork_map(lambda ks: (os.getpid() for _ in ks), 16)
    assert dynamics._MAX_WORKERS == 8
    assert len(set(got)) == len(forks) == 8 and os.getpid() not in got
    assert got == got[:8] * 2
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


# dpp-check problems, each with its number of grid controls.
DPP = {
    "circle": (1, {"mesh": {"n_theta": 32}}),
    "sphere2": (2, {"manifold": "sphere2", "fields": ["zero", "rot_x"], "driver": {"id": "smooth"},
                    "control_set": {"lower": [0, 0.5], "upper": [0, 1], "grid_points_per_axis": 2},
                    "mesh": {"n_lat": 6, "n_lon": 8}}),
    "torus2": (1, {"manifold": "torus2", "fields": ["zero", "rot1", "rot2"],
                   "control_set": {"lower": [0, 1, 1], "upper": [0, 1, 1]},
                   "mesh": {"n1": 8, "n2": 8}}),
}


def _dpp_config(name, delta_steps, path_steps):
    """DPP[name] on 16 steps with 4 probes, whose windows do ``path_steps``
    path-steps in all (rounded down to a whole path): n_paths x controls x 4
    probes x the steps of delta_steps summed.  No window is cut short, since
    the probes' last time index is 16 - max(delta_steps) - 1."""
    n_controls, problem = DPP[name]
    n_paths = path_steps // (n_controls * 4 * sum(delta_steps))
    return ExperimentConfig.from_dict(dict(
        problem, experiment="dpp-check", time={"n_steps": 16},
        dpp={"delta_steps": delta_steps, "n_probes": 4, "n_paths": n_paths},
    ))


def _dpp_reports_at_one_and_two_cpus(cpus, tmp_path, cfg):
    """Run cfg on one CPU, where nothing forks, and on two, where all of its
    windows run in one round of two forks; the report files of each run."""
    files = {}
    for k in (1, 2):
        forks = cpus(k)
        out = tmp_path / f"cpus{k}"
        run(cfg, out_dir=str(out))
        assert len(forks) == (0 if k == 1 else 2)
        files[k] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        _assert_no_child_left()
    return files[1], files[2]


@pytest.mark.parametrize("name", sorted(DPP))
def test_dpp_check_reports_are_identical_at_one_and_two_cpus(cpus, tmp_path, name):
    """The delta-1 windows at the fork floor and the delta-4 windows above it:
    every report file is the same on one CPU and on two."""
    cfg = _dpp_config(name, [1, 4], 5 * value._FORK_MIN_PATH_STEPS)
    one, two = _dpp_reports_at_one_and_two_cpus(cpus, tmp_path, cfg)
    assert sorted(one) == ["csv_schema.txt", "dpp_residuals.csv", "metrics.json", "value_field.csv"]
    assert len(one["dpp_residuals.csv"].splitlines()) == 1 + 2 * 4
    assert one == two


@pytest.mark.parametrize("below, n_forks", [(0, 2), (32, 0)])
def test_dpp_check_forks_from_the_floor_up(cpus, tmp_path, below, n_forks):
    """On two CPUs, sphere2's windows at deltas 1 and 3 fork at the floor,
    summed over both deltas (4096 paths x 2 controls x 4 probes x 4 steps),
    and not one path (32 path-steps) below it, although neither delta's
    windows alone reach it."""
    forks = cpus(2)
    cfg = _dpp_config("sphere2", [1, 3], value._FORK_MIN_PATH_STEPS - below)
    assert cfg["dpp"]["n_paths"] * 2 * 4 * 4 == value._FORK_MIN_PATH_STEPS - below
    run(cfg, out_dir=str(tmp_path))
    assert len(forks) == n_forks
    _assert_no_child_left()


def test_dpp_check_fails_on_a_nan_window_value_from_a_worker(cpus, tmp_path, monkeypatch):
    """test_harness's NaN window test above the fork floor, on two CPUs: the
    first delta-1 probe, picked by its noise seed (each worker has its own
    copy of any counter), makes its delta's maximum residual and the run's
    NaN, and the run FAILs, although every other residual is small."""
    cfg = _dpp_config("circle", [1, 4], 5 * value._FORK_MIN_PATH_STEPS)
    i, j = _probe_points(16, 32, 4, 4)[0]
    nan_seed = rng.derive_seed(rng.derive_seed(cfg["seed"], 7, 1), i, j)
    semigroup = value.semigroup

    def nan_at_first_probe(ens, *a, **k):
        return np.nan if ens.noise.seed == nan_seed else semigroup(ens, *a, **k)

    monkeypatch.setattr(value, "semigroup", nan_at_first_probe)
    forks = cpus(2)
    rep = run(cfg, out_dir=str(tmp_path))
    assert len(forks) == 2
    m = rep.metrics
    assert np.isnan(m["max_residual_delta_1"]) and np.isnan(m["max_residual"])
    assert m["max_residual_delta_4"] <= cfg["tolerances"]["dpp_max_residual"]
    assert not rep.passed
    assert json.loads((tmp_path / "metrics.json").read_text())["pass"] is False
    _assert_no_child_left()


def test_a_probe_window_error_reaches_the_cli_as_on_one_cpu(cpus, tmp_path, capsys, monkeypatch):
    """semigroup raises ComparisonViolated on the last delta-1 probe, which the
    second worker runs: on one CPU and on two the CLI exits 3 with the same
    ``run error:`` line."""
    f = tmp_path / "c.yaml"
    f.write_text("experiment: dpp-check\ntime: {n_steps: 16}\nmesh: {n_theta: 32}\n"
                 f"dpp: {{n_probes: 4, n_paths: {value._FORK_MIN_PATH_STEPS // 4}}}\n")
    i, j = _probe_points(16, 32, 4, 4)[-1]
    bad_seed = rng.derive_seed(rng.derive_seed(ExperimentConfig.from_yaml(str(f))["seed"], 7, 1), i, j)
    semigroup = value.semigroup

    def fail_at_last_probe(ens, *a, **k):
        if ens.noise.seed == bad_seed:
            raise ComparisonViolated(3, 17, 0.5, 0.25)
        return semigroup(ens, *a, **k)

    monkeypatch.setattr(value, "semigroup", fail_at_last_probe)
    outcomes = {}
    for k in (1, 2):
        forks = cpus(k)
        code = cli_main(["run", str(f), "--out", str(tmp_path / f"cpus{k}")])
        outcomes[k] = (code, capsys.readouterr().err)
        assert len(forks) == (0 if k == 1 else 2)
        _assert_no_child_left()
    assert outcomes[1] == outcomes[2] == (
        3, "run error: ComparisonViolated: comparison violated at step=3, path=17: 0.5 > 0.25\n")


@pytest.mark.parametrize("name", sorted(DPP))
def test_dpp_check_at_three_deltas_forks_once(cpus, tmp_path, name):
    """``delta_steps: [1, 2, 4]`` above the floor: the 12 windows of the three
    deltas run in one round, which forks W = 2 workers on two CPUs, and every
    report file is the one-CPU run's."""
    cfg = _dpp_config(name, [1, 2, 4], 2 * value._FORK_MIN_PATH_STEPS)
    one, two = _dpp_reports_at_one_and_two_cpus(cpus, tmp_path, cfg)
    assert len(one["dpp_residuals.csv"].splitlines()) == 1 + 3 * 4
    assert one == two


def test_sphere_dpp_probes_move_and_read_their_window_seeds(cpus, tmp_path):
    """rot_z alone on a 6x8 sphere2 mesh vanishes at the poles, where a window
    moves no path and its residual is roundoff whatever its noise: no probe
    sits there.  On two CPUs, above the fork floor, each residual is the one
    its window gives on the noise seeded by its delta and (i, j), bit for bit,
    so a worker that drew other noise fails the test."""
    n_paths = 4096
    cfg = ExperimentConfig.from_dict(dict(
        DPP["sphere2"][1], fields=["zero", "rot_z"], experiment="dpp-check", time={"n_steps": 16},
        dpp={"delta_steps": [1, 4], "n_probes": 4, "n_paths": n_paths},
    ))
    forks = cpus(2)
    run(cfg, out_dir=str(tmp_path))
    assert len(forks) == 2
    _assert_no_child_left()
    prob, grid, mesh = cfg.build_problem(), cfg.build_grid(), cfg.build_mesh()
    vf = value.value_function(prob, grid, mesh, picard_iters=3)
    with open(tmp_path / "dpp_residuals.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 4
    for row in rows:
        ds, i, j = (int(row[k]) for k in ("delta_steps", "time_index", "node_index"))
        assert abs(mesh.nodes[j, 2]) < 1.0
        noise = dynamics.BrownianGrid(
            grid=grid.window(i, i + ds), d=prob.d, n_paths=n_paths,
            seed=rng.derive_seed(rng.derive_seed(cfg["seed"], 7, ds), i, j), antithetic=True,
        )
        values = []
        for v in prob.controls.grid():
            ens = dynamics.simulate(prob.manifold, prob.fields, mesh.nodes[j], dynamics.constant_policy(v), noise)
            eta = mesh.interpolate(vf.u[i + ds], ens.states[-1])
            values.append(value.semigroup(ens, prob.driver, RegressionBasis(degree=2), eta, 3))
        residual = float(row["residual"])
        assert residual == abs(vf.u[i, j] - min(values)) and residual > 1e-10


def _fail_windows(monkeypatch, cfg, windows):
    """Make semigroup raise ComparisonViolated(step=delta, path=probe index)
    in each (delta, probe index) window of ``windows`` of a circle ``cfg``
    (16 steps, 32 nodes), told apart by its noise seed, and run the other
    windows as usual."""
    probes = _probe_points(16, 32, max(cfg["dpp"]["delta_steps"]), 4)
    bad = {rng.derive_seed(rng.derive_seed(cfg["seed"], 7, ds), *probes[p]): (ds, p) for ds, p in windows}
    semigroup = value.semigroup

    def failing(ens, *a, **k):
        if ens.noise.seed in bad:
            raise ComparisonViolated(*bad[ens.noise.seed], 0.5, 0.25)
        return semigroup(ens, *a, **k)

    monkeypatch.setattr(value, "semigroup", failing)


@pytest.mark.parametrize("windows, first", [
    ([(2, 0), (1, 3)], (1, 3)),  # windows 4 (worker 0) and 3 (worker 1)
    ([(2, 0), (4, 1)], (2, 0)),  # windows 4 (worker 0) and 9 (worker 1)
    ([(4, 3), (4, 2)], (4, 2)),  # windows 11 (worker 1) and 10 (worker 0)
])
def test_a_failing_window_raises_the_error_of_the_first_in_serial_order(
    cpus, tmp_path, monkeypatch, windows, first
):
    """Windows run delta by delta, each over every probe: on one CPU and on
    two, the error raised is that of the failing (delta, probe) a serial run
    reaches first, whichever worker ran it."""
    cfg = _dpp_config("circle", [1, 2, 4], 2 * value._FORK_MIN_PATH_STEPS)
    _fail_windows(monkeypatch, cfg, windows)
    for k in (1, 2):
        forks = cpus(k)
        with _deadline(), pytest.raises(ComparisonViolated) as info:
            run(cfg, out_dir=str(tmp_path / f"cpus{k}"))
        assert (info.value.step, info.value.path) == first
        assert len(forks) == (0 if k == 1 else 2)
        _assert_no_child_left()


@pytest.mark.parametrize("path_steps", [2 * value._FORK_MIN_PATH_STEPS, value._FORK_MIN_PATH_STEPS // 8])
def test_a_failed_dpp_check_leaves_the_same_files_at_one_and_two_cpus(
    cpus, tmp_path, monkeypatch, path_steps
):
    """Above the floor the parent writes value_field.csv while the workers
    run, and below it (or on one CPU) before the windows: a run whose window
    fails leaves value_field.csv, byte for byte the same, and nothing else."""
    cfg = _dpp_config("circle", [1, 2, 4], path_steps)
    _fail_windows(monkeypatch, cfg, [(2, 1)])
    files = {}
    for k in (1, 2):
        forks = cpus(k)
        out = tmp_path / f"cpus{k}"
        with _deadline(), pytest.raises(ComparisonViolated):
            run(cfg, out_dir=str(out))
        assert len(forks) == (2 if k == 2 and path_steps >= value._FORK_MIN_PATH_STEPS else 0)
        files[k] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        _assert_no_child_left()
    assert sorted(files[1]) == ["value_field.csv"]
    assert files[1] == files[2]


@pytest.mark.parametrize("k", [1, 2])
def test_meanwhile_runs_once_in_this_process_while_the_workers_run(cpus, k):
    """On two CPUs ``meanwhile`` runs after both workers are forked and before
    their results are read: each worker's first unit waits for a byte that
    only ``meanwhile`` writes.  On one CPU it runs before the first unit.
    Either way it runs once, here."""
    forks = cpus(k)
    ran, calls = [], []
    r, w = os.pipe()

    def units(ks):
        for n, i in enumerate(ks):
            ran.append(i)  # a worker's list is its own copy
            got_byte = n > 0 or (select.select([r], [], [], 10)[0] and os.read(r, 1) == b"x")
            yield i, bool(got_byte)

    def meanwhile():
        calls.append((os.getpid(), len(forks), list(ran)))
        os.write(w, b"x" * k)

    try:
        got = fork_map(units, 4, meanwhile)
    finally:
        os.close(r)
        os.close(w)
    assert got == [(i, True) for i in range(4)]
    assert calls == [(os.getpid(), 0 if k == 1 else 2, [])]
    _assert_no_child_left()


@pytest.mark.parametrize("k", [1, 2])
def test_a_meanwhile_that_raises_leaves_no_child(cpus, k):
    """The error of ``meanwhile`` is raised after every worker is reaped; on
    one CPU no unit runs."""
    forks = cpus(k)
    ran = []

    def units(ks):
        for i in ks:
            ran.append(i)
            yield i

    def meanwhile():
        raise ConfigError("meanwhile", "bad")

    with _deadline(), pytest.raises(ConfigError, match="meanwhile"):
        fork_map(units, 4, meanwhile)
    assert len(forks) == (0 if k == 1 else 2) and ran == []
    _assert_no_child_left()
