"""Span arithmetic, per-layer attribution and wrapper installation."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Tracer, covered_length, layer_metrics, self_times  # noqa: E402


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered_length([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    # clipped to the parent interval on both sides
    assert covered_length([(-1.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_children_not_grandchildren():
    # 0: [0, 10]; 1: [1, 4] child of 0; 2: [2, 3] child of 1; 3: [6, 7] child of 0
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 4.0, 3.0, 7.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    assert self_times([0.0, 1.0, 2.0], [10.0, 5.0, 6.0], [-1, 0, 0])[0] == pytest.approx(5.0)


def _table(spans):
    names = [s[0] for s in spans]
    starts = [s[1] for s in spans]
    ends = [s[2] for s in spans]
    parents = [s[3] for s in spans]
    work = [s[4] for s in spans]
    return names, starts, ends, parents, work


def test_interpolate_attributed_to_enclosing_value_or_hjb_span():
    spans = [
        ("harness.run", 0.0, 20.0, -1, 0.0),
        ("value.value_function", 0.0, 5.0, 0, 100.0),
        ("mesh.interpolate", 1.0, 2.0, 1, 10.0),
        ("geometry.chart", 1.2, 1.5, 2, 10.0),
        ("hjb.solve_hjb", 6.0, 10.0, 0, 50.0),
        ("mesh.interpolate", 7.0, 7.5, 4, 4.0),
        ("mesh.interpolate", 8.0, 8.5, 4, 4.0),
    ]
    m = layer_metrics(*_table(spans), stats={})
    assert m["value.interpolate.calls"] == 1
    assert m["value.interpolate.self_s"] == pytest.approx(0.7)
    assert m["value.interp_points_per_s"] == pytest.approx(10.0)  # 10 points / 1 s inclusive
    assert m["hjb.interpolate.calls"] == 2
    assert m["value.value_function.self_s"] == pytest.approx(4.0)
    assert m["value.evals_per_s"] == pytest.approx(20.0)
    assert m["hjb.node_steps"] == 50
    assert m["geometry.chart.self_s"] == pytest.approx(0.3)


def test_regressions_fallbacks_and_exports():
    spans = [
        ("bsde.backward_sweep", 0.0, 10.0, -1, 3.0),
        ("bsde.conditional_expectation", 1.0, 2.0, 0, 0.0),  # degenerate: plain average
        ("bsde.conditional_expectation", 3.0, 4.0, 0, 0.0),
        ("bsde.gram_solve", 3.1, 3.2, 2, 0.0),
        ("bsde.conditional_expectation", 5.0, 6.0, 0, 0.0),  # degree-1 refit
        ("bsde.gram_solve", 5.1, 5.2, 4, 0.0),
        ("bsde.gram_solve", 5.3, 5.4, 4, 0.0),
        ("hjb.export_hjb_field", 11.0, 13.0, -1, 40.0),
        ("value.export_value_field", 11.5, 12.5, 7, 40.0),
        ("harness._write_csv", 14.0, 15.0, -1, 10.0),
    ]
    m = layer_metrics(*_table(spans), stats={"mb:a.csv": 1.5, "mb:b.csv": 0.5})
    assert m["bsde.regressions"] == 2
    assert m["bsde.gram_solves"] == 3
    assert m["bsde.fallback_frac"] == pytest.approx(0.5)
    assert m["bsde.regressions_per_s"] == pytest.approx(2 / 3.0)
    assert m["bsde.backward_sweep.self_s"] == pytest.approx(7.0)
    # the nested value export is part of the hjb export, not extra rows
    assert m["harness.export.rows"] == 50
    assert m["harness.export.self_s"] == pytest.approx(3.0)
    assert m["harness.export.rows_per_s"] == pytest.approx(50 / 3.0)
    assert m["harness.export.mb"] == pytest.approx(2.0)


def test_wrap_records_parent_work_and_exceptions():
    tr = Tracer()

    def leaf(n, scale=2):
        return n * scale

    def boom():
        raise RuntimeError("x")

    wleaf = tr.wrap("leaf", leaf, work=lambda a: a("n") * a("scale"))
    wroot = tr.wrap("root", lambda: wleaf(3) + wleaf(n=1, scale=5))
    assert wroot() == 11
    with pytest.raises(RuntimeError):
        tr.wrap("boom", boom)()
    names, starts, ends, parents, work = tr.span_table()
    assert names == ["root", "leaf", "leaf", "boom"]
    assert parents == [-1, 0, 0, -1]
    assert work[1:3] == [6.0, 5.0]
    assert all(e >= s for s, e in zip(starts, ends))


def test_install_rebinds_every_site_and_uninstall_restores():
    from geodp import dynamics, geometry, harness, rng, value

    originals = (rng.normal_increments, harness.simulate, value.simulate,
                 geometry.Circle.project, value.CircleMesh.interpolate, np.linalg.eigh)
    tr = Tracer().install()
    try:
        assert harness.simulate is dynamics.simulate is value.simulate
        assert harness.simulate is not originals[1]
        assert rng.normal_increments is not originals[0]
        assert value.CircleMesh.interpolate is not originals[4]
        pts = geometry.Circle().project(np.array([[2.0, 0.0], [0.0, 3.0]]))
        assert np.allclose(pts, [[1.0, 0.0], [0.0, 1.0]])
        names, _, _, _, work = tr.span_table()
        assert names == ["geometry.project"] and work == [2.0]
    finally:
        tr.uninstall()
    assert (rng.normal_increments, harness.simulate, value.simulate, geometry.Circle.project,
            value.CircleMesh.interpolate, np.linalg.eigh) == originals
