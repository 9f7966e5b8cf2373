"""Tests of the repo benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import LAYERS, Recorder, self_times  # noqa: E402
from workloads import MIN_STREAMS, WORKLOADS, Calibration  # noqa: E402


# -- self-time arithmetic ---------------------------------------------------

def test_self_time_is_duration_minus_children():
    # root [0, 10] with children [1, 3] and [5, 9]; [6, 7] nests in the
    # second child
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 3.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_overlapping_children_are_covered_once():
    # children [1, 4], [3, 6] and [3.5, 5] overlap; their union is [1, 6]
    start = [0.0, 1.0, 3.0, 3.5, 8.0]
    end = [10.0, 4.0, 6.0, 5.0, 9.0]
    parent = [-1, 0, 0, 0, 0]
    selfs = self_times(start, end, parent)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1:].tolist() == [3.0, 3.0, 1.5, 1.0]


def test_children_are_clipped_to_their_parent():
    start = [0.0, 2.0]
    end = [4.0, 6.0]
    parent = [-1, 0]
    assert self_times(start, end, parent).tolist() == [2.0, 4.0]


def test_fast_path_matches_general_union():
    rng = np.random.default_rng(3)
    start, end, parent = [0.0], [100.0], [-1]
    t = 0.0
    for _ in range(50):
        a = t + rng.uniform(0.0, 1.0)
        b = a + rng.uniform(0.0, 1.0)
        start.append(a)
        end.append(b)
        parent.append(0)
        t = b
    selfs = self_times(start, end, parent)
    covered = sum(e - s for s, e in zip(start[1:], end[1:]))
    assert selfs[0] == pytest.approx(100.0 - covered)


def test_layer_table_sums_to_wall_with_remainder_in_sim():
    rec = Recorder()
    mac = rec.name_id("MacLayer.transmit", "net.mac")
    grid = rec.name_id("SpatialGrid.knn", "geometry.grid")
    for nid, s, e, p in ((mac, 1.0, 4.0, -1), (grid, 2.0, 3.0, 0)):
        rec.name.append(nid)
        rec.start.append(s)
        rec.end.append(e)
        rec.parent.append(p)
        rec.qid.append(-1)
    table = rec.layer_table(wall_s=5.0)
    assert table["net.mac"] == {"calls": 1, "self_s": 2.0}
    assert table["geometry.grid"] == {"calls": 1, "self_s": 1.0}
    assert table["sim"]["self_s"] == pytest.approx(2.0)
    assert sum(v["self_s"] for v in table.values()) == pytest.approx(5.0)


def test_install_and_uninstall_restore_every_name():
    from repro.net.mac import MacLayer
    from repro.sim.engine import Simulator
    before = (MacLayer.transmit, Simulator.schedule_at)
    rec = Recorder()
    rec.install()
    assert MacLayer.transmit is not before[0]
    rec.uninstall()
    assert (MacLayer.transmit, Simulator.schedule_at) == before


# -- run sizing -------------------------------------------------------------

def test_short_runs_shorten_the_minimum_streams():
    wl = WORKLOADS["service-faults"]
    assert wl.size(1) == (MIN_STREAMS, 4)
    assert wl.size(2 * wl.stream_s) == (MIN_STREAMS, wl.queries_full)


def test_long_runs_add_full_streams():
    for wl in WORKLOADS.values():
        assert wl.size(5 * wl.stream_s) == (5, wl.queries_full)


def test_calibration_takes_one_slice_per_every_s_of_work():
    cal = Calibration()
    cal.after(0.5 * cal.EVERY_S)
    assert cal.samples == []
    cal.after(2.0 * cal.EVERY_S)
    assert len(cal.samples) == 2
    assert cal.factor() == pytest.approx(cal.REF_S * 2 / sum(cal.samples))


def test_every_benchmark_workload_exists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]


# -- smoke runs -------------------------------------------------------------

def _spec(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload", ["paper-stream", "scale-10k",
                                      "service-faults"])
def test_smoke_run_prints_every_metric(workload):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == run.END_TO_END == _spec("end_to_end")
    table = "\n".join(lines[:-1])
    for name, unit in {**run.END_TO_END, **run.TABLE_ONLY}.items():
        if name == "latency_sim_p90_s":
            continue  # only with >= 100 queries
        assert f"  {name} " in table and f" {unit} " in table


def test_traced_smoke_run_reports_every_layer():
    proc = _run(["--workload", "paper-stream", "--seed", "3",
                 "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _spec("per_layer")
    for layer in LAYERS:
        assert metrics[f"{layer}.calls"]["unit"] == "count"
        assert metrics[f"{layer}.self_s"]["unit"] == "s"
    wall = metrics["trace.wall_s"]["value"]
    measured = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS
                   if layer != "metrics.oracle")
    assert measured == pytest.approx(wall, rel=0.01)
    assert metrics["core.queries"]["value"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "paper-stream", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
