"""Repo benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload service-faults --seed 1 --seconds 40 --trace 0

``--seconds`` sizes the run: one full query stream per ``stream_s``
nominal host seconds of the workload, at least two, shortened to fit a
short run.  ``--trace 0`` measures the end-to-end metrics over one
untraced pass per stream, then replays stream 0 up to its checkpoint (a
quarter into the arrivals): the two must hash the same.  Extra timed
builds before each pass fill out the ``setup_s`` median.  ``--trace 1``
runs one untraced pass, then the same pass with every layer boundary
wrapped, and reports per-layer calls, self time and counters; the spans
are written to ``perfbench/out/``.  The last line of standard output is the
JSON result; everything above it is a human-readable table.  A failed
correctness gate prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: the program under test: the checkout's own sources, never an
#: installed copy
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

#: end-to-end metrics in the JSON result (BENCHMARK.json ``end_to_end``)
END_TO_END = {
    "setup_s": "s",
    "host_s_per_sim_s": "s/s",
    "host_ms_per_query": "ms",
    "peak_mem_mib": "MiB",
    "query_complete_ratio": "ratio",
    "latency_sim_p50_s": "sim_s",
    "pre_accuracy_mean": "ratio",
    "post_accuracy_mean": "ratio",
    "energy_mj_per_query": "mJ",
}

#: printed in the table only: the first three are 0 or missing on some
#: workload, so none can carry a relative bound; the last two show how
#: the host metrics were scaled to reference speed
TABLE_ONLY = {
    "query_fail_ratio": "ratio",
    "latency_sim_p90_s": "sim_s",
    "far_answer_ratio": "ratio",
    "raw_host_s": "s",
    "speed_factor": "x",
}

#: p90 needs this many queries so at least ten lie beyond it
P90_MIN_QUERIES = 100


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``inf`` entries are failed queries)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_mem_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setups, calibration) -> dict:
    """Every end-to-end metric of an untraced run, with notes.  Host
    times are totals over the passes, scaled to reference speed; the
    rest pool their queries."""
    records = [r for p in passes for r in p.records]
    n = len(records)
    wall = sum(p.wall_s for p in passes)
    sim_s = sum(p.sim_s for p in passes)
    complete = sum(r.complete for r in records)
    latencies = [r.answered_at - r.issued_at if r.complete else math.inf
                 for r in records]
    pre = [v for p in passes for v in p.scores["pre"]]
    post = [v for p in passes for v in p.scores["post"]]
    far = sum(p.scores["far"] for p in passes)
    answered = sum(p.scores["answered"] for p in passes)
    factor = calibration.factor()
    out = {
        "setup_s": (factor * statistics.median(setups),
                    f"median of {len(setups)} builds"),
        "host_s_per_sim_s": (factor * wall / sim_s,
                             f"{sim_s:.1f} simulated s"),
        "host_ms_per_query": (1000.0 * factor * wall / n, f"{n} queries"),
        "peak_mem_mib": (peak_mem_mib(), "resident high-water mark"),
        "query_complete_ratio": (complete / n, f"{complete} of {n}"),
        "query_fail_ratio": ((n - complete) / n, f"{n - complete} of {n}"),
        "latency_sim_p50_s": (percentile(latencies, 0.5),
                              f"n={n}, failures count as inf"),
        "pre_accuracy_mean": (statistics.fmean(pre), f"n={n}"),
        "post_accuracy_mean": (statistics.fmean(post), f"n={n}"),
        "energy_mj_per_query": (
            1000.0 * sum(p.energy_j for p in passes) / n,
            "protocol energy, beacons excluded"),
        "far_answer_ratio": (far / answered if answered else 0.0,
                             f"{far} of {answered} answers"),
        "raw_host_s": (wall, "measured passes, before scaling"),
        "speed_factor": (factor, f"{len(calibration.samples)} "
                                 "calibration slices"),
    }
    if n >= P90_MIN_QUERIES:
        beyond = n - math.ceil(0.9 * n)
        out["latency_sim_p90_s"] = (percentile(latencies, 0.9),
                                    f"n={n}, {beyond} beyond")
    return out


def per_layer(recorder, untraced, traced) -> dict:
    """Per-layer calls, self time and counters of a traced run."""
    from tracing import LAYERS
    table = recorder.layer_table(traced.wall_s)
    c, rc = traced.counters, recorder.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (table[layer]["calls"], "count")
        out[f"{layer}.self_s"] = (table[layer]["self_s"], "s")
    received = (c["mac.frames_delivered"] + c["mac.frames_lost_channel"]
                + c["mac.frames_lost_collision"])
    name_calls = recorder.name_calls()

    def calls(*prefixes):
        return sum(v for k, v in name_calls.items() if k.startswith(prefixes))

    routes = calls("GpsrRouter.send")
    extras = {
        "sim.events": (c["sim.events"], "count"),
        "sim.scheduled": (rc.get("sim.scheduled", 0), "count"),
        "net.beacons.flushes": (calls("BatchedBeaconEngine.flush"), "count"),
        "net.beacons.receptions": (c["beacons.receptions"], "count"),
        "net.neighbor_store.writes":
            (rc.get("net.neighbor_store.writes", 0), "count"),
        "net.neighbor_store.reads":
            (calls("DenseNeighborStore.newer_entries",
                   "SparseNeighborStore.newer_entries"), "count"),
        "net.neighbor_store.compactions":
            (calls("SparseNeighborStore.compact"), "count"),
        "net.mac.frames_sent": (c["mac.frames_sent"], "count"),
        "net.mac.delivery_ratio":
            (c["mac.frames_delivered"] / received if received else 0.0,
             "ratio"),
        "net.mac.lost_collision": (c["mac.frames_lost_collision"], "count"),
        "net.mac.lost_channel": (c["mac.frames_lost_channel"], "count"),
        "net.mac.retries": (c["mac.unicast_retries"], "count"),
        "net.mac.failures": (c["mac.unicast_failures"], "count"),
        "net.mac.backoff_sim_s":
            (rc.get("net.mac.backoff_sim_s", 0.0), "sim_s"),
        "net.txindex.queries":
            (calls("ActiveTxIndex.count_near",
                   "ActiveTxIndex.max_residual_near"), "count"),
        "net.energy.charges": (calls("EnergyLedger.charge_"), "count"),
        "routing.gpsr.routes": (routes, "count"),
        "routing.gpsr.delivery_ratio":
            (c["gpsr.deliveries"] / routes if routes else 0.0, "ratio"),
        "routing.gpsr.drops": (c["gpsr.drops"], "count"),
        "core.queries": (calls("DIKNNProtocol.issue"), "count"),
        "core.messages":
            (calls("handle.diknn.", "handle.deliver.diknn."), "count"),
        "service.submitted": (calls("QueryService.submit"), "count"),
        "service.retries": (c.get("service.retries", 0), "count"),
        "service.shed": (c.get("service.shed", 0), "count"),
        "service.short_circuits":
            (c.get("service.short_circuits", 0), "count"),
        "service.queue_wait_sim_s":
            (c.get("service.queue_wait_sim_s", 0.0), "sim_s"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.overhead_ratio": (traced.wall_s / untraced.wall_s, "ratio"),
        "trace.spans": (len(recorder.start), "count"),
    }
    out.update(extras)
    return out


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, row in rows.items():
        value, rest = row[0], row[1:]
        print(f"  {name:<34} {value:>16.6g}  " + "  ".join(rest))


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})


def untraced_run(wl, seed: int, streams: int, n: int):
    """One pass per stream, each after its extra builds, then the
    replay; returns the passes, the end-to-end rows and gate problems."""
    from workloads import Calibration, build, make_arrivals, run_pass
    calibration = Calibration()
    passes, setups = [], []
    for stream in range(streams):
        for _ in range(wl.extra_builds):
            gc.collect()
            setups.append(build(wl, n, calibration)[1])
        gc.collect()
        passes.append(run_pass(wl, make_arrivals(wl, seed, n, stream),
                               score=True, calibration=calibration))
        setups.append(passes[-1].setup_s)
    gc.collect()
    replay = run_pass(wl, make_arrivals(wl, seed, n), replay=True,
                      calibration=calibration)
    setups.append(replay.setup_s)
    problems = []
    if replay.checkpoint != passes[0].checkpoint:
        problems.append("a replay of stream 0 disagrees at the checkpoint: "
                        f"{replay.checkpoint} vs {passes[0].checkpoint}")
    rows = end_to_end(passes, setups, calibration)
    units = {**END_TO_END, **TABLE_ONLY}
    print_table("end to end", {k: (v[0], units[k], v[1])
                               for k, v in rows.items()})
    metrics = {k: (rows[k][0], unit) for k, unit in END_TO_END.items()}
    problems.extend(f"{k} is not finite" for k, (v, _unit)
                    in metrics.items() if not math.isfinite(v))
    return passes, metrics, problems


def traced_run(wl, seed: int, n: int):
    """An untraced pass, then the same pass traced; returns the traced
    pass, the per-layer rows and gate problems."""
    from tracing import Recorder
    from workloads import make_arrivals, run_pass
    arrivals = make_arrivals(wl, seed, n)
    untraced = run_pass(wl, arrivals)
    gc.collect()
    recorder = Recorder()
    traced = run_pass(wl, arrivals, recorder=recorder, score=True)
    problems = []
    if (untraced.checkpoint, untraced.digest) != (traced.checkpoint,
                                                  traced.digest):
        problems.append("the traced pass changed the simulation: "
                        f"{untraced.digest} vs {traced.digest}")
    recorder.save(HERE / "out" / f"spans-{wl.name}-s{seed}.npz")
    rows = per_layer(recorder, untraced, traced)
    wall = traced.wall_s
    print_table(f"per layer (traced wall {wall:.3f} s)",
                {k: v + (f"{100 * v[0] / wall:5.1f}%",)
                 if k.endswith(".self_s") else v for k, v in rows.items()})
    return [traced], rows, problems


def run(args) -> int:
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    streams, n = wl.size(args.seconds)
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  "
          f"streams {streams}  queries/stream {n}  trace {args.trace}")
    if args.trace:
        passes, metrics, problems = traced_run(wl, args.seed, n)
    else:
        passes, metrics, problems = untraced_run(wl, args.seed, streams, n)
    print("digest " + " ".join(p.digest for p in passes))
    failed = sum(len(p.violations) for p in passes)
    for p in passes:
        problems.extend(p.violations)
    attempted = sum(len(p.records) for p in passes)
    for problem in problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    if problems:
        print(result_line(False, attempted, max(failed, 1), {}))
        return 1
    line = result_line(True, attempted, 0, metrics)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": wl.name, "seed": args.seed,
                                 "seconds": args.seconds,
                                 "trace": args.trace,
                                 "digests": [p.digest for p in passes],
                                 "result": json.loads(line)}) + "\n")
    print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=1,
        help="query-stream seed (default 1; 20261017 is held out for "
             "confirming a claim and is not used while writing a change)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result as a JSON line")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
