"""One benchmark run: set-up, oracle, warm-up, timed calls and, with
``--trace 1``, the traced calls and baseline floors."""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import os
import sys
import time
from multiprocessing import resource_tracker
from statistics import median
from typing import Dict, List, Optional

import numpy as np

from repro.baselines import fastsv
from repro.core.lacc_spmd import lacc_spmd
from repro.graphblas import kernels
from repro.graphs.validate import ground_truth
from repro.mpisim import backend as comm_backend
from repro.obs.tracer import Tracer, activate
from repro.parallel import pool as proc_pool

import layers
from harness import (TAIL_PCT, Calls, Reference, matches_oracle, median_time,
                     oracle_labels, peak_rss_mib, reset_peak_rss, run_calls, tail)
from spans import Recorder, durations, patched
from workloads import KERNEL_TIER, RANKS, WORKLOADS, Workload, build

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: set-ups per run: at least SETUP_MIN_REPS, more until the set-up phase has
#: taken SETUP_MIN_S, at most SETUP_MAX_REPS; ``setup_s`` is their median
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.5
SETUP_MAX_REPS = 25
#: deadline of the warm-up call, and the cap on every later call's deadline
MAX_CALL_S = 60.0
#: later calls get this multiple of the warm-up time, but at least MIN_CALL_S
CALL_SLACK = 10.0
MIN_CALL_S = 20.0
#: each baseline floor is the median of this many calls
BASELINE_REPS = 3


class Refused(Exception):
    """The run cannot produce a result."""


class Run:
    """One run of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setup_rec: Optional[Recorder] = Recorder() if trace else None
        self.spans: Dict[str, object] = {}
        self.ref = Reference()

    # -- set-up and the correctness gate ---------------------------------
    def setup(self) -> List[float]:
        """Build the instance several times, keeping the last; returns the
        scaled set-up times."""
        rec = self.setup_rec
        times = []
        stop = time.perf_counter() + SETUP_MIN_S
        with patched(layers.setup_targets(rec)) if rec else contextlib.nullcontext():
            while len(times) < SETUP_MIN_REPS or (
                time.perf_counter() < stop and len(times) < SETUP_MAX_REPS
            ):
                self.inst = None
                gc.collect()
                t0 = time.perf_counter()
                self.inst = build(self.workload, self.seed)
                times.append(self.ref.scale(time.perf_counter() - t0))
        self.setup_reps = len(times)
        return times

    def prepare_check(self) -> bool:
        """Oracle labels, and for proc the simulator's parents; both outside
        every timing.  Returns whether the reference itself is right."""
        g = self.inst.graph
        self.oracle = oracle_labels(g.n, g.u, g.v)
        self.reference = None
        if self.workload.backend != "proc":
            return True
        with comm_backend.use("sim"):
            self.reference = lacc_spmd(g, ranks=RANKS).parents
        return matches_oracle(self.reference, self.oracle)

    def check(self, result) -> bool:
        if not matches_oracle(result.parents, self.oracle):
            return False
        return self.reference is None or (
            result.parents.dtype == self.reference.dtype
            and result.parents.tobytes() == self.reference.tobytes()
        )

    def on_failure(self) -> None:
        if self.workload.backend == "proc":
            proc_pool.shutdown_pools()  # the next call spawns a fresh pool

    def calls(self, call, seconds: float, limit_s: float) -> Calls:
        return run_calls(call, self.check, seconds, limit_s, self.on_failure, self.ref.scale)

    # -- the run ---------------------------------------------------------
    def execute(self) -> dict:
        setup_times = self.setup()
        correct = self.prepare_check()
        g = self.inst.graph
        total = Calls()

        warm = self.calls(self.inst.solve, 0.0, MAX_CALL_S)
        total.absorb(warm)
        limit = MAX_CALL_S
        if warm.seconds:
            limit = min(MAX_CALL_S, max(MIN_CALL_S, CALL_SLACK * warm.seconds[0]))
        # the peak below is that of the timed calls, not of set-up, oracle,
        # reference solve or warm-up
        rss_reset = reset_peak_rss(worker_pids())
        timed = self.calls(self.inst.solve, self.seconds / 2 if self.trace else self.seconds, limit)
        peak_rss = peak_rss_mib(worker_pids())
        total.absorb(timed)
        if not timed.seconds:
            raise Refused("no timed call passed the correctness check")
        solve_s = median(timed.scaled)
        tail_s, tail_beyond = tail(timed.scaled)

        record = {
            "workload": self.workload.name,
            "why": self.workload.why,
            "seed": self.seed,
            "n": int(g.n),
            "m": g.nedges,
            "components": int(np.unique(self.oracle).size),
            "iterations": int(timed.last.n_iterations),
            "tier": kernels.active(),
            "backend": self.workload.backend,
            "ranks": None if self.workload.serial else RANKS,
            "cpus": os.cpu_count(),
            "setup_reps": self.setup_reps,
            "rss_reset": rss_reset,
            "calls": len(timed.seconds),
            "tail_percentile": TAIL_PCT,
            "tail_beyond": tail_beyond,
            "call_wall_s": [round(t, 6) for t in timed.seconds],
            "reference_s": [round(t, 6) for t in self.ref.times],
        }
        if self.trace:
            metrics, traced, ok = self.traced(limit, timed)
            total.absorb(traced)
            correct = correct and ok
            metrics["bench.failed_frac"] = total.failed / total.attempted
            record["traced_calls"] = len(traced.seconds)
        else:
            metrics = {
                "solve_s": solve_s,
                "solve_tail_s": tail_s,
                "edges_per_s": g.nedges / solve_s,
                "setup_s": median(setup_times),
                "peak_rss_mb": peak_rss,
                "ok_frac": 1.0 - total.failed / total.attempted,
            }
        return {
            "record": record,
            "correct": correct and total.wrong == 0,
            "attempted": total.attempted,
            "failed": total.failed,
            "metrics": metrics,
        }

    def traced(self, limit: float, timed: Calls):
        """Calls with every layer wrapped, then the baseline floors."""
        inst, g = self.inst, self.inst.graph
        serial = self.workload.serial
        root = layers.SERIAL_ROOT if serial else layers.SPMD_ROOT
        rec = Recorder()
        targets = layers.serial_targets(rec) if serial else layers.spmd_targets(rec)
        results = []

        def traced_solve():
            tracer = Tracer()
            with patched(targets), rec.span(root):
                with contextlib.nullcontext() if serial else activate(tracer):
                    res = inst.solve()
            layers.graft_steps(rec, tracer)
            results.append(res)
            return res

        traced = self.calls(traced_solve, self.seconds / 2, limit)
        metrics = layers.solve_metrics(rec, results, g.n)
        metrics.update(layers.setup_metrics(self.setup_rec, self.setup_reps))
        roots = durations(rec.spans, root)
        mean_traced = sum(roots) / len(roots)
        self_sum = metrics.pop("self_sum_s")
        ok = abs(self_sum - mean_traced) <= 1e-6 * mean_traced
        if not ok:
            print(f"laccbench: self times sum to {self_sum!r} s, "
                  f"traced solve is {mean_traced!r} s", file=sys.stderr)

        fastsv_s, labels = median_time(
            lambda: fastsv.connected_components(g.n, g.u, g.v), BASELINE_REPS
        )
        ok = ok and matches_oracle(labels, self.oracle)
        scipy_s, labels = median_time(lambda: ground_truth(g), BASELINE_REPS)
        ok = ok and matches_oracle(labels, self.oracle)

        metrics.update({
            "baselines.fastsv_s": fastsv_s,
            "baselines.scipy_s": scipy_s,
            "bench.solve_s": median(timed.scaled),
            "bench.solve_wall_s": median(timed.seconds),
            "bench.traced_solve_s": mean_traced,
            "bench.trace_overhead_frac": median(traced.scaled) / median(timed.scaled) - 1.0,
            "bench.ref_s": median(self.ref.times),
        })
        self.spans = {
            "setup": self.setup_rec.spans,
            "solve": rec.spans,
            "counters": dict(rec.counters),
        }
        return metrics, traced, ok


def worker_pids() -> List[int]:
    """Process ids of the live worker-pool children."""
    return [p.pid for p in multiprocessing.active_children()]


def stop_helpers() -> None:
    """Stop the worker pools and the resource-tracker process that shared
    memory segments start, and wait for them to exit."""
    proc_pool.shutdown_pools()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def select(declared: List[dict], computed: Dict[str, float]) -> dict:
    """The declared metrics, in declared order, with their units; a layer a
    workload never reaches reads 0."""
    names = {m["name"] for m in declared}
    unknown = set(computed) - names
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return {
        m["name"]: {"value": float(computed.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def main(argv: List[str], spec_path: str) -> int:
    p = argparse.ArgumentParser(description="LACC benchmark run")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(spec_path) as fh:
        spec = json.load(fh)

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        with kernels.use(KERNEL_TIER):
            out = run.execute()
    except Refused as exc:
        print(f"laccbench: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_helpers()

    metrics = select(spec["per_layer" if args.trace else "end_to_end"], out["metrics"])
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"record": out["record"], **run.spans}, fh)
    print(json.dumps({"record": out["record"]}))
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0
