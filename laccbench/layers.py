"""The traced run's layer map: which public functions are wrapped, under
which span names, and how the spans become per-layer metrics.  README.md in
this directory tabulates the map and the metric definitions.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

import repro.graphblas as gb
from repro.core.convergence import ActiveSet
from repro.graphblas import kernels, ops
from repro.graphs import generators
from repro.graphs.generators import EdgeList
from repro.parallel import pool as proc_pool

from spans import Recorder, counts, durations, self_times

CORE_STEPS = ("cond_hook", "uncond_hook", "starcheck", "shortcut")
GRAPHBLAS_OPS = ("mxv", "extract", "assign", "assign_scalar", "ewise_mult")
SPMD_STEPS = ("starcheck", "cond_hook", "uncond_hook", "shortcut", "convergence")
GENERATORS = ("rmat", "component_mixture", "clustered_graph")
SERIAL_ROOT = "core.driver"
SPMD_ROOT = "lacc_spmd.driver"

Targets = List[Tuple[Any, str, Any]]


def setup_targets(rec: Recorder) -> Targets:
    """Wrappers for the set-up phase (graph generation, adjacency build,
    worker-pool spawn)."""
    targets = [
        (generators, name, rec.wrap("graphs.generate", getattr(generators, name)))
        for name in GENERATORS
    ]
    targets.append(
        (EdgeList, "to_matrix", rec.wrap("graphs.adjacency", EdgeList.to_matrix))
    )
    targets.append(
        (proc_pool, "get_pool", rec.wrap("parallel.get_pool", proc_pool.get_pool))
    )
    return targets


def _nvals_counter(op: str):
    """Stored input entries an op consumed, as ``ops`` counts ``nvals_in``."""
    sig = inspect.signature(getattr(ops, op))
    key = f"graphblas.{op}_nvals"

    def count(*args, **kwargs) -> Dict[str, float]:
        a = sig.bind(*args, **kwargs).arguments
        if op in ("mxv", "assign"):
            n = a["u"].nvals
        elif op == "ewise_mult":
            n = a["u"].nvals + a["v"].nvals
        elif op == "extract":
            n = a["u"].nvals if a["indices"] is None else np.size(a["indices"])
        else:  # assign_scalar
            n = a["w"].size if a["indices"] is None else np.size(a["indices"])
        return {key: float(n)}

    return count


def serial_targets(rec: Recorder) -> Targets:
    """Wrappers for one traced :func:`repro.core.lacc` solve."""
    lacc_mod = importlib.import_module("repro.core.lacc")
    targets: Targets = [
        (lacc_mod, step, rec.wrap(f"core.{step}", getattr(lacc_mod, step)))
        for step in CORE_STEPS
    ]
    targets.append((
        ActiveSet, "retire_converged_stars",
        rec.wrap("core.retire", ActiveSet.retire_converged_stars),
    ))
    for op in GRAPHBLAS_OPS:
        wrapped = rec.wrap(f"graphblas.{op}", getattr(ops, op), _nvals_counter(op))
        targets += [(gb, op, wrapped), (ops, op, wrapped)]
    tier = kernels.impl()
    targets += [
        (tier, fn, rec.wrap(f"kernels.{fn}", getattr(tier, fn)))
        for fn in tier.__all__
        if callable(getattr(tier, fn))
    ]
    return targets


def _payload_bytes(key: str):
    def count(bufs, *args, **kwargs) -> Dict[str, float]:
        flat = (x for b in bufs for x in (b if isinstance(b, (list, tuple)) else (b,)))
        return {key: float(sum(np.asarray(x).nbytes for x in flat))}

    return count


def spmd_targets(rec: Recorder) -> Targets:
    """Wrappers for one traced :func:`lacc_spmd` solve: the collectives of
    every communicator the driver builds."""
    spmd_mod = importlib.import_module("repro.core.lacc_spmd")
    make = spmd_mod.make_comm

    def make_comm(*args, **kwargs):
        comm = make(*args, **kwargs)
        layer = "parallel" if getattr(comm, "backend", "sim") == "proc" else "mpisim"
        count = _payload_bytes(f"{layer}.bytes")
        comm.alltoallv = rec.wrap(f"{layer}.alltoallv", comm.alltoallv, count)
        comm.allreduce = rec.wrap(f"{layer}.allreduce", comm.allreduce, count)
        return comm

    return [(spmd_mod, "make_comm", make_comm)]


def graft_steps(rec: Recorder, tracer) -> None:
    """Move the SPMD driver's ``step`` spans into *rec*."""
    for sp in tracer.find(cat="step"):
        rec.graft(f"lacc_spmd.{sp.name}", sp.t0, sp.t1)


def solve_metrics(rec: Recorder, results: Sequence[Any], n_vertices: int) -> Dict[str, float]:
    """Per-solve layer metrics from the traced solves in *rec*.

    ``self_sum_s`` is the sum of every self time reported here, which must
    equal the mean traced solve time.
    """
    roots = sum(counts(rec.spans).get(r, 0) for r in (SERIAL_ROOT, SPMD_ROOT))
    if not roots:
        return {}
    st = self_times(rec.spans)
    calls = counts(rec.spans)
    per = lambda x: x / roots  # noqa: E731
    out: Dict[str, float] = {}
    for step in CORE_STEPS:
        out[f"core.{step}_s"] = per(st.get(f"core.{step}", 0.0))
    out["core.retire_s"] = per(st.get("core.retire", 0.0))
    out["core.driver_s"] = per(st.get(SERIAL_ROOT, 0.0))
    out["core.starcheck_calls"] = per(calls.get("core.starcheck", 0))
    for op in GRAPHBLAS_OPS:
        out[f"graphblas.{op}_s"] = per(st.get(f"graphblas.{op}", 0.0))
        out[f"graphblas.{op}_calls"] = per(calls.get(f"graphblas.{op}", 0))
        out[f"graphblas.{op}_nvals"] = per(rec.counters.get(f"graphblas.{op}_nvals", 0.0))
    kern = [k for k in st if k.startswith("kernels.")]
    out["kernels.self_s"] = per(sum(st[k] for k in kern))
    out["kernels.calls"] = per(sum(calls[k] for k in kern))
    for step in SPMD_STEPS:
        out[f"lacc_spmd.{step}_s"] = per(st.get(f"lacc_spmd.{step}", 0.0))
    out["lacc_spmd.driver_s"] = per(st.get(SPMD_ROOT, 0.0))
    for layer in ("mpisim", "parallel"):
        out[f"{layer}.alltoallv_s"] = per(st.get(f"{layer}.alltoallv", 0.0))
        out[f"{layer}.allreduce_s"] = per(st.get(f"{layer}.allreduce", 0.0))
        out[f"{layer}.bytes"] = per(rec.counters.get(f"{layer}.bytes", 0.0))
    out["mpisim.alltoallv_calls"] = per(calls.get("mpisim.alltoallv", 0))
    out["parallel.calls"] = per(
        calls.get("parallel.alltoallv", 0) + calls.get("parallel.allreduce", 0)
    )
    out["self_sum_s"] = sum(v for k, v in out.items() if k.endswith("_s"))

    if results and hasattr(results[0], "stats"):  # LACCResult
        res = results[-1]
        active = sum(it.active_vertices for it in res.stats.iterations)
        out["core.iterations"] = float(res.n_iterations)
        out["core.hooks"] = float(
            sum(it.cond_hooks + it.uncond_hooks for it in res.stats.iterations)
        )
        out["core.active_frac"] = active / (n_vertices * max(res.n_iterations, 1))
    elif results:  # SPMDResult
        res = results[-1]
        out["lacc_spmd.iterations"] = float(res.n_iterations)
        out["lacc_spmd.words"] = float(res.words_sent)
    return out


def setup_metrics(rec: Recorder, n_setups: int) -> Dict[str, float]:
    """Per-set-up layer metrics from the traced set-up phase."""
    st = self_times(rec.spans)
    spawns = durations(rec.spans, "parallel.get_pool")
    return {
        "graphs.generate_s": st.get("graphs.generate", 0.0) / n_setups,
        "graphs.adjacency_s": st.get("graphs.adjacency", 0.0) / n_setups,
        "parallel.pool_spawn_s": sum(spawns) / len(spawns) if spawns else 0.0,
    }
