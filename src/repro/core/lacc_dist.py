"""Distributed LACC over the simulated machine (§V of the paper).

The simulator executes the *identical* algorithm as :func:`repro.core.lacc`
— the serial step functions compute every value, so results are exact —
while an α–β :class:`~repro.mpisim.costmodel.CostModel` prices each
primitive as it would run on a ``√p × √p`` CombBLAS process grid:

* ``GrB_mxv`` → two-stage SpMV/SpMSpV (column-group allgather + row-group
  reduce-scatter / sparse all-to-all), work ∝ edges incident to active
  columns (:meth:`repro.combblas.distmatrix.DistMatrix.charge_mxv`);
* ``GrB_extract`` / ``GrB_assign`` → request routing with skew detection,
  broadcast offload and sparse hypercube all-to-all
  (:mod:`repro.combblas.indexing`) — the per-rank request histograms are
  recorded per iteration, which is exactly Figure 3;
* per-iteration step times land in ``IterationStats.step_model_seconds``,
  the series behind Figures 4, 5, 6 and 8.

Configuration follows §VI-A: ``t`` threads per MPI process (6 on Edison,
16 on Cori → 4 processes/node on both), and the largest square process
grid that fits ``cores/t`` ranks.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.combblas.distmatrix import DistMatrix
from repro.combblas.indexing import RoutingReport, charge_assign, charge_extract
from repro.graphblas import Matrix, Vector
from repro.mpisim.costmodel import CostModel
from repro.mpisim.grid import ProcessGrid
from repro.mpisim.machine import MachineModel
from repro.obs.flight import flight_recorder as _freg
from repro.obs.tracer import NULL_TRACER, Tracer, activate

from .convergence import ActiveSet, converged_star_vertices
from .hooking import HookReport, cond_hook, uncond_hook
from .shortcut import shortcut
from .skeleton import IterationBody, LACCOutput, iterate, plan_fields
from .snapshot import (
    IterationHook,
    IterationSnapshot,
    validate_initial_active,
    validate_initial_parents,
)
from .starcheck import starcheck
from .stats import IterationStats, LACCStats

__all__ = ["lacc_dist", "DistLACCResult", "grid_for"]


@dataclass
class DistLACCResult(LACCOutput):
    """Output of a simulated distributed LACC run (``parents`` in ORIGINAL
    vertex space)."""

    stats: LACCStats
    cost: CostModel
    machine: MachineModel
    nodes: int
    ranks: int
    #: (iteration, step, report) for every distributed extract/assign —
    #: Figure 3 reads the starcheck/shortcut extract entries
    routing: List[Tuple[int, str, RoutingReport]] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        return self.cost.total_seconds


def grid_for(machine: MachineModel, nodes: int) -> Tuple[int, int]:
    """(ranks, grid side) for a node count: the largest square grid that
    fits ``nodes · processes_per_node`` ranks (§VI-A)."""
    ranks = machine.ranks(nodes)
    side = max(math.isqrt(ranks), 1)
    return side * side, side


def lacc_dist(
    A: Matrix,
    machine: MachineModel,
    nodes: int = 1,
    use_sparsity: bool = True,
    permute: bool = True,
    use_broadcast_offload: bool = True,
    use_hypercube: bool = True,
    vector_distribution: str = "block",
    max_iterations: Optional[int] = None,
    seed: int = 0,
    trace_comm: bool = False,
    tracer: Optional[Tracer] = None,
    faults=None,
    cost: Optional[CostModel] = None,
    initial_parents: Optional[np.ndarray] = None,
    initial_active: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    on_iteration: Optional[IterationHook] = None,
    run_name: Optional[str] = None,
) -> DistLACCResult:
    """Run LACC on the simulated machine.

    Parameters mirror :func:`repro.core.lacc` plus the machine/topology
    configuration and the §V-B communication toggles (exposed so the
    ablation benchmarks can switch each optimisation off).
    ``vector_distribution="cyclic"`` enables the paper's §VII future-work
    layout, spreading indexing hot spots across ranks.

    ``faults`` takes a :class:`repro.faults.FaultPlan`: the analytic
    collectives then price straggler delays, validation retries and
    backoff into the cost model (visible as ``retry`` spans on the
    simulated clock when traced), and a permanent fault raises
    :class:`repro.faults.CollectiveError` rather than ever mislabelling
    a component — the results, when the run completes, are exact.

    When a fresh :class:`repro.obs.Tracer` is passed via ``tracer``, its
    clock is rebound to the cost model's simulated clock so span extents
    are α–β model seconds (the timeline of the machine being simulated);
    each step span additionally carries a ``wall_seconds`` counter — the
    host time spent computing the step's values — so model and actual
    time sit side by side.  The tracer is activated for the run, nesting
    GraphBLAS-primitive and collective spans under each step.

    When a flight recorder is active (:func:`repro.obs.flight.
    activate_flight`), the driver stamps the run record: ``run_start``
    (topology, fault preset, static partition λ), per-iteration
    ``iteration`` events (active vertices, hooks — what the convergence
    detectors watch), per-routed-step ``step`` events (λ = max/mean
    received requests, worst rank — Figure 3's skew, live), and
    ``run_end``; the recorder's clock is rebound to the simulated clock
    and its ambient iteration coordinate tracks the loop, so fault and
    retry events recorded deep inside the collectives inherit the right
    iteration.  ``run_name`` labels the record (the CLI passes the graph
    name).

    ``cost`` supplies an existing :class:`~repro.mpisim.costmodel.CostModel`
    to charge into instead of a fresh one — :class:`repro.recovery.Supervisor`
    passes one master model across restart attempts so the simulated clock
    runs continuously through recovery.  ``initial_parents`` /
    ``initial_active`` / ``start_iteration`` / ``on_iteration`` are the
    checkpoint-resume hooks of :mod:`repro.core.snapshot`; snapshot parents
    are reported in **original** vertex space (un-permuted), so they are
    interchangeable with every other driver's.
    """
    if A.nrows != A.ncols or not A.is_symmetric:
        raise ValueError("LACC requires a square symmetric adjacency matrix")
    n = A.nrows
    nprocs, side = grid_for(machine, nodes)
    grid = ProcessGrid(nprocs, n, distribution=vector_distribution)
    dmat = DistMatrix(A, grid, permute=permute, seed=seed)
    if cost is None:
        cost = CostModel(machine, nprocs, nodes, trace=trace_comm, faults=faults)
    fr = _freg()
    if fr:
        fr.bind_clock(lambda: cost.total_seconds)
    stats = LACCStats(n_vertices=n)
    tr = tracer if tracer is not None else NULL_TRACER
    if tracer is not None and not tracer.roots and tracer.current is None:
        # fresh tracer: span extents become simulated seconds
        tracer.clock = lambda: cost.total_seconds
    run_ctx = activate(tr) if tracer is not None else contextlib.nullcontext()
    routing: List[Tuple[int, str, RoutingReport]] = []
    route_kw = dict(
        use_broadcast_offload=use_broadcast_offload, use_hypercube=use_hypercube
    )

    Ap = dmat.A  # permuted adjacency
    if initial_parents is not None:
        f = Vector.dense(
            dmat.to_permuted_parents(validate_initial_parents(initial_parents, n))
        )
    else:
        f = Vector.iota(n)
    active = ActiveSet(n, enabled=use_sparsity)
    if active.enabled:
        if initial_active is not None:
            act0 = validate_initial_active(initial_active, n)
            active.retire(~dmat.to_permuted_bitmap(act0))
        active.retire(Ap.row_degrees() == 0)

    def record_routed(it: int, phase: str, rep: RoutingReport) -> None:
        """Keep the routing report and, when a flight recorder is on,
        stamp its λ = max/mean skew as a ``step`` event (live Figure 3)."""
        routing.append((it, phase, rep))
        if fr:
            recv = np.asarray(rep.received_per_rank, dtype=float)
            mean = recv.mean() if recv.size else 0.0
            fr.record(
                "step",
                iteration=it,
                step=phase,
                lam=float(recv.max() / mean) if mean > 0 else 1.0,
                worst_rank=int(np.argmax(recv)) if recv.size else 0,
                requests=float(recv.sum()),
            )

    def charge_hook(report: HookReport, in_cols: Optional[np.ndarray], phase: str, it: int):
        """Price one hooking phase: mxv + eWise filtering + hook scatter."""
        dmat.charge_mxv(cost, in_cols, phase)
        scope = int(np.count_nonzero(in_cols)) if in_cols is not None else n
        cost.charge_compute(scope / max(nprocs, 1), phase)  # eWise/extract
        if report.roots.size:
            rep = charge_assign(
                grid, cost, report.roots, report.hook_vertices, phase, **route_kw
            )
            record_routed(it, phase, rep)

    def charge_starcheck(phase: str, it: int):
        """Price one starcheck: grandparent extract (the Figure 3 hot
        spot), nonstar marking, level-2 fixup."""
        mask = active.mask
        idx = np.arange(n) if mask is None else np.flatnonzero(mask)
        if idx.size == 0:
            return
        fv = f.to_numpy()
        rep = charge_extract(grid, cost, fv[idx], idx, phase, **route_kw)
        record_routed(it, phase, rep)
        # marking + fixup are one more assign + extract over the scope
        charge_assign(grid, cost, fv[idx], idx, phase, **route_kw)
        cost.charge_compute(2 * idx.size / max(nprocs, 1), phase)

    star = nonstar = None
    phases0: Dict[str, float] = {}
    totals0 = (0.0, 0.0, 0.0)

    def refresh() -> None:
        nonlocal star
        star = starcheck(f, active.mask)

    def begin(iteration: int) -> IterationStats:
        nonlocal phases0, totals0
        phases0 = {k: v.seconds for k, v in cost.phases.items()}
        totals0 = cost.totals()
        return IterationStats(iteration=iteration, active_vertices=active.active_count)

    def do_cond_hook(it: IterationStats) -> None:
        rep = cond_hook(Ap, f, star, active.mask)
        it.cond_hooks = rep.count
        charge_hook(rep, active.mask, "cond_hook", it.iteration)

    def do_starcheck(it: IterationStats) -> None:
        refresh()
        charge_starcheck("starcheck", it.iteration)

    def do_uncond_hook(it: IterationStats) -> None:
        in_cols = None
        if active.mask is not None:
            sv, sp_ = star.dense_arrays()
            in_cols = sp_ & ~sv & active.mask
        rep = uncond_hook(Ap, f, star, active.mask)
        it.uncond_hooks = rep.count
        charge_hook(rep, in_cols, "uncond_hook", it.iteration)

    def do_starcheck_retire(it: IterationStats) -> None:
        do_starcheck(it)
        # convergence detection (strengthened Lemma 1): min and max
        # neighbouring parent fuse into one semiring pass, so charge
        # one mxv
        if active.enabled:
            conv = converged_star_vertices(Ap, f, star, active.mask)
            dmat.charge_mxv(cost, active.mask, "starcheck")
            active.retire(conv)
        it.converged_vertices = active.converged_count

    def do_shortcut(it: IterationStats) -> None:
        nonlocal nonstar
        sv, sp_ = star.dense_arrays()
        it.star_vertices = int(np.count_nonzero(sv & sp_))
        nonstar = sp_ & ~sv
        scope = nonstar if active.mask is None else nonstar & active.mask
        scope_idx = np.flatnonzero(scope)
        if scope_idx.size:
            fv = f.to_numpy()
            rep2 = charge_extract(
                grid, cost, fv[scope_idx], scope_idx, "shortcut", **route_kw
            )
            record_routed(it.iteration, "shortcut", rep2)
            cost.charge_compute(scope_idx.size / max(nprocs, 1), "shortcut")
        shortcut(f, scope)

    def record(it: IterationStats, _span) -> dict:
        # per-step model time and per-iteration communication attribution
        # (Figure 8's step bars and comm columns)
        for k, v in cost.phases.items():
            d = v.seconds - phases0.get(k, 0.0)
            if d > 0:
                it.step_model_seconds[k] = d
        _, words1, msgs1 = cost.totals()
        it.words_communicated = int(round(words1 - totals0[1]))
        it.messages_sent = int(round(msgs1 - totals0[2]))
        stats.iterations.append(it)
        return dict(it.progress(), words=it.words_communicated,
                    messages=it.messages_sent)

    def snapshot(iteration: int) -> IterationSnapshot:
        # snapshot in ORIGINAL vertex space — interchangeable with the
        # serial driver's, which the degraded replay path relies on
        sv, sp_ = star.dense_arrays()
        mask = active.mask
        plan = getattr(cost, "faults", None)
        return IterationSnapshot(
            iteration=iteration,
            parents=dmat.to_original_labels(f.to_numpy()),
            star=(sv & sp_)[dmat.perm],
            active=None if mask is None else mask[dmat.perm],
            simulated_seconds=cost.total_seconds,
            plan_cursor=0 if plan is None else plan.cursor,
        )

    body = IterationBody(
        driver="dist",
        begin=begin,
        steps=(
            ("cond_hook", do_cond_hook),
            ("starcheck", do_starcheck),
            ("uncond_hook", do_uncond_hook),
            ("starcheck", do_starcheck_retire),
            ("shortcut", do_shortcut),
        ),
        record=record,
        converged=lambda it: active.done(it.cond_hooks + it.uncond_hooks, nonstar),
        snapshot=snapshot,
        parents=lambda: dmat.to_original_labels(f.to_numpy()),
        refresh=refresh,
        run_start=dict(
            graph=run_name,
            n=n,
            nnz=A.nvals,
            machine=machine.name,
            nodes=nodes,
            ranks=nprocs,
            **plan_fields(faults),
            partition_lambda=dmat.load_imbalance(),
            partition_worst_rank=int(np.argmax(dmat.edges_per_rank)),
        ),
        run_end=lambda: {"simulated_seconds": cost.total_seconds},
    )

    with run_ctx, tr.span("lacc_dist", "run", n=n, nnz=Ap.nvals,
                          machine=machine.name, nodes=nodes, ranks=nprocs,
                          **({"run_id": fr.run_id} if fr else {})):
        n_iterations, labels, n_components = iterate(
            body, n, Ap.nvals > 0, max_iterations, start_iteration, on_iteration, tr
        )
    return DistLACCResult(
        labels,
        n_components,
        n_iterations,
        stats,
        cost,
        machine,
        nodes,
        nprocs,
        routing,
    )
