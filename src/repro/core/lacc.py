"""LACC — the paper's algorithm: Awerbuch–Shiloach connected components in
GraphBLAS primitives, with the sparsity optimisations of §IV-B.

One iteration (Algorithm 1, with the Table I scoping):

1. **conditional hooking** of stars onto smaller-rooted neighbours,
2. **starcheck** (hooked stars became nonstars),
3. **unconditional hooking** of surviving stars onto nonstar neighbours,
4. **starcheck**, then **Lemma 1**: active stars are converged — retire,
5. **shortcut** (pointer jumping) on the remaining nonstars.

Termination: every tree is a star and no hooks fired — equivalently, with
convergence tracking on, the active set is empty.  The iteration count is
``O(log n)``; each iteration's work shrinks with the active set, which is
the behaviour Figures 4–7 measure.

The ``use_sparsity=False`` mode disables all scoping and runs the plain AS
algorithm over dense vectors (every vertex, every iteration) — it is both
the educational LAGraph-style variant and the ablation baseline for the
sparsity benchmarks.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graphblas import Matrix, Vector
from repro.obs.flight import flight_recorder as _freg
from repro.obs.tracer import NULL_TRACER, Tracer, activate

from .convergence import ActiveSet
from .hooking import cond_hook, uncond_hook
from .shortcut import shortcut
from .skeleton import IterationBody, LACCOutput, iterate
from .snapshot import (
    IterationHook,
    IterationSnapshot,
    validate_initial_active,
    validate_initial_parents,
)
from .starcheck import starcheck
from .stats import IterationStats, LACCStats, steps_from_span

__all__ = ["lacc", "LACCResult"]


@dataclass
class LACCResult(LACCOutput):
    """Output of a LACC run.

    ``parents[i]`` is the root of *i*'s final star — a canonical
    representative of the component, but (as in the paper) not necessarily
    the minimum vertex id: unconditional hooking merges stars onto nonstars
    regardless of id order.  Use :attr:`labels` for min-id labels.
    """

    stats: LACCStats

    def component_of(self, v: int) -> int:
        return int(self.parents[v])


def lacc(
    A: Matrix,
    use_sparsity: bool = True,
    max_iterations: Optional[int] = None,
    collect_stats: bool = True,
    tracer: Optional[Tracer] = None,
    initial_parents: Optional[np.ndarray] = None,
    initial_active: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    on_iteration: Optional[IterationHook] = None,
) -> LACCResult:
    """Run LACC on the adjacency matrix of an undirected graph.

    Parameters
    ----------
    A:
        Symmetric boolean adjacency matrix (see
        :meth:`repro.graphblas.Matrix.adjacency`).  Self-loops are ignored
        by construction there; an asymmetric matrix is rejected.
    use_sparsity:
        Enable the paper's §IV-B optimisations (Lemma 1 convergence
        tracking and Table I scoping).  Off = the unoptimised AS algorithm.
    max_iterations:
        Safety bound; defaults to ``4·⌈log2 n⌉ + 8``.  AS converges in
        ``O(log n)`` iterations, so hitting the bound indicates a bug and
        raises ``RuntimeError``.
    collect_stats:
        Fill per-iteration counters/timers (cheap; disable only for the
        tightest micro-benchmarks).  Timing rides on iteration/step spans
        of a private :class:`repro.obs.Tracer`; ``LACCStats`` is derived
        from those spans.
    tracer:
        Explicit :class:`repro.obs.Tracer` to record into.  It is
        *activated* for the duration of the run, so every GraphBLAS
        primitive nests its own span (with nvals/flops counters) under
        the step spans — the ``python -m repro profile`` view.  Default:
        a private step-level tracer (no primitive spans, near-zero cost).
    initial_parents / initial_active / start_iteration:
        Resume state (see :mod:`repro.core.snapshot`): start from this
        parent vector / active bitmap instead of the identity forest.
        Awerbuch–Shiloach converges from any in-range parent forest, so
        a run can continue from a checkpoint or an audited-and-repaired
        state.  ``start_iteration`` offsets iteration numbering only.
    on_iteration:
        Callback invoked with an :class:`IterationSnapshot` at each
        iteration boundary — the checkpoint hook of
        :class:`repro.recovery.Supervisor`.  Exceptions it raises
        propagate out of the run.

    Returns
    -------
    LACCResult
        Min-id component labels, component count, iterations and stats.
    """
    if A.nrows != A.ncols:
        raise ValueError(f"adjacency matrix must be square, got {A.shape}")
    if not A.is_symmetric:
        raise ValueError("LACC requires an undirected (symmetric) adjacency matrix")
    n = A.nrows
    stats = LACCStats(n_vertices=n)

    # initialise: every vertex is its own parent — n single-vertex stars —
    # unless resuming from a checkpointed/repaired forest
    if initial_parents is not None:
        f = Vector.dense(validate_initial_parents(initial_parents, n))
    else:
        f = Vector.iota(n)
    active = ActiveSet(n, enabled=use_sparsity)
    if active.enabled:
        if initial_active is not None:
            active.retire(~validate_initial_active(initial_active, n))
        # isolated vertices are converged components from the start
        active.retire(A.row_degrees() == 0)

    star = nonstar = None

    def refresh() -> None:
        nonlocal star
        star = starcheck(f, active.mask)

    def do_cond_hook(it: IterationStats) -> None:
        it.cond_hooks = cond_hook(A, f, star, active.mask).count

    def do_uncond_hook(it: IterationStats) -> None:
        it.uncond_hooks = uncond_hook(A, f, star, active.mask).count

    def do_starcheck_retire(it: IterationStats) -> None:
        refresh()
        # Lemma 1 (strengthened, see convergence module): stars surviving
        # unconditional hooking with no external edges are converged
        active.retire_converged_stars(A, f, star)
        it.converged_vertices = active.converged_count

    def do_shortcut(it: IterationStats) -> None:
        nonlocal nonstar
        sv, sp_ = star.dense_arrays()
        it.star_vertices = int(np.count_nonzero(sv & sp_))
        nonstar = sp_ & ~sv
        shortcut(f, nonstar if active.mask is None else nonstar & active.mask)

    def record(it: IterationStats, it_span) -> dict:
        if it_span:
            it.step_seconds = steps_from_span(it_span)
        if collect_stats:
            stats.iterations.append(it)
        return it.progress()

    def snapshot(iteration: int) -> IterationSnapshot:
        sv, sp_ = star.dense_arrays()
        mask = active.mask
        return IterationSnapshot(
            iteration=iteration,
            parents=f.to_numpy(),
            star=sv & sp_,
            active=None if mask is None else mask.copy(),
        )

    body = IterationBody(
        driver="serial",
        begin=lambda i: IterationStats(iteration=i, active_vertices=active.active_count),
        steps=(
            ("cond_hook", do_cond_hook),
            ("starcheck", lambda it: refresh()),
            ("uncond_hook", do_uncond_hook),
            ("starcheck", do_starcheck_retire),
            ("shortcut", do_shortcut),
        ),
        record=record,
        converged=lambda it: active.done(it.cond_hooks + it.uncond_hooks, nonstar),
        snapshot=snapshot,
        parents=f.to_numpy,
        refresh=refresh,
        run_start={"n": n, "nnz": A.nvals},
    )

    # Tracing: an explicit tracer is activated so GraphBLAS primitives
    # record leaf spans; the default private tracer stays inactive and
    # only carries the iteration/step spans LACCStats is derived from.
    tr = tracer if tracer is not None else (Tracer() if collect_stats else NULL_TRACER)
    run_ctx = activate(tr) if tracer is not None else contextlib.nullcontext()
    fr = _freg()
    with run_ctx, tr.span("lacc", "run", n=n, nnz=A.nvals,
                          **({"run_id": fr.run_id} if fr else {})):
        n_iterations, labels, n_components = iterate(
            body, n, A.nvals > 0, max_iterations, start_iteration, on_iteration, tr
        )
    return LACCResult(labels, n_components, n_iterations, stats)
