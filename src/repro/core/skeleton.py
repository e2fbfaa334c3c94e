"""The LACC iteration skeleton — Algorithm 1's loop, written once.

Every driver runs the same loop: per iteration, the steps of Algorithm 1
(conditional hooking, starcheck, unconditional hooking, starcheck,
shortcut), then the termination test.  The drivers differ only in how a
step computes — GraphBLAS calls, α–β pricing around them, or literal
message passing — so each supplies an :class:`IterationBody` (its step
callables plus the few driver-specific reads) and :func:`iterate` owns
everything around them:

* iteration numbering from ``start_iteration`` and the ``O(log n)``
  iteration bound (:func:`default_max_iterations`), whose violation
  raises ``RuntimeError``;
* the ``iteration`` span and one ``cat="step"`` span per step, each step
  span carrying the host time it took as a ``wall_seconds`` counter;
* the flight run envelope (``run_start`` / ``iteration`` / ``run_end``)
  and the iteration coordinate that fault and retry events inherit;
* the ``lacc_iterations_total`` / ``lacc_hooks_total`` /
  ``lacc_active_vertices`` metrics, labelled by driver;
* the termination test and the ``on_iteration`` snapshot callback.

With tracing, flight recording and metrics off, the skeleton costs one
falsy check per span and per record site — the same off switch as every
other instrumented layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.obs.flight import flight_recorder as _freg
from repro.obs.metrics import metrics_registry as _mreg
from repro.obs.tracer import NULL_TRACER

from .snapshot import IterationHook, IterationSnapshot
from .stats import IterationStats

__all__ = [
    "IterationBody",
    "LACCOutput",
    "iterate",
    "default_max_iterations",
    "plan_fields",
]

#: one algorithm step: reads and fills the iteration's :class:`IterationStats`
Step = Callable[[IterationStats], None]


def default_max_iterations(n: int) -> int:
    """The iteration bound ``4·⌈log2 n⌉ + 8``.  Awerbuch–Shiloach converges
    in ``O(log n)`` iterations, so exceeding it indicates a bug."""
    return 4 * max(int(np.ceil(np.log2(max(n, 2)))), 1) + 8


def plan_fields(faults) -> Dict[str, Any]:
    """``run_start`` fields naming the fault plan a run executes under."""
    return {
        "preset": faults.name if faults is not None else None,
        "seed": faults.seed if faults is not None else None,
    }


def _nothing() -> None:
    pass


@dataclass
class LACCOutput:
    """The result fields every driver shares; each driver's result class
    adds its own."""

    parents: np.ndarray  # parents[i] = root vertex of i's component
    n_components: int
    n_iterations: int

    @property
    def labels(self) -> np.ndarray:
        """Labels renamed so each component is labelled by its smallest
        member vertex (stable across algorithms, handy for comparisons)."""
        from repro.graphs.validate import canonical_labels

        return canonical_labels(self.parents)


@dataclass
class IterationBody:
    """A driver's side of the loop; its state lives in the callables."""

    #: ``driver`` label of flight events and metrics
    driver: str
    #: fresh per-iteration record, ``active_vertices`` filled in
    begin: Callable[[int], IterationStats]
    #: ``(name, step)`` pairs run in order, each inside a step span
    steps: Sequence[Tuple[str, Step]]
    #: closes the iteration's bookkeeping (called inside the iteration
    #: span, which is passed along) and returns the fields of the flight
    #: ``iteration`` event
    record: Callable[[IterationStats, Any], Dict[str, Any]]
    #: the termination test, read after every iteration
    converged: Callable[[IterationStats], bool]
    #: restartable state after an unconverged iteration (original vertex space)
    snapshot: Callable[[int], IterationSnapshot]
    #: final parent vector, original vertex space
    parents: Callable[[], np.ndarray]
    #: re-derives what the next iteration's first step reads; runs before
    #: the first iteration and after every unconverged one, outside spans
    refresh: Callable[[], None] = _nothing
    #: driver-specific ``run_start`` fields
    run_start: Dict[str, Any] = field(default_factory=dict)
    #: driver-specific ``run_end`` fields
    run_end: Callable[[], Dict[str, Any]] = dict


def iterate(
    body: IterationBody,
    n: int,
    has_edges: bool,
    max_iterations: Optional[int] = None,
    start_iteration: int = 0,
    on_iteration: Optional[IterationHook] = None,
    tracer=NULL_TRACER,
) -> Tuple[int, np.ndarray, int]:
    """Run *body* to convergence; returns ``(n_iterations, parents,
    n_components)``.

    A graph without edges runs no iteration: every vertex is its own
    component and the run record holds only the envelope.
    ``n_iterations`` counts from ``start_iteration`` (resumed runs keep
    their numbering); the bound applies to the iterations this call runs.
    """
    if max_iterations is None:
        max_iterations = default_max_iterations(n)
    fr = _freg()
    if fr:
        fr.record("run_start", driver=body.driver, **body.run_start)
    iteration = start_iteration
    if has_edges:
        body.refresh()
        while True:
            iteration += 1
            if iteration - start_iteration > max_iterations:
                raise RuntimeError(
                    f"{body.driver} LACC did not converge within "
                    f"{max_iterations} iterations — this indicates a "
                    "forest-invariant violation"
                )
            if fr:
                # faults/retries recorded deep inside the collectives inherit
                # this coordinate without threading it through call signatures
                fr.set_coords(iteration=iteration)
            it = body.begin(iteration)
            with tracer.span("iteration", "iteration", iteration=iteration) as it_span:
                for name, step in body.steps:
                    with tracer.span(name, "step") as sp:
                        t0 = time.perf_counter() if sp else 0.0
                        step(it)
                        if sp:
                            sp.add("wall_seconds", time.perf_counter() - t0)
                fields = body.record(it, it_span)
                if it_span:
                    for key, value in it.progress().items():
                        it_span.set(key, value)
            if fr:
                fr.record("iteration", iteration=iteration, **fields)
            _record_metrics(body.driver, it)
            if body.converged(it):
                break
            body.refresh()
            if on_iteration is not None:
                on_iteration(body.snapshot(iteration))

    parents = body.parents()
    n_components = int(np.unique(parents).size)
    if fr:
        fr.record("run_end", n_iterations=iteration, n_components=n_components,
                  **body.run_end())
    return iteration, parents, n_components


def _record_metrics(driver: str, it: IterationStats) -> None:
    reg = _mreg()
    if reg:
        reg.counter("lacc_iterations_total",
                    "LACC iterations executed", driver=driver).inc()
        reg.counter("lacc_hooks_total", "trees hooked",
                    driver=driver, kind="cond").inc(it.cond_hooks)
        reg.counter("lacc_hooks_total", "trees hooked",
                    driver=driver, kind="uncond").inc(it.uncond_hooks)
        reg.gauge("lacc_active_vertices",
                  "active vertices entering the latest iteration",
                  driver=driver).set(it.active_vertices)
