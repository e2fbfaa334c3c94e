"""Per-iteration instrumentation for LACC runs.

The paper's Figures 7 and 8 are built from exactly these quantities: the
fraction of vertices in converged components per iteration, and the time
spent in each of the four steps (conditional hooking, unconditional
hooking, shortcut, starcheck).  Every LACC run — serial or simulated
distributed — fills a :class:`LACCStats` so the benchmark harness can print
those figures without re-instrumenting the algorithm.

Timing is captured by :mod:`repro.obs` spans (iteration → step →
primitive); :func:`steps_from_span` derives the per-step seconds of one
iteration from its span, making :class:`LACCStats` a *view* over the
trace rather than a second timing mechanism.  :class:`StepTimer` remains
for code that wants step timing without a tracer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "IterationStats",
    "LACCStats",
    "StepTimer",
    "STEPS",
    "steps_from_span",
]

#: The four steps of every LACC iteration, in execution order.
STEPS = ("cond_hook", "starcheck", "uncond_hook", "shortcut")
#: The per-iteration progress counters every driver reports.
PROGRESS = ("active_vertices", "cond_hooks", "uncond_hooks", "converged_vertices")


@dataclass
class IterationStats:
    """Counters for one LACC iteration."""

    iteration: int
    active_vertices: int = 0  # non-converged vertices entering the iteration
    star_vertices: int = 0  # stars after unconditional hooking
    cond_hooks: int = 0  # trees hooked conditionally
    uncond_hooks: int = 0  # trees hooked unconditionally
    converged_vertices: int = 0  # cumulative vertices in converged components
    step_seconds: Dict[str, float] = field(default_factory=dict)
    # populated by the distributed variant (α–β model costs)
    step_model_seconds: Dict[str, float] = field(default_factory=dict)
    words_communicated: int = 0
    messages_sent: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.step_seconds.values())

    def progress(self) -> Dict[str, int]:
        """The algorithm-progress counters, as the drivers report them on
        ``iteration`` spans and flight events."""
        return {k: getattr(self, k) for k in PROGRESS}


@dataclass
class LACCStats:
    """Full-run statistics: one :class:`IterationStats` per iteration."""

    n_vertices: int
    iterations: List[IterationStats] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    def converged_fraction(self) -> List[float]:
        """Fraction of vertices in converged components after each
        iteration — the series Figure 7 plots."""
        if self.n_vertices == 0:
            return [1.0 for _ in self.iterations]
        return [it.converged_vertices / self.n_vertices for it in self.iterations]

    def step_totals(self, model: bool = False) -> Dict[str, float]:
        """Total seconds per step over the whole run — the bars Figure 8
        plots.  ``model=True`` reads the α–β simulated times instead of
        wall-clock."""
        out = {s: 0.0 for s in STEPS}
        for it in self.iterations:
            src = it.step_model_seconds if model else it.step_seconds
            for s, t in src.items():
                out[s] = out.get(s, 0.0) + t
        return out

    def total_seconds(self, model: bool = False) -> float:
        return sum(self.step_totals(model).values())


def steps_from_span(iteration_span) -> Dict[str, float]:
    """Sum the durations of an iteration span's ``step`` children by name.

    This is the bridge from the :mod:`repro.obs` trace to
    ``IterationStats.step_seconds``: both starcheck passes of one
    iteration fold into a single ``"starcheck"`` entry, exactly as the
    old :class:`StepTimer` accumulated them.
    """
    out: Dict[str, float] = {}
    for child in getattr(iteration_span, "children", ()):
        if child.cat == "step":
            out[child.name] = out.get(child.name, 0.0) + child.duration
    return out


class StepTimer:
    """Context-manager timer filling ``IterationStats.step_seconds``."""

    def __init__(self, stats: IterationStats):
        self.stats = stats

    @contextmanager
    def step(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.stats.step_seconds[name] = self.stats.step_seconds.get(name, 0.0) + dt
