"""Seeded workload builders.

Each workload names a graph generator from :mod:`repro.graphs.generators`,
the driver that solves it and the communicator backend it runs on.  The
program only ever receives the generated inputs; the seed picks the graph.
Generators are looked up on their module at call time, so the traced run's
wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.core import lacc
from repro.core.lacc_spmd import lacc_spmd
from repro.graphs import generators
from repro.graphs.generators import EdgeList
from repro.mpisim import backend as comm_backend
from repro.parallel import pool as proc_pool

#: kernel tier every workload runs on: numba may or may not be installed, and
#: runs on two machines must compare the same tier
KERNEL_TIER = "numpy"
#: SPMD ranks; ``spmd-proc`` forks one worker per rank, matching a 2-core box
RANKS = 2


def _rmat(seed: int) -> EdgeList:
    # edge_factor 8 rather than Graph500's 16: at 16 some seeds converge in 3
    # iterations instead of 4, which splits solve times in two
    return generators.rmat(scale=16, edge_factor=8, seed=seed)


def _m3(seed: int) -> EdgeList:
    sizes = np.random.default_rng(seed).integers(20, 200, 200)
    return generators.component_mixture(sizes, avg_degree=2.0, seed=seed + 1)


def _archaea(seed: int) -> EdgeList:
    return generators.clustered_graph(
        n_clusters=700, cluster_size_mean=5.0, intra_degree=24.0,
        giant_fraction=0.30, seed=seed,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int], EdgeList]
    #: ``serial`` runs :func:`repro.core.lacc` on the adjacency matrix;
    #: ``sim`` / ``proc`` run :func:`lacc_spmd` on that communicator backend
    backend: str

    @property
    def serial(self) -> bool:
        return self.backend == "serial"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serial-rmat",
            "Graph500-shaped R-MAT 2^16, ~262k edges: large frontiers make mxv "
            "and full-width starcheck do real work over few iterations",
            _rmat, "serial",
        ),
        Workload(
            "serial-m3",
            "M3 analogue (200 long-diameter components, m/n~1): tiny hook "
            "frontiers over many iterations, the paper's worst case",
            _m3, "serial",
        ),
        Workload(
            "spmd-sim",
            "archaea-shaped clustered graph on the literal SPMD driver over "
            "simulated collectives; never calls graphblas",
            _archaea, "sim",
        ),
        Workload(
            "spmd-proc",
            "same graph and call with forked worker ranks and shared-memory "
            "collectives; the only workload exercising repro.parallel",
            _archaea, "proc",
        ),
    )
}


@dataclass
class Instance:
    """One workload's inputs, ready to solve."""

    workload: Workload
    graph: EdgeList
    matrix: Optional[object] = None  # adjacency matrix (serial workloads)

    def solve(self) -> object:
        """One driver call; returns the driver's result object."""
        if self.workload.serial:
            return lacc(self.matrix)
        with comm_backend.use(self.workload.backend):
            return lacc_spmd(self.graph, ranks=RANKS)


def build(workload: Workload, seed: int) -> Instance:
    """Everything ``setup_s`` times: graph generation, then the adjacency
    build (serial) or a fresh worker-pool spawn (proc)."""
    graph = workload.generate(seed)
    inst = Instance(workload, graph)
    if workload.serial:
        inst.matrix = graph.to_matrix()
    elif workload.backend == "proc":
        proc_pool.shutdown_pools()
        proc_pool.get_pool(RANKS)
    return inst
