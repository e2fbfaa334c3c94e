"""LACC over the literal 2D CombBLAS machinery.

Third execution model, completing the fidelity ladder:

1. :func:`repro.core.lacc` — serial GraphBLAS (the algorithm itself);
2. :func:`repro.core.lacc_dist` — analytic α–β pricing of a 2D run;
3. :func:`repro.core.lacc_spmd` — literal message passing, 1D edge layout;
4. **this module** — literal message passing with the paper's actual data
   distribution: the adjacency matrix on a ``√p × √p`` grid, hooking via
   the real two-stage :func:`repro.combblas.dist_mxv` (column allgather →
   block multiply → row routing), vectors block-distributed with
   request/reply indexing for starcheck and shortcut.

Everything but the hooking — the distributed vectors, starcheck,
shortcut, the convergence allreduce, snapshots — is
:func:`~repro.core.lacc_spmd.lacc_spmd`'s ``_SPMDState``, and the loop is
the shared :func:`repro.core.skeleton.iterate`.

Per-rank state only ever moves through :class:`repro.mpisim.SimComm`
collectives; the tests pin the output to serial LACC and ground truth on
every grid size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.combblas.distmatrix import DistMatrix
from repro.combblas.spmv import dist_mxv
from repro.graphblas import Vector
from repro.graphblas import semirings as sr
from repro.graphs.generators import EdgeList
from repro.mpisim.grid import ProcessGrid
from repro.obs.tracer import current as _obs

from .lacc_spmd import _SPMDState
from .skeleton import LACCOutput, iterate, plan_fields
from .snapshot import IterationHook

__all__ = ["lacc_2d", "Grid2DResult"]


@dataclass
class Grid2DResult(LACCOutput):
    """Output of a 2D literal LACC run."""

    nprocs: int
    grid_side: int
    words_sent: int  # indexing traffic (the mxv moves data internally)


def lacc_2d(
    g: EdgeList,
    nprocs: int = 4,
    max_iterations: Optional[int] = None,
    faults=None,
    cost=None,
    initial_parents: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    on_iteration: Optional[IterationHook] = None,
) -> Grid2DResult:
    """Run LACC with the 2D-distributed matrix and literal communication.

    *nprocs* must be a perfect square (the CombBLAS grid restriction the
    paper inherits, §VI-A).  An optional :class:`repro.faults.FaultPlan`
    runs every collective through the :class:`SimComm` retry envelope
    (transient faults recover; permanent ones raise
    :class:`repro.faults.CollectiveError`); an optional
    :class:`repro.mpisim.CostModel` (``cost``) prices recovery time.
    ``initial_parents`` / ``start_iteration`` / ``on_iteration`` are the
    checkpoint-resume hooks of :mod:`repro.core.snapshot`; each iteration
    runs inside an ``iteration`` span so raised
    :class:`~repro.faults.CollectiveError`\\ s carry the iteration number,
    and each step inside a ``cat="step"`` span that names the step its
    collectives serve.  ``max_iterations`` defaults to ``4·⌈log2 n⌉ + 8``.
    """
    n = g.n
    grid = ProcessGrid(nprocs, n)  # validates squareness
    st = _SPMDState(n, nprocs, initial_parents, faults, cost)
    f, star = st.f, st.star
    A = g.to_matrix()
    dmat = DistMatrix(A, grid, permute=False)

    def global_vector(restrict_to_nonstars: bool) -> Vector:
        """Assemble the mxv input from per-rank blocks (each rank
        contributes only its own entries, like the SpMV gather's senders)."""
        idx_parts, val_parts = [], []
        for r in range(nprocs):
            base = f.lo(r)
            if restrict_to_nonstars:
                local = np.flatnonzero(star.blocks[r] == 0)
            else:
                local = np.arange(f.blocks[r].size)
            idx_parts.append(local + base)
            val_parts.append(f.blocks[r][local])
        idx = np.concatenate(idx_parts) if idx_parts else np.empty(0, np.int64)
        vals = np.concatenate(val_parts) if val_parts else np.empty(0, np.int64)
        return Vector.sparse(n, idx, vals)

    def hook(conditional: bool) -> int:
        x = global_vector(restrict_to_nonstars=not conditional)
        if x.nvals == 0:
            return 0
        # the paper's mxv over (Select2nd, min), executed on the 2D grid
        fn = dist_mxv(dmat, x, sr.SEL2ND_MIN_INT64)
        fn_vals, fn_present = fn.dense_arrays()
        targets, values = [], []
        for r in range(nprocs):
            base = f.lo(r)
            size = f.blocks[r].size
            pres = fn_present[base : base + size]
            prop = fn_vals[base : base + size]
            is_star = star.blocks[r] == 1
            if conditional:
                fire = pres & is_star & (prop < f.blocks[r])
            else:
                fire = pres & is_star & (prop != f.blocks[r])
            targets.append(f.blocks[r][fire])
            values.append(prop[fire])
        return f.scatter_min(targets, values)

    body = st.body("2d", hook, dict(
        n=n, nnz=A.nvals, ranks=nprocs, grid_side=grid.side,
        **plan_fields(faults), partition_lambda=dmat.load_imbalance(),
    ))
    n_iterations, parents, n_components = iterate(
        body, n, A.nvals > 0, max_iterations, start_iteration, on_iteration, _obs()
    )
    return Grid2DResult(
        parents=parents,
        n_components=n_components,
        n_iterations=n_iterations,
        nprocs=nprocs,
        grid_side=grid.side,
        words_sent=st.words,
    )
