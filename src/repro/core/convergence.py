"""Converged-component tracking — the paper's Lemma 1, strengthened.

    *Except in the first iteration, all remaining stars after unconditional
    hooking are converged components.* (Lemma 1)

The proof assumes every edge between a surviving star S and another tree T
was usable by one of the two hooking phases.  Our reproduction found a
counterexample for the *as-published Algorithm 4*: when a tree T is
extended **during** conditional hooking and ends up being structurally a
star (e.g. singleton 55 hooks onto root 28, leaving {28, 93, 94, 55} a
perfect star), the mid-iteration starcheck classifies T's vertices as star
vertices, so Algorithm 4's ``GrB_extract`` of *nonstar* parents excludes
them — and an edge {u∈S, v∈T} fires in neither phase.  S then survives as
a star and Lemma 1 would retire it while it still has an external edge,
splitting a component.  (Allowing star→star unconditional hooks instead
creates 2-cycles: two extended stars can hook onto each other.)

We therefore retire stars using the *semantic* definition of convergence:

    a star is converged iff no member has a neighbour outside the star,

checked with two masked ``GrB_mxv`` calls over the surviving star vertices
(min and max neighbouring parent — both equal the root iff every neighbour
is internal).  This is sound in every iteration (including the first), and
costs the same asymptotic work as one hooking phase over a set that
shrinks geometrically.  Unconverged stars simply stay active and hook in
the next iteration's conditional phase, exactly as in the original
Awerbuch–Shiloach schedule.  The deviation is recorded in DESIGN.md.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

import repro.graphblas as gb
from repro.graphblas import Matrix, Vector
from repro.graphblas import semirings as sr
from repro.graphblas.descriptor import Mask

from .hooking import scoped_input

__all__ = ["ActiveSet", "converged_star_vertices"]


def converged_star_vertices(
    A: Matrix,
    f: Vector,
    star: Vector,
    active: Optional[np.ndarray],
) -> np.ndarray:
    """Bitmap of star vertices whose whole star has no external edges.

    Implements the strengthened Lemma-1 check described in the module
    docstring.  Only vertices inside the *active* scope are considered
    (``None`` = all vertices).
    """
    n = f.size
    sv, sp_ = star.dense_arrays()
    star_allow = sv & sp_
    if active is not None:
        star_allow = star_allow & active
    if not star_allow.any():
        return star_allow

    fv = f.to_numpy()
    u_in = scoped_input(f, active)

    # from_bitmap: a shrinking survivor set gets a sparse structural mask,
    # so both mxv calls stream only the surviving stars' rows
    star_mask = Mask.from_bitmap(star_allow)
    fmin = Vector.empty(n, f.dtype)
    gb.mxv(fmin, star_mask, None, sr.SEL2ND_MIN_INT64, A, u_in)
    fmax = Vector.empty(n, f.dtype)
    gb.mxv(fmax, star_mask, None, sr.SEL2ND_MAX_INT64, A, u_in)

    # a member u sees an external tree iff min or max neighbouring parent
    # differs from its own root f[u]
    external = np.zeros(n, dtype=bool)
    for fn in (fmin, fmax):
        fi, fvals = fn.sparse_arrays()
        diff = fvals != fv[fi]
        external[fi[diff]] = True

    # a star converges only when *no* member is external: mark bad roots
    bad_root = np.zeros(n, dtype=bool)
    ext_idx = np.flatnonzero(external)
    if ext_idx.size:
        bad_root[fv[ext_idx]] = True
    return star_allow & ~bad_root[fv]


class ActiveSet:
    """Bitmap of non-converged vertices plus retirement bookkeeping."""

    def __init__(self, n: int, enabled: bool = True):
        self.n = n
        self.enabled = enabled
        self._active = np.ones(n, dtype=bool)

    @property
    def mask(self) -> Optional[np.ndarray]:
        """Bitmap to scope operations with, or ``None`` when tracking is
        disabled (the unoptimised baseline) — callers then process all
        vertices like the original PRAM formulation."""
        return self._active if self.enabled else None

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self._active)) if self.enabled else self.n

    @property
    def converged_count(self) -> int:
        return self.n - int(np.count_nonzero(self._active)) if self.enabled else 0

    def retire(self, bitmap: np.ndarray) -> int:
        """Deactivate the vertices in *bitmap*; returns how many retired."""
        if not self.enabled:
            return 0
        newly = self._active & bitmap
        count = int(np.count_nonzero(newly))
        if count:
            self._active &= ~newly
        return count

    def retire_converged_stars(
        self, A: Matrix, f: Vector, star: Vector
    ) -> int:
        """Retire every active star with no external edges (see module
        docstring).  Valid in every iteration."""
        if not self.enabled:
            return 0
        return self.retire(converged_star_vertices(A, f, star, self._active))

    def all_converged(self) -> bool:
        return self.enabled and not self._active.any()

    def done(self, hooks: int, nonstar: np.ndarray) -> bool:
        """Algorithm 1's termination test after an iteration: every vertex
        retired, or no hook fired and every tree is a star."""
        return self.all_converged() or (hooks == 0 and not nonstar.any())
