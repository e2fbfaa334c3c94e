"""Spanning-forest extraction via LACC-style hooking.

Connected-component labels certify *that* vertices are connected; many
consumers (metagenome assembly scaffolding, cycle detection, sparsifiers,
the MSF algorithms of the paper's §II-C) also want a *witness*: a spanning
tree per component.  The AS hooking structure yields one naturally — every
hook was justified by a concrete graph edge — if the semiring carries that
edge along.

The trick (standard in LAGraph's MSF): run the hooking ``mxv`` over pairs
``(f[v], v)`` encoded as ``f[v]·n + v`` in a single int64.  The *(Select2nd,
min)* semiring then still minimises by parent id (the high digits) while the
low digits remember which neighbour — and hence which edge {u, v} — won.
Each accepted hook contributes one forest edge; shortcutting contributes
none.  A component of *k* vertices accumulates exactly *k − 1* edges.

Encoding requires ``n² < 2⁶³``, i.e. ``n ≤ ~3·10⁹`` — beyond any graph this
package targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

import repro.graphblas as gb
from repro.graphblas import Matrix, Vector
from repro.graphblas import binaryops as bop
from repro.graphblas import semirings as sr
from repro.graphblas.descriptor import Mask

from .convergence import ActiveSet, converged_star_vertices
from .shortcut import shortcut
from .skeleton import default_max_iterations
from .starcheck import starcheck

__all__ = ["spanning_forest", "SpanningForest"]


@dataclass
class SpanningForest:
    """A spanning forest: one tree per connected component."""

    n: int
    edges_u: np.ndarray  # forest edge endpoints (graph edges, undirected)
    edges_v: np.ndarray
    parents: np.ndarray  # component labels (roots), as from lacc()

    @property
    def n_edges(self) -> int:
        return int(self.edges_u.size)

    @property
    def n_components(self) -> int:
        return int(np.unique(self.parents).size) if self.n else 0

    def is_spanning(self) -> bool:
        """Exactly n - #components edges and same component structure."""
        if self.n_edges != self.n - self.n_components:
            return False
        from repro.baselines.union_find import DisjointSet

        ds = DisjointSet(self.n)
        for a, b in zip(self.edges_u.tolist(), self.edges_v.tolist()):
            if not ds.union(a, b):  # a cycle edge would return False
                return False
        return ds.n_sets == self.n_components


def _hook_with_witness(
    A: Matrix, f: Vector, star: Vector, n: int, conditional: bool
) -> Tuple[int, np.ndarray, np.ndarray]:
    """One hooking phase over the encoded (parent, vertex) pairs.

    Returns (#hooks, winning edge endpoints u, v).
    """
    enc = Vector.dense(f.to_numpy() * n + np.arange(n, dtype=np.int64))
    fn = Vector.empty(n, np.int64)
    if conditional:
        gb.mxv(fn, star, None, sr.SEL2ND_MIN_INT64, A, enc)
        # strict improvement on the *parent* digits: fn//n < f
        keep = Vector.empty(n, np.bool_)
        gb.ewise_mult(
            keep, None, None, bop.LT,
            gb.apply(Vector.empty(n, np.int64), None, None, lambda x: x // n, fn),
            f,
        )
    else:
        sv, sp_ = star.dense_arrays()
        nonstar = Vector.dense(sp_ & ~sv)
        fns = Vector.empty(n, np.int64)
        gb.extract(fns, Mask(nonstar), None, enc, None)
        if fns.nvals == 0:
            return 0, np.empty(0, np.int64), np.empty(0, np.int64)
        gb.mxv(fn, star, None, sr.SEL2ND_MIN_INT64, A, fns)
        keep = Vector.empty(n, np.bool_)
        gb.ewise_mult(
            keep, None, None, bop.NE,
            gb.apply(Vector.empty(n, np.int64), None, None, lambda x: x // n, fn),
            f,
        )
    hooks = Vector.empty(n, np.int64)
    gb.extract(hooks, keep, None, fn, None)
    hook_vertices, encoded = hooks.extract_tuples()
    if hook_vertices.size == 0:
        return 0, hook_vertices, hook_vertices

    fv = f.to_numpy()
    roots = fv[hook_vertices]
    # dedup per root: min encoded proposal wins, exactly one edge per hook
    order = np.lexsort((encoded, roots))
    roots_s, enc_s, hv_s = roots[order], encoded[order], hook_vertices[order]
    first = np.r_[True, roots_s[1:] != roots_s[:-1]]
    win_roots = roots_s[first]
    win_enc = enc_s[first]
    win_hooker = hv_s[first]
    new_parent = win_enc // n
    witness_v = win_enc % n

    gb.assign(f, None, None, Vector.dense(new_parent), win_roots)
    # the justifying graph edge is {hooking vertex u, neighbour v}
    return int(win_roots.size), win_hooker, witness_v


def spanning_forest(A: Matrix, use_sparsity: bool = True) -> SpanningForest:
    """Compute component labels *and* a spanning forest of each component.

    Runs the LACC iteration schedule with witness-carrying hooking; the
    union of hook edges across iterations is returned.  Output invariants
    (checked by :meth:`SpanningForest.is_spanning` in the tests): exactly
    ``n − #components`` edges, acyclic, connecting each full component.
    """
    if A.nrows != A.ncols or not A.is_symmetric:
        raise ValueError("requires a square symmetric adjacency matrix")
    n = A.nrows
    if n and float(n) * float(n) >= 2.0**63:
        raise ValueError("n too large for the (parent, vertex) pair encoding")
    f = Vector.iota(n)
    fu: List[np.ndarray] = []
    fv: List[np.ndarray] = []
    if n == 0 or A.nvals == 0:
        return SpanningForest(
            n, np.empty(0, np.int64), np.empty(0, np.int64), f.to_numpy()
        )

    active = ActiveSet(n, enabled=use_sparsity)
    if active.enabled:
        active.retire(A.row_degrees() == 0)
    star = starcheck(f, active.mask)
    for _ in range(default_max_iterations(n)):
        h1, eu, ev = _hook_with_witness(A, f, star, n, conditional=True)
        if h1:
            fu.append(eu)
            fv.append(ev)
        star = starcheck(f, active.mask)
        h2, eu, ev = _hook_with_witness(A, f, star, n, conditional=False)
        if h2:
            fu.append(eu)
            fv.append(ev)
        star = starcheck(f, active.mask)
        if use_sparsity:
            active.retire(converged_star_vertices(A, f, star, active.mask))
        sv, sp_ = star.dense_arrays()
        nonstar = sp_ & ~sv
        shortcut(f, nonstar if active.mask is None else nonstar & active.mask)
        if active.done(h1 + h2, nonstar):
            break
        star = starcheck(f, active.mask)
    else:
        raise RuntimeError("spanning forest failed to converge (bug)")

    eu = np.concatenate(fu) if fu else np.empty(0, np.int64)
    ev = np.concatenate(fv) if fv else np.empty(0, np.int64)
    return SpanningForest(n, eu, ev, f.to_numpy())
