"""SPMD LACC: a *literal* distributed execution over SimComm.

The scaling sweeps in :mod:`repro.core.lacc_dist` price LACC analytically;
this module complements them with an execution that is **actually
distributed**: the parent and star vectors live as per-rank blocks, the
edge list is 1D-partitioned, and every step communicates exclusively
through :class:`repro.mpisim.SimComm` collectives — no rank ever touches
another rank's block directly.  Per iteration:

1. **endpoint resolution** — each rank requests ``f``/``star`` values for
   the remote endpoints of its local edges (alltoallv request → reply),
   the SPMD analogue of the SpMV gather stage;
2. **conditional hooking** — local proposal generation
   (``star[u] ∧ f[v] < f[u]``), min-combined locally, routed to the root
   owners with a second alltoallv, min-applied there;
3. **unconditional hooking** — same shape with the Lemma-2 condition
   (star hooks onto a *nonstar* neighbour's parent);
4. **shortcut** — grandparent request/reply (owner of ``f[v]`` answers
   with its parent), the exact traffic Figure 3 histograms;
5. **starcheck** — grandparent comparison + a parent-star gather,
   reproducing Algorithm 6 with message-passing;
6. **convergence** — an allreduce of (hooks, parent-changes, nonstars)
   decides termination, plus the semantic converged-star retirement
   (min/max neighbour parents piggy-back on step 1's replies).

The test suite checks this execution against serial LACC and ground truth
on every grid size, which closes the loop on the simulator's ownership
arithmetic: the analytic layer counts the words this implementation
actually sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.generators import EdgeList
from repro.mpisim.backend import make_comm
from repro.mpisim.comm import SimComm
from repro.obs.tracer import current as _obs

from .skeleton import IterationBody, LACCOutput, iterate, plan_fields
from .snapshot import IterationHook, IterationSnapshot, validate_initial_parents
from .stats import IterationStats

__all__ = ["lacc_spmd", "SPMDResult"]


@dataclass
class SPMDResult(LACCOutput):
    """Output of an SPMD LACC run."""

    ranks: int
    words_sent: int  # total payload words that crossed rank boundaries
    #: simulated seconds lost to injected faults (backoff/stragglers)
    #: when no cost model was attached to price them properly
    fault_seconds: float = 0.0


def _min_per_index(t, v) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs of ``(t, v)`` with the smallest ``v`` per index, sorted."""
    t = np.asarray(t, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if t.size:
        order = np.lexsort((v, t))
        t, v = t[order], v[order]
        first = np.r_[True, t[1:] != t[:-1]]
        t, v = t[first], v[first]
    return t, v


class _Dist:
    """Block-distributed int64 vector with request/reply gather."""

    def __init__(self, comm: SimComm, n: int, init: np.ndarray):
        self.comm = comm
        self.n = n
        self.p = comm.size
        self.block = max(-(-n // self.p), 1)
        self.blocks: List[np.ndarray] = [
            init[self.lo(r) : self.hi(r)].copy() for r in range(self.p)
        ]
        self.words = 0

    def lo(self, r: int) -> int:
        return min(r * self.block, self.n)

    def hi(self, r: int) -> int:
        return min((r + 1) * self.block, self.n)

    def owner(self, idx: np.ndarray) -> np.ndarray:
        return np.minimum(idx // self.block, self.p - 1)

    def split(self, idx: np.ndarray) -> List[np.ndarray]:
        """Positions in *idx* of the indices each rank owns, by rank."""
        owners = self.owner(idx) if idx.size else idx
        return [np.flatnonzero(owners == o) for o in range(self.p)]

    def gather(self, requests: List[np.ndarray]) -> List[np.ndarray]:
        """``requests[r]`` = global indices rank *r* wants; returns the
        values, positionally aligned, via a two-phase alltoallv."""
        p = self.p
        reqs = [np.asarray(q, dtype=np.int64) for q in requests]
        send_back = [self.split(q) for q in reqs]
        recv_idx = self.comm.alltoallv(  # recv_idx[o][r]
            [[q[sel] for sel in back] for q, back in zip(reqs, send_back)]
        )
        # owners answer with values
        send_val = [[None] * p for _ in range(p)]
        for o in range(p):
            base = self.lo(o)
            for r in range(p):
                idx = recv_idx[o][r]
                send_val[o][r] = self.blocks[o][idx - base] if idx.size else idx
                self.words += int(idx.size) * 2  # request + reply payloads
        recv_val = self.comm.alltoallv(send_val)  # recv_val[r][o]
        out = []
        for r in range(p):
            vals = np.empty(reqs[r].size, dtype=np.int64)
            for o, sel in enumerate(send_back[r]):
                if len(sel):
                    vals[sel] = recv_val[r][o]
            out.append(vals)
        return out

    def _deliver(
        self, targets: List[np.ndarray], values: List[np.ndarray]
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Route (index, value) pairs to their owners with two alltoallvs
        (indices, then values); returns ``(block, local index, value)``
        per nonempty (owner, sender) pair."""
        send_t, send_v = [], []
        for t, v in zip(targets, values):
            t = np.asarray(t, dtype=np.int64)
            v = np.asarray(v, dtype=np.int64)
            sels = self.split(t)
            send_t.append([t[sel] for sel in sels])
            send_v.append([v[sel] for sel in sels])
            self.words += 2 * t.size
        recv_t = self.comm.alltoallv(send_t)
        recv_v = self.comm.alltoallv(send_v)
        return [
            (self.blocks[o], recv_t[o][r] - self.lo(o), recv_v[o][r])
            for o in range(self.p)
            for r in range(self.p)
            if recv_t[o][r].size
        ]

    def scatter_min(self, targets: List[np.ndarray], values: List[np.ndarray]) -> int:
        """Route (index, value) pairs to owners; owners apply
        ``block[i] = min(block[i], v)``.  Each rank first keeps only its
        smallest value per index, so no index is sent twice.  Returns
        #elements changed."""
        combined = [_min_per_index(t, v) for t, v in zip(targets, values)]
        changed = 0
        for block, local, v in self._deliver(
            [t for t, _ in combined], [v for _, v in combined]
        ):
            before = block[local]
            np.minimum.at(block, local, v)
            changed += int(np.count_nonzero(block[local] != before))
        return changed

    def scatter_store(self, targets: List[np.ndarray], values: List[np.ndarray]) -> None:
        """Route (index, value) pairs to owners; owners overwrite."""
        for block, local, v in self._deliver(targets, values):
            block[local] = v

    def to_array(self) -> np.ndarray:
        return np.concatenate(self.blocks) if self.blocks else np.empty(0, np.int64)


class _SPMDState:
    """Parent and star vectors of one literal run, block-distributed over
    a communicator from :func:`make_comm`, with every step that needs
    nothing else: starcheck, shortcut, the nonstar allreduce and the
    snapshot.  A driver adds only its hooking — how a star finds the
    parent it proposes to hook onto."""

    def __init__(self, n: int, ranks: int, initial_parents=None, faults=None, cost=None):
        if initial_parents is not None:
            f0 = validate_initial_parents(initial_parents, n)
        else:
            f0 = np.arange(n, dtype=np.int64)
        self.comm: SimComm = make_comm(ranks, faults=faults, cost=cost)
        self.n = n
        self.ranks = ranks
        self.faults = faults
        self.cost = cost
        self.f = _Dist(self.comm, n, f0)
        self.star = _Dist(self.comm, n, np.ones(n, dtype=np.int64))
        self.changed = 0  # parents the latest shortcut moved
        self.nonstars = 0  # nonstar vertices after the latest iteration

    @property
    def words(self) -> int:
        return self.f.words + self.star.words

    def starcheck(self, _it=None) -> None:
        """Algorithm 6 with message passing."""
        f, star = self.f, self.star
        for r in range(self.ranks):
            star.blocks[r][:] = 1
        # gf via request of parents-of-parents
        parents = [f.blocks[r] for r in range(self.ranks)]
        gf = f.gather(parents)
        # vertices with f != gf: mark self + grandparent nonstar
        bad_self: List[np.ndarray] = []
        bad_gp: List[np.ndarray] = []
        for r in range(self.ranks):
            base = f.lo(r)
            neq = np.flatnonzero(parents[r] != gf[r])
            bad_self.append(neq + base)
            bad_gp.append(gf[r][neq])
        zeros = [np.zeros(b.size, dtype=np.int64) for b in bad_self]
        star.scatter_store(bad_self, zeros)
        zeros = [np.zeros(b.size, dtype=np.int64) for b in bad_gp]
        star.scatter_store(bad_gp, zeros)
        # star[v] &= star[f[v]]
        pstar = star.gather(parents)
        for r in range(self.ranks):
            star.blocks[r] &= pstar[r]

    def shortcut(self, _it=None) -> None:
        f = self.f
        parents = [f.blocks[r] for r in range(self.ranks)]
        gf = f.gather(parents)
        changed = 0
        for r in range(self.ranks):
            changed += int(np.count_nonzero(gf[r] != parents[r]))
            f.blocks[r][:] = gf[r]
        self.changed = changed

    def count_nonstars(self, _it=None) -> None:
        """Allreduce the nonstar count the termination predicate reads."""
        self.nonstars = int(self.comm.allreduce(
            [
                np.array([int((self.star.blocks[r] == 0).sum())])
                for r in range(self.ranks)
            ],
            np.add,
        )[0][0])

    def snapshot(self, iteration: int) -> IterationSnapshot:
        return IterationSnapshot(
            iteration=iteration,
            parents=self.f.to_array(),
            star=self.star.to_array() == 1,
            active=None,
            simulated_seconds=(
                self.cost.total_seconds if self.cost is not None
                else self.comm.fault_seconds
            ),
            plan_cursor=0 if self.faults is None else self.faults.cursor,
        )

    def body(
        self, driver: str, hook: Callable[[bool], int], run_start: Dict[str, Any]
    ) -> IterationBody:
        """The skeleton body of a run whose hooking phase is
        ``hook(conditional) -> #roots whose parent changed``."""

        def cond_hook(it: IterationStats) -> None:
            it.cond_hooks = hook(True)

        def uncond_hook(it: IterationStats) -> None:
            it.uncond_hooks = hook(False)

        def record(it: IterationStats, _span) -> Dict[str, Any]:
            return dict(hooks=it.cond_hooks + it.uncond_hooks,
                        shortcut_changed=self.changed, nonstars=self.nonstars)

        def converged(it: IterationStats) -> bool:
            hooks = it.cond_hooks + it.uncond_hooks
            return hooks == 0 and self.changed == 0 and self.nonstars == 0

        # step spans (cat "step") name the algorithm phase each collective
        # serves; the proc backend stamps the enclosing step into
        # worker-side spans/flight events for measured per-step attribution
        return IterationBody(
            driver=driver,
            # no convergence tracking: every vertex stays in play
            begin=lambda i: IterationStats(iteration=i, active_vertices=self.n),
            steps=(
                ("starcheck", self.starcheck),
                ("cond_hook", cond_hook),
                ("starcheck", self.starcheck),
                ("uncond_hook", uncond_hook),
                ("starcheck", self.starcheck),
                ("shortcut", self.shortcut),
                ("convergence", self.count_nonstars),
            ),
            record=record,
            converged=converged,
            snapshot=self.snapshot,
            parents=self.f.to_array,
            run_start=run_start,
        )


def lacc_spmd(
    g: EdgeList,
    ranks: int = 4,
    max_iterations: Optional[int] = None,
    faults=None,
    cost=None,
    initial_parents: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    on_iteration: Optional[IterationHook] = None,
) -> SPMDResult:
    """Run LACC with literal per-rank data and SimComm message passing.

    Parameters
    ----------
    g:
        The undirected input graph (self-loops ignored).
    ranks:
        Number of simulated SPMD ranks (any positive count — this 1D
        layout has no square-grid restriction).
    max_iterations:
        Safety bound; defaults to ``4·⌈log2 n⌉ + 8`` like every driver
        (:func:`repro.core.skeleton.default_max_iterations`).  Hitting it
        raises ``RuntimeError``.
    faults:
        Optional :class:`repro.faults.FaultPlan`.  Transient faults are
        healed by the :class:`SimComm` retry-with-validation envelope, so
        the labels stay exact; a permanent fault raises
        :class:`repro.faults.CollectiveError` — never a wrong answer.
    cost:
        Optional :class:`repro.mpisim.CostModel` that prices fault
        recovery (stragglers, retransmissions, backoff) in honest α–β
        simulated seconds; without one the lost time is summed into
        :attr:`SPMDResult.fault_seconds`.
    initial_parents / start_iteration / on_iteration:
        Checkpoint-resume hooks (:mod:`repro.core.snapshot`): seed the
        block-distributed parent vector from a snapshot and report an
        :class:`~repro.core.snapshot.IterationSnapshot` per iteration.
        Each iteration runs inside an ``iteration`` span, so a
        :class:`~repro.faults.CollectiveError` raised mid-iteration
        carries the iteration number for the supervisor's recovery log.
    """
    if ranks < 1:
        raise ValueError("need at least one rank")
    n = g.n
    st = _SPMDState(n, ranks, initial_parents, faults, cost)
    f, star = st.f, st.star
    keep = g.u != g.v
    eu = np.r_[g.u[keep], g.v[keep]]  # both directions: (u, v) means u
    ev = np.r_[g.v[keep], g.u[keep]]  # proposes hooks using v's parent
    # 1D cyclic edge partition (balances skewed inputs)
    part = np.arange(eu.size) % ranks
    ledges: List[Tuple[np.ndarray, np.ndarray]] = [
        (eu[part == r], ev[part == r]) for r in range(ranks)
    ]

    def hook(conditional: bool) -> int:
        """One hooking phase; returns #roots whose parent changed."""
        # resolve f and star at the endpoints of local edges
        req = [np.unique(np.r_[ledges[r][0], ledges[r][1]]) for r in range(ranks)]
        fvals = f.gather(req)
        svals = star.gather(req)
        targets, values = [], []
        for r in range(ranks):
            u, v = ledges[r]
            lut = {int(x): k for k, x in enumerate(req[r])}
            iu = np.array([lut[int(x)] for x in u], dtype=np.int64)
            iv = np.array([lut[int(x)] for x in v], dtype=np.int64)
            fu, fv = fvals[r][iu], fvals[r][iv]
            if conditional:
                fire = (svals[r][iu] == 1) & (fv < fu)
            else:
                # star u hooks onto a nonstar neighbour's parent
                fire = (svals[r][iu] == 1) & (svals[r][iv] == 0) & (fv != fu)
            # proposal: f[f[u]] <- f[v]
            targets.append(fu[fire])
            values.append(fv[fire])
        return f.scatter_min(targets, values)

    body = st.body("spmd", hook, dict(n=n, ranks=ranks, **plan_fields(faults)))
    n_iterations, parents, n_components = iterate(
        body, n, eu.size > 0, max_iterations, start_iteration, on_iteration, _obs()
    )
    return SPMDResult(
        parents=parents,
        n_components=n_components,
        n_iterations=n_iterations,
        ranks=ranks,
        words_sent=st.words,
        fault_seconds=st.comm.fault_seconds,
    )
