"""Tests for LACC over the literal 2D CombBLAS machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lacc
from repro.core.lacc_2d import lacc_2d
from repro.core.lacc_dist import lacc_dist
from repro.core.lacc_spmd import lacc_spmd
from repro.core.skeleton import default_max_iterations
from repro.core.stats import STEPS
from repro.graphs import generators as gen
from repro.graphs import validate
from repro.mpisim import EDISON
from repro.obs import Tracer, activate
from repro.obs.flight import FlightRecorder, activate_flight
from repro.obs.metrics import MetricRegistry, activate_metrics

#: every LACC driver as ``(g, tracer, **resume kwargs) -> result``
DRIVERS = {
    "serial": lambda g, tr=None, **kw: lacc(g.to_matrix(), tracer=tr, **kw),
    "dist": lambda g, tr=None, **kw: lacc_dist(
        g.to_matrix(), EDISON, nodes=1, tracer=tr, **kw
    ),
    "spmd": lambda g, tr=None, **kw: lacc_spmd(g, ranks=4, **kw),
    "2d": lambda g, tr=None, **kw: lacc_2d(g, nprocs=4, **kw),
}


def star_of_stars(k: int, seed: int = 0) -> gen.EdgeList:
    """A centre joined to *k* hubs, each hub to *k* leaves, ids shuffled."""
    hubs = np.arange(1, k + 1)
    leaves = np.arange(k + 1, k + 1 + k * k)
    u = np.r_[np.zeros(k, np.int64), np.repeat(hubs, k)]
    v = np.r_[hubs, leaves]
    return gen.relabel_random(gen.EdgeList(1 + k + k * k, u, v), seed=seed)


class TestCorrectness:
    @pytest.mark.parametrize("nprocs", [1, 4, 9, 16])
    def test_matches_ground_truth(self, nprocs):
        g = gen.component_mixture([25, 10, 4, 4], seed=1)
        r = lacc_2d(g, nprocs=nprocs)
        assert validate.same_partition(r.parents, validate.ground_truth(g))
        assert r.n_components == 4
        assert r.grid_side ** 2 == nprocs

    def test_matches_serial_lacc(self):
        g = gen.erdos_renyi(130, 2.2, seed=2)
        a = lacc_2d(g, nprocs=4)
        b = lacc(g.to_matrix())
        assert validate.same_partition(a.parents, b.parents)

    def test_rejects_non_square_grid(self):
        with pytest.raises(ValueError):
            lacc_2d(gen.path_graph(10), nprocs=6)

    def test_empty_graph(self):
        r = lacc_2d(gen.EdgeList(7, [], []), nprocs=4)
        assert r.n_components == 7 and r.n_iterations == 0

    def test_iteration_guard(self):
        with pytest.raises(RuntimeError):
            lacc_2d(gen.path_graph(64), nprocs=4, max_iterations=1)

    def test_ragged_block_sizes(self):
        # n not divisible by grid side or nprocs
        g = gen.erdos_renyi(37, 3.0, seed=3)
        r = lacc_2d(g, nprocs=9)
        assert validate.same_partition(r.parents, validate.ground_truth(g))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 150))
        g = gen.EdgeList(n, rng.integers(0, n, m), rng.integers(0, n, m))
        r = lacc_2d(g, nprocs=4)
        assert validate.same_partition(r.parents, validate.ground_truth(g))


class TestExecutionModelsAgree:
    def test_all_four_models_identical_labels(self):
        """Serial, analytic-distributed, 1D SPMD and 2D literal runs must
        produce the same canonical labels."""
        from repro.core.lacc_dist import lacc_dist
        from repro.core.lacc_spmd import lacc_spmd
        from repro.mpisim import EDISON

        g = gen.component_mixture([20, 12, 6], seed=4)
        serial = lacc(g.to_matrix()).labels
        dist = lacc_dist(g.to_matrix(), EDISON, nodes=1).labels
        spmd = lacc_spmd(g, ranks=4).labels
        grid2d = lacc_2d(g, nprocs=4).labels
        for other in (dist, spmd, grid2d):
            np.testing.assert_array_equal(serial, other)

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_driver_conformance(self, driver):
        """Every driver runs the one iteration skeleton: the same step
        spans each iteration, the run envelope around one ``iteration``
        event per iteration, and one metric tick per iteration."""
        g = gen.component_mixture([20, 12, 6], seed=4)
        tr, fr, reg = Tracer(), FlightRecorder(), MetricRegistry()
        with activate(tr), activate_flight(fr), activate_metrics(reg):
            res = DRIVERS[driver](g, tr)
        k = res.n_iterations
        its = tr.find("iteration", "iteration")
        assert [s.attrs["iteration"] for s in its] == list(range(1, k + 1))
        names = [[c.name for c in it.children if c.cat == "step"] for it in its]
        assert all(n == names[0] for n in names)
        assert set(names[0]) >= set(STEPS)
        assert all("wall_seconds" in s.counters for s in tr.find(cat="step"))
        kinds = [
            e.kind for e in fr.events
            if e.kind in ("run_start", "iteration", "run_end")
        ]
        assert kinds == ["run_start"] + ["iteration"] * k + ["run_end"]
        assert reg.value("lacc_iterations_total", driver=driver) == float(k)

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_edgeless_graph_records_run_envelope(self, driver):
        fr = FlightRecorder()
        with activate_flight(fr):
            res = DRIVERS[driver](gen.EdgeList(7, [], []))
        assert res.n_iterations == 0 and res.n_components == 7
        assert [e.kind for e in fr.events] == ["run_meta", "run_start", "run_end"]

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    @pytest.mark.parametrize(
        "graph",
        [gen.relabel_random(gen.path_graph(4096), seed=1), star_of_stars(40)],
        ids=["long_path", "star_of_stars"],
    )
    def test_default_bound_holds_from_start_and_resume(self, driver, graph):
        """The one default bound, 4*ceil(log2 n)+8, holds for every driver
        from the identity forest and from a mid-run snapshot."""
        bound = default_max_iterations(graph.n)
        truth = validate.ground_truth(graph)
        snaps = []
        res = DRIVERS[driver](graph, on_iteration=snaps.append)
        assert 1 < res.n_iterations <= bound
        assert validate.same_partition(res.parents, truth)
        mid = snaps[len(snaps) // 2]
        resume = dict(initial_parents=mid.parents, start_iteration=mid.iteration)
        if mid.active is not None:
            resume["initial_active"] = mid.active
        res2 = DRIVERS[driver](graph, **resume)
        assert mid.iteration < res2.n_iterations <= mid.iteration + bound
        assert validate.same_partition(res2.parents, truth)

    def test_iterations_logarithmic(self):
        g = gen.path_graph(256)
        r = lacc_2d(g, nprocs=4)
        assert r.n_iterations <= 2 * 8 + 4

    def test_words_counted(self):
        g = gen.erdos_renyi(100, 3.0, seed=5)
        r = lacc_2d(g, nprocs=4)
        assert r.words_sent > 0
