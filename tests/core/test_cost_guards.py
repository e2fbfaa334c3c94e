"""Guards on what the LACC drivers call, for regressions a timing gate misses.

A flag-less ``np.unique`` builds a hash table on NumPy 2.x and costs 20–30×
an ``np.sort`` of the same array; at benchmark sizes one such call per
``GrB_assign`` doubled serial LACC's wall time while the quick-suite wall
budget still passed.  The drivers must reach the same answers without it,
and every masked write they issue must stay off the Θ(n) dense formulation.
"""

import numpy as np
import pytest

from repro.core import lacc
from repro.core.lacc_dist import lacc_dist
from repro.graphblas import ops
from repro.graphs import generators as gen
from repro.graphs import validate
from repro.mpisim.machine import LAPTOP

DRIVERS = {
    "lacc": lambda A: lacc(A),
    "lacc_dense": lambda A: lacc(A, use_sparsity=False),
    "lacc_dist": lambda A: lacc_dist(A, LAPTOP, nodes=4),
}


def _flags_set(args, kwargs) -> bool:
    names = ("return_index", "return_inverse", "return_counts")
    return any(args[:3]) or any(kwargs.get(k, False) for k in names)


@pytest.fixture
def no_hash_unique(monkeypatch):
    real = np.unique

    def guarded(ar, *args, **kwargs):
        if not _flags_set(args, kwargs):
            raise AssertionError("flag-less np.unique called (hash path)")
        return real(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", guarded)


@pytest.fixture
def no_dense_write(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("masked write fell back to the Θ(n) dense path")

    monkeypatch.setattr(ops, "_masked_write_dense", refuse)


GRAPHS = [
    gen.rmat(9, 8, seed=13),
    gen.component_mixture([7, 1, 19, 2, 2, 30], seed=3),
    gen.path_graph(257),
]


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: g.name)
def test_no_flagless_unique(no_hash_unique, driver, g):
    res = DRIVERS[driver](g.to_matrix())
    assert validate.same_partition(res.parents, validate.ground_truth(g))


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: g.name)
def test_writes_stay_cost_proportional(no_dense_write, driver, g):
    res = DRIVERS[driver](g.to_matrix())
    assert validate.same_partition(res.parents, validate.ground_truth(g))


def test_guard_trips_on_flagless_call(no_hash_unique):
    with pytest.raises(AssertionError):
        np.unique(np.array([3, 1, 3]))
    assert np.unique(np.array([3, 1, 3]), return_counts=True)[1].tolist() == [1, 2]
