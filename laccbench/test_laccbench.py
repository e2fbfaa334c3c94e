"""Tests for the benchmark's own helpers.

Run from the root of a checkout with ``python -m pytest laccbench``.
"""

import os
import sys
import time
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from harness import (REF_S, TAIL_PCT, Reference, matches_oracle, oracle_labels,  # noqa: E402
                     peak_rss_mib, reset_peak_rss, run_calls, tail)
from spans import Recorder, patched, self_times  # noqa: E402


# -- the tail percentile rule -------------------------------------------------
def test_tail_has_at_least_ten_samples_beyond_it_from_38_calls():
    for n in (38, 60, 200):
        samples = list(np.random.default_rng(n).permutation(np.arange(1.0, n + 1.0)))
        value, beyond = tail(samples)
        assert beyond >= 10
        assert beyond == sum(s > value for s in samples)
    assert tail(np.arange(37.0))[1] == 9


def test_tail_is_a_fixed_rank():
    # the same spread of call times gives the same tail whether a run held
    # 21 calls or 81: a faster program is not judged at another percentile
    few = np.linspace(1.0, 2.0, 21)
    many = np.linspace(1.0, 2.0, 81)
    assert tail(few)[0] == pytest.approx(1.0 + TAIL_PCT / 100.0)
    assert tail(many)[0] == pytest.approx(tail(few)[0])


def test_tail_of_one_sample_and_of_none():
    assert tail([2.5]) == (2.5, 0)
    with pytest.raises(ValueError):
        tail([])


def test_reference_scales_by_its_neighbouring_times():
    ref = Reference(size=1 << 10)
    readings = iter([0.3])

    def fake_time():
        ref.times.append(next(readings))
        return ref.times[-1]

    ref.times.append(0.1)
    ref.time = fake_time
    # the machine ran at half speed on average around the call
    assert ref.scale(4.0) == pytest.approx(4.0 * REF_S / 0.2)


def test_reset_peak_rss_forgets_an_earlier_peak():
    block = np.ones(64 << 17)  # 64 MiB, touched
    del block
    before = peak_rss_mib()
    if not reset_peak_rss():
        pytest.skip("no /proc/self/clear_refs")
    assert peak_rss_mib() < before - 32


# -- self-time arithmetic ---------------------------------------------------
def test_self_times_of_synthetic_nested_spans():
    spans = [
        ["core.driver", 0.0, 10.0, -1],
        ["core.starcheck", 1.0, 5.0, 0],
        ["graphblas.assign", 2.0, 4.0, 1],
        ["kernels.merge_union", 2.5, 3.0, 2],
        ["core.starcheck", 6.0, 7.0, 0],
    ]
    st = self_times(spans)
    assert st == {
        "core.driver": 5.0,
        "core.starcheck": 3.0,
        "graphblas.assign": 1.5,
        "kernels.merge_union": 0.5,
    }
    assert sum(st.values()) == 10.0


class TickClock:
    """Advances one unit per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_recorder_nests_wrapped_calls():
    rec = Recorder(clock=TickClock())
    kernel = rec.wrap("kernels.k", lambda: None)
    assign = rec.wrap("graphblas.assign", lambda: kernel())
    starcheck = rec.wrap("core.starcheck", lambda: (assign(), assign()))
    with rec.span("core.driver"):
        starcheck()
    # clock reads: driver 1..12, starcheck 2..11, assign 3..6 and 7..10,
    # kernel 4..5 and 8..9
    st = self_times(rec.spans)
    assert st == {
        "core.driver": 2.0,
        "core.starcheck": 3.0,
        "graphblas.assign": 4.0,
        "kernels.k": 2.0,
    }
    assert sum(st.values()) == 11.0  # the driver's duration
    assert [s[3] for s in rec.spans] == [-1, 0, 1, 2, 1, 4]


def test_graft_moves_contained_children_under_the_step():
    rec = Recorder()
    rec.spans = [
        ["lacc_spmd.driver", 0.0, 10.0, -1],
        ["mpisim.alltoallv", 1.0, 2.0, 0],
        ["mpisim.alltoallv", 3.0, 4.0, 0],
        ["mpisim.allreduce", 8.0, 8.5, 0],
    ]
    rec.graft("lacc_spmd.cond_hook", 0.5, 5.0)
    st = self_times(rec.spans)
    assert st["lacc_spmd.cond_hook"] == pytest.approx(2.5)
    assert st["lacc_spmd.driver"] == pytest.approx(5.0)
    assert sum(st.values()) == pytest.approx(10.0)
    assert rec.spans[3][3] == 0  # the allreduce lies outside the step


def test_counter_runs_after_the_span_closes():
    rec = Recorder()
    f = rec.wrap("graphblas.mxv", lambda x: x, count=lambda x: {"graphblas.mxv_nvals": x})
    f(3)
    f(4)
    assert rec.counters["graphblas.mxv_nvals"] == 7
    assert rec._stack == []


# -- patching -----------------------------------------------------------------
class Comm:
    def alltoallv(self, send):
        return "original"


def test_originals_restored_after_an_exception():
    module = types.SimpleNamespace(fn=lambda: "original")
    comm = Comm()
    rec = Recorder()

    def boom():
        raise RuntimeError("inside the traced call")

    targets = [
        (module, "fn", rec.wrap("m.fn", boom)),
        (Comm, "alltoallv", lambda self, send: "class-wrapped"),
        (comm, "alltoallv", lambda send: "instance-wrapped"),
    ]
    with pytest.raises(RuntimeError):
        with patched(targets):
            assert comm.alltoallv([]) == "instance-wrapped"
            module.fn()
    assert module.fn() == "original"
    assert Comm().alltoallv([]) == "original"
    assert "alltoallv" not in vars(comm)  # not pinned to the instance
    assert rec._stack == [] and rec.spans[0][2] is not None


# -- the correctness gate -----------------------------------------------------
def _two_paths():
    # components {0, 1, 2} and {3, 4}; vertex 5 is isolated
    return 6, np.array([2, 1, 4]), np.array([1, 0, 3])


def test_oracle_accepts_any_naming_of_the_right_partition():
    n, u, v = _two_paths()
    oracle = oracle_labels(n, u, v)
    assert oracle.tolist() == [0, 0, 0, 3, 3, 5]
    assert matches_oracle(np.array([2, 2, 2, 4, 4, 5]), oracle)


def test_oracle_flags_a_corrupted_label_vector():
    n, u, v = _two_paths()
    oracle = oracle_labels(n, u, v)
    parents = np.array([2, 2, 2, 4, 4, 5])
    for bad in (4, 5):
        corrupted = parents.copy()
        corrupted[1] = bad
        assert not matches_oracle(corrupted, oracle)
    merged = parents.copy()
    merged[5] = 4
    assert not matches_oracle(merged, oracle)
    assert not matches_oracle(parents[:-1], oracle)


def test_run_calls_counts_raises_wrong_answers_and_deadlines():
    outcomes = iter(["ok", "raise", "wrong", "hang"])

    def call():
        kind = next(outcomes)
        if kind == "raise":
            raise RuntimeError("driver failed")
        if kind == "hang":
            time.sleep(5.0)
        return kind

    failures = []
    calls = run_calls(call, lambda r: r == "ok", seconds=0.0, limit_s=0.2,
                      on_failure=lambda: failures.append(1))
    assert (calls.attempted, calls.failed, calls.wrong) == (1, 0, 0)
    for _ in range(3):
        more = run_calls(call, lambda r: r == "ok", seconds=0.0, limit_s=0.2,
                         on_failure=lambda: failures.append(1))
        calls.absorb(more)
    assert (calls.attempted, calls.failed, calls.wrong) == (4, 3, 1)
    assert len(failures) == 2  # raised and hung calls, not the wrong answer
