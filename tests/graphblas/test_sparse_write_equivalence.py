"""Equivalence suite for the masked-write dispatch and mask pushdown.

Every operation is run three times on identical inputs — with the masked
write forced onto the dense Θ(n) formulation (the pre-sparsification
oracle), forced onto the O(nvals) sorted-merge path, and under the
automatic dispatch, which also sends writes no old entry survives to
the sorted merge and takes the in-place region path — across the full
semantics matrix: output representation × mask kind (none, value,
structural, complemented, structurally-complemented, complemented
none) × accumulator × ``GrB_REPLACE``.  Index lists come sorted, unsorted and with
duplicates, and the aliasing cases (the input or the mask *is* the output,
indices read from the output's own storage) are run on every path too.
``mxv`` additionally toggles the mask pushdown so the row-skipping kernels
are checked against the unmasked-kernel + write-time masking oracle.
"""

import numpy as np
import pytest

import repro.graphblas as gb
from repro.graphblas import Matrix, Vector
from repro.graphblas import binaryops as bop
from repro.graphblas import ops
from repro.graphblas import semirings as sr
from repro.graphblas.descriptor import Descriptor, Mask

N = 40


def as_dict(v: Vector):
    idx, vals = v.extract_tuples()
    # representation invariants: sorted unique pattern, exact nvals cache
    assert np.all(idx[1:] > idx[:-1])
    assert v.nvals == idx.size
    return dict(zip(idx.tolist(), vals.tolist()))


def make_w(kind: str, rng, hi: int = 50) -> Vector:
    """An output of the given kind; values in ``[0, hi)``.  ``sparse``
    holds 15 % of N, above the densify threshold, so it is stored dense;
    ``tiny`` stays in sparse storage."""
    if kind == "empty":
        return Vector.empty(N, np.int64)
    if kind == "tiny":
        idx = np.sort(rng.choice(N, size=3, replace=False))
        return Vector.sparse(N, idx, rng.integers(0, hi, idx.size).astype(np.int64))
    if kind == "sparse":
        idx = np.flatnonzero(rng.random(N) < 0.15)
        return Vector.sparse(N, idx, rng.integers(0, hi, idx.size).astype(np.int64))
    vals = rng.integers(0, hi, N).astype(np.int64)
    present = rng.random(N) < 0.8
    return Vector.dense(vals, present)


def make_mask(kind: str, rng):
    """Returns (mask, descriptor) pairs covering every mask semantic."""
    bits = rng.random(N) < 0.4
    vals = rng.integers(0, 2, N).astype(np.int64)  # mix of falsy/truthy values
    if kind == "none":
        return None, Descriptor()
    if kind == "none_comp":  # complement of "no mask": nothing is written
        return None, Descriptor(mask_complement=True)
    if kind == "value":
        return Vector.dense(vals, bits), Descriptor()
    if kind == "structural":
        idx = np.flatnonzero(bits)
        return (
            Mask(Vector.sparse(N, idx, np.ones(idx.size, np.int64)), structural=True),
            Descriptor(),
        )
    if kind == "scmp":
        return Vector.dense(vals, bits), Descriptor(mask_complement=True)
    if kind == "struct_comp":
        idx = np.flatnonzero(bits)
        return (
            Mask(Vector.sparse(N, idx, np.ones(idx.size, np.int64)), structural=True),
            Descriptor(mask_complement=True),
        )
    raise AssertionError(kind)


W_KINDS = ["empty", "sparse", "dense", "tiny"]
MASK_KINDS = ["none", "value", "structural", "scmp", "struct_comp", "none_comp"]
ACCUMS = [None, bop.PLUS]
REPLACES = [False, True]
INDEX_KINDS = ["sorted", "unsorted", "dups", "sorted_dups"]
#: forced dense (the oracle), forced sparse, automatic dispatch
PATHS = ("dense", "sparse", None)


def all_paths(monkeypatch, run, seed):
    """Run *run(rng)* on every write path; return ``{path: result}``."""
    results = {}
    for path in PATHS:
        monkeypatch.setattr(ops, "_FORCE_WRITE_PATH", path)
        rng = np.random.default_rng(seed)  # identical inputs per path
        results[path] = run(rng)
    monkeypatch.setattr(ops, "_FORCE_WRITE_PATH", None)
    return results


def assert_paths_agree(results):
    oracle = results["dense"]
    for path, got in results.items():
        assert got == oracle, f"path {path!r} differs from the dense oracle"


def index_list(kind: str, rng, k: int) -> np.ndarray:
    """*k* indices into ``[0, N)``: sorted or unsorted, unique or with
    duplicates."""
    if kind == "dups":
        return rng.integers(0, N, k)
    if kind == "sorted_dups":
        return np.sort(rng.integers(0, N, k))
    idx = rng.choice(N, size=k, replace=False)
    return np.sort(idx) if kind == "sorted" else idx


def live_values(w: Vector) -> np.ndarray:
    """*w*'s own value storage (not a copy), for the aliasing cases."""
    return w.dense_arrays()[0] if w.mode == "dense" else w.sparse_arrays()[1]


def apply_desc(desc: Descriptor, replace: bool) -> Descriptor:
    return Descriptor(
        replace=replace,
        mask_structural=desc.mask_structural,
        mask_complement=desc.mask_complement,
    )


@pytest.mark.parametrize("w_kind", W_KINDS)
@pytest.mark.parametrize("mask_kind", MASK_KINDS)
@pytest.mark.parametrize("accum", ACCUMS, ids=["noaccum", "plus"])
@pytest.mark.parametrize("replace", REPLACES, ids=["keep", "replace"])
class TestWritePathEquivalence:
    def check(self, monkeypatch, w_kind, mask_kind, accum, replace, op_fn, seed=7):
        def run(rng):
            w = make_w(w_kind, rng)
            mask, desc = make_mask(mask_kind, rng)
            op_fn(rng, w, mask, apply_desc(desc, replace), accum)
            return as_dict(w)

        assert_paths_agree(all_paths(monkeypatch, run, seed))

    def test_mxv(self, monkeypatch, w_kind, mask_kind, accum, replace):
        edges_r = np.random.default_rng(0).integers(0, N, 80)
        edges_c = np.random.default_rng(1).integers(0, N, 80)
        A = Matrix.adjacency(N, edges_r, edges_c)

        def op(rng, w, mask, desc, accum):
            uv = rng.integers(0, N, N).astype(np.int64)
            u = Vector.dense(uv, rng.random(N) < 0.9)
            gb.mxv(w, mask, accum, sr.SEL2ND_MIN_INT64, A, u, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_mxv_sparse_input(self, monkeypatch, w_kind, mask_kind, accum, replace):
        edges_r = np.random.default_rng(0).integers(0, N, 80)
        edges_c = np.random.default_rng(1).integers(0, N, 80)
        A = Matrix.adjacency(N, edges_r, edges_c)

        def op(rng, w, mask, desc, accum):
            idx = np.flatnonzero(rng.random(N) < 0.06)
            u = Vector.sparse(N, idx, rng.integers(0, N, idx.size).astype(np.int64))
            gb.mxv(w, mask, accum, sr.SEL2ND_MIN_INT64, A, u, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_ewise_mult(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            u = make_w("dense", rng)
            v = make_w("sparse", rng)
            gb.ewise_mult(w, mask, accum, bop.PLUS, u, v, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_ewise_add(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            u = make_w("sparse", rng)
            v = make_w("sparse", rng)
            gb.ewise_add(w, mask, accum, bop.MIN, u, v, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_extract_all(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            u = make_w("dense", rng)
            gb.extract(w, mask, accum, u, None, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_extract_indexed(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            u = make_w("sparse", rng)
            idx = rng.integers(0, N, N)  # duplicates allowed
            gb.extract(w, mask, accum, u, idx, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_extract_indexed_dense_u(self, monkeypatch, w_kind, mask_kind, accum,
                                     replace):
        def op(rng, w, mask, desc, accum):
            u = make_w("dense", rng)
            gb.extract(w, mask, accum, u, rng.integers(0, N, N), desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_assign(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            k = 10
            idx = rng.choice(N, size=k, replace=False)
            u = Vector.dense(rng.integers(0, 50, k).astype(np.int64))
            gb.assign(w, mask, accum, u, idx, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    @pytest.mark.parametrize("index_kind", INDEX_KINDS)
    @pytest.mark.parametrize("u_kind", ["sparse", "dense"])
    def test_assign_index_kinds(self, monkeypatch, w_kind, mask_kind, accum,
                                replace, index_kind, u_kind):
        def op(rng, w, mask, desc, accum):
            k = 12
            idx = index_list(index_kind, rng, k)
            if u_kind == "dense":
                u = Vector.dense(rng.integers(0, 50, k).astype(np.int64))
            else:  # some positions of u unstored: only those are assigned
                ui = np.flatnonzero(rng.random(k) < 0.6)
                u = Vector.sparse(k, ui, rng.integers(0, 50, ui.size).astype(np.int64))
            gb.assign(w, mask, accum, u, idx, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_assign_scalar(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            idx = rng.choice(N, size=12, replace=False)
            gb.assign_scalar(w, mask, accum, 99, idx, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    @pytest.mark.parametrize("index_kind", INDEX_KINDS)
    def test_assign_scalar_index_kinds(self, monkeypatch, w_kind, mask_kind, accum,
                                       replace, index_kind):
        def op(rng, w, mask, desc, accum):
            idx = index_list(index_kind, rng, 12)
            gb.assign_scalar(w, mask, accum, 99, idx, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_assign_all(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            u = make_w("sparse", rng)
            gb.assign(w, mask, accum, u, None, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_assign_scalar_all(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            gb.assign_scalar(w, mask, accum, 99, None, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_apply(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            u = make_w("sparse", rng)
            gb.apply(w, mask, accum, lambda x: x + 1, u, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_select(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            u = make_w("dense", rng)
            gb.select(w, mask, accum, lambda i, v: v % 2 == 0, u, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)


@pytest.mark.parametrize("w_kind", W_KINDS)
@pytest.mark.parametrize("mask_kind", MASK_KINDS + ["self"])
@pytest.mark.parametrize("accum", ACCUMS, ids=["noaccum", "plus"])
@pytest.mark.parametrize("replace", REPLACES, ids=["keep", "replace"])
class TestAliasingEquivalence:
    """Operands that share storage with the output: the input vector or
    the mask *is* ``w`` (mask kind ``self``), or the index list is ``w``'s
    own value array — the ``f[f]`` pattern of LACC's grandparent reads.
    Every read of an operand must see ``w`` as it was before the write."""

    def check(self, monkeypatch, w_kind, mask_kind, accum, replace, op_fn, seed=3):
        def run(rng):
            w = make_w(w_kind, rng, hi=N)  # values double as indices
            if mask_kind == "self":
                mask, desc = w, Descriptor()
            else:
                mask, desc = make_mask(mask_kind, rng)
            op_fn(rng, w, mask, apply_desc(desc, replace), accum)
            return as_dict(w)

        assert_paths_agree(all_paths(monkeypatch, run, seed))

    def test_assign_u_is_w(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            gb.assign(w, mask, accum, w, rng.integers(0, N, N), desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_assign_indices_from_w(self, monkeypatch, w_kind, mask_kind, accum,
                                   replace):
        def op(rng, w, mask, desc, accum):
            idx = live_values(w)
            u = Vector.dense(rng.integers(0, 50, idx.size).astype(np.int64))
            gb.assign(w, mask, accum, u, idx, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_assign_scalar_indices_from_w(self, monkeypatch, w_kind, mask_kind,
                                          accum, replace):
        def op(rng, w, mask, desc, accum):
            gb.assign_scalar(w, mask, accum, 7, live_values(w), desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_extract_u_is_w(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            vals = live_values(w)
            idx = vals if vals.size == N else rng.integers(0, N, N)
            gb.extract(w, mask, accum, w, idx, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_ewise_mult_u_is_w(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            gb.ewise_mult(w, mask, accum, bop.MIN, w, make_w("dense", rng), desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)


@pytest.mark.parametrize("mask_kind", MASK_KINDS)
@pytest.mark.parametrize("replace", REPLACES, ids=["keep", "replace"])
@pytest.mark.parametrize("density", [0.05, 0.5], ids=["sparse_u", "dense_u"])
class TestMaskPushdownEquivalence:
    """Masked mxv with kernels skipping masked-out rows must equal the
    unmasked-kernel + write-time-mask oracle."""

    def test_mxv(self, monkeypatch, mask_kind, replace, density):
        edges_r = np.random.default_rng(2).integers(0, N, 120)
        edges_c = np.random.default_rng(3).integers(0, N, 120)
        A = Matrix.adjacency(N, edges_r, edges_c)

        results = {}
        for pushdown in (False, True):
            monkeypatch.setattr(ops, "MASK_PUSHDOWN", pushdown)
            rng = np.random.default_rng(11)
            idx = np.flatnonzero(rng.random(N) < density)
            u = Vector.sparse(N, idx, rng.integers(0, N, idx.size).astype(np.int64))
            w = make_w("dense", rng)
            mask, desc = make_mask(mask_kind, rng)
            gb.mxv(w, mask, None, sr.SEL2ND_MIN_INT64, A, u, apply_desc(desc, replace))
            results[pushdown] = as_dict(w)
        monkeypatch.setattr(ops, "MASK_PUSHDOWN", True)
        assert results[False] == results[True]
