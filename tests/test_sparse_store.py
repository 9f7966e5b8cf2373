"""Sparse neighbor store and large-N receiver path equivalence.

Above ``repro.net.beacons._DENSE_MAX`` nodes the beacon engine swaps
the dense (N, N) store for the log-structured sparse one and resolves
receivers through cell buckets instead of full pairwise rows.  These
tests force that large-N machinery at *small* N (by monkeypatching the
threshold to 0) and require bit-identical outcomes against the dense
engine and the scalar reference model (``tests/reference/beacons.py``)
— the same contract
``tests/test_beacon_equivalence.py`` proves for the dense kernel.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.net.beacons as beacons
from repro.net.neighbor_store import (DenseNeighborStore,
                                      SparseNeighborStore)

from tests.test_beacon_equivalence import beacon_state, build_network


@pytest.fixture
def force_sparse(monkeypatch):
    monkeypatch.setattr(beacons, "_DENSE_MAX", 0)


def _assert_rows_equal(dense, sparse, n):
    for r in range(n):
        d = dense.newer_entries(r, -math.inf)
        s = sparse.newer_entries(r, -math.inf)
        for a, b in zip(d, s):
            np.testing.assert_array_equal(a, b)


class TestStoreDifferential:
    """Randomized op-sequence differential: sparse vs dense store."""

    @pytest.mark.parametrize("compact_limit", [1, 7, 100_000])
    def test_random_ops(self, compact_limit):
        n = 24
        rng = np.random.default_rng(3)
        dense = DenseNeighborStore(n)
        sparse = SparseNeighborStore(n, compact_limit=compact_limit)
        t = 0.0
        for step in range(60):
            op = int(rng.integers(0, 10))
            t += 0.1
            if op < 6:  # bulk scatter, possibly with repeated cells
                m = int(rng.integers(1, 12))
                rows = rng.integers(0, n, size=m)
                cols = rng.integers(0, n, size=m)
                # Dense fancy-assignment order for duplicate (r, c)
                # pairs is undefined — keep pairs unique per scatter,
                # as the engine's dedup guarantees.
                keys = rows * n + cols
                _, uniq = np.unique(keys, return_index=True)
                rows, cols = rows[uniq], cols[uniq]
                m = rows.size
                pay = [rng.uniform(0, 100, size=m) for _ in range(6)]
                pay[0] = np.full(m, t)
                dense.scatter(rows, cols, *pay)
                sparse.scatter(rows, cols, *pay)
            elif op < 7:
                r, c = int(rng.integers(0, n)), int(rng.integers(0, n))
                args = (r, c, t, 1.0, 2.0, 3.0, 4.0, 5.0)
                dense.update_cell(*args)
                sparse.update_cell(*args)
            elif op < 8:
                r, c = int(rng.integers(0, n)), int(rng.integers(0, n))
                dense.clear_cell(r, c)
                sparse.clear_cell(r, c)
            elif op < 9:
                r = int(rng.integers(0, n))
                dense.reset_row(r)
                sparse.reset_row(r)
            else:
                r = int(rng.integers(0, n))
                stale_d = dense.stale_cols(r, t, 1.5)
                stale_s = sparse.stale_cols(r, t, 1.5)
                np.testing.assert_array_equal(stale_d, stale_s)
                dense.drop_cells(r, stale_d)
                sparse.drop_cells(r, stale_s)
            if step % 7 == 0:
                _assert_rows_equal(dense, sparse, n)
        _assert_rows_equal(dense, sparse, n)

    def test_grow_extends_both(self):
        dense, sparse = DenseNeighborStore(3), SparseNeighborStore(3)
        one = np.array([1.0])
        for st in (dense, sparse):
            st.scatter(np.array([0]), np.array([2]), one * 9.0, one,
                       one, one, one, one)
            st.grow()
            st.update_cell(3, 0, 10.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        assert dense.n == sparse.n == 4
        _assert_rows_equal(dense, sparse, 4)

    def test_newer_entries_watermark(self):
        sparse = SparseNeighborStore(4)
        sparse.update_cell(1, 0, 5.0, 1, 1, 0, 0, 0)
        sparse.update_cell(1, 2, 7.0, 1, 1, 0, 0, 0)
        cols, heard = sparse.newer_entries(1, 5.0)[:2]
        assert cols.tolist() == [2] and heard.tolist() == [7.0]

    def test_reset_row_watermark_survives_compaction(self):
        sparse = SparseNeighborStore(4, compact_limit=2)
        sparse.update_cell(1, 0, 5.0, 1, 1, 0, 0, 0)
        sparse.reset_row(1)
        sparse.update_cell(1, 3, 6.0, 1, 1, 0, 0, 0)
        sparse.compact()
        cols = sparse.newer_entries(1, -math.inf)[0]
        assert cols.tolist() == [3]

    def test_memory_stays_bounded_under_rewrites(self):
        """Keep-last compaction: endless rewrites of the same cells must
        not grow the store past live-cells + compaction threshold."""
        n = 50
        sparse = SparseNeighborStore(n, compact_limit=500)
        rows = np.arange(n, dtype=np.int64)
        cols = (rows + 1) % n
        one = np.ones(n)
        for epoch in range(200):
            sparse.scatter(rows, cols, one * epoch, one, one, one,
                           one, one)
        assert sparse.cells <= n + 500


class TestEngineSparseEquivalence:
    """Full-engine equivalence with the large-N path forced on."""

    SEEDS = (0, 1)

    def _state(self, mode, seed, **kw):
        sim, net = build_network(mode, seed, n_nodes=60, mobile=True,
                                 **kw)
        net.start_beacons()
        sim.run(until=2.0)
        return sim, net

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_dense_and_legacy(self, force_sparse, seed):
        """Sparse engine == dense engine == the per-beacon scalar model
        (``tests/reference/beacons.py``, formerly the legacy path)."""
        assert beacons._DENSE_MAX == 0
        _sim, net = self._state("batched", seed)
        assert net._beacon_engine._large
        assert isinstance(net._beacon_engine.store, SparseNeighborStore)
        sparse_state = beacon_state(net)

        # Fresh interpreter state for the dense runs: restore threshold.
        beacons._DENSE_MAX = 1024
        _sim, net_d = self._state("batched", seed)
        assert not net_d._beacon_engine._large
        _sim, net_r = self._state("reference", seed)
        assert beacon_state(net_d) == sparse_state
        assert beacon_state(net_r) == sparse_state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_with_deaths_and_mid_interval_reads(
            self, force_sparse, seed):
        def drive(mode):
            sim, net = build_network(mode, seed, n_nodes=50, mobile=True)
            net.start_beacons()
            sim.run(until=0.8)
            net.nodes[7].alive = False
            net.nodes[13].alive = False
            sim.run(until=1.3)   # mid-interval
            _ = net.nodes[2].neighbor_table   # forces a flush + sync
            net.nodes[7].alive = True
            sim.run(until=2.5)
            return beacon_state(net)

        sparse_state = drive("batched")
        beacons._DENSE_MAX = 1024
        assert drive("batched") == sparse_state
        assert drive("reference") == sparse_state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_under_shadowing_and_loss(self, force_sparse, seed):
        """Exercises the non-fast scalar loop with cell-bucket receiver
        candidates (max-range filter + per-link shadowing)."""
        kw = dict(loss=0.2, sigma=2.0)
        sparse_state = None
        for phase in ("sparse", "dense", "reference"):
            if phase == "dense":
                beacons._DENSE_MAX = 1024
            mode = "reference" if phase == "reference" else "batched"
            _sim, net = self._state(mode, seed, **kw)
            state = beacon_state(net)
            if sparse_state is None:
                sparse_state = state
            else:
                assert state == sparse_state

    def test_sweep_evict_equivalent(self, force_sparse):
        def drive(mode):
            sim, net = build_network(mode, 5, n_nodes=40, mobile=False)
            net.start_beacons()
            sim.run(until=1.2)
            net.mute_beacons([i for i in range(40) if i % 3 == 0])
            sim.run(until=4.0)
            engine = net._beacon_engine
            evicted = (engine.sweep_evict(sim.now, 2.0)
                       if engine is not None else None)
            return evicted, beacon_state(net)

        ev_sparse, st_sparse = drive("batched")
        beacons._DENSE_MAX = 1024
        ev_dense, st_dense = drive("batched")
        assert ev_sparse == ev_dense
        assert st_sparse == st_dense
