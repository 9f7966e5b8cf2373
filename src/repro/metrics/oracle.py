"""Ground-truth KNN oracle.

Because mobility models expose exact closed-form positions, the true k
nearest neighbors at *any* timestamp are computable outside the protocol —
this is the referee the paper's accuracy metrics are judged against.

Positions come from :meth:`Network.position_columns` (the beacon
kernel's vectorized mobility bank once beaconing runs, the scalar
mobility models before) and the ranking is one
:meth:`SpatialGrid.knn <repro.geometry.SpatialGrid.knn>` pass.  Both
steps use the same float arithmetic as sorting every node by
``Vec2.distance_sq_to`` (numpy elementwise ops perform no FMA
contraction); ``tests/test_differential_oracle.py`` proves the result
bit-identical to that brute-force reference.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..geometry import SpatialGrid, Vec2
from ..net.network import Network


def true_knn(network: Network, point: Vec2, k: int,
             t: Optional[float] = None,
             exclude: Optional[Set[int]] = None) -> List[int]:
    """Ids of the k nodes truly nearest ``point`` at time ``t``.

    Args:
        network: the simulated network.
        point: query point.
        k: neighbor count (clamped to the population size).
        t: evaluation time (defaults to the simulation clock).
        exclude: node ids to ignore (e.g. a dead node).

    Returns:
        Node ids sorted by exact distance (ties broken by id).
    """
    time = t if t is not None else network.sim.now
    grid = SpatialGrid()
    grid.bulk_load_columns(*network.position_columns(time))
    return grid.knn(point, k, exclude=exclude)
