"""Columnar point index for range and nearest-neighbor queries.

The simulator asks "which nodes are within radio range of p" on every
broadcast.  Positions live in parallel numpy key/x/y arrays, replaced
wholesale by :meth:`SpatialGrid.bulk_load_columns` whenever the network
refreshes node positions, and every query is one vectorized pass over
them.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

import numpy as np

from .vec import Vec2


class SpatialGrid:
    """Parallel key/x/y arrays answering range, nearest and k-nearest
    queries by vectorized distance filters.

    Results follow array order (``within_ids``) or break distance ties
    by ascending key (``nearest``/``knn``), so loading keys sorted gives
    deterministic ascending-id answers.
    """

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._x = np.empty(0)
        self._y = np.empty(0)
        self._index: Optional[Dict[Hashable, int]] = None

    def __len__(self) -> int:
        return int(self._keys.shape[0])

    def __contains__(self, key: Hashable) -> bool:
        return key in self._key_index()

    def bulk_load_columns(self, keys, xs, ys) -> None:
        """Replace all contents with parallel key/x/y arrays."""
        self._keys = np.asarray(keys)
        self._x = np.asarray(xs, dtype=np.float64)
        self._y = np.asarray(ys, dtype=np.float64)
        self._index = None

    def _key_index(self) -> Dict[Hashable, int]:
        if self._index is None:
            self._index = {
                key: i for i, key in enumerate(self._keys.tolist())}
        return self._index

    # -- queries ------------------------------------------------------------

    def position_of(self, key: Hashable) -> Vec2:
        i = self._key_index()[key]
        return Vec2(float(self._x[i]), float(self._y[i]))

    def _dist_sq(self, center: Vec2) -> np.ndarray:
        dx = self._x - center.x
        dy = self._y - center.y
        return dx * dx + dy * dy

    def within_ids(self, center: Vec2, radius: float) -> List[Hashable]:
        """Keys within ``radius`` of ``center``, in array order."""
        if radius < 0.0:
            return []
        return self._keys[self._dist_sq(center) <= radius * radius].tolist()

    def nearest(self, center: Vec2,
                exclude: "Set[Hashable] | None" = None) -> Hashable:
        """Key of the closest entry to ``center`` (ties: lowest key).

        Raises ``KeyError`` when the grid holds no eligible entry.
        """
        found = self.knn(center, 1, exclude=exclude)
        if not found:
            raise KeyError("spatial grid holds no eligible entries")
        return found[0]

    def knn(self, center: Vec2, k: int,
            exclude: "Set[Hashable] | None" = None) -> List[Hashable]:
        """The ``k`` nearest keys to ``center``, closest first.

        Exact squared distances ranked with distance ties broken by
        ascending key; when fewer than ``k`` eligible entries exist, all
        of them are returned.
        """
        if k <= 0:
            return []
        keys = self._keys
        d2 = self._dist_sq(center)
        if exclude:
            keep = ~np.isin(keys, list(exclude))
            keys, d2 = keys[keep], d2[keep]
        return keys[np.lexsort((keys, d2))[:k]].tolist()
