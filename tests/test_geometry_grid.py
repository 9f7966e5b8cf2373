"""Unit + property tests for the columnar spatial index."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import SpatialGrid, Vec2

coords = st.floats(min_value=-500, max_value=500, allow_nan=False)
points = st.lists(st.tuples(coords, coords), min_size=0, max_size=60)


def load(items):
    """A grid holding ``(key, Vec2)`` pairs, in the given order."""
    g = SpatialGrid()
    g.bulk_load_columns([k for k, _p in items], [p.x for _k, p in items],
                        [p.y for _k, p in items])
    return g


def brute_within(items, center, radius):
    return {k for k, p in items
            if p.distance_to(center) <= radius + 1e-12}


class TestSpatialGridBasics:
    def test_bulk_load_replaces_all(self):
        g = load([("old", Vec2(1, 1))])
        g.bulk_load_columns(["x", "y"], [0.0, 3.0], [0.0, 3.0])
        assert "old" not in g and "x" in g
        assert len(g) == 2
        assert g.within_ids(Vec2(0, 0), 5) == ["x", "y"]
        assert g.position_of("y") == Vec2(3, 3)

    def test_negative_coordinates(self):
        g = load([("a", Vec2(-15, -15))])
        assert g.within_ids(Vec2(-10, -10), 10) == ["a"]

    def test_negative_radius_yields_nothing(self):
        g = load([("a", Vec2(0, 0))])
        assert g.within_ids(Vec2(0, 0), -1.0) == []

    def test_empty_grid(self):
        g = SpatialGrid()
        assert len(g) == 0
        assert g.within_ids(Vec2(0, 0), 10) == []
        assert g.knn(Vec2(0, 0), 3) == []


class TestNearest:
    def test_nearest_simple(self):
        g = load([("a", Vec2(0, 0)), ("b", Vec2(100, 0))])
        assert g.nearest(Vec2(30, 0)) == "a"
        assert g.nearest(Vec2(70, 0)) == "b"

    def test_nearest_with_exclusion(self):
        g = load([("a", Vec2(0, 0)), ("b", Vec2(100, 0))])
        assert g.nearest(Vec2(5, 0), exclude={"a"}) == "b"

    def test_nearest_far_away(self):
        g = load([("a", Vec2(1000, 1000))])
        assert g.nearest(Vec2(0, 0)) == "a"

    def test_nearest_empty_raises(self):
        with pytest.raises(KeyError):
            SpatialGrid().nearest(Vec2(0, 0))
        with pytest.raises(KeyError):
            load([("a", Vec2(0, 0))]).nearest(Vec2(0, 0), exclude={"a"})

    def test_ties_break_by_ascending_key(self):
        g = load([(7, Vec2(1, 0)), (3, Vec2(-1, 0)), (5, Vec2(0, 1))])
        assert g.nearest(Vec2(0, 0)) == 3
        assert g.knn(Vec2(0, 0), 3) == [3, 5, 7]
        assert g.knn(Vec2(0, 0), 2, exclude={3}) == [5, 7]


class TestGridAgainstBruteForce:
    @settings(max_examples=60)
    @given(points, coords, coords,
           st.floats(min_value=0.1, max_value=200, allow_nan=False))
    def test_within_matches_brute_force(self, pts, cx, cy, radius):
        items = [(i, Vec2(x, y)) for i, (x, y) in enumerate(pts)]
        g = load(items)
        center = Vec2(cx, cy)
        got = g.within_ids(center, radius)
        assert got == sorted(got)
        want = brute_within(items, center, radius)
        # Allow boundary-epsilon differences only.
        sym = set(got) ^ want
        for key in sym:
            d = dict(items)[key].distance_to(center)
            assert abs(d - radius) < 1e-6

    @settings(max_examples=40)
    @given(points.filter(lambda p: len(p) > 0), coords, coords)
    def test_nearest_matches_brute_force(self, pts, cx, cy):
        items = [(i, Vec2(x, y)) for i, (x, y) in enumerate(pts)]
        g = load(items)
        center = Vec2(cx, cy)
        got = g.nearest(center)
        best = min(items, key=lambda kv: kv[1].distance_to(center))
        assert dict(items)[got].distance_to(center) == pytest.approx(
            best[1].distance_to(center))

    @settings(max_examples=40)
    @given(points, coords, coords, st.integers(min_value=0, max_value=70),
           st.sets(st.integers(min_value=0, max_value=59), max_size=10))
    def test_knn_matches_brute_force(self, pts, cx, cy, k, exclude):
        """Exact: same squared distances, ties broken by ascending key."""
        items = [(i, Vec2(x, y)) for i, (x, y) in enumerate(pts)]
        g = load(items)
        center = Vec2(cx, cy)
        ranked = sorted((p.distance_sq_to(center), key)
                        for key, p in items if key not in exclude)
        want = [key for _d, key in ranked[:k]]
        assert g.knn(center, k, exclude=exclude) == want
