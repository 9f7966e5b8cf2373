"""Detailed tests of the SVG traversal renderer."""

import pytest

from repro.core import DIKNNProtocol, KNNQuery, next_query_id
from repro.experiments import (TraversalRecorder, TraversalTrace,
                               render_svg, save_svg)
from repro.geometry import Rect, Vec2
from repro.routing import GpsrRouter

from tests.conftest import FIELD, build_static_network


def record_traversal(seed=3, k=20):
    sim, net = build_static_network(seed=seed)
    proto = DIKNNProtocol()
    proto.install(net, GpsrRouter(net))
    query = KNNQuery(query_id=next_query_id(), sink_id=0,
                     point=Vec2(60, 60), k=k, issued_at=sim.now)
    recorder = TraversalRecorder(net, query_id=query.query_id)
    results = []
    proto.issue(net.nodes[0], query, results.append)
    sim.run(until=sim.now + 12)
    return net, recorder, results


class TestTraversalRecorder:
    def test_records_only_target_query(self):
        sim, net = build_static_network(seed=3)
        proto = DIKNNProtocol()
        proto.install(net, GpsrRouter(net))
        q1 = KNNQuery(query_id=next_query_id(), sink_id=0,
                      point=Vec2(40, 40), k=10, issued_at=sim.now)
        q2 = KNNQuery(query_id=next_query_id(), sink_id=1,
                      point=Vec2(80, 80), k=10, issued_at=sim.now)
        recorder = TraversalRecorder(net, query_id=q2.query_id)
        proto.issue(net.nodes[0], q1, lambda r: None)
        proto.issue(net.nodes[1], q2, lambda r: None)
        sim.run(until=sim.now + 12)
        assert recorder.trace.query_id == q2.query_id
        # Every recorded hop belongs to q2's boundary region.
        assert recorder.trace.boundary_center.distance_to(
            Vec2(80, 80)) < 1.0

    def test_autodetects_first_query(self):
        net, recorder, results = record_traversal()
        assert recorder.trace.query_id is not None
        assert recorder.trace.hop_count() > 0

    def test_boundary_tracks_extensions(self):
        net, recorder, results = record_traversal(k=60)
        assert recorder.trace.boundary_radius >= 20.0

    def test_hops_grouped_by_sector(self):
        net, recorder, _results = record_traversal(k=40)
        assert all(0 <= s < 8 for s in recorder.trace.hops)

    def test_detach_unsubscribes(self):
        net, recorder, _results = record_traversal()
        assert recorder._hook in net.sim.probes["net"]
        recorder.detach()
        recorder.detach()   # idempotent
        assert net.sim.probes["net"] == []


class TestSvgRendering:
    def test_geometry_mapping(self):
        """Node dots land inside the drawn field rectangle."""
        net, recorder, _results = record_traversal()
        svg = render_svg(net, FIELD, recorder.trace, width_px=400)
        assert 'width="440"' in svg  # 400 + 2*margin
        # All circle coordinates fall inside the canvas.
        import re
        for m in re.finditer(r'cx="([\d.]+)" cy="([\d.]+)"', svg):
            assert 0 <= float(m.group(1)) <= 440
            assert 0 <= float(m.group(2)) <= 470

    def test_title_escaped_into_svg(self):
        net, recorder, _results = record_traversal()
        svg = render_svg(net, FIELD, recorder.trace, title="My Run")
        assert "My Run" in svg

    def test_sector_colors_differ(self):
        net, recorder, _results = record_traversal(k=40)
        svg = render_svg(net, FIELD, recorder.trace)
        colors = {line.split('stroke="')[1].split('"')[0]
                  for line in svg.split("\n")
                  if "<line" in line and "stroke=" in line}
        if len(recorder.trace.hops) >= 2:
            assert len(colors) >= 2

    def test_save_svg(self, tmp_path):
        net, recorder, _results = record_traversal()
        path = str(tmp_path / "out.svg")
        save_svg(path, render_svg(net, FIELD, recorder.trace))
        with open(path) as handle:
            assert handle.read().startswith("<svg")

    def test_empty_trace_renders_nodes_only(self):
        sim, net = build_static_network(n=20, seed=3, warm=False)
        svg = render_svg(net, FIELD, TraversalTrace())
        assert svg.count("<circle") == 20
        assert "<line" not in svg
