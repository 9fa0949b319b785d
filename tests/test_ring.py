"""Unit tests for the interconnect fabrics (ring, mesh, registry)."""

import pytest

from repro.interconnect import Mesh2D, Ring, build_interconnect
from repro.interconnect.base import FabricStats
from repro.sim.component import CarryoverReport
from repro.sim.events import EventWheel
from repro.uarch.params import FabricConfig, RingConfig


def make_ring(stops=5, **overrides):
    cfg = RingConfig(**overrides)
    wheel = EventWheel()
    return Ring(stops, cfg, wheel), wheel, cfg


def make_mesh(stops=6, **overrides):
    cfg = FabricConfig(topology="mesh", **overrides)
    wheel = EventWheel()
    return Mesh2D(stops, cfg, wheel), wheel, cfg


def test_shortest_direction_chosen():
    ring, _wheel, _cfg = make_ring(stops=6)
    assert ring._route(0, 1) == (1, 1)
    assert ring._route(0, 5) == (-1, 1)
    assert ring._route(1, 4) == (1, 3)
    assert ring._route(0, 3)[1] == 3  # equidistant: 3 hops either way


def test_zero_hop_message():
    ring, wheel, _cfg = make_ring()
    delivered = []
    latency = ring.send(2, 2, "ctrl", lambda: delivered.append(wheel.now))
    assert latency == 0
    wheel.run()
    assert delivered == [0]


def test_latency_scales_with_hops():
    ring, wheel, cfg = make_ring(stops=8)
    lat1 = ring.send(0, 1, "ctrl", lambda: None)
    ring2, _w, _c = make_ring(stops=8)
    lat3 = ring2.send(0, 3, "ctrl", lambda: None)
    assert lat3 == 3 * lat1


def test_contention_delays_second_message():
    ring, wheel, cfg = make_ring()
    lat_first = ring.send(0, 1, "data", lambda: None)
    lat_second = ring.send(0, 1, "data", lambda: None)
    assert lat_second > lat_first


def test_opposite_directions_do_not_contend():
    ring, _wheel, _cfg = make_ring(stops=6)
    lat_cw = ring.send(0, 1, "data", lambda: None)
    lat_ccw = ring.send(1, 0, "data", lambda: None)
    assert lat_ccw == lat_cw


def test_control_and_data_rings_are_separate():
    ring, _wheel, _cfg = make_ring()
    lat_data = ring.send(0, 1, "data", lambda: None)
    lat_ctrl = ring.send(0, 1, "ctrl", lambda: None)
    # A busy data ring must not delay the control ring.
    lat_ctrl2 = ring.send(0, 1, "ctrl", lambda: None)
    assert lat_ctrl2 >= lat_ctrl
    assert lat_ctrl <= lat_data


def test_stats_counted():
    ring, wheel, _cfg = make_ring()
    ring.send(0, 2, "ctrl", lambda: None)
    ring.send(0, 2, "data", lambda: None, emc=True)
    assert ring.stats.control_messages == 1
    assert ring.stats.data_messages == 1
    assert ring.stats.emc_data_messages == 1
    assert ring.stats.total_hops == 4
    assert ring.stats.control_hops == 2
    assert ring.stats.data_hops == 2


def test_bad_kind_rejected():
    ring, _wheel, _cfg = make_ring()
    with pytest.raises(ValueError):
        ring.send(0, 1, "bogus", lambda: None)


def test_tiny_ring_rejected():
    with pytest.raises(ValueError):
        Ring(1, RingConfig(), EventWheel())


def test_delivery_callback_fires_at_latency():
    ring, wheel, _cfg = make_ring()
    seen = []
    latency = ring.send(0, 2, "ctrl", lambda: seen.append(wheel.now))
    wheel.run()
    assert seen == [latency]


# ---------------------------------------------------------------------------
# reseat across geometry/topology changes
# ---------------------------------------------------------------------------

def test_ring_reseat_same_stop_count_carries_links_leaves_stats_fresh():
    ring, _wheel, _cfg = make_ring(stops=5)
    ring.send(0, 2, "data", lambda: None, emc=True)
    state = ring.snapshot()
    fresh, _w, _c = make_ring(stops=5)
    report = CarryoverReport()
    fresh.reseat(state, report, "ring")
    assert fresh._link_free == ring._link_free
    # Snapshots carry no statistics: the target keeps its own.
    assert fresh.stats == FabricStats() != ring.stats
    kept, total = report.as_dict()["ring"]
    assert kept == total == len(ring._link_free) > 0


def test_ring_reseat_across_stop_count_drops_links_leaves_stats_fresh():
    ring, _wheel, _cfg = make_ring(stops=5)
    ring.send(0, 2, "ctrl", lambda: None)
    ring.send(3, 1, "data", lambda: None, emc=True)
    state = ring.snapshot()
    saved_links = len(ring._link_free)
    grown, _w, _c = make_ring(stops=7)
    report = CarryoverReport()
    grown.reseat(state, report, "ring")
    # Link busy clocks name links of the old geometry: all dropped.
    assert grown._link_free == {}
    assert report.as_dict()["ring"] == (0, saved_links)
    assert ring.stats.emc_data_messages == 1
    assert grown.stats == FabricStats()


def test_cross_fabric_reseat_ring_snapshot_into_mesh():
    ring, _wheel, _cfg = make_ring(stops=6)
    ring.send(0, 4, "data", lambda: None)
    state = ring.snapshot()
    mesh, _w, _c = make_mesh(stops=6)
    report = CarryoverReport()
    mesh.reseat(state, report, "ring")
    assert mesh._link_free == {}
    assert mesh.stats == FabricStats() != ring.stats
    assert report.ratio("ring") == 0.0


# ---------------------------------------------------------------------------
# 2D mesh
# ---------------------------------------------------------------------------

def test_mesh_width_derivation_and_override():
    mesh, _wheel, _cfg = make_mesh(stops=6)
    assert mesh.width == 3                    # ceil(sqrt(6)) grid
    narrow, _w, _c = make_mesh(stops=6, mesh_width=2)
    assert narrow.width == 2
    assert narrow.config_state()["width"] == 2


def test_mesh_xy_routing_hop_counts():
    mesh, _wheel, cfg = make_mesh(stops=9)    # 3x3 grid
    # 0=(0,0) -> 4=(1,1): one X hop then one Y hop.
    assert len(mesh._links(0, 4, "ctrl")) == 2
    # 0=(0,0) -> 8=(2,2): two X hops then two Y hops.
    assert len(mesh._links(0, 8, "ctrl")) == 4
    assert mesh._links(5, 5, "ctrl") == []
    lat = mesh.send(0, 8, "ctrl", lambda: None)
    assert lat == 4 * cfg.link_cycles


def test_mesh_xy_routes_x_first():
    mesh, _wheel, _cfg = make_mesh(stops=9)
    links = mesh._links(0, 4, "data")
    coords = [link[1:] for link in links]
    assert coords == [((0, 0), (1, 0)), ((1, 0), (1, 1))]


def test_mesh_contention_and_kind_separation():
    mesh, _wheel, _cfg = make_mesh(stops=9)
    lat_first = mesh.send(0, 1, "data", lambda: None)
    lat_second = mesh.send(0, 1, "data", lambda: None)
    assert lat_second > lat_first
    # Control messages ride separate links from data messages.
    lat_ctrl = mesh.send(0, 1, "ctrl", lambda: None)
    assert lat_ctrl <= lat_first


def test_mesh_counts_stats_like_the_ring():
    mesh, _wheel, _cfg = make_mesh(stops=9)
    mesh.send(0, 4, "ctrl", lambda: None)
    mesh.send(0, 4, "data", lambda: None, emc=True)
    assert mesh.stats.control_messages == 1
    assert mesh.stats.emc_data_messages == 1
    assert mesh.stats.total_hops == 4
    assert mesh.stats.emc_data_hops == 2


def test_mesh_delivery_callback_fires_at_latency():
    mesh, wheel, _cfg = make_mesh(stops=9)
    seen = []
    latency = mesh.send(0, 7, "ctrl", lambda: seen.append(wheel.now))
    wheel.run()
    assert seen == [latency]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_build_interconnect_dispatches_on_topology():
    wheel = EventWheel()
    assert isinstance(
        build_interconnect(5, FabricConfig(topology="ring"), wheel), Ring)
    assert isinstance(
        build_interconnect(5, FabricConfig(topology="mesh"), wheel), Mesh2D)
    with pytest.raises(ValueError, match="unknown topology"):
        build_interconnect(5, FabricConfig(topology="torus"), wheel)
