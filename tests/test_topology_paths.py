"""Tests for shortest-path algorithms, cross-checked against networkx."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngHub
from repro.topology import (
    Topology,
    TopologyParams,
    generate_topology,
    shortest_path_tables,
    single_source,
)


def line(n=4):
    """0 -1- 1 -2- 2 -3- 3 ... latencies increasing."""
    t = Topology(n)
    for i in range(n - 1):
        t.add_link(i, i + 1, float(i + 1), 10.0 * (i + 1))
    return t


class TestSingleSource:
    def test_line_distances(self):
        info = single_source(line(4), 0)
        assert [d for d, _, _ in info] == [0.0, 1.0, 3.0, 6.0]
        assert [h for _, h, _ in info] == [0, 1, 2, 3]

    def test_transmission_factor_accumulates(self):
        info = single_source(line(3), 0)
        assert info[2][2] == pytest.approx(1 / 10.0 + 1 / 20.0)

    def test_source_is_zero(self):
        info = single_source(line(3), 1)
        assert info[1] == (0.0, 0, 0.0)

    def test_unreachable_marked(self):
        t = Topology(3)
        t.add_link(0, 1, 1.0, 1.0)
        info = single_source(t, 0)
        assert math.isinf(info[2][0])
        assert info[2][1] == -1

    def test_prefers_low_latency_path(self):
        t = Topology(3)
        t.add_link(0, 2, 10.0, 1000.0)   # direct but slow
        t.add_link(0, 1, 1.0, 1.0)
        t.add_link(1, 2, 1.0, 1.0)
        info = single_source(t, 0)
        assert info[2][0] == 2.0
        assert info[2][1] == 2  # took the 2-hop path

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_matches_networkx(self, n, seed):
        topo = generate_topology(
            TopologyParams(n_nodes=n), RngHub(seed).stream("topology")
        )
        g = topo.to_networkx()
        ref = nx.single_source_dijkstra_path_length(g, 0, weight="latency")
        ours = single_source(topo, 0)
        for v in range(n):
            assert ours[v][0] == pytest.approx(ref[v])


def tie_topology():
    """Equal-latency paths that only Dijkstra's ``(dist, id)`` settle
    order disambiguates, for both hops and transmission factor.

    Node 5 is reached at latency 3.0 through node 3 (at 1.0, one hop) and
    through node 2 (at 2.0, two hops): the nearer predecessor wins even
    though its id is larger.  Node 6 is reached at latency 3.0 through
    node 2 and through node 4, both at 2.0 but with different hop counts
    and bandwidths: the lower id wins.
    """
    t = Topology(7)
    t.add_link(0, 3, 1.0, 10.0)
    t.add_link(3, 5, 2.0, 100.0)
    t.add_link(0, 1, 1.0, 20.0)
    t.add_link(1, 2, 1.0, 1000.0)
    t.add_link(2, 5, 1.0, 400.0)
    t.add_link(0, 4, 2.0, 40.0)
    t.add_link(2, 6, 1.0, 100.0)
    t.add_link(4, 6, 1.0, 1000.0)
    return t


@st.composite
def tie_prone_graphs(draw):
    """Connected graphs whose latencies come from a tiny set, so
    equal-latency paths (and Dijkstra's tie-break) are everywhere."""
    n = draw(st.integers(min_value=2, max_value=24))
    t = Topology(n)
    lat = st.sampled_from([0.5, 1.0, 1.5, 2.0])
    bw = st.sampled_from([100.0, 400.0, 1000.0])
    for v in range(1, n):
        t.add_link(draw(st.integers(0, v - 1)), v, draw(lat), draw(bw))
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            t.add_link(u, v, draw(lat), draw(bw))
    return t


class TestShortestPathTables:
    """``shortest_path_tables`` must equal ``single_source`` bit for bit."""

    @staticmethod
    def rows(tables):
        """The arrays as ``single_source``-shaped lists of triples."""
        return [
            list(zip(d, h, t))
            for d, h, t in zip(
                tables.latency.tolist(), tables.hops.tolist(), tables.txf.tolist()
            )
        ]

    def assert_matches(self, topo, sources):
        tables = shortest_path_tables(topo, sources)
        for a in tables:
            assert a.shape == (len(sources), topo.n_nodes)
        rows = self.rows(tables)
        for i, s in enumerate(sources):
            ref = single_source(topo, s)
            assert rows[i] == ref
            assert [tuple(map(type, x)) for x in rows[i]] == [
                tuple(map(type, x)) for x in ref
            ]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_matches_single_source_on_generated(self, n, seed, data):
        topo = generate_topology(
            TopologyParams(n_nodes=n), RngHub(seed).stream("topology")
        )
        sources = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n)
        )
        self.assert_matches(topo, sources)

    @settings(max_examples=60, deadline=None)
    @given(topo=tie_prone_graphs(), data=st.data())
    def test_matches_single_source_under_ties(self, topo, data):
        n = topo.n_nodes
        sources = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n)
        )
        self.assert_matches(topo, sources)

    def test_dist_then_id_tie_break(self):
        topo = tie_topology()
        tables = self.rows(shortest_path_tables(topo, [0]))
        assert tables[0][5] == (3.0, 2, 1 / 10.0 + 1 / 100.0)  # via 3, not 2
        assert tables[0][6] == (3.0, 3, (1 / 20.0 + 1 / 1000.0) + 1 / 100.0)  # via 2
        self.assert_matches(topo, list(range(7)))

    def test_chunks_match_one_pass(self, monkeypatch):
        from repro.topology import paths

        topo = generate_topology(
            TopologyParams(n_nodes=40), RngHub(3).stream("topology")
        )
        whole = shortest_path_tables(topo, range(0, 40, 3))
        monkeypatch.setattr(paths, "_CHUNK_ELEMENTS", 1)
        chunked = shortest_path_tables(topo, range(0, 40, 3))
        assert self.rows(chunked) == self.rows(whole)

    def test_unreachable_and_isolated(self):
        t = Topology(4)
        t.add_link(0, 1, 1.0, 1.0)
        t.add_link(2, 1, 1.0, 2.0)
        self.assert_matches(t, [0, 3, 2])
        self.assert_matches(Topology(1), [0])

    def test_no_sources(self):
        tables = shortest_path_tables(line(3), [])
        assert all(a.shape == (0, 3) for a in tables)

    def test_invalid_source_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            shortest_path_tables(line(3), [7])

    def test_vanishing_link_rejected(self):
        t = Topology(3)
        t.add_link(0, 1, 1.0, 1.0)
        t.add_link(1, 2, 1e-300, 1.0)  # fl(1.0 + 1e-300) == 1.0
        with pytest.raises(ValueError, match=r"link \(1, 2\)"):
            shortest_path_tables(t, [0])
