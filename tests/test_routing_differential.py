"""Differential tests for target-bounded routing.

``single_source(topo, s, target=t)`` stops the Dijkstra sweep once ``t``
is settled; :class:`~repro.network.routing.Router` uses it to fill
per-source rows instead of full tables.  Both must be invisible to the
science: every routed entry is bit-identical (``==`` on the float
triple, not approximate) to the full sweep's, for every pair, on
generated topologies of several sizes and seeds.  With
``router.symmetric`` on (fluid mode) the router must answer exactly as
the full-table router always did, reverse lookups included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.routing import Router
from repro.sim import RngHub
from repro.topology import Topology, TopologyParams, generate_topology, single_source

topologies = st.builds(
    lambda n, seed: generate_topology(TopologyParams(n_nodes=n), RngHub(seed).stream("topology")),
    n=st.integers(min_value=2, max_value=48),
    seed=st.integers(min_value=0, max_value=10_000),
)


def full_table_path_info(tables, topo, symmetric, src, dst):
    """The full-table router: a ``single_source`` table per source,
    and, when symmetric, a reverse lookup in ``dst``'s cached table."""
    if src == dst:
        return (0.0, 0, 0.0)
    if symmetric and src not in tables and dst in tables:
        return tables[dst][src]
    if src not in tables:
        tables[src] = single_source(topo, src)
    return tables[src][dst]


class TestTargetedSingleSource:
    @settings(max_examples=30, deadline=None)
    @given(topo=topologies)
    def test_every_pair_bit_identical(self, topo):
        n = topo.n_nodes
        for s in range(n):
            table = single_source(topo, s)
            for t in range(n):
                assert single_source(topo, s, target=t) == table[t]

    def test_unreachable_target(self):
        topo = Topology(3)
        topo.add_link(0, 1, 1.0, 1.0)
        assert single_source(topo, 0, target=2) == single_source(topo, 0)[2]
        assert single_source(topo, 0, target=0) == (0.0, 0, 0.0)


class TestRouterDifferential:
    @settings(max_examples=30, deadline=None)
    @given(
        topo=topologies,
        symmetric=st.booleans(),
        data=st.data(),
    )
    def test_router_matches_full_tables(self, topo, symmetric, data):
        n = topo.n_nodes
        nodes = st.integers(min_value=0, max_value=n - 1)
        primed = data.draw(st.sets(nodes, max_size=3))
        queries = data.draw(st.lists(st.tuples(nodes, nodes), max_size=60))

        router = Router(topo)
        router.symmetric = symmetric
        oracle = {}
        for src in sorted(primed):
            table = single_source(topo, src)
            router.prime(src, table)
            oracle[src] = table
        for src, dst in queries:
            expected = full_table_path_info(oracle, topo, symmetric, src, dst)
            assert router.path_info(src, dst) == expected
        if symmetric:
            # Symmetric routing keeps full tables only, computed for
            # exactly the sources the full-table router computed.
            assert set(router.tables) == set(oracle)
            assert all(router.tables[s] == oracle[s] for s in oracle)
        else:
            assert all(isinstance(router.tables[s], list) for s in primed)

    def test_rows_fill_per_destination(self):
        topo = generate_topology(TopologyParams(n_nodes=30), RngHub(3).stream("topology"))
        router = Router(topo)
        router.path_info(5, 9)
        router.path_info(5, 12)
        assert router.tables[5] == {
            9: single_source(topo, 5)[9],
            12: single_source(topo, 5)[12],
        }
        # priming replaces a partial row with the full table
        router.prime(5, single_source(topo, 5))
        assert router.tables[5] == single_source(topo, 5)
        assert router.cached_sources == 1
