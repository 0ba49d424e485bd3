"""Differential tests for the router's rows.

``single_source(topo, s, target=t)`` stops the Dijkstra sweep once ``t``
is settled; :class:`~repro.network.routing.Router` uses it to fill
per-source rows, and reads the rows of donated sources out of
:func:`~repro.topology.paths.shortest_path_tables`' arrays.  Both must
be invisible to the science: every routed entry is bit-identical
(``==`` on the float triple, not approximate, and the same Python
types) to the full sweep's, for every pair, on generated topologies of
several sizes and seeds.  With ``router.symmetric`` on (fluid mode) the
router must answer exactly as the full-table router always did, reverse
lookups included.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import routing
from repro.network.routing import Router
from repro.sim import RngHub
from repro.topology import (
    Topology,
    TopologyParams,
    generate_topology,
    shortest_path_tables,
    single_source,
)

topologies = st.builds(
    lambda n, seed: generate_topology(TopologyParams(n_nodes=n), RngHub(seed).stream("topology")),
    n=st.integers(min_value=2, max_value=48),
    seed=st.integers(min_value=0, max_value=10_000),
)


def types(info):
    return tuple(map(type, info))


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
        primed = sorted(data.draw(st.sets(nodes, max_size=3)))
        queries = data.draw(st.lists(st.tuples(nodes, nodes), max_size=60))

        router = Router(topo)
        router.symmetric = symmetric
        router.prime(primed, shortest_path_tables(topo, primed))
        oracle = {src: single_source(topo, src) for src in primed}
        with mock.patch.object(routing, "single_source", wraps=single_source) as spy:
            for src, dst in queries:
                expected = full_table_path_info(oracle, topo, symmetric, src, dst)
                got = router.path_info(src, dst)
                assert got == expected
                assert types(got) == types(expected)
        # A donated source is never searched from.
        assert not {call.args[1] for call in spy.call_args_list} & set(primed)
        # Rows exist for exactly the sources the full-table router
        # computed tables for, and every entry is that table's.
        assert set(router.tables) == set(oracle)
        assert router.cached_sources == len(oracle)
        for s, row in router.tables.items():
            for t, info in row.items():
                assert info == oracle[s][t] and types(info) == types(oracle[s][t])

    def test_rows_fill_per_destination(self):
        topo = generate_topology(TopologyParams(n_nodes=30), RngHub(3).stream("topology"))
        full = single_source(topo, 5)
        router = Router(topo)
        router.path_info(5, 9)
        router.path_info(5, 12)
        assert router.tables[5] == {9: full[9], 12: full[12]}
        # Priming keeps the pre-filled row, whose entries equal the
        # donated values, and routes every other destination from the
        # arrays without a search.
        tables = shortest_path_tables(topo, [5])
        donated = list(
            zip(tables.latency[0].tolist(), tables.hops[0].tolist(), tables.txf[0].tolist())
        )
        with mock.patch.object(routing, "single_source", wraps=single_source) as spy:
            router.prime([5], tables)
            assert router.tables[5] == {9: donated[9], 12: donated[12]}
            assert router.cached_sources == 1
            for t in range(topo.n_nodes):
                assert router.path_info(5, t) == full[t]
                assert types(router.path_info(5, t)) == types(full[t])
        spy.assert_not_called()
        assert router.cached_sources == 1
