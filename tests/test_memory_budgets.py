"""Memory budgets of the two places where the program's footprint repeats.

* A saturated estimator (CENTRAL's single ``est0``) ends a full-profile
  run with tens of thousands of ``STATUS_UPDATE`` messages in its queue,
  so the retained size of one queued update sets the peak RSS of every
  run that includes CENTRAL.
* ``shortest_path_tables`` builds sources x edges temporaries to return
  sources x nodes tables; its transient peak sets the build's peak RSS
  at extreme scale.

Both are measured with ``tracemalloc``, which counts Python objects and
numpy buffers alike and is the same on every machine.
"""

import gc
import tracemalloc

from repro.sim import RngHub
from repro.topology import TopologyParams, generate_topology, map_grid, shortest_path_tables

from helpers import MiniGrid


def test_queued_status_update_is_small():
    """Bytes retained per update that the real producer
    (``Resource._send_report``) queues at a paused estimator."""
    n = 5000
    g = MiniGrid(n_clusters=1, resources_per_cluster=1)
    res, est = g.resources[0], g.estimators[0]
    res.start_reporting(interval=1.0, max_silence=None)
    est.pause()
    g.sim.run()  # the first, phase-0 report
    queued = est.queue_length
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            # advance the clock between reports, as a run does, so each
            # queued update carries its own send time
            g.sim.run(until=g.sim.now + 0.5)
            res._send_report(force=True)
        g.sim.run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert est.queue_length == queued + n
    assert retained / n < 200.0, f"{retained / n:.0f} B per queued update"


def test_path_tables_peak_is_bounded_by_output():
    """The transient peak of ``shortest_path_tables`` stays within a
    small multiple of the tables it returns."""
    n_res, n_sched = 3000, 16
    topo = generate_topology(
        TopologyParams(n_nodes=n_res + n_sched), RngHub(7).stream("topology")
    )
    sources = map_grid(topo, n_sched, n_res).scheduler_nodes
    gc.collect()
    tracemalloc.start()
    try:
        tables = shortest_path_tables(topo, sources)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(a.nbytes for a in tables)
    assert peak / output < 8.0, f"peak {peak} B for {output} B of tables"
