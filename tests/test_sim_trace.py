"""Tests for the job timeline and busy-Gantt tooling."""

import pytest

from repro.sim.trace import busy_gantt, job_timeline

from helpers import make_job


class TestJobTimeline:
    def test_full_lifecycle_narrative(self):
        j = make_job(arrival=100.0, execution=50.0, benefit=3.0, cluster=1)
        j.mark_placed(2)
        j.mark_running(120.0)
        j.mark_completed(170.0)
        lines = job_timeline(j)
        text = "\n".join(lines)
        assert "arrival" in text
        assert "cluster 2" in text
        assert "transferred" in text
        assert "waited 20.0" in text
        assert "SUCCESS" in text

    def test_missed_bound_flagged(self):
        j = make_job(arrival=0.0, execution=10.0, benefit=2.0)
        j.mark_placed(0)
        j.mark_running(100.0)
        j.mark_completed(110.0)  # response 110 > bound 20
        assert "MISSED BOUND" in "\n".join(job_timeline(j))

    def test_incomplete_job_shows_state(self):
        j = make_job()
        assert "submitted" in "\n".join(job_timeline(j))


class TestBusyGantt:
    def make_completed(self, cluster, start, end, arrival=0.0):
        j = make_job(arrival=arrival, execution=end - start, benefit=5.0, cluster=cluster)
        j.mark_placed(cluster)
        j.mark_running(start)
        j.mark_completed(end)
        return j

    def test_renders_busy_periods(self):
        jobs = [
            self.make_completed(0, 10.0, 50.0),
            self.make_completed(1, 20.0, 80.0),
        ]
        out = busy_gantt(jobs, 0.0, 100.0, width=40)
        assert "cluster   0" in out
        assert "cluster   1" in out
        assert "#" in out

    def test_overlap_marked(self):
        jobs = [
            self.make_completed(0, 10.0, 50.0),
            self.make_completed(0, 20.0, 60.0),
        ]
        out = busy_gantt(jobs, 0.0, 100.0, width=40)
        assert "=" in out

    def test_empty_window(self):
        out = busy_gantt([], 0.0, 10.0)
        assert "no service" in out

    def test_bad_window(self):
        with pytest.raises(ValueError):
            busy_gantt([], 10.0, 10.0)
