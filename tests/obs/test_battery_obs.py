"""End-to-end observability tests on the battery runner.

These are the acceptance checks for the obs subsystem: span trees nest
correctly (and export as valid Chrome traces), the metrics-registry delta
reconciles with :class:`BatteryResult`'s own record counts at jobs=1 *and*
under a process pool, workers ship resource samples home, and per-unit
profiling produces mergeable ``.pstats`` files.
"""

import pytest

from repro.core import RunJournal, run_battery
from repro.obs import (
    Tracer,
    export_chrome_trace,
    merge_profiles,
    to_chrome_trace,
    validate_chrome_trace,
)

MODELS = ["barabasi-albert", "glp"]
N = 150
FAST = {"min_tail": 20, "path_samples": 50, "path_sample_threshold": 100}


def _run(tracer=None, jobs=1, seeds=1, **kwargs):
    return run_battery(
        MODELS, n=N, seeds=seeds, jobs=jobs, tracer=tracer, **FAST, **kwargs
    )


class TestSpanTree:
    def test_serial_spans_nest_battery_unit_generate(self):
        tracer = Tracer(enabled=True)
        _run(tracer=tracer)
        by_id = {s.span_id: s for s in tracer.spans}
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        (battery,) = by_name["battery"]
        assert battery.parent_id is None
        assert len(by_name["unit"]) == len(MODELS)
        for unit in by_name["unit"]:
            assert unit.parent_id == battery.span_id
        for generate in by_name["generate"]:
            assert by_id[generate.parent_id].name == "unit"
        # Generator phases hang off generate, metric groups off the unit.
        for phase in by_name["generator.growth"]:
            assert by_id[phase.parent_id].name == "generate"
        for tail in by_name["metric.tail"]:
            assert by_id[tail.parent_id].name == "unit"

    def test_serial_trace_exports_and_validates(self, tmp_path):
        tracer = Tracer(enabled=True)
        _run(tracer=tracer)
        path = export_chrome_trace(tracer.spans, tmp_path / "trace.json")
        counts = validate_chrome_trace(path)
        assert counts["spans"] == len(tracer.spans)
        # Everything except the battery root nests under a parent.
        assert counts["nested"] == counts["spans"] - 1

    def test_parallel_spans_adopted_into_one_valid_tree(self):
        tracer = Tracer(enabled=True)
        _run(tracer=tracer, jobs=2, seeds=2)
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        (battery,) = by_name["battery"]
        units = by_name["unit"]
        assert len(units) == len(MODELS) * 2
        # Worker roots were re-parented under the coordinator's span even
        # though they carry worker pids.
        for unit in units:
            assert unit.parent_id == battery.span_id
        counts = validate_chrome_trace(to_chrome_trace(tracer.spans))
        assert counts["nested"] == counts["spans"] - 1

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        _run(tracer=tracer)
        assert tracer.spans == []


class TestMetricsReconciliation:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_registry_delta_matches_battery_result(self, jobs):
        result = _run(jobs=jobs, seeds=2)
        counters = result.metrics["counters"]
        ok_units = {
            (r.model, r.replicate)
            for r in result.records
            if r.status == "ok" and r.group == "generate"
        }
        computed_cells = [
            r for r in result.records
            if r.status == "ok" and not r.cached
            and r.group not in ("generate", "giant")
        ]
        assert counters["battery.units.completed"] == len(ok_units)
        assert counters["battery.cells.computed"] == len(computed_cells)
        assert counters.get("battery.units.failed", 0) == 0
        assert counters["generator.steps"] > 0
        assert counters["metrics.groups.computed"] == len(computed_cells)
        hist = result.metrics["histograms"]["battery.unit.seconds"]
        assert hist["count"] == len(ok_units)
        assert result.metrics["gauges"]["battery.jobs"] == jobs

    def test_serial_and_parallel_deltas_agree(self):
        serial = _run(jobs=1, seeds=2)
        parallel = _run(jobs=4, seeds=2)
        assert serial.metrics["counters"] == parallel.metrics["counters"]

    def test_cache_hits_counted_on_warm_run(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = _run(cache=cache)
        warm = _run(cache=cache)
        assert cold.metrics["counters"]["cache.miss"] > 0
        assert warm.metrics["counters"]["cache.hit"] == (
            cold.metrics["counters"]["cache.miss"]
        )
        assert warm.metrics["counters"]["battery.cells.cached"] == (
            cold.metrics["counters"]["battery.cells.computed"]
        )

    def test_warm_run_reports_idle_unit_histogram(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = _run(cache=cache)
        warm = _run(cache=cache)
        assert cold.metrics["histograms"]["battery.unit.seconds"]["max"] > 0
        # The warm run ran no unit: its delta must not inherit the cold
        # run's extremes.
        idle = warm.metrics["histograms"]["battery.unit.seconds"]
        assert idle["count"] == 0
        assert idle["max"] == 0.0 and idle["min"] == 0.0


class TestResourceSamples:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_generate_records_carry_rusage(self, jobs):
        result = _run(jobs=jobs)
        generates = [
            r for r in result.records
            if r.group == "generate" and r.status == "ok"
        ]
        assert generates
        for record in generates:
            assert record.max_rss_kb is not None and record.max_rss_kb > 0
            assert record.cpu_seconds is not None and record.cpu_seconds >= 0

    def test_resource_table_aggregates_per_model(self):
        result = _run()
        headers, rows = result.resource_table()
        assert headers == ["model", "units", "peak_rss_kb", "cpu_seconds"]
        assert [row[0] for row in rows] == sorted(MODELS)
        for row in rows:
            assert row[1] == 1  # one replicate each
            assert row[2] > 0


class TestRunId:
    def test_result_and_journal_events_share_one_run_id(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        result = _run(jobs=2, journal=str(journal))
        assert result.run_id
        events = RunJournal.read(journal)
        assert events
        assert {e.get("run_id") for e in events} == {result.run_id}

    def test_distinct_runs_get_distinct_ids(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        first = _run(journal=journal)
        second = _run(journal=journal)
        assert first.run_id != second.run_id
        runs = RunJournal.read_runs(journal)
        assert set(runs) == {first.run_id, second.run_id}


class TestProfiling:
    def test_profile_dir_collects_and_merges_pstats(self, tmp_path):
        profile_dir = tmp_path / "profiles"
        _run(profile_dir=str(profile_dir))
        dumps = sorted(p.name for p in profile_dir.glob("*.pstats"))
        assert dumps == ["barabasi-albert-rep0.pstats", "glp-rep0.pstats"]
        headers, rows = merge_profiles(profile_dir, top=5)
        assert headers == ["function", "calls", "tottime", "cumtime"]
        assert 0 < len(rows) <= 5

    def test_merge_profiles_empty_dir_is_empty(self, tmp_path):
        headers, rows = merge_profiles(tmp_path)
        assert rows == []
