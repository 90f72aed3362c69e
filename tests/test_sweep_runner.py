"""Tests for campaign execution: caching, resume, failures, parallelism."""

import pytest

from repro.sweep import (
    Axis,
    ResultStore,
    ScenarioConfig,
    SweepRunner,
    SweepSpec,
    axis_summary,
    campaign_overview,
    table2_rows,
)
from repro.sweep.store import strip_volatile

#: Short simulated duration keeping each scenario ~tens of milliseconds.
DURATION_S = 5.0


def tiny_spec(governors=("power-neutral", "powersave"), seeds=(1,)) -> SweepSpec:
    return SweepSpec.grid(
        governors=list(governors),
        seeds=list(seeds),
        duration_s=DURATION_S,
    )


class TestSerialExecution:
    def test_runs_and_persists_every_cell(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        report = SweepRunner(store, workers=1).run(tiny_spec())
        assert report.total == 2
        assert report.executed == 2
        assert report.cached == 0
        assert report.succeeded
        assert len(store.ok_records()) == 2
        for record in store.ok_records():
            assert record["summary"]["duration_s"] == DURATION_S
            assert "instructions_billions" in record["summary"]

    def test_progress_callback_sees_every_cell(self, tmp_path):
        seen = []
        store = ResultStore(tmp_path / "s.jsonl")
        runner = SweepRunner(
            store, workers=1, progress=lambda done, total, rec, cached: seen.append((done, total, cached))
        )
        runner.run(tiny_spec())
        assert seen == [(1, 2, False), (2, 2, False)]

    def test_duplicate_scenarios_deduplicated(self, tmp_path):
        config = ScenarioConfig(governor="power-neutral", duration_s=DURATION_S)
        store = ResultStore(tmp_path / "s.jsonl")
        report = SweepRunner(store, workers=1).run([config, config, config])
        assert report.total == 1
        assert report.executed == 1


class TestCachingAndResume:
    def test_second_run_is_fully_cached(self, tmp_path):
        path = tmp_path / "s.jsonl"
        spec = tiny_spec()
        first = SweepRunner(ResultStore(path), workers=1).run(spec)
        assert first.executed == 2

        second = SweepRunner(ResultStore(path), workers=1).run(spec)
        assert second.executed == 0
        assert second.cached == 2
        assert second.succeeded
        # Cached rows aggregate identically to computed ones.
        assert len(table2_rows(second.ok_records())) == 2

    def test_resume_after_interrupt_computes_only_the_remainder(self, tmp_path):
        """Simulate an interrupted campaign: half the grid done, then resume."""
        path = tmp_path / "s.jsonl"
        full = tiny_spec(governors=("power-neutral", "powersave"), seeds=(1, 2))
        half = tiny_spec(governors=("power-neutral",), seeds=(1, 2))

        interrupted = SweepRunner(ResultStore(path), workers=1).run(half)
        assert interrupted.executed == 2

        resumed = SweepRunner(ResultStore(path), workers=1).run(full)
        assert resumed.total == 4
        assert resumed.cached == 2
        assert resumed.executed == 2
        assert {r["config"]["governor"]["kind"] for r in resumed.records} == {
            "power-neutral",
            "powersave",
        }

    def test_failed_records_are_retried_on_resume(self, tmp_path):
        # powersave is not tunable, so overrides make the worker fail cleanly.
        bad = ScenarioConfig(
            governor="powersave", duration_s=DURATION_S, governor_overrides={"v_q": 0.1}
        )
        good = ScenarioConfig(governor="powersave", duration_s=DURATION_S)
        path = tmp_path / "s.jsonl"
        report = SweepRunner(ResultStore(path), workers=1).run([bad, good])
        assert report.executed == 2
        assert report.failed == 1
        assert not report.succeeded
        failures = [r for r in report.records if r["status"] == "error"]
        assert "overrides" in failures[0]["error"]

        # The failure is persisted but not treated as complete: it reruns.
        retry = SweepRunner(ResultStore(path), workers=1).run([bad, good])
        assert retry.cached == 1  # the good cell
        assert retry.executed == 1  # the bad cell again
        assert retry.failed == 1


class TestParallelExecution:
    def test_pool_run_matches_serial_results(self, tmp_path):
        spec = tiny_spec(governors=("power-neutral", "powersave"), seeds=(1, 2))
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        SweepRunner(serial_store, workers=1).run(spec)
        pool_store = ResultStore(tmp_path / "pool.jsonl")
        report = SweepRunner(pool_store, workers=2).run(spec)

        assert report.executed == 4
        assert report.succeeded
        for config in spec.scenarios():
            serial = serial_store.get(config)["summary"]
            pooled = pool_store.get(config)["summary"]
            assert pooled["instructions"] == pytest.approx(serial["instructions"])
            assert pooled["brownouts"] == serial["brownouts"]

    def test_timeout_is_recorded_and_retried(self, tmp_path):
        config = ScenarioConfig(governor="power-neutral", duration_s=120.0)
        path = tmp_path / "s.jsonl"
        report = SweepRunner(ResultStore(path), workers=2, timeout_s=1e-3).run([config])
        assert report.timed_out == 1
        assert not report.succeeded
        record = ResultStore(path).get(config)
        assert record["status"] == "timeout"
        assert not ResultStore(path).is_complete(config)

    def test_timeout_is_enforced_at_workers_1(self, tmp_path):
        """A timeout is a promise: even workers=1 must interrupt a hung
        scenario (via a 1-slot pool) instead of silently ignoring the
        budget."""
        config = ScenarioConfig(governor="power-neutral", duration_s=120.0)
        report = SweepRunner(
            ResultStore(tmp_path / "s.jsonl"), workers=1, timeout_s=1e-3
        ).run([config])
        assert report.timed_out == 1
        assert not report.succeeded

    def test_pool_waits_for_results_without_polling(self, tmp_path, monkeypatch):
        """The timed pool blocks on its completion queue instead of sleeping
        between readiness checks, and yields the same records as a serial
        run."""
        import repro.sweep.runner as runner_module

        configs = [
            ScenarioConfig(
                governor="power-neutral",
                supply={"kind": "constant-power", "power_w": power_w},
                duration_s=DURATION_S,
            )
            for power_w in (1.0, 2.0, 3.0)
        ]
        serial = SweepRunner(ResultStore(tmp_path / "serial.jsonl"), timeout_s=None).run(configs)

        def no_sleep(seconds):
            raise AssertionError(f"the pool polled: time.sleep({seconds})")

        monkeypatch.setattr(runner_module.time, "sleep", no_sleep)
        pooled = SweepRunner(
            ResultStore(tmp_path / "pool.jsonl"), workers=1, timeout_s=60
        ).run(configs)

        assert pooled.executed == 3
        assert [r["status"] for r in pooled.records] == ["ok"] * 3
        by_id = {r["scenario_id"]: strip_volatile(r) for r in serial.records}
        assert {r["scenario_id"]: strip_volatile(r) for r in pooled.records} == by_id


class TestAggregation:
    def test_axis_summary_and_overview(self, tmp_path):
        spec = tiny_spec(governors=("power-neutral", "powersave"), seeds=(1, 2))
        store = ResultStore(tmp_path / "s.jsonl")
        report = SweepRunner(store, workers=1).run(spec)

        rows = axis_summary(report.ok_records(), "governor")
        assert len(rows) == 2
        labels = {row["governor"] for row in rows}
        assert labels == {"Proposed Approach", "Linux Powersave"}
        for row in rows:
            assert row["n"] == 2
            assert row["on_time_p50"] <= row["on_time_p95"] or row["on_time_p50"] == pytest.approx(
                row["on_time_p95"]
            )

        overview = campaign_overview(report.records)
        assert overview["scenarios"] == 4
        assert overview["ok"] == 4
        assert overview["simulated_s"] == pytest.approx(4 * DURATION_S)

    def test_table2_rows_shape(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        report = SweepRunner(store, workers=1).run(tiny_spec())
        rows = table2_rows(report.ok_records())
        for row in rows:
            assert set(row) == {
                "scheme",
                "avg_performance_render_per_min",
                "lifetime_mm_ss",
                "instructions_billions",
                "survived",
            }
