"""Tests for the run ledger and result aggregation (repro.core.results)."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.results import CostBreakdown, RoundRecord, RunLedger


def make_record(t, **overrides):
    defaults = dict(
        t=t,
        latency_cost=2.0,
        load_cost=1.0,
        running_cost=2.5,
        migration_cost=0.0,
        creation_cost=0.0,
        migrations=0,
        creations=0,
        n_active=1,
        n_inactive=0,
        n_requests=3,
    )
    defaults.update(overrides)
    return RoundRecord(**defaults)


def write_record(ledger, record):
    """Write a RoundRecord's fields (all but ``t``) as one ledger round."""
    fields = asdict(record)
    del fields["t"]
    ledger.write(**fields)


class TestRoundRecord:
    def test_access_cost(self):
        rec = make_record(0, latency_cost=3.0, load_cost=2.0)
        assert rec.access_cost == 5.0

    def test_total_cost(self):
        rec = make_record(
            0, latency_cost=1, load_cost=2, running_cost=3,
            migration_cost=4, creation_cost=5,
        )
        assert rec.total_cost == 15.0


class TestCostBreakdown:
    def test_total(self):
        bd = CostBreakdown(access=1, running=2, migration=3, creation=4)
        assert bd.total == 10

    def test_add(self):
        a = CostBreakdown(1, 2, 3, 4)
        b = CostBreakdown(10, 20, 30, 40)
        s = a + b
        assert (s.access, s.running, s.migration, s.creation) == (11, 22, 33, 44)

    def test_scaled(self):
        bd = CostBreakdown(2, 4, 6, 8).scaled(0.5)
        assert (bd.access, bd.running, bd.migration, bd.creation) == (1, 2, 3, 4)


class TestRunLedger:
    def build(self, n=5):
        ledger = RunLedger()
        for t in range(n):
            write_record(
                ledger,
                make_record(
                    t,
                    latency_cost=float(t),
                    migration_cost=40.0 if t == 2 else 0.0,
                    migrations=1 if t == 2 else 0,
                    n_active=1 + t % 2,
                ),
            )
        return ledger.finish("TEST", "scenario-x")

    def test_metadata(self):
        result = self.build()
        assert result.policy_name == "TEST"
        assert result.scenario_name == "scenario-x"
        assert result.rounds == 5

    def test_series_values(self):
        result = self.build()
        np.testing.assert_allclose(result.latency_cost, [0, 1, 2, 3, 4])
        np.testing.assert_allclose(result.migration_cost, [0, 0, 40, 0, 0])

    def test_total_cost_consistent_with_series(self):
        result = self.build()
        assert result.total_cost == pytest.approx(result.per_round_total.sum())

    def test_breakdown_sums_to_total(self):
        result = self.build()
        assert result.breakdown.total == pytest.approx(result.total_cost)

    def test_access_series(self):
        result = self.build()
        np.testing.assert_allclose(
            result.access_cost, result.latency_cost + result.load_cost
        )

    def test_counters(self):
        result = self.build()
        assert result.total_migrations == 1
        assert result.total_creations == 0
        assert result.peak_active_servers == 2
        assert result.mean_active_servers == pytest.approx(np.mean([1, 2, 1, 2, 1]))

    def test_arrays_read_only(self):
        result = self.build()
        with pytest.raises(ValueError):
            result.latency_cost[0] = 9.0

    def test_record_round_trip(self):
        result = self.build()
        rec = result.record(2)
        assert rec.t == 2
        assert rec.migration_cost == 40.0
        assert rec.migrations == 1

    def test_record_out_of_range(self):
        with pytest.raises(IndexError):
            self.build().record(99)

    def test_empty_ledger(self):
        result = RunLedger().finish("EMPTY")
        assert result.rounds == 0
        assert result.total_cost == 0.0
        assert result.peak_active_servers == 0
        assert result.mean_active_servers == 0.0


class TestCsvExport:
    def build(self):
        ledger = RunLedger()
        for t in range(3):
            write_record(
                ledger, make_record(t, latency_cost=float(t), migrations=t % 2)
            )
        return ledger.finish("CSVTEST", "scn")

    def test_rows_match_columns(self):
        result = self.build()
        rows = result.as_rows()
        assert len(rows) == 3
        assert all(len(row) == len(result.CSV_COLUMNS) for row in rows)

    def test_total_column_consistent(self):
        result = self.build()
        for t, row in enumerate(result.as_rows()):
            assert row[-1] == pytest.approx(float(result.per_round_total[t]))

    def test_save_csv_round_trip(self, tmp_path):
        import csv

        result = self.build()
        path = tmp_path / "run.csv"
        result.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# policy=CSVTEST scenario=scn")
        reader = csv.reader(lines[1:])
        header = next(reader)
        assert tuple(header) == result.CSV_COLUMNS
        body = list(reader)
        assert len(body) == 3
        assert float(body[2][2]) == 2.0  # latency of round 2
