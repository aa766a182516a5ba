"""Per-round cost ledger and aggregated run results.

Every simulated round produces one :class:`RoundRecord` with the full cost
breakdown of §II-B/§II-C (latency, load, running, migration, creation) plus
the server census; a completed run is summarised in an immutable
:class:`RunResult` exposing the series as numpy arrays — Figures 1 and 2
plot exactly these series, and every other figure aggregates their totals.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["RoundRecord", "RunResult", "RunLedger", "CostBreakdown"]


@dataclass(frozen=True)
class RoundRecord:
    """Cost breakdown of a single round of the online game (§II-E).

    Attributes:
        t: round index.
        latency_cost: summed request delays (incl. wireless hop).
        load_cost: summed server load latencies.
        running_cost: ``Ra·#active + Ri·#inactive`` after reconfiguration.
        migration_cost: β-costs paid this round.
        creation_cost: c-costs paid this round.
        migrations: number of server moves this round.
        creations: number of server creations this round.
        n_active: active servers after reconfiguration.
        n_inactive: inactive servers after reconfiguration.
        n_requests: size of the round's request multiset.
    """

    t: int
    latency_cost: float
    load_cost: float
    running_cost: float
    migration_cost: float
    creation_cost: float
    migrations: int
    creations: int
    n_active: int
    n_inactive: int
    n_requests: int

    @property
    def access_cost(self) -> float:
        """Costacc of the round: latency plus load."""
        return self.latency_cost + self.load_cost

    @property
    def total_cost(self) -> float:
        """Everything paid this round."""
        return (
            self.latency_cost
            + self.load_cost
            + self.running_cost
            + self.migration_cost
            + self.creation_cost
        )


@dataclass(frozen=True)
class CostBreakdown:
    """Totals of one run, split by cost factor (the bars of Figure 6)."""

    access: float
    running: float
    migration: float
    creation: float

    @property
    def total(self) -> float:
        """Grand total of the run."""
        return self.access + self.running + self.migration + self.creation

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(
            self.access + other.access,
            self.running + other.running,
            self.migration + other.migration,
            self.creation + other.creation,
        )

    def scaled(self, factor: float) -> "CostBreakdown":
        """Component-wise scaling (used for averaging over runs)."""
        return CostBreakdown(
            self.access * factor,
            self.running * factor,
            self.migration * factor,
            self.creation * factor,
        )


class RunLedger:
    """The column writer every round loop records its rounds into.

    One typed column per ledger field (8 bytes/round each) instead of
    per-round records of boxed Python numbers — a million-round ledger
    stays ~80 MB, which is what keeps streaming-trace runs lean.
    :meth:`finish` wraps the columns as read-only arrays without copying.
    """

    #: The ledger columns: every :class:`RoundRecord` field but ``t``.
    _FIELDS = tuple(f.name for f in fields(RoundRecord))[1:]

    def __init__(self) -> None:
        self._columns = tuple(
            array("d" if name.endswith("cost") else "q") for name in self._FIELDS
        )

    def write(
        self,
        latency_cost: float,
        load_cost: float,
        running_cost: float,
        migration_cost: float,
        creation_cost: float,
        migrations: int,
        creations: int,
        n_active: int,
        n_inactive: int,
        n_requests: int,
    ) -> None:
        """Record one round (fields in :class:`RoundRecord` order)."""
        columns = self._columns
        columns[0].append(latency_cost)
        columns[1].append(load_cost)
        columns[2].append(running_cost)
        columns[3].append(migration_cost)
        columns[4].append(creation_cost)
        columns[5].append(migrations)
        columns[6].append(creations)
        columns[7].append(n_active)
        columns[8].append(n_inactive)
        columns[9].append(n_requests)

    def finish(self, policy_name: str, scenario_name: str = "") -> "RunResult":
        """Freeze the ledger into an immutable :class:`RunResult`."""
        arrays = {}
        for name, column in zip(self._FIELDS, self._columns):
            dtype = np.float64 if name.endswith("cost") else np.int64
            arr = np.frombuffer(column, dtype=dtype)
            arr.flags.writeable = False
            arrays[name] = arr
        return RunResult(policy_name=policy_name, scenario_name=scenario_name, **arrays)


@dataclass(frozen=True)
class RunResult:
    """Immutable result of one simulated run; all series share one time axis."""

    policy_name: str
    scenario_name: str
    latency_cost: np.ndarray
    load_cost: np.ndarray
    running_cost: np.ndarray
    migration_cost: np.ndarray
    creation_cost: np.ndarray
    migrations: np.ndarray
    creations: np.ndarray
    n_active: np.ndarray
    n_inactive: np.ndarray
    n_requests: np.ndarray

    @property
    def rounds(self) -> int:
        """Number of simulated rounds."""
        return int(self.latency_cost.size)

    @property
    def access_cost(self) -> np.ndarray:
        """Per-round Costacc series (latency + load)."""
        return self.latency_cost + self.load_cost

    @property
    def per_round_total(self) -> np.ndarray:
        """Per-round total cost series."""
        return (
            self.latency_cost
            + self.load_cost
            + self.running_cost
            + self.migration_cost
            + self.creation_cost
        )

    @property
    def total_cost(self) -> float:
        """Grand total over the run — the y-axis of Figures 3-5 and 7-10."""
        return float(self.per_round_total.sum())

    @property
    def breakdown(self) -> CostBreakdown:
        """Totals by cost factor — the series of Figure 6."""
        return CostBreakdown(
            access=float(self.access_cost.sum()),
            running=float(self.running_cost.sum()),
            migration=float(self.migration_cost.sum()),
            creation=float(self.creation_cost.sum()),
        )

    @property
    def total_migrations(self) -> int:
        """Number of migrations over the whole run."""
        return int(self.migrations.sum())

    @property
    def total_creations(self) -> int:
        """Number of creations over the whole run."""
        return int(self.creations.sum())

    @property
    def mean_active_servers(self) -> float:
        """Time-averaged active server count."""
        return float(self.n_active.mean()) if self.rounds else 0.0

    @property
    def peak_active_servers(self) -> int:
        """Maximum simultaneous active servers (the peaks of Figures 1-2)."""
        return int(self.n_active.max()) if self.rounds else 0

    #: Column order used by :meth:`as_rows` and :meth:`save_csv`.
    CSV_COLUMNS = (
        "t", "n_requests", "latency_cost", "load_cost", "running_cost",
        "migration_cost", "creation_cost", "migrations", "creations",
        "n_active", "n_inactive", "total_cost",
    )

    def as_rows(self) -> list[tuple]:
        """The ledger as rows matching :data:`CSV_COLUMNS` (for analysis)."""
        totals = self.per_round_total
        return [
            (
                t,
                int(self.n_requests[t]),
                float(self.latency_cost[t]),
                float(self.load_cost[t]),
                float(self.running_cost[t]),
                float(self.migration_cost[t]),
                float(self.creation_cost[t]),
                int(self.migrations[t]),
                int(self.creations[t]),
                int(self.n_active[t]),
                int(self.n_inactive[t]),
                float(totals[t]),
            )
            for t in range(self.rounds)
        ]

    def save_csv(self, path) -> None:
        """Write the per-round ledger as CSV (one row per round).

        A provenance comment line records the policy and scenario so result
        files remain self-describing when collected in bulk.
        """
        import csv
        from pathlib import Path

        with Path(path).open("w", newline="") as handle:
            handle.write(
                f"# policy={self.policy_name} scenario={self.scenario_name}\n"
            )
            writer = csv.writer(handle)
            writer.writerow(self.CSV_COLUMNS)
            writer.writerows(self.as_rows())

    def record(self, t: int) -> RoundRecord:
        """Reconstruct the :class:`RoundRecord` of round ``t``."""
        if not 0 <= t < self.rounds:
            raise IndexError(f"round {t} outside 0..{self.rounds - 1}")
        return RoundRecord(t, *(getattr(self, name)[t].item() for name in RunLedger._FIELDS))
