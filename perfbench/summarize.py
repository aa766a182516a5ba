"""Derive the median/quartile table from the benchmark's raw run records.

``run.py`` writes one raw record per run to ``perfbench/results/raw/``; this
script folds any set of them into one table per (workload, trace mode):
for every metric the median, the first and third quartile
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
and the number of runs. Raw records stay untouched, so the table can always
be derived again.

Usage::

    python3 perfbench/summarize.py [RAW.json ...] [--out perfbench/results/summary.json]

Without arguments it reads every record in ``perfbench/results/raw/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(records) -> dict:
    groups: dict = {}
    for record in records:
        key = f"{record['workload']} trace={record['trace']}"
        group = groups.setdefault(key, {"runs": 0, "seeds": [], "metrics": {},
                                        "environment": record["environment"]})
        group["runs"] += 1
        group["seeds"].append(record["seed"])
        for name, metric in record["result"]["metrics"].items():
            group["metrics"].setdefault(name, (metric["unit"], []))[1].append(
                metric["value"]
            )
    table = {}
    for key, group in sorted(groups.items()):
        rows = {}
        for name, (unit, values) in group["metrics"].items():
            median = statistics.median(values)
            q1, _q2, q3 = (
                statistics.quantiles(values, n=4) if len(values) > 1
                else (values[0],) * 3
            )
            rows[name] = {
                "unit": unit, "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else None,
                "n": len(values),
            }
        table[key] = {"runs": group["runs"], "seeds": group["seeds"],
                      "environment": group["environment"], "metrics": rows}
    return table


def markdown(table: dict) -> str:
    lines = []
    for key, group in table.items():
        lines += [f"### {key} ({group['runs']} runs)", "",
                  "| metric | unit | median | q1 | q3 | spread |",
                  "|---|---|---|---|---|---|"]
        for name, row in group["metrics"].items():
            spread = "-" if row["spread"] is None else f"{row['spread']:.3f}"
            lines.append(f"| {name} | {row['unit']} | {row['median']:.6g} | "
                         f"{row['q1']:.6g} | {row['q3']:.6g} | {spread} |")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="*", type=Path)
    parser.add_argument("--out", type=Path, default=HERE / "results" / "summary.json")
    args = parser.parse_args(argv)
    paths = args.records or sorted((HERE / "results" / "raw").glob("*.json"))
    if not paths:
        print("error: no raw records to summarize", file=sys.stderr)
        return 2
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    table = summarize(records)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1)
    print(markdown(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
