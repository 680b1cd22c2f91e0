#!/usr/bin/env python3
"""Compares two result sets of the xplain benchmark.

  python3 xbench/compare.py BASE.jsonl NEW.jsonl [--bench BENCHMARK.json]

A result set is a JSONL file written by `xbench/run.py --out` (one line per
run; runs of any number of seeds and workloads). For every workload in both
sets and every end-to-end metric of BENCHMARK.json, it prints each side's
median and quartiles (statistics.quantiles, n=4), the change of the median
as a share of the base median (positive = worse, whichever direction is
better for the metric), and a verdict:

  REGRESSED   the median got worse by more than the metric's bound
  unresolved  not regressed, but one side's quartile spread exceeds the
              bound, so the runs cannot show the metric is unchanged
  ok          within the bound

It also prints each side's error rate per workload (failed ops over
attempted ops, all runs pooled), REGRESSED if the new side's is higher.

Exits 1 if any metric or error rate regressed, else 0. Runs with --trace 1
are ignored (their metrics are per-layer, without bounds). A run whose
correctness gate failed (correct=false) served wrong answers, so its
numbers are no measurement: the comparison refuses it and exits 2.
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load_results(lines):
    """Reads a result set: end-to-end metric values by (workload, metric)
    under "values", and per workload [attempted, failed] ops under "ops".
    Raises ValueError on a run whose correctness gate failed."""
    values = {}
    ops = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        result = record["result"]
        if not result["correct"]:
            raise ValueError(
                "%s seed %s (trace %s) failed its correctness gate" % (
                    record["workload"], record["seed"],
                    record.get("trace", 0)))
        if record.get("trace", 0):
            continue
        counts = ops.setdefault(record["workload"], [0, 0])
        counts[0] += result["attempted"]
        counts[1] += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault((record["workload"], name), []).append(
                float(metric["value"]))
    return {"values": values, "ops": ops}


def summarize(values):
    """(q1, median, q3) of a list of run values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = summarize(values)
    return (q3 - q1) / median if median else float("inf")


def compare(base, new, end_to_end):
    """One row per (workload, metric) present in both sets."""
    rows = []
    base, new = base["values"], new["values"]
    workloads = sorted({w for w, _ in base} & {w for w, _ in new})
    for workload in workloads:
        for metric in end_to_end:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            b = summarize(base[key])
            n = summarize(new[key])
            change = (n[1] - b[1]) / b[1] if b[1] else 0.0
            if metric["better"] == "higher":
                change = -change
            bound = metric["bound"]
            if change > bound:
                verdict = "REGRESSED"
            elif max(spread(base[key]), spread(new[key])) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": metric["name"],
                         "unit": metric["unit"], "base": b, "new": n,
                         "runs": (len(base[key]), len(new[key])),
                         "change": change, "bound": bound,
                         "verdict": verdict})
    return rows


def compare_errors(base, new):
    """One row per workload in both sets: each side's pooled error rate."""
    rows = []
    for workload in sorted(set(base["ops"]) & set(new["ops"])):
        rates = []
        for attempted, failed in (base["ops"][workload],
                                  new["ops"][workload]):
            rates.append(failed / attempted if attempted else 0.0)
        rows.append({"workload": workload, "base": rates[0],
                     "new": rates[1],
                     "verdict": "REGRESSED" if rates[1] > rates[0] else "ok"})
    return rows


def format_rows(rows):
    out = ["%-15s %-14s %-5s %-32s %-32s %8s %6s  %s" % (
        "workload", "metric", "unit", "base q1/median/q3", "new q1/median/q3",
        "worse", "bound", "verdict")]
    for row in rows:
        out.append("%-15s %-14s %-5s %-32s %-32s %+7.1f%% %5.0f%%  %s" % (
            row["workload"], row["metric"], row["unit"],
            "/".join("%.4g" % v for v in row["base"]) +
            " (n=%d)" % row["runs"][0],
            "/".join("%.4g" % v for v in row["new"]) +
            " (n=%d)" % row["runs"][1],
            100 * row["change"], 100 * row["bound"], row["verdict"]))
    return "\n".join(out)


def format_errors(rows):
    out = ["%-15s %-14s %-12s %-12s  %s" % (
        "workload", "metric", "base", "new", "verdict")]
    for row in rows:
        out.append("%-15s %-14s %-12.6g %-12.6g  %s" % (
            row["workload"], "error_rate", row["base"], row["new"],
            row["verdict"]))
    return "\n".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bench", default=DEFAULT_BENCH)
    args = parser.parse_args()
    with open(args.bench) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    sets = []
    for path in (args.base, args.new):
        with open(path) as handle:
            try:
                sets.append(load_results(handle))
            except ValueError as error:
                print("%s: %s; remove that run to compare" % (path, error),
                      file=sys.stderr)
                return 2
    rows = compare(sets[0], sets[1], end_to_end)
    if not rows:
        print("no workload and metric in common", file=sys.stderr)
        return 2
    errors = compare_errors(sets[0], sets[1])
    print(format_rows(rows))
    print()
    print(format_errors(errors))
    regressed = [r for r in rows + errors if r["verdict"] == "REGRESSED"]
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
