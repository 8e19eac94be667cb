#!/usr/bin/env python3
"""Compare two result sets of the served-pipeline benchmark.

A result set is a text file holding the standard output of several
benchmark runs, appended one after another (see README.md for the
same-host recipe). Runs are paired by workload, trace mode and seed.

    python3 servebench/compare.py PARENT.txt CHANGE.txt

For every workload x metric it prints each side's median and quartiles,
the change/parent ratio, the share of seed-paired runs the change won
(ties count for neither side), and a verdict:

  improved    the change won at least 9 of 10 pairs and the medians differ
              by more than the parent's own quartile spread
  no worse    the change's median is not worse than the parent's by more
              than the metric's bound (end-to-end metrics only)
  worse       the change's median is worse by more than the bound, or (for
              per-layer metrics, which have no bound) it lost at least 9
              of 10 pairs by more than the parent's spread
  unresolved  anything else, including an end-to-end metric whose parent
              spread is wider than its bound, unless every change run reads
              better than every parent run

Runs that report "correct": false are listed and left out.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path):
    """{(workload, trace): {seed: metrics}} from one result file."""
    runs = {}
    host = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("# host: "):
            host = json.loads(line[len("# host: "):])
        elif line.startswith("{") and host is not None:
            result = json.loads(line)
            key = (host["workload"], int(host["trace"]))
            if not result.get("correct"):
                print(f"{path}: {key[0]} seed {host['seed']} was not correct; left out",
                      file=sys.stderr)
            else:
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                runs.setdefault(key, {})[host["seed"]] = metrics
            host = None
    return runs


def catalog(benchmark):
    """metric -> (better, bound or None) from BENCHMARK.json."""
    spec = json.loads(Path(benchmark).read_text())
    table = {}
    for m in spec["end_to_end"]:
        table[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        table[m["name"]] = (m["better"], None)
    return table


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, pairs, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    gain = (med_c - med_p) * sign
    wins = sum(1 for p, c in pairs if (c - p) * sign > 0)
    losses = sum(1 for p, c in pairs if (c - p) * sign < 0)
    n = max(len(pairs), 1)
    if wins / n >= 0.9 and gain > spread:
        return "improved", wins / n
    if bound is None:
        if losses / n >= 0.9 and -gain > spread:
            return "worse", wins / n
        return "unresolved", wins / n
    every_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if med_p and spread / abs(med_p) > bound and not every_better:
        return "unresolved", wins / n
    if med_p and -gain / abs(med_p) <= bound:
        return "no worse", wins / n
    return "worse", wins / n


def main():
    here = Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(here.parent / "BENCHMARK.json"))
    args = ap.parse_args()

    table = catalog(args.benchmark)
    parent, change = load(args.parent), load(args.change)
    header = (f"{'workload':18} {'trace':5} {'metric':38} {'parent median [q1, q3]':34} "
              f"{'change median [q1, q3]':34} {'ratio':>7} {'won':>5}  verdict")
    print(header)
    for key in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        names = [n for n in parent[key][seeds[0]] if n in table]
        for name in names:
            p = [parent[key][s][name] for s in seeds if name in parent[key][s]]
            c = [change[key][s][name] for s in seeds if name in change[key][s]]
            if not p or not c:
                continue
            pairs = list(zip(p, c))
            better, bound = table[name]
            word, won = verdict(p, c, pairs, better, bound)
            mp, mc = statistics.median(p), statistics.median(c)
            (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
            ratio = mc / mp if mp else float("nan")
            print(f"{key[0]:18} {key[1]:<5} {name:38} "
                  f"{f'{mp:.4g} [{p1:.4g}, {p3:.4g}]':34} {f'{mc:.4g} [{c1:.4g}, {c3:.4g}]':34} "
                  f"{ratio:7.3f} {won:5.0%}  {word}")
        print(f"{'':18} {'':5} ({len(seeds)} seed-paired runs)")


if __name__ == "__main__":
    main()
