#!/usr/bin/env python3
"""Compare two sets of perfbench results written by perfbench/run.py.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the <workload>-seed<n>-trace<t>.json records of one
side (for example .bench_build/results copied away after each side's runs).
The comparison is refused when the two sides ran on different hosts: nproc,
CPU model, CPU MHz, compiler and build type must match, because wall and CPU
times recorded on another machine are not comparable. For every workload and
end-to-end metric it prints each side's median and quartiles and whether the
change's median is within the metric's bound of BENCHMARK.json.
"""

import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "cpu_model", "cpu_mhz", "compiler", "build_type")


def load(directory):
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    records = [r for r in records if not r["trace"]]
    if not records:
        sys.exit(f"compare: no untraced results in {directory}")
    hosts = {tuple(r["host"][k] for k in HOST_KEYS) for r in records}
    if len(hosts) != 1:
        sys.exit(f"compare: {directory} mixes results of {len(hosts)} hosts")
    return records, hosts.pop()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, base_host = load(sys.argv[1])
    change, change_host = load(sys.argv[2])
    if base_host != change_host:
        diff = {k: (a, b) for k, a, b in zip(HOST_KEYS, base_host, change_host) if a != b}
        sys.exit(f"compare: refusing to compare results from different hosts: {diff}")
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["result"]["metrics"][name]["value"] for r in base if r["workload"] == workload]
            b = [r["result"]["metrics"][name]["value"] for r in change if r["workload"] == workload]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            # Positive change = worse, as a share of the base median.
            sign = 1 if metric["better"] == "lower" else -1
            delta = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            verdict = "WORSE" if delta > metric["bound"] else "ok"
            worse += verdict == "WORSE"
            print(f"{workload:18} {name:22} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] n={len(a)}"
                  f"  change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b)}"
                  f"  worse by {delta:+.3f} (bound {metric['bound']}) {verdict}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
