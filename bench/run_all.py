#!/usr/bin/env python3
"""Run every Google Benchmark binary in a directory and gate its counters.

Each binary runs once with --benchmark_format=json. A row is one benchmark
of one binary, keyed by (binary, name). Its counters are every JSON field
that is not one of Google Benchmark's own (GB_FIELDS: times, iterations,
rates, ...). Counters are simulated-time results, work counts and
allocation counts; they do not depend on the host, the build type or the
iteration count, so they are compared exactly. Wall time is never compared
here: it only means something against a same-host A/B run (perfbench).

  --out REPORT          write the full merged report, times included
  --diff BASELINE       compare every counter of every row with BASELINE;
                        exit 2 on a changed value or a missing or new row or
                        counter, printing binary, row, counter, old and new
  --update-baseline B   rewrite B from this run: rows sorted, counters only

If any binary fails (non-zero exit, timeout, bad JSON, a row that reports
an error) the script exits 1 and writes nothing.

Google Benchmark 1.7.x takes --benchmark_min_time as a plain double in
seconds; suffixed forms like "0.01s" are rejected.
"""

import argparse
import json
import os
import stat
import subprocess
import sys

MIN_TIME = "0.01"  # seconds, plain double — see module docstring

GB_FIELDS = frozenset({
    "name", "run_name", "run_type", "family_index", "per_family_instance_index",
    "repetitions", "repetition_index", "threads", "iterations", "real_time",
    "cpu_time", "time_unit", "items_per_second", "bytes_per_second", "label",
    "aggregate_name", "aggregate_unit", "error_occurred", "error_message",
})


def is_benchmark_binary(path):
    if not os.path.isfile(path) or not os.stat(path).st_mode & stat.S_IXUSR:
        return False
    # Skip build-system droppings like CMake scripts.
    return not path.endswith((".py", ".sh", ".cmake", ".txt", ".json"))


def run_one(path):
    """One binary's JSON report, or None (reason on stderr) if it failed."""
    cmd = [path, "--benchmark_format=json", f"--benchmark_min_time={MIN_TIME}"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1800)
    except subprocess.TimeoutExpired:
        print(f"TIMEOUT (1800s): {' '.join(cmd)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"FAILED: {' '.join(cmd)}\n{proc.stderr}", file=sys.stderr)
        return None
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        print(f"BAD JSON from {' '.join(cmd)}: {err}", file=sys.stderr)
        return None
    errors = [e for e in report.get("benchmarks", []) if e.get("error_occurred")]
    for entry in errors:
        print(f"ERROR in {path}: {entry['name']}: {entry.get('error_message')}",
              file=sys.stderr)
    return None if errors else report


def counter_rows(entries):
    """{(binary, name): {counter: value}} of the merged report's entries."""
    return {(e["binary"], e["name"]):
            {k: v for k, v in e.items() if k not in GB_FIELDS and k != "binary"}
            for e in entries}


def load_baseline(path):
    with open(path) as fh:
        return {(row["binary"], row["name"]): row["counters"]
                for row in json.load(fh)["benchmarks"]}


def write_json(path, doc):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def diff(base, rows):
    """Lines naming every difference between the baseline and this run."""
    out = []
    for key in sorted(base.keys() | rows.keys()):
        row = "{}:{}".format(*key)
        if key not in rows:
            out.append(f"missing row {row}")
        elif key not in base:
            out.append(f"new row {row}")
        else:
            old, new = base[key], rows[key]
            for name in sorted(old.keys() | new.keys()):
                if name not in new:
                    out.append(f"missing counter {row} {name} (was {old[name]!r})")
                elif name not in old:
                    out.append(f"new counter {row} {name} = {new[name]!r}")
                elif old[name] != new[name]:
                    out.append(f"changed {row} {name}: "
                               f"{old[name]!r} -> {new[name]!r}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin-dir", required=True,
                        help="directory holding the benchmark binaries")
    parser.add_argument("--out", help="write the full merged report here")
    parser.add_argument("--diff", metavar="BASELINE",
                        help="compare every counter exactly against BASELINE")
    parser.add_argument("--update-baseline", metavar="BASELINE",
                        help="rewrite BASELINE from this run's counters")
    args = parser.parse_args()

    if not os.path.isdir(args.bin_dir):
        print(f"--bin-dir {args.bin_dir} is not a directory", file=sys.stderr)
        return 1
    if args.diff and not os.path.isfile(args.diff):
        print(f"--diff baseline {args.diff} not found", file=sys.stderr)
        return 1
    binaries = sorted(
        os.path.join(args.bin_dir, name) for name in os.listdir(args.bin_dir)
        if is_benchmark_binary(os.path.join(args.bin_dir, name)))
    if not binaries:
        print(f"no benchmark binaries found in {args.bin_dir}", file=sys.stderr)
        return 1

    merged = {"context": None, "benchmarks": []}
    failed = []
    for path in binaries:
        name = os.path.basename(path)
        print(f"running {name} ...", flush=True)
        report = run_one(path)
        if report is None:
            failed.append(name)
            continue
        merged["context"] = merged["context"] or report.get("context")
        for entry in report.get("benchmarks", []):
            merged["benchmarks"].append(dict(entry, binary=name))
    if failed:
        # Never clobber a committed baseline with a partial run.
        print(f"{len(failed)}/{len(binaries)} binaries failed "
              f"({', '.join(failed)}) — writing nothing", file=sys.stderr)
        return 1
    rows = counter_rows(merged["benchmarks"])
    print(f"{len(rows)} rows, {sum(map(len, rows.values()))} counters "
          f"from {len(binaries)} binaries")

    differences = diff(load_baseline(args.diff), rows) if args.diff else []
    if args.out:
        write_json(args.out, merged)
    if args.update_baseline:
        write_json(args.update_baseline, {"benchmarks": [
            {"binary": binary, "name": name, "counters": rows[(binary, name)]}
            for binary, name in sorted(rows)]})
        print(f"wrote {args.update_baseline}")
    if differences:
        print("\n".join(differences))
        print(f"bench gate FAILED: {len(differences)} difference(s) against "
              f"{args.diff}", file=sys.stderr)
        return 2
    if args.diff:
        print(f"bench gate passed: every counter equals {args.diff}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
