#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an sa checkout. Builds perfbench/ (the sa library, the
sa_campaign worker and the perfbench binary) into .bench_build/perfbench,
runs one workload for S seconds of host time, and prints every metric by
name with its unit, the host metadata, and as the last line one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Every result is also written, with its host metadata, to
.bench_build/results/; perfbench/compare.py compares two such sets.

Exits non-zero without printing a result when the checkout cannot be built.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"
WORKLOADS = ("platoon_incidents", "fleet_mesh", "campaign_cells")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally. Logs go to the build tree."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not an sa checkout (no CMakeLists.txt and src/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {step[:2]} failed: {error}")
            if code != 0:
                fail(f"build failed (exit {code}); see {log_path}")
    binary = BUILD / "perfbench"
    worker = BUILD / "sa" / "tools" / "sa_campaign"
    if not binary.is_file() or not worker.is_file():
        fail("build produced no perfbench or sa_campaign binary")
    return binary, worker


def read_cpuinfo():
    model, mhz = "unknown", "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and model == "unknown":
                model = value.strip()
            elif key.strip() == "cpu MHz" and mhz == "unknown":
                mhz = value.strip()
    except OSError:
        pass
    return model, mhz


def compiler():
    for path in sorted(BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        text = path.read_text()
        ident = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        version = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        if ident and version:
            return f"{ident.group(1)} {version.group(1)}"
    return "unknown"


def build_type():
    try:
        text = (BUILD / "CMakeCache.txt").read_text()
    except OSError:
        return "unknown"
    match = re.search(r"^CMAKE_BUILD_TYPE:STRING=(.*)$", text, re.M)
    return match.group(1) if match else "unknown"


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the sources under test: names the code in a checkout
    that is not a git repository."""
    digest = hashlib.sha256()
    files = [p for top in ("CMakeLists.txt", "src", "tools", "perfbench")
             for p in ([ROOT / top] if (ROOT / top).is_file()
                       else sorted((ROOT / top).rglob("*")))
             if p.is_file() and "__pycache__" not in p.parts]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_metadata():
    model, mhz = read_cpuinfo()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_mhz": mhz,
        "compiler": compiler(),
        "build_type": build_type(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    trace = args.trace == "1"

    binary, worker = build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [str(binary), "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--worker", str(worker),
               "--refs", str(HERE / "reference.txt")]
    if trace:
        command += ["--spans", str(RESULTS / f"{stem}.spans.tsv")]
    # The campaign workers inherit stderr and log every injected fault; keep
    # them, and the benchmark's own diagnostics, out of the metric output.
    stderr_path = RESULTS / f"{stem}.stderr.log"
    started = time.time()
    with open(stderr_path, "w") as stderr:
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=stderr,
                                  text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr_path.read_text()[-4000:])
        fail(f"perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    declared = declared_metrics(trace)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        fail("printed metrics differ from BENCHMARK.json: "
             f"{sorted(set(printed) ^ set(declared))}")
    if not result["correct"]:
        sys.stderr.write(stderr_path.read_text()[-4000:])

    host = host_metadata()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": trace, "host": host, "wall_s": time.time() - started,
              "output": lines[:-1], "result": result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in lines[:-1]:
        print(line)
    print("host " + json.dumps(host, sort_keys=True))
    print(lines[-1])


if __name__ == "__main__":
    main()
