"""Write a benchmark record, BENCH_<tag>.json, at the repository root.

    python3 tools/bench_record.py <tag>

Runs the benchmark (perfbench/run.py, unchanged, through bench_pairs.bench)
on every workload that BENCHMARK.json declares, once with --trace 0 for the
end-to-end metrics and once with --trace 1 for the per-layer metrics, for
BENCHMARK.json's run_seconds each. Every run uses seed 901, so that records compare with each
other. The record also holds the machine (platform, Python version, CPU
count), `git describe`, the behaviour fingerprint printed by
tools/log_hashes.py, the line count of each module under src/, their
total and the sha256 of those modules, and the wall time and passed/failed
counts of one run of the tier-1 tests (`python -m pytest -q
--continue-on-collection-errors` with src/ on PYTHONPATH). Exits nonzero, without writing the record, if a
benchmark run crashes (with its exit code and stderr), is not correct or
reports a failed operation, or if a test fails.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from bench_pairs import bench

ROOT = Path(__file__).resolve().parent.parent
SEED = 901
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def tier1() -> dict:
    """Runs the tier-1 tests once; their wall time and passed/failed counts."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    wall_s = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|errors?)\b", summary)}
    passed = counts.pop("passed", 0)
    failed = sum(counts.values())                   # failed, error or errors
    if proc.returncode != 0 or failed or not passed:
        sys.exit(f"tier-1 tests exited {proc.returncode}: {summary}\n{proc.stderr}")
    print(f"tier-1: {passed} passed in {wall_s:.1f} s", flush=True)
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1),
            "wall_s": round(wall_s, 2), "passed": passed, "failed": failed}


def git_describe() -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def log_hashes() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "tools/log_hashes.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, check=True)
    return dict(line.rsplit(" ", 1) for line in proc.stdout.splitlines())


def src_lines() -> dict:
    """Line count of each module under src/, their total, and a sha256 that
    names the source measured: the sha256 of what `sha256sum` prints for the
    modules, their paths relative to src/ in sorted order."""
    src = ROOT / "src"
    data = {path.relative_to(src).as_posix(): path.read_bytes()
            for path in src.rglob("*.py")}
    modules, listing = {}, ""
    for name in sorted(data):
        modules[name] = len(data[name].decode().splitlines())
        listing += f"{hashlib.sha256(data[name]).hexdigest()}  {name}\n"
    return {"modules": modules, "total": sum(modules.values()),
            "sha256": hashlib.sha256(listing.encode()).hexdigest()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("tag", help="names the output file, BENCH_<tag>.json")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    tests = tier1()
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        runs = {trace: bench(ROOT, name, SEED, seconds, trace) for trace in (0, 1)}
        for trace, res in runs.items():
            if not res["correct"] or res["failed"]:
                sys.exit(f"{name} --trace {trace}: correct={res['correct']} "
                         f"failed={res['failed']}")
        workloads[name] = {
            "attempted": runs[0]["attempted"], "failed": runs[0]["failed"],
            "end_to_end": runs[0]["metrics"], "per_layer": runs[1]["metrics"],
        }
        print(f"{name}: " + ", ".join(f"{k} {v['value']:.4g}"
                                      for k, v in runs[0]["metrics"].items()),
              flush=True)

    record = {
        "tag": args.tag,
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} "
                   f"--seconds {seconds} --trace {{0,1}}",
        "seed": SEED,
        "seconds": seconds,
        "git_describe": git_describe(),
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(),
                    "cpu_count": os.cpu_count()},
        "log_hashes": log_hashes(),
        "src_lines": src_lines(),
        "tier1": tests,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
