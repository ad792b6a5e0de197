#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call builds the library and
the benchmark from source (CMake, Release) into `.bench_build/` (or
$CARGO_TARGET_DIR when set); later calls reuse that build. Each workload runs
in its own process. The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: with `--trace 0` every
end-to-end metric of BENCHMARK.json, with `--trace 1` every per-layer metric
(0 for a layer the workload does not exercise; see perfbench/README.md).

`--selftest` runs the benchmark's own tests: unit checks of its statistics
and tracing arithmetic, then a tiny-scale run of every workload, traced and
untraced, through all correctness checks.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["usp-scann-batch", "ivf-served-mmap"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures (once) and builds the benchmark; returns the build tree."""
    if not (ROOT / "src" / "usp.h").is_file():
        raise RuntimeError("library sources not found: run from a source checkout")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    tree = build_dir() / "perfbench"
    cache = tree / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(tree)  # configured from another checkout
    if not cache.is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(tree), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(["cmake", "--build", str(tree), "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return tree


def source_id():
    """The commit when the checkout is a git repository, else a digest of the
    library and benchmark sources (so results still say what they measured)."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run_workload(tree, workload, seed, seconds, trace, scale="full"):
    """Runs one workload process; returns (result dict or None, exit code)."""
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(tree / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
           "--commit", source_id(), "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None, 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    for line in lines[:-1]:
        print(line)
    if not lines:
        return None, proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        return None, proc.returncode or 1
    return result, proc.returncode


def complete(result, trace):
    """Checks the metric set against BENCHMARK.json. Per-layer metrics of a
    layer the workload does not exercise are reported as 0."""
    end_to_end, per_layer = metric_specs()
    metrics = result["metrics"]
    if trace == 0:
        missing = [m["name"] for m in end_to_end if m["name"] not in metrics]
        if missing:
            log(f"missing end-to-end metrics: {missing}")
            result["correct"] = False
        result["metrics"] = {m["name"]: metrics[m["name"]]
                             for m in end_to_end if m["name"] in metrics}
    else:
        result["metrics"] = {
            m["name"]: metrics.get(m["name"], {"value": 0.0, "unit": m["unit"]})
            for m in per_layer}
    return result


def selftest():
    tree = build()
    unit = subprocess.run([str(tree / "perfbench_unit")])
    ok = unit.returncode == 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, code = run_workload(tree, workload, 7, 2, trace, scale="tiny")
            passed = code == 0 and result is not None and result["correct"]
            if passed:
                result = complete(result, trace)
                passed = result["correct"]
            log(f"selftest {workload} trace={trace}: {'ok' if passed else 'FAILED'}")
            ok = ok and passed
    log("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        tree = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2
    result, code = run_workload(tree, args.workload, args.seed, args.seconds,
                                args.trace)
    if result is None:
        return code or 1
    result = complete(result, args.trace)
    print(json.dumps(result), flush=True)
    if code == 0 and not result["correct"]:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
