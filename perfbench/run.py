#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (CMake, from perfbench/CMakeLists.txt and ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls rebuild only what changed. The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}; the line before
it records provenance (source digest, compiler, build type, CPUs, threads).
A full record, and for traced runs a Chrome trace, go to <build dir>/out.
Exit codes: 0 ok, 1 a correctness check failed, 2 build or usage error,
3 the workload was skipped (fewer usable CPUs than its thread count),
4 the output did not match BENCHMARK.json.
"""
import argparse
import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def without_aslr():
    """Run in the child before exec: turn off address-space randomization.

    Layout randomization alone moved stream-dataflow's throughput by an
    IQR/median of 0.21 across runs (0.04 without), so every run gets the
    same layout. Best effort: where personality(2) refuses, runs stay
    randomized.
    """
    addr_no_randomize = 0x0040000
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | addr_no_randomize)


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "simulator sources (src/) not found next to perfbench/")
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log) != 0:
            shutil.rmtree(out, ignore_errors=True)  # retry configure next time
            fail(2, "configure failed")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if run_logged(["cmake", "--build", out, "-j", jobs], log) != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail(2, "build failed (log: %s)" % log)
    return os.path.join(out, "perfbench")


def cache_value(out, key):
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    """sha256 over every file the benchmark builds from (src/, perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unavailable (not a git checkout)"


def provenance(out, binary_detail):
    compiler = cache_value(out, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        p = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        version = p.stdout.splitlines()[0] if p.stdout else ""
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "compiler": version or compiler,
        "build_type": cache_value(out, "CMAKE_BUILD_TYPE"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": binary_detail.get("threads"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {w["name"] for w in bench["workloads"]}
    if args.workload not in names:
        fail(2, "unknown workload %r (have: %s)" % (args.workload, ", ".join(sorted(names))))

    out = build_dir()
    binary = build(out)
    results = os.path.join(out, "out")
    os.makedirs(results, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", results]
    with open(os.path.join(HERE, "expected_digests.json")) as f:
        expected = json.load(f).get(args.workload, {}).get(str(args.seed))
    if expected:
        cmd += ["--expect-digest", expected]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S, preexec_fn=without_aslr)
    except subprocess.TimeoutExpired:
        fail(2, "workload did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode == 3:
        print("\n".join(lines))
        sys.exit(3)
    if p.returncode not in (0, 1) or len(lines) < 2:
        print("\n".join(lines))
        fail(2, "benchmark binary exited with %d" % p.returncode)

    detail = json.loads(lines[0])["perfbench"]
    result = json.loads(lines[-1])
    section = "per_layer" if args.trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != declared:
        print("\n".join(lines[:-1]))
        fail(4, "metrics do not match BENCHMARK.json %s" % section)

    prov = provenance(out, detail)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace == "1", "provenance": prov, "detail": detail,
              "result": result}
    record_path = os.path.join(results, "result-%s-seed%d-trace%s.json"
                               % (args.workload, args.seed, args.trace))
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"provenance": prov}))
    print(lines[-1])
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
