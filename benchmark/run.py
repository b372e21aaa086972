#!/usr/bin/env python3
"""varanbench runner: build if stale, run workloads, check, report.

    python3 benchmark/run.py --seed N [--workload W] [--seconds S]
                             [--trace 0|1] [--trace-file PATH]
    python3 benchmark/run.py --selftest

Every metric is printed as `workload metric value unit`. The last line
of standard output is one JSON object per the contract in BENCHMARK.json:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Each result record, with a host block, is also appended to
benchmark/out/results.jsonl for compare.py. The exit status is non-zero
when any correctness check failed, and no result is printed when the
run could not be measured at all. Standard library only.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = BENCH / "build"
OUT = BENCH / "out"
BINARY = BUILD / "varanbench"
SPEC_PATH = ROOT / "BENCHMARK.json"

# Layers a workload does not exercise report 0 for their metrics.
NOT_EXERCISED = {
    "kv_mixed": ("syscalls.", "wire."),
    "cache_mt": ("syscalls.", "wire."),
    "syscall_storm": ("wire.",),
    "wire_stream": ("syscalls.", "core."),
}

# The run's own deadline: the driver binary gives up first (its alarm
# is 2 * seconds + 90), this is the backstop that kills what is left.
def run_deadline(seconds):
    return 2 * seconds + 110


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


# --- build ---------------------------------------------------------------

def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "src" / "core" / "nvx.h").exists():
        log("varanbench: library sources not found next to benchmark/")
        return False
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    return subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=sys.stderr).returncode == 0


# --- host block ------------------------------------------------------------

def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def compiler():
    for path in sorted(BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        fields = {}
        for line in path.read_text().splitlines():
            for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                if line.startswith(f"set({key} "):
                    fields[key] = line.split('"')[1]
        if fields:
            return " ".join(fields.get(k, "?") for k in
                            ("CMAKE_CXX_COMPILER_ID",
                             "CMAKE_CXX_COMPILER_VERSION"))
    return "unknown"


def source_digest():
    """Identifies the measured code where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


_HOST = None


def host(seed):
    global _HOST
    if _HOST is None:
        _HOST = {
            "cpus": os.cpu_count(),
            "compiler": compiler(),
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "kernel": platform.release(),
            "git_sha": git_sha(),
            "src_digest": source_digest(),
        }
    return dict(_HOST, seed=seed)


# --- one run ---------------------------------------------------------------

def session_pids(sid):
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 3 and int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


def kill_session(sid):
    """Kill and wait out every process left in the run's session (engine
    variants run in process groups of their own, so a group kill would
    miss them)."""
    deadline = time.monotonic() + 10
    while True:
        pids = session_pids(sid)
        if not pids or time.monotonic() > deadline:
            return not pids
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        time.sleep(0.05)


def run_binary(workload, seed, seconds, traced, trace_file=None, fault=None):
    """Run the driver once; returns (exit code, stdout lines, elapsed s),
    exit code None when the backstop deadline killed it."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if traced:
        cmd.append("--traced")
        if trace_file:
            cmd += ["--trace-file", str(trace_file)]
    if fault:
        cmd += ["--fault", fault]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=run_deadline(seconds))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        kill_session(proc.pid)
        out, _ = proc.communicate()
        code = None
    kill_session(proc.pid)
    return code, out.splitlines(), time.monotonic() - t0


def parse(lines):
    metrics, checks = {}, {}
    attempted = failed = 0
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "metric" and len(parts) == 4:
            metrics[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
        elif parts[0] == "check" and len(parts) >= 3:
            # A check may repeat (once per engine); all must pass.
            checks[parts[1]] = checks.get(parts[1], True) and \
                parts[2] == "ok"
        elif parts[0] == "attempted":
            attempted = int(parts[1])
        elif parts[0] == "failed":
            failed = int(parts[1])
    return metrics, checks, attempted, failed


def measure(spec, workload, seed, seconds, traced, trace_file=None):
    """One run -> a result record, or None when nothing was measured."""
    code, lines, elapsed = run_binary(workload, seed, seconds, traced,
                                      trace_file)
    metrics, checks, attempted, failed = parse(lines)
    if code is None:
        log(f"varanbench: {workload} seed {seed} exceeded its deadline")
        return None
    correct = code == 0 and failed == 0 and all(checks.values())
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    if correct:
        for m in wanted:
            if m["name"] not in metrics and \
                    m["name"].startswith(NOT_EXERCISED[workload]):
                metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        wrong_unit = [m["name"] for m in wanted if m["name"] in metrics
                      and metrics[m["name"]]["unit"] != m["unit"]]
        if missing or wrong_unit:
            log(f"varanbench: {workload}: missing {missing}, "
                f"wrong unit {wrong_unit}")
            return None
    if attempted < 1:
        return None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "elapsed_s": round(elapsed, 3),
        "checks": checks,
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted
                    if m["name"] in metrics},
        "host": host(seed),
    }


def print_record(record, spec):
    w = record["workload"]
    for name, m in record["metrics"].items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    for name, ok in record["checks"].items():
        if not ok:
            print(f"{w} check {name} FAILED")
    if record["trace"]:
        print_layer_table(record, spec)


def print_layer_table(record, spec):
    """The per-layer table, grouped by layer (the name's prefix)."""
    by_layer = {}
    for m in spec["per_layer"]:
        layer = m["name"].split(".")[0] if "." in m["name"] else "trace"
        by_layer.setdefault(layer, []).append(m["name"])
    print(f"\nper-layer: {record['workload']} (seed {record['seed']})")
    for layer, names in by_layer.items():
        for name in names:
            m = record["metrics"].get(name)
            if m is not None:
                print(f"  {layer:9s} {name:42s} {m['value']:>14.6g} "
                      f"{m['unit']}")


def append_result(record):
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")


# --- self-test -------------------------------------------------------------

def selftest():
    """A stopped leader must end at the phase deadline as a failed run,
    and a wrong reply model must be caught."""
    seconds = 4
    code, lines, elapsed = run_binary("kv_mixed", 1, seconds, False,
                                      fault="stop-leader")
    _, _, _, failed = parse(lines)
    stopped = code not in (0, None) and failed > 0 and \
        elapsed < run_deadline(seconds)
    print(f"selftest stop-leader: {'PASS' if stopped else 'FAIL'} "
          f"(exit {code}, {failed} failed ops, {elapsed:.1f} s)")

    code, lines, elapsed = run_binary("kv_mixed", 1, 2, False,
                                      fault="bad-model")
    _, checks, _, failed = parse(lines)
    caught = code not in (0, None) and failed > 0 and \
        checks.get("replies_correct") is False
    print(f"selftest bad-model: {'PASS' if caught else 'FAIL'} "
          f"(exit {code}, {failed} failed ops, {elapsed:.1f} s)")
    return stopped and caught


# --- main ------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file",
                    help="Chrome trace output of a --trace 1 run "
                         "(default benchmark/out/trace_<workload>_<seed>"
                         ".json)")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"varanbench: cannot read {SPEC_PATH}: {e}")
        return 2
    if not build():
        log("varanbench: build failed")
        return 2
    if args.selftest:
        return 0 if selftest() else 1

    names = [w["name"] for w in spec["workloads"]]
    workloads = [args.workload] if args.workload else names
    if any(w not in names for w in workloads):
        log(f"varanbench: unknown workload; choose from {names}")
        return 2
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    for workload in workloads:
        trace_file = None
        if args.trace:
            OUT.mkdir(exist_ok=True)
            trace_file = Path(args.trace_file) if args.trace_file else \
                OUT / f"trace_{workload}_{args.seed}.json"
        record = measure(spec, workload, args.seed, seconds,
                         bool(args.trace), trace_file)
        if record is None:
            return 2
        append_result(record)
        print_record(record, spec)
        print(json.dumps({k: record[k] for k in
                          ("correct", "attempted", "failed", "metrics")}),
              flush=True)
        if not record["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
