#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Builds perfbench/ (the lfll library from src/ plus the client loop in
perfbench/src/) as an optimized build under .bench_build/, runs one
workload, checks the result, and prints two lines: a report (run
metadata, checks, sample counts and every metric the binary measured)
and, last, the result line
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding exactly the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1) that BENCHMARK.json declares.

--smoke runs every workload briefly in both modes and checks that every
declared metric is printed and every check passes.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from a full checkout")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=850)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    exe = os.path.join(bdir, "perfbench")
    if not os.path.isfile(exe):
        fail("build produced no perfbench binary")
    return exe


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found")
    with open(path) as f:
        return json.load(f)


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the checkout, or None when it is not a git repository (git
    is kept from finding a repository above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10, env=env)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def run_binary(exe, workload, seed, seconds, trace):
    spans = os.path.join(os.path.dirname(exe), f"spans-{workload}-seed{seed}.json")
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--spans", spans]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: run exceeded {RUN_TIMEOUT_S}s")
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail(f"{workload}: perfbench exited with {p.returncode}")
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"{workload}: perfbench printed nothing")
    out = json.loads(lines[-1])
    if trace:
        out["spans_file"] = os.path.relpath(spans, ROOT)
    return out


def declared(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def result_line(bench, out, trace):
    """The benchmark's result: the declared metrics, each checked for
    presence, unit and a finite value."""
    metrics = {}
    for m in declared(bench, trace):
        got = out["metrics"].get(m["name"])
        if got is None:
            fail(f"{out['workload']}: metric {m['name']} missing")
        if got["unit"] != m["unit"]:
            fail(f"{out['workload']}: metric {m['name']} unit {got['unit']} != {m['unit']}")
        if not math.isfinite(got["value"]):
            fail(f"{out['workload']}: metric {m['name']} is not finite")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(out["correct"]), "attempted": int(out["attempted"]),
            "failed": int(out["failed"]), "metrics": metrics}


def meta():
    return {
        "commit": commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "lfll_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("LFLL_")},
    }


def smoke(bench, exe):
    ok = True
    for w in bench["workloads"]:
        for trace in (0, 1):
            out = run_binary(exe, w["name"], 1, 1, trace)
            res = result_line(bench, out, trace)
            names = " ".join(sorted(res["metrics"]))
            status = "ok" if res["correct"] and res["failed"] == 0 else "FAILED"
            if status != "ok":
                ok = False
                print(json.dumps(out["checks"]), file=sys.stderr)
            print(f"{w['name']} trace={trace} {status} attempted={res['attempted']} "
                  f"metrics={len(res['metrics'])}: {names}")
    print("smoke: " + ("all workloads passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    exe = build()
    bench = spec()
    if args.smoke:
        sys.exit(smoke(bench, exe))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")

    out = run_binary(exe, args.workload, args.seed, args.seconds, args.trace)
    why = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)
    report = {k: v for k, v in out.items() if k not in ("correct", "attempted", "failed")}
    report.update(seed=args.seed, seconds=args.seconds, trace=args.trace, why=why, meta=meta())
    print(json.dumps({"report": report}))
    print(json.dumps(result_line(bench, out, args.trace)))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
