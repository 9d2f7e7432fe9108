#!/usr/bin/env python3
"""Repository benchmark for the mgsec simulator.

Builds a Release copy of the simulator and the measurement program into
build-bench/ at the repository root, runs a workload in its own
process, checks its outputs, prints every metric as `name value unit`
and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

  python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1
  python3 benchmark/run.py [--seed S] [--seconds T]   # every workload
  python3 benchmark/run.py --smoke          # all workloads at 1/20 size
  python3 benchmark/run.py set --out FILE [--runs 10] [--seconds T]
  python3 benchmark/run.py compare PARENT.json CHANGE.json

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. Each invocation also writes its full results
(per-rep samples, digests, environment) to
build-bench/results/<workload>-s<seed>-t<trace>.json.
See benchmark/README.md for the workloads, metrics and bounds.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
BUILD = ROOT / "build-bench"
BENCH_BIN = BUILD / "mgsec_bench"
BENCH_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# The paper's Fig. 21/23 numbers for Ours (Dynamic + batching) on its
# 4-GPU machine; only fig21-p2p4 runs that machine and matrix.
PAPER_REF = {
    "fig21-p2p4": {"sim_overhead_x": 1.079, "traffic_overhead_x": 1.09},
}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------

def build():
    """Configure (once) and build mgsec_bench; False on any failure."""
    BUILD.mkdir(exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "mgsec_bench", "-j", jobs])
    # One build at a time per checkout; later runs find it built.
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(BUILD / "build.log", "w") as out:
            for cmd in steps:
                try:
                    rc = subprocess.run(cmd, stdout=out, stderr=out, env=env,
                                        timeout=BUILD_TIMEOUT_S).returncode
                except (OSError, subprocess.TimeoutExpired) as e:
                    log(f"build step {cmd[:2]} failed: {e}")
                    return False
                if rc != 0:
                    out.flush()
                    tail = (BUILD / "build.log").read_text().splitlines()
                    log("\n".join(tail[-20:]))
                    log(f"build failed (exit {rc}); see {BUILD}/build.log")
                    return False
    return BENCH_BIN.exists()


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------

def git_sha():
    """HEAD of the checkout read from .git directly (no git needed)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def env_stamp():
    model, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, val = line.partition(":")
            if key.strip() == "model name" and model == "unknown":
                model = val.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(val.split())
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpuModel": model,
        "cpuAes": "aes" in flags,
        "cpuPclmul": "pclmulqdq" in flags,
        "loadavgAtStart": list(os.getloadavg()),
        "gitSha": git_sha(),
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def run_bench(workload, seed, seconds, trace, reps=None, smoke=False):
    """Run mgsec_bench once; returns (document or None, exit status)."""
    cmd = [str(BENCH_BIN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if reps is not None:
        cmd += ["--reps", str(reps)]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                           timeout=BENCH_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload}: mgsec_bench exceeded {BENCH_TIMEOUT_S} s")
        return None, 1
    lines = p.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), p.returncode
    except (IndexError, ValueError):
        log(f"{workload}: mgsec_bench printed no result "
            f"(exit {p.returncode})")
        return None, p.returncode or 1


def fmt(v):
    return repr(float(v)) if isinstance(v, (int, float)) else str(v)


def check_metrics(doc, wanted):
    """Names of wanted metrics missing, non-finite or in the wrong unit."""
    got = doc.get("metrics", {})
    bad = []
    for m in wanted:
        g = got.get(m["name"])
        if (g is None or g.get("unit") != m["unit"] or
                not isinstance(g.get("value"), (int, float)) or
                not math.isfinite(g["value"])):
            bad.append(m["name"])
    return bad


def measure(spec, workload, seed, seconds, trace, reps=None, smoke=False,
            quiet=False):
    """Run one workload; print its metrics; return the full results
    document, whose "result" is the contract line (None on no result)."""
    env = env_stamp()
    doc, rc = run_bench(workload, seed, seconds, trace, reps, smoke)
    if doc is None:
        return None
    wanted = spec["per_layer" if trace else "end_to_end"]
    bad = check_metrics(doc, wanted)
    checks = doc["checks"]
    for f in checks["failures"]:
        log(f"{workload}: check failed: {f}")
    for name in bad:
        log(f"{workload}: metric {name} missing, non-finite or mis-unit")
    result = {
        "correct": rc == 0 and checks["failed"] == 0 and not bad,
        "attempted": int(checks["attempted"]),
        "failed": int(checks["failed"]),
        "metrics": {m["name"]: {"value": doc["metrics"][m["name"]]["value"],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] not in bad},
    }
    if not quiet:
        for name, m in doc["metrics"].items():
            print(f"{name} {fmt(m['value'])} {m['unit']}")
        if not trace:
            refs = PAPER_REF.get(workload, {})
            for name in ("sim_overhead_x", "traffic_overhead_x"):
                v = doc["metrics"].get(name, {}).get("value")
                if name in refs and isinstance(v, (int, float)):
                    err = (v / refs[name] - 1.0) * 100.0
                    print(f"# {name} paper {refs[name]} (Ours, 4 GPUs): "
                          f"measured {v:.4f}, error {err:+.1f}%")
                else:
                    print(f"# {name}: no paper reference for this machine")
    doc["runEnv"] = env
    doc["result"] = result
    path = BUILD / "results" / f"{workload}-s{seed}-t{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return doc


# ----------------------------------------------------------------------
# Result sets and comparison
# ----------------------------------------------------------------------

def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], q[1], q[2]


def summarize(spec, runs):
    out = {}
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]] for r in runs
                if m["name"] in r["metrics"]]
        if not vals:
            continue
        q1, med, q3 = quartiles(vals)
        out[m["name"]] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "bound": m["bound"], "n": len(vals),
        }
    return out


def cmd_set(spec, args):
    """Ten seeds per workload (end-to-end) plus one traced run each."""
    names = [w["name"] for w in spec["workloads"]]
    doc = {"schema": "mgsec-benchset-1", "env": env_stamp(),
           "seconds": args.seconds, "workloads": {}}
    bench_env = None
    ok = True
    for w in names:
        runs = []
        for seed in range(1, args.runs + 1):
            t0 = time.monotonic()
            out = measure(spec, w, seed, args.seconds, 0, quiet=True)
            if out is None:
                return 1
            res = out["result"]
            if bench_env is None:
                bench_env = {k: v for k, v in out["env"].items()
                             if k != "pinnedCore"}
                doc["env"].update(bench_env)
            ok &= res["correct"]
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": {k: v["value"] for k, v in
                                     res["metrics"].items()}})
            log(f"{w} seed {seed}: {time.monotonic() - t0:.1f} s "
                f"correct={res['correct']}")
        out = measure(spec, w, 1, args.seconds, 1, quiet=True)
        if out is None:
            return 1
        traced = out["result"]
        ok &= traced["correct"]
        doc["workloads"][w] = {
            "runs": runs,
            "summary": summarize(spec, runs),
            "traced": {"seed": 1, "correct": traced["correct"],
                       "metrics": {k: v["value"] for k, v in
                                   traced["metrics"].items()}},
        }
        for name, s in doc["workloads"][w]["summary"].items():
            flag = "" if name == "setup_s" or \
                s["spread"] <= s["bound"] / 3 else "  <-- spread > bound/3"
            log(f"  {w:20s} {name:20s} median {s['median']:.6g} "
                f"spread {s['spread'] * 100:.2f}% "
                f"(bound {s['bound'] * 100:.1f}%){flag}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


def load_runs(path):
    """{workload: [runs]} from a result set or a single results file."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") == "mgsec-benchset-1":
        return {w: d["runs"] for w, d in doc["workloads"].items()}
    res = doc["result"]
    return {doc["workload"]: [{
        "seed": doc["seed"], "correct": res["correct"],
        "failed": res["failed"],
        "metrics": {k: v["value"] for k, v in res["metrics"].items()}}]}


def verdict(m, parent, change):
    """Apply the bound and the >=9/10-pairs gain rule to one metric."""
    lower = m["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    spread = (q3 - q1) / abs(med_p) if med_p else 0.0
    worse = (med_c - med_p) / abs(med_p) if med_p else 0.0
    if not lower:
        worse = -worse
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    if spread > m["bound"]:
        if all(better(c, p) for c in change for p in parent):
            v = "better"
        else:
            v = "unresolved"
    elif worse > m["bound"]:
        v = "regression"
    elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
          abs(med_c - med_p) > q3 - q1 and worse < 0):
        v = "gain"
    else:
        v = "unchanged"
    return med_p, med_c, worse, wins, len(pairs), spread, v


def cmd_compare(spec, args):
    parent, change = load_runs(args.parent), load_runs(args.change)
    regressions, unresolved = 0, 0
    print(f"{'workload':20s} {'metric':20s} {'parent':>12s} "
          f"{'change':>12s} {'worse':>8s} {'wins':>6s} {'spread':>7s} "
          f"{'bound':>6s} verdict")
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in parent or w not in change:
            continue
        par_runs, chg_runs = parent[w], change[w]
        # Pair runs by seed when both sides ran the same seeds.
        seeds = sorted(r["seed"] for r in par_runs)
        if seeds == sorted(r["seed"] for r in chg_runs):
            par_runs = sorted(par_runs, key=lambda r: r["seed"])
            chg_runs = sorted(chg_runs, key=lambda r: r["seed"])
        fp = sum(r["failed"] for r in par_runs)
        fc = sum(r["failed"] for r in chg_runs)
        if fc > fp:
            print(f"{w:20s} {'failed':20s} {fp:>12d} {fc:>12d} "
                  f"{'':>8s} {'':>6s} {'':>7s} {'':>6s} regression")
            regressions += 1
        for m in spec["end_to_end"]:
            pv = [r["metrics"][m["name"]] for r in par_runs
                  if m["name"] in r["metrics"]]
            cv = [r["metrics"][m["name"]] for r in chg_runs
                  if m["name"] in r["metrics"]]
            if not pv or not cv:
                continue
            med_p, med_c, worse, wins, n, spread, v = verdict(m, pv, cv)
            regressions += v == "regression"
            unresolved += v == "unresolved"
            print(f"{w:20s} {m['name']:20s} {med_p:12.6g} {med_c:12.6g} "
                  f"{worse * 100:+7.2f}% {wins:>3d}/{n:<2d} "
                  f"{spread * 100:6.2f}% {m['bound'] * 100:5.1f}% {v}")
    print(f"{regressions} regression(s), {unresolved} unresolved")
    return 1 if regressions else 0


# ----------------------------------------------------------------------
# Smoke and the all-workloads run
# ----------------------------------------------------------------------

def cmd_smoke(spec):
    t0 = time.monotonic()
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            out = measure(spec, w, 1, 0, trace, reps=2, smoke=True,
                          quiet=True)
            res = out and out["result"]
            want = spec["per_layer" if trace else "end_to_end"]
            good = res is not None and res["correct"] and \
                len(res["metrics"]) == len(want)
            ok &= good
            log(f"smoke {w} trace={trace}: "
                f"{'ok' if good else 'FAILED'}")
    el = time.monotonic() - t0
    log(f"smoke: {'ok' if ok else 'FAILED'} in {el:.1f} s")
    return 0 if ok else 1


def cmd_all(spec, args):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in [x["name"] for x in spec["workloads"]]:
        print(f"## {w}")
        out = measure(spec, w, args.seed, args.seconds, args.trace,
                      args.reps)
        if out is None:
            return 1
        res = out["result"]
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{w}/{k}"] = v
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv):
    spec = load_spec()
    if argv and argv[0] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("parent")
        ap.add_argument("change")
        return cmd_compare(spec, ap.parse_args(argv[1:]))
    if argv and argv[0] == "set":
        ap = argparse.ArgumentParser(prog="run.py set")
        ap.add_argument("--out", required=True)
        ap.add_argument("--runs", type=int, default=10)
        ap.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
        args = ap.parse_args(argv[1:])
        return cmd_set(spec, args) if build() else 1

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, help="minimum untraced reps")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        ap.error(f"unknown workload {args.workload}; one of {names}")
    if not build():
        return 1
    if args.smoke:
        return cmd_smoke(spec)
    if not args.workload:
        return cmd_all(spec, args)
    out = measure(spec, args.workload, args.seed, args.seconds, args.trace,
                  args.reps)
    if out is None:
        return 1
    res = out["result"]
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
