#!/usr/bin/env python3
"""End-to-end benchmark runner for rustudy.

Builds the benchmark (e2ebench/e2e.exe) and the rustudy CLI from source
with dune, then runs each workload in its own process so no two
workloads share a heap.

  python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1
      one run; the last line of stdout is its JSON result
  python3 e2ebench/run.py [--seed N] [--trace 0|1]
      every workload; writes .e2ebench/results.json with run metadata
  python3 e2ebench/run.py --sets 2 --runs 10
      repeatability: whole sets of runs over seeds N..N+runs-1, the
      workload order alternating run to run; prints each end-to-end
      metric's median, quartiles and spread against its bound
  python3 e2ebench/run.py --smoke
      every workload for about a second on small inputs, with all
      correctness checks

Run it from anywhere; it works in the repository root. It reads and
writes only inside the repository: the build goes to _build (or to
$CARGO_TARGET_DIR when set), outputs to .e2ebench/.
"""

import argparse
import datetime
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = ".e2ebench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or "_build"


def exe(path):
    return os.path.join(build_dir(), "default", path)


def build():
    """Build the benchmark, the CLI it serves from, and tracecat."""
    for need in ("dune-project", "lib", "bin/rustudy_cli.ml", "tools/tracecat"):
        if not os.path.exists(need):
            die("missing %s: run this from a rustudy source checkout" % need)
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    if not dune and not shutil.which("opam"):
        die("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["e2ebench/e2e.exe", "bin/rustudy_cli.exe", "tools/tracecat/tracecat.exe"]
    p = subprocess.run(
        cmd + ["build", "--root", ".", "--build-dir", build_dir()] + targets,
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if p.returncode != 0:
        die("build failed", 1)


def run_child(workload, seed, seconds, trace, smoke=False):
    """Run one workload in a fresh process; return (result, other stdout lines).
    The child starts a daemon for serve-check, so it gets its own session
    and the whole group is killed if it overstays."""
    args = [
        exe("e2ebench/e2e.exe"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--cli", exe("bin/rustudy_cli.exe"),
        "--spec", "BENCHMARK.json",
        "--out", OUT,
    ] + (["--smoke"] if smoke else [])
    p = subprocess.Popen(args, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        die("%s: no result within %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(out, end="")
        die("%s: exited %d without a result" % (workload, p.returncode), 1)
    if trace:
        v = subprocess.run(
            [exe("tools/tracecat/tracecat.exe"), "validate", os.path.join(OUT, workload + ".trace.json")],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        lines.insert(-1, "%s check %s: tracecat validate (%s)"
                     % (workload, "PASS" if v.returncode == 0 else "FAIL", v.stdout.strip()))
        if v.returncode != 0:
            result["correct"] = False
    return result, lines[:-1]


def one(workload, seed, seconds, trace, smoke=False, quiet=False):
    result, lines = run_child(workload, seed, seconds, trace, smoke)
    if not quiet:
        for l in lines:
            print(l)
    return result


def meta(seed):
    def cmd_out(cmd):
        try:
            return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True).stdout.strip() or "unknown"
        except OSError:
            return "unknown"
    return {
        "commit": cmd_out(["git", "rev-parse", "HEAD"]),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "cores": os.cpu_count(),
        "ocaml": cmd_out(["ocamlopt", "-version"]),
        "seed": seed,
    }


def all_workloads(spec, seed, seconds, trace, smoke):
    runs = []
    for w in spec["workloads"]:
        r = one(w["name"], seed, seconds, trace, smoke)
        with open(os.path.join(OUT, "%s.trace%d.json" % (w["name"], trace))) as f:
            runs.append(json.load(f))
        print("%s result %s" % (w["name"], json.dumps(r)))
        print()
    res = {"meta": meta(seed), "runs": runs}
    with open(os.path.join(OUT, "results.json"), "w") as f:
        json.dump(res, f, indent=1)
    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    print("all workloads: %s; results in %s" % ("correct" if ok else "FAILED", os.path.join(OUT, "results.json")))
    return 0 if ok else 1


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def sets(spec, n_sets, runs, seed, seconds):
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    # data[set][workload][metric] = values
    data = []
    ok = True
    for s in range(n_sets):
        d = {w: {m["name"]: [] for m in metrics} for w in names}
        for i in range(runs):
            order = names if (s + i) % 2 == 0 else names[::-1]
            for w in order:
                r = one(w, seed + i, seconds, 0, quiet=True)
                ok = ok and r["correct"] and r["failed"] == 0
                print("set %d run %d %s correct=%s attempted=%d failed=%d"
                      % (s + 1, i + 1, w, r["correct"], r["attempted"], r["failed"]), flush=True)
                for m in metrics:
                    d[w][m["name"]].append(r["metrics"][m["name"]]["value"])
        data.append(d)
    print()
    print("%-14s %-12s %5s %12s %12s %12s %7s %7s %s"
          % ("workload", "metric", "set", "q1", "median", "q3", "spread", "bound", "drift"))
    for w in names:
        for m in metrics:
            first = None
            for s, d in enumerate(data):
                q1, med, q3, sp = spread(d[w][m["name"]])
                drift = ""
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    drift = "%+.3f" % worse
                    if worse > m["bound"]:
                        ok = False
                        drift += " OVER"
                flag = "" if m["name"] == "setup_s" or sp <= m["bound"] / 3 else " WIDE"
                print("%-14s %-12s %5d %12.6g %12.6g %12.6g %7.3f %7.3f %s%s"
                      % (w, m["name"], s + 1, q1, med, q3, sp, m["bound"], drift, flag))
    with open(os.path.join(OUT, "sets.json"), "w") as f:
        json.dump({"meta": meta(seed), "sets": data}, f, indent=1)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--sets", type=int, default=0)
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()
    os.chdir(ROOT)
    if not os.path.exists("BENCHMARK.json"):
        die("BENCHMARK.json not found in %s" % ROOT)
    spec = load_spec()
    build()
    os.makedirs(OUT, exist_ok=True)
    seconds = 1 if a.smoke else (a.seconds or spec["run_seconds"])
    if a.workload:
        if a.workload not in [w["name"] for w in spec["workloads"]]:
            die("unknown workload " + a.workload)
        r = one(a.workload, a.seed, seconds, a.trace, a.smoke)
        print(json.dumps(r), flush=True)
        return 0 if r["correct"] else 1
    if a.sets:
        return sets(spec, a.sets, a.runs, a.seed, seconds)
    return all_workloads(spec, a.seed, seconds, a.trace, a.smoke)


if __name__ == "__main__":
    sys.exit(main())
