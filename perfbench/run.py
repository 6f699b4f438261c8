#!/usr/bin/env python3
"""End-to-end benchmark of paraclasses: cold queries, one at a time.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload counts|orbits|reps --seed N
                           --seconds S --trace 0|1 [--out FILE]

A single client runs a closed loop: each query runs in its own fresh worker
process (perfbench/worker.py), the next one starting when the previous has
ended, with --threads left at its default of 1.  That is what a CLI user
pays on every invocation: every memo and lazily built table in the library
starts cold.  The worker times the import of paraclasses (setup) and the
query's own call, and the call's output is checked against the digest
recorded in perfbench/expected.json (perfbench/record.py writes it).

One round runs every query of the workload's pool once, in an order drawn
from the seed; canonical-form queries also draw their input element from
the seed.  Every pool query runs in every round, so each seed gives the
same mix of sizes and the batch time compares across seeds.  Rounds repeat
while another one fits in --seconds (at least one runs).

Seconds are wall seconds scaled to the nominal machine speed that
perfbench/speedref.py defines: each worker times two fixed reference loops
around its query, and its times are multiplied by how much slower than
nominal the loops ran.  The shared host drifts by up to a third in speed
over spells of tens of seconds, which would otherwise decide the result.
The unscaled times are kept in the --out record.

--trace 0 prints the end-to-end metrics:
  batch_s      median over rounds of the summed call seconds of a round
  query_p50_s  median call seconds over every query run (the sample count
               goes to stderr)
  setup_s      median import seconds over every worker
  peak_rss_mb  largest peak RSS of any worker
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics of perfbench/layertrace.py, per traced round, with the tracing
overhead (traced over untraced batch seconds).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Failures (a wrong exit code, a wrong digest, a failed invariant,
an exception) count in `failed`; fail_frac = failed / attempted goes to
stderr with the environment block.  The exit code is 2, without a result,
when the library source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace  # beside this script, on sys.path[0]
import speedref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"


def _p(m, n, q, *extra):
    return ("classes", "parabolic", "--m", str(m), "--n", str(n), "--q", str(q)) + extra


def _agl(n, q, *extra):
    return ("classes", "agl", "--n", str(n), "--q", str(q)) + extra


def _poly(m, n):
    return ("classes", "count-poly", "--m", str(m), "--n", str(n))


def _orbits(mu, nu, q):
    return ("matprob", "orbits", "--q", str(q), "--mu", mu, "--nu", nu)


# Orbits of the largest size of two shapes that reduce_structured handles,
# as (mu, nu, q, lex-min state, orbit size).  Canonicalising any element of
# one orbit sweeps the whole orbit, so drawing the element from the seed
# varies the input and not the cost.
CANONICAL = [((2, 1, 1), (2, 2, 1), 3, 6597, 93312),
             ((3, 1), (3, 1), 2, 32, 16)]

# Strata of each workload; the costs in comments are cold single queries on
# a 2-core x86-64 machine without numba.  Queries that alone take 2 s or
# more ((3,3,4) --reps, count-poly (1,3), (2,3,13), (2,3,16), (2,2,1)^2 over
# F_3, (4,2)^2 over F_4, ...) are left out, so that a round fits a 30 s run
# at least twice.
POOLS = {
    # Enumeration-bound: Levi pairs, irreducibles, per-eigenvalue reduction.
    "counts": {
        "small": [_p(1, 2, 4), _p(2, 2, 3), _p(3, 3, 2), _p(3, 3, 5), _p(4, 4, 2),
                  _agl(2, 3), _agl(3, 2), _agl(4, 4), _agl(4, 5)],
        "large_prime_q": [_p(2, 3, 11)],                          # 0.8 s
        "prime_power_q": [_p(2, 3, 9), _p(2, 2, 16), _agl(2, 16)],  # 1.6, 1.1, 0.5 s
        "count_poly": [_poly(1, 2), _poly(2, 2)],                 # 0.2 s, 1.8 s
    },
    # Kernel-bound: whole-space sweeps and single-orbit closures.
    "orbits": {
        "large_sweep": [_orbits("1,1,1,1", "2,1,1", 3)],           # 531k states, 3.3 s
        "wild": [_orbits("4,2", "4,2", 2), _orbits("4,2", "4,2", 3)],
        "small": [_orbits("2,1", "2,1", 3), _orbits("3,2,1", "3,2,1", 2),
                  _orbits("5", "5", 2), _orbits("4,1", "3,2", 4),
                  _orbits("1,1,1,1", "1,1,1,1", 2)],
        "canonical": [("canonical", 0), ("canonical", 0), ("canonical", 1)],
    },
    # Many tiny orbit enumerations on the packed-action cache, plus lift,
    # assembly and JSON output of one line per class.
    "reps": {
        "parabolic": [_p(2, 2, 5, "--reps"), _p(4, 3, 2, "--reps"),
                      _p(3, 3, 3, "--reps"), _p(2, 3, 4, "--reps"),
                      _p(4, 4, 2, "--reps"), _p(2, 2, 7, "--reps"),
                      _p(2, 4, 3, "--reps")],
        "agl": [_agl(4, 3, "--reps"), _agl(3, 4, "--reps")],
    },
}

END_TO_END_UNITS = {"batch_s": "s", "query_p50_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
WALK_STEPS = 64
WORKER_TIMEOUT_S = 150.0  # a run must end within 180 s, set-up included


def query_id(q: dict) -> str:
    return " ".join(q["argv"]) if q["kind"] == "cli" else "canonical"


def draw(workload: str, seed: int) -> list[dict]:
    """The workload's queries for one run: every pool query once, in an
    order drawn from the seed, canonical elements walked from the seed."""
    rng = random.Random(seed)
    out = []
    for stratum in POOLS[workload].values():
        for entry in stratum:
            if entry[0] == "canonical":
                mu, nu, q, rep, _ = CANONICAL[entry[1]]
                out.append({"kind": "canonical", "mu": list(mu), "nu": list(nu),
                            "q": q, "rep": rep, "walk": rng.randrange(1 << 30),
                            "steps": WALK_STEPS})
            else:
                out.append({"kind": "cli", "argv": list(entry)})
    rng.shuffle(out)
    return out


def spawn(query: dict, timeout: float = WORKER_TIMEOUT_S) -> dict:
    """Run one query in a fresh worker and return its report."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PARACLASSES_KERNEL", None)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                               json.dumps(query)], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:  # the worker has been killed and reaped
        return {"error": f"worker killed after {timeout:.0f} s"}
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        rep = {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return rep


def failure(query: dict, rep: dict, expected: dict) -> str:
    """Why the query's report is wrong, or empty when it is right."""
    if rep.get("error"):
        return rep["error"]
    if query["kind"] == "canonical":
        return rep.get("check", "no invariant check ran")
    want = expected.get(query_id(query))
    if want is None:
        return "no recorded digest"
    for key in ("rc", "sha256", "lines"):
        if rep.get(key) != want[key]:
            return f"{key} {rep.get(key)!r} != recorded {want[key]!r}"
    return ""


def run_round(queries, expected, trace=False, log=None, deadline=None):
    """Run the queries one after another; return their reports, each with
    a "fail" reason (empty when correct).  A worker still running at the
    deadline (a perf_counter time) is killed and its query fails."""
    reports = []
    for q in queries:
        timeout = WORKER_TIMEOUT_S
        if deadline is not None:
            timeout = max(1.0, deadline - time.perf_counter())
        rep = spawn(dict(q, trace=True) if trace else q, timeout)
        rep["query"] = query_id(q)
        if "ref" in rep:
            rep["speed"] = speedref.speed_factor(rep["ref"])
        rep["fail"] = failure(q, rep, expected)
        if rep["fail"] and log is not None:
            print(f"FAIL {query_id(q)}: {rep['fail']}", file=log)
        reports.append(rep)
    return reports


def count_failed(reports) -> int:
    return sum(1 for r in reports if r["fail"])


def seconds(rep: dict, key: str = "call_s") -> float:
    """rep[key] at the nominal speed of perfbench/speedref.py."""
    return rep.get(key, 0.0) * rep.get("speed", 1.0)


def batch_seconds(reports) -> float:
    return sum(seconds(r) for r in reports)


def end_to_end(rounds) -> dict:
    reports = [r for rnd in rounds for r in rnd]
    return {
        "batch_s": statistics.median(batch_seconds(rnd) for rnd in rounds),
        "query_p50_s": statistics.median(seconds(r) for r in reports if "call_s" in r),
        "setup_s": statistics.median(seconds(r, "setup_s") for r in reports
                                     if "setup_s" in r),
        "peak_rss_mb": max(r.get("rss_mb", 0.0) for r in reports),
    }


def per_layer(traced_rounds, untraced_rounds) -> dict:
    """Per-layer metrics per traced round, from the workers' span totals."""
    n = len(traced_rounds)
    tot: dict = {}
    root_s = 0.0
    for rnd in traced_rounds:
        for rep in rnd:
            tr = rep.get("trace", {"root_s": 0.0, "stats": {}})
            speed = rep.get("speed", 1.0)
            root_s += tr["root_s"] * speed
            for fn, st in tr["stats"].items():
                agg = tot.setdefault(fn, {})
                for k, v in st.items():
                    agg[k] = agg.get(k, 0.0) + (v * speed if k == "self_s" else v)
    return layertrace.layer_metrics(tot, n, root_s,
                                    sum(map(batch_seconds, traced_rounds)),
                                    sum(map(batch_seconds, untraced_rounds)))


def environment(env_report: dict) -> dict:
    commit = ""
    if (ROOT / ".git").exists():  # a plain checkout has no history to read
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30).stdout.strip()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "paraclasses").glob("*.py")))
    return dict(env_report.get("env", {}), nproc=len(os.sched_getaffinity(0)),
                commit=commit or "unknown", src_lines=src_lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(POOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result as one JSON line")
    args = ap.parse_args(argv)

    if not (SRC / "paraclasses" / "__init__.py").is_file():
        print(f"paraclasses source not found under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    # Untimed: compiles the bytecode caches and reports the environment.
    warm = spawn({"kind": "env"})
    if warm.get("error"):
        print(f"paraclasses does not import: {warm['error']}", file=sys.stderr)
        return 2
    env = environment(warm)
    print(f"environment: {json.dumps(env)}", file=sys.stderr)

    queries = draw(args.workload, args.seed)
    rng = random.Random(args.seed)
    untraced, traced = [], []
    t_start = time.perf_counter()
    deadline = t_start + WORKER_TIMEOUT_S
    while True:
        t0 = time.perf_counter()
        order = queries if not untraced else rng.sample(queries, len(queries))
        untraced.append(run_round(order, expected, log=sys.stderr, deadline=deadline))
        if args.trace:
            traced.append(run_round(order, expected, trace=True, log=sys.stderr,
                                    deadline=deadline))
        took = time.perf_counter() - t0
        if time.perf_counter() - t_start + took > args.seconds:
            break

    reports = [r for rnd in untraced + traced for r in rnd]
    attempted = len(reports)
    failed = count_failed(reports)
    if args.trace:
        values = per_layer(traced, untraced)
        units = {k: u for k, (u, _) in layertrace.METRICS.items()}
    else:
        values = end_to_end(untraced)
        units = END_TO_END_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} rounds of "
          f"{len(queries)} queries, {sum(len(r) for r in untraced)} timed calls, "
          f"fail_frac {failed / attempted:.4f}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(dict(result, workload=args.workload, seed=args.seed,
                                    trace=args.trace,
                                    fail_frac=failed / attempted, env=env,
                                    round_batch_s=[batch_seconds(r) for r in untraced],
                                    # unscaled wall seconds, for checking the scaling
                                    per_query=[[(x["query"], x.get("call_s"), x.get("speed"),
                                                 x.get("setup_s"), x.get("rss_mb"))
                                                for x in rnd] for rnd in untraced]))
                    + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
