#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/test_bench.py [WORKLOAD...]

For each workload (default: all), with one-round runs (--seconds 1), checks
that:
  - a held-out seed, never used while tuning, runs clean in both modes;
  - every count metric repeats exactly across two runs with one seed;
  - a second seed changes facts.input_tuples;
  - the traced pass shows the split the workload was chosen for.
Exits non-zero on the first violation.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED, OTHER_SEED, HELD_OUT_SEED = 7, 8, 424242
COUNTS_TRACED = ["facts.input_tuples", "analysis.tuples_cs",
                 "analysis.tuples_ts", "analysis.derivations_cs",
                 "analysis.derivations_ts", "ctx.domain_size_cs",
                 "ctx.domain_size_ts", "serve.invalidated"]


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: exit "
                 f"{out.returncode}")
    result = json.loads(out.stdout.splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def main():
    for workload in sys.argv[1:] or sorted(run.WORKLOADS):
        for trace in (0, 1):
            result, _ = bench(workload, HELD_OUT_SEED, trace)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload}: held-out seed runs clean (trace {trace})")
        _, first = bench(workload, SEED, 1)
        _, again = bench(workload, SEED, 1)
        for name in COUNTS_TRACED:
            expect(first[name] == again[name],
                   f"{workload}: {name} repeats ({first[name]})")
        _, e2e_first = bench(workload, SEED, 0)
        _, e2e_again = bench(workload, SEED, 0)
        expect(e2e_first["ci_pts_edges"] == e2e_again["ci_pts_edges"],
               f"{workload}: ci_pts_edges repeats "
               f"({e2e_first['ci_pts_edges']})")
        _, other = bench(workload, OTHER_SEED, 1)
        expect(other["facts.input_tuples"] != first["facts.input_tuples"],
               f"{workload}: seed {OTHER_SEED} changes facts.input_tuples")
        SPLITS[workload](first)


def ast_deep_split(m):
    # The solve is the largest span under ts analysis (read, solve, write).
    expect(m["analysis.solve_ts_s"] > max(m["facts.read_s"],
                                          m["analysis.write_ts_s"]),
           "ast-deep: analysis.solve_ts_s is the largest ts-analysis span")


def wide_flat_split(m):
    expect(m["analysis.write_ts_s"] + m["verify.closure_s"] +
           m["verify.support_s"] > m["analysis.solve_ts_s"],
           "wide-flat: analysis.write_ts_s + verify.* exceed "
           "analysis.solve_ts_s")


def serve_txn_split(m):
    expect(m["serve.queries_in_commit"] > 0,
           "serve-txn: some queries overlap commits")


SPLITS = {"ast-deep": ast_deep_split, "wide-flat": wide_flat_split,
          "serve-txn": serve_txn_split}


if __name__ == "__main__":
    main()
