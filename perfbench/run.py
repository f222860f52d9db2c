#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ast-deep --seed 1 --seconds 35 \
        --trace 0

It builds the three CLIs under test (ctp-analyze, ctp-verify, ctp-serve) and
the helper perfbench/ctp-perfbench.cpp from source into $CARGO_TARGET_DIR
(default .bench_build), generates the workload's facts directory from the
seed, and measures for --seconds seconds. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics from the real CLIs, run as child
processes, in rounds. A round is one ctp-serve daemon life: launch it; run
ctp-analyze cs and ts (their CI outputs must be byte-identical) and
ctp-verify closure+support beside the idle daemon, as often as the
workload's batch_reps says; take one setup sample;
then run a serve slice on the daemon: a closed-loop query connection beside
a transaction connection that commits `rm assign` and `add assign` deltas
on a fixed schedule. The last commit removes the only definition of some
variable, after which the daemon's answers for a probe set, which holds
every variable that removal changed, must equal a cold ctp-analyze of the
benchmark's own edited copy of the facts; then the daemon shuts down.
Between the programs, and between commits, the run times a calibration
kernel. A timed metric is the median of the run's samples, or for query
latencies a percentile over every query of the run, scaled by the median of
the run's calibration times (see scaled()).

--trace 1 runs one CLI round and then the in-process pass of ctp-perfbench
for --seconds, and reports the per-layer metrics, unscaled.

BENCHMARK.json names the metrics and records why each workload exists and
its size; MOVES below records which end-to-end metric each per-layer metric
should move.
"""

import argparse
import array
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

# Workload table. The facts are the named shape's preset program with its
# driver count multiplied by `drivers`; the seed perturbs it without
# changing its cost (see perturb() in ctp-perfbench.cpp). Each round is one
# daemon life holding `batch_reps` cs/ts/verify CLI triples and then
# `pairs` rm/add commit pairs and a final removal, one commit every
# `period_ms`. The periods are assumptions, not measured commit rates: each
# is about the workload's slowest commit (a removal), so a run holds many
# commit samples while queries still see idle gaps after the faster
# additions. The query mix is fixed in ctp-perfbench.cpp, where its
# assumptions are written down.
#
# `batch` says which programs the workload is about. On a batch workload
# setup_s is the mean of `load_reps` reads of the facts directory, the cost
# every CLI pays before solving, and peak_rss_mb is the largest of the
# CLIs'. On the serve workload setup_s is the daemon's launch to its first
# answered ping (load, solve, client indexes, snapshot) and peak_rss_mb is
# the daemon's. The other programs run on every workload only because
# every run reports every metric; the daemon's peak, which moves by 20%
# with the timing of its threads, would hide the CLIs'.
#
# The sizes and round shapes keep a round between 3.5 and 8 s on a 4-core
# VM, so a 35 s run holds four to nine rounds and at least four samples of
# every timed metric; bloat x2 (about 12 s a round) or chart x8 (10 s)
# would give two.
WORKLOADS = {
    "ast-deep": dict(shape="bloat", drivers=1, pairs=1, period_ms=1000,
                     batch=True, batch_reps=1, load_reps=100),
    "wide-flat": dict(shape="chart", drivers=4, pairs=2, period_ms=600,
                      batch=True, batch_reps=2, load_reps=40),
    "serve-txn": dict(shape="xalan", drivers=4, pairs=3, period_ms=300,
                      batch=False, batch_reps=1, load_reps=20),
}
CONFIG = "2-object+H"
# The timed metrics are in seconds of a host on which the calibration kernel
# (calibrationKernel() in ctp-perfbench.cpp) takes CAL_REF_S, about its
# time on a 4-core VM.
CAL_REF_S = 0.04
COOL_DOWN_S = 90  # idle time after a cold build; see build()
PROBES = 48  # variables sampled for the post-commit check, beside the
             # variables the last commit changed
TARGETS = ["ctp-analyze", "ctp-verify", "ctp-serve", "ctp-perfbench"]

# The end-to-end metric, and the workload, each per-layer metric should
# move. Later performance issues cite these pairs, e.g.
# "analysis.ns_per_derivation_ts -> analyze_ts_s on ast-deep". Names and
# units are in BENCHMARK.json.
MOVES = {
    "facts.read_s": "setup_s, all workloads; most on wide-flat",
    "facts.input_tuples": "setup_s, all workloads",
    "analysis.solve_cs_s": "analyze_cs_s on ast-deep",
    "analysis.solve_ts_s": "analyze_ts_s on ast-deep",
    "analysis.derivations_cs": "analyze_cs_s on ast-deep",
    "analysis.derivations_ts": "analyze_ts_s on ast-deep",
    "analysis.tuples_cs": "analyze_cs_s on ast-deep",
    "analysis.tuples_ts": "analyze_ts_s on ast-deep",
    "analysis.new_ratio_cs": "analyze_cs_s on ast-deep",
    "analysis.new_ratio_ts": "analyze_ts_s on ast-deep",
    "analysis.ns_per_derivation_cs": "analyze_cs_s on ast-deep",
    "analysis.ns_per_derivation_ts": "analyze_ts_s on ast-deep",
    "ctx.domain_size_cs": "peak_rss_mb and analyze_cs_s on ast-deep",
    "ctx.domain_size_ts": "peak_rss_mb and analyze_ts_s on ast-deep",
    "analysis.write_cs_s": "analyze_cs_s on wide-flat",
    "analysis.write_ts_s": "analyze_ts_s on wide-flat",
    "analysis.output_mb": "analyze_cs_s and analyze_ts_s on wide-flat",
    "analysis.solve_prov_ts_s":
        "certify_s on ast-deep and wide-flat; commit_*_ms",
    "verify.closure_s": "certify_s, most on ast-deep; commit_*_ms",
    "verify.support_s":
        "certify_s, even with closure on wide-flat; commit_*_ms",
    "clients.alias_build_s": "setup_s and commit_*_ms on serve-txn",
    "clients.taint_s": "setup_s and commit_*_ms on serve-txn",
    "cfl.fallback_answers": "query_p90_us; expected 0",
    "cfl.query_us": "query_p90_us when the hot path trips",
    "serve.init_s": "setup_s on serve-txn",
    "serve.answer_pts_us": "query_p50_us",
    "serve.answer_alias_us": "query_p50_us",
    "serve.answer_taint_us": "query_p50_us",
    "serve.wire_us": "query_p50_us",
    "serve.query_in_commit_p50_us": "query_p90_us",
    "serve.queries_in_commit": "query_p90_us",
    "serve.resolve_add_ms": "commit_add_ms",
    "serve.resolve_rm_ms": "commit_rm_ms",
    "serve.commit_certify_ms": "commit_add_ms and commit_rm_ms",
    "serve.journal_append_ms": "commit_add_ms and commit_rm_ms",
    "serve.incremental_frac": "commit_add_ms and commit_rm_ms",
    "serve.invalidated": "commit_rm_ms",
    "trace.covered_frac": "none: share of the traced wall inside spans",
    "trace.overhead_frac":
        "none: traced over untraced in-process round wall, minus 1",
}


def metric_units(kind):
    """Name -> unit of the BENCHMARK.json metrics of `kind` (end_to_end or
    per_layer), in file order."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def read_pts(path):
    """Variable -> set of heaps, from a CiPts.tsv."""
    pts = {}
    with open(path) as f:
        for line in f:
            var, heap = line.rstrip("\n").split("\t")
            pts.setdefault(var, set()).add(heap)
    return pts


def median(values):
    """None when every operation of the metric failed."""
    return statistics.median(values) if values else None


def quantile(values, q):
    """None when the quantile falls on a failed query, which has no time."""
    values = sorted(values)
    value = values[int(len(values) * q)] if values else math.inf
    return value if math.isfinite(value) else None


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


class Bench:
    def __init__(self, args):
        self.args = args
        self.cfg = WORKLOADS[args.workload]
        root = os.getcwd()
        out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        self.build_dir = os.path.join(root, out, "perfbench")
        self.tools = os.path.join(self.build_dir, "ctp-tools")
        self.helper = os.path.join(self.build_dir, "ctp-perfbench")
        # Relative: a Unix socket path must stay under 108 bytes wherever
        # the checkout lives, and every child runs from the checkout root.
        run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
        self.work = os.path.relpath(
            os.path.join(self.build_dir, "work", run_id))
        self.facts = os.path.join(self.work, "facts")
        self.log = None
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {m: [] for m in metric_units("end_to_end")}
        self.latencies = array.array("d")
        self.ci_lines = None
        self.cold = None  # cold_solve()'s result
        self.cals = []  # calibration kernel times, seconds
        self.daemon = None

    # -- build and children ------------------------------------------------

    def build(self):
        # Compiler temporaries stay inside the checkout too.
        os.environ["TMPDIR"] = os.path.join(self.build_dir, "tmp")
        os.makedirs(os.environ["TMPDIR"], exist_ok=True)
        cache = os.path.join(self.build_dir, "CMakeCache.txt")
        with open(os.path.join(self.build_dir, "build.log"), "ab") as log:
            def step(argv, what):
                if subprocess.run(argv, stdout=log, stderr=log).returncode:
                    fail(f"{what} failed; see {log.name}")
            cold = not os.path.exists(cache)
            if cold:
                gen = ["-G", "Ninja"] if shutil.which("ninja") else []
                step(["cmake", "-S", "perfbench", "-B", self.build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                     "cmake configure")
            step(["cmake", "--build", self.build_dir, "-j4", "--target"] +
                 TARGETS, "build")
        if cold:
            # A cold build keeps every core busy for a minute. On a shared
            # 4-core VM the socket round trips of the next 30-60 s then
            # take about three times as long (query_p50_us 87-100 us
            # against 30-34 us, same seed) while the other metrics stay in
            # line; the first run in a checkout would report that.
            time.sleep(COOL_DOWN_S)

    def spawn(self, argv, stdout=subprocess.DEVNULL):
        return subprocess.Popen(argv, stdout=stdout, stderr=self.log)

    def reap(self, proc, counts_rss=False):
        """Waits for proc and returns its exit code; with counts_rss, its
        peak RSS counts towards peak_rss_mb."""
        if proc.returncode is not None:  # already reaped by poll()
            return proc.returncode
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if counts_rss:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def run(self, argv, what):
        """Runs one CLI child; a non-zero exit counts as a failed operation."""
        self.attempted += 1
        start = time.perf_counter()
        code = self.reap(self.spawn(argv), counts_rss=self.cfg["batch"])
        wall = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.problems.append(f"{what} exited {code}")
        return code == 0, wall

    def helper_json(self, *argv):
        out_path = os.path.join(self.work, "helper.json")
        with open(out_path, "w") as out:
            code = self.reap(self.spawn([self.helper, *map(str, argv)], out))
        with open(out_path) as out:
            lines = out.read().splitlines()
        if code != 0 or not lines:
            fail(f"ctp-perfbench {argv[0]} exited {code}")
        return json.loads(lines[-1])

    def calibrate(self):
        self.cals.append(self.helper_json("cal")["cal_s"])

    def scaled(self, value):
        """A timed metric's value in time of the reference host, where the
        calibration kernel takes CAL_REF_S: value times CAL_REF_S over the
        median of the run's calibration times. On a shared VM the same
        ctp-analyze run takes 20-35% longer in slow phases of the host that
        last seconds to minutes, often a whole run, and the kernel slows
        down with it. In two sets of ten 35 s runs of each workload on a
        4-core VM, the timed metrics spread (quartile distance over median)
        up to 0.19 and 0.22 unscaled, and up to 0.13 scaled; the run's
        median query latency follows the kernel with correlation 0.87."""
        if value is None:
            return None
        return value * CAL_REF_S / statistics.median(self.cals)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    # -- batch slice -------------------------------------------------------

    def analyze(self, abstraction, out_dir, facts=None):
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        return self.run([os.path.join(self.tools, "ctp-analyze"), "--facts",
                         facts or self.facts, "--config", CONFIG,
                         "--abstraction", abstraction, "--out", out_dir],
                        f"ctp-analyze {abstraction}")

    def batch_slice(self):
        for _ in range(self.cfg["batch_reps"]):
            self.batch_once()
        if self.cfg["batch"]:
            self.attempted += 1
            load = self.helper_json("load", self.facts, self.cfg["load_reps"])
            self.samples["setup_s"].append(load["per_load_s"])
            self.calibrate()

    def batch_once(self):
        out_cs = os.path.join(self.work, "out-cs")
        out_ts = os.path.join(self.work, "out-ts")
        ok_cs, wall_cs = self.analyze("cs", out_cs)
        self.calibrate()
        ok_ts, wall_ts = self.analyze("ts", out_ts)
        self.calibrate()
        if ok_cs and ok_ts:
            self.samples["analyze_cs_s"].append(wall_cs)
            self.samples["analyze_ts_s"].append(wall_ts)
            for name in ("CiPts.tsv", "CiCall.tsv"):
                with open(os.path.join(out_cs, name), "rb") as a, \
                        open(os.path.join(out_ts, name), "rb") as b:
                    same = a.read() == b.read()
                self.check(same, f"{name} differs between cs and ts")
            with open(os.path.join(out_ts, "CiPts.tsv"), "rb") as f:
                lines = f.read().count(b"\n")
            self.check(self.ci_lines in (None, lines),
                       "CiPts.tsv size changed between rounds")
            self.ci_lines = lines
        ok, wall = self.run([os.path.join(self.tools, "ctp-verify"), "--facts",
                             self.facts, "--config", CONFIG, "--backend",
                             "native", "--checks", "closure,support"],
                            "ctp-verify")
        self.calibrate()
        if ok:
            self.samples["certify_s"].append(wall)

    # -- serve slice -------------------------------------------------------

    def ask(self, *payloads, wait_s=0):
        """Sends the payloads to the daemon on one connection; returns the
        responses as [status, mode, epoch, body] lists, or None if the
        daemon exits first."""
        argv = [self.helper, "ask", "--socket", self.socket,
                "--wait-s", str(wait_s), *payloads]
        helper = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                  stderr=self.log, text=True)
        while True:
            try:
                out, _ = helper.communicate(timeout=0.01)
                break
            except subprocess.TimeoutExpired:
                if self.daemon.poll() is not None:
                    helper.kill()
                    helper.wait()
                    return None
        lines = out.splitlines()
        if helper.returncode != 0 or not lines:
            fail(f"ctp-perfbench ask exited {helper.returncode}")
        return json.loads(lines[-1])["responses"]

    def start_daemon(self):
        """Launches the daemon; returns the time to its first answered
        ping, or None if it did not come up."""
        state = os.path.join(self.work, "serve-state")
        shutil.rmtree(state, ignore_errors=True)
        self.socket = os.path.join(self.work, "s.sock")
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        self.calibrate()
        start = time.perf_counter()
        self.daemon = self.spawn([os.path.join(self.tools, "ctp-serve"),
                                  "--socket", self.socket, "--facts",
                                  self.facts, "--config", CONFIG,
                                  "--checkpoint-dir", state])
        reply = self.ask("0\tping", wait_s=120)
        setup = time.perf_counter() - start
        if not self.check(reply is not None and reply[0][0] == "ok",
                          "ctp-serve did not answer ping"):
            self.daemon.kill()
            self.reap(self.daemon)
            self.daemon = None
            return None
        return setup

    def serve_slice(self, slice_no):
        base_pts = os.path.join(self.work, "out-ts", "CiPts.tsv")
        if not self.check(os.path.exists(base_pts),
                          "no ts result to plan the serve slice on"):
            return
        lat_path = os.path.join(self.work, "lat.bin")
        out = self.helper_json(
            "mix", "--socket", self.socket, "--facts", self.facts,
            "--base-pts", base_pts, "--seed", self.args.seed,
            "--slice", slice_no, "--pairs", self.cfg["pairs"],
            "--period-ms", self.cfg["period_ms"], "--lat-out", lat_path)
        lat = array.array("d")
        with open(lat_path, "rb") as f:
            lat.frombytes(f.read())
        self.latencies.extend(lat)
        self.attempted += int(out["queries"] + out["txns"])
        self.failed += int(out["query_failed"] + out["txn_failed"])
        self.check(out["epoch_violations"] == 0,
                   f"{out['epoch_violations']} answers carried an epoch that "
                   "does not match the acknowledged commits")
        self.problems.extend(out["errors"])
        self.samples["commit_add_ms"].extend(out["add_ms"])
        self.samples["commit_rm_ms"].extend(out["rm_ms"])
        self.cals.extend(out["cal_s"])
        self.check_probe(out, base_pts)

    def check_probe(self, out, base_pts):
        """The daemon's answers must equal a cold solve of the same edits:
        every rm/add pair restored the base facts, and the last commit
        removed final_edge, the only definition of its target. The probe
        set is a fixed sample plus every variable whose points-to set the
        removal changed, the target among them. Every round makes the same
        commits, so the cold solve runs once."""
        if self.cold is None:
            self.cold = self.cold_solve(out, base_pts)
        if self.cold is None:
            return
        cold, probe = self.cold
        replies = self.ask(*(f"p{i}\tpts\t{v}" for i, v in enumerate(probe)))
        if not self.check(replies is not None, "ctp-serve exited"):
            return
        bad = [v for v, (status, mode, epoch, body) in zip(probe, replies)
               if status != "ok" or mode != "hot" or
               int(epoch) != out["acked"] or
               set(body.split()) - {"-"} != cold.get(v, set())]
        self.check(len(replies) == len(probe) and not bad,
                   f"daemon answers differ from a cold solve for {bad[:3]}")

    def cold_solve(self, out, base_pts):
        """The cold ts solve of the facts without final_edge, and the probe
        set; None if the solve failed or the removal changed nothing."""
        edited = os.path.join(self.work, "edited")
        shutil.rmtree(edited, ignore_errors=True)
        shutil.copytree(self.facts, edited)
        path = os.path.join(edited, "Assign.facts")
        with open(path) as f:
            rows = f.readlines()
        rows.remove("\t".join(out["final_edge"]) + "\n")
        with open(path, "w") as f:
            f.writelines(rows)
        cold_dir = os.path.join(self.work, "out-cold")
        if not self.analyze("ts", cold_dir, facts=edited)[0]:
            return None
        base = read_pts(base_pts)
        cold = read_pts(os.path.join(cold_dir, "CiPts.tsv"))
        changed = {v for v in base.keys() | cold.keys()
                   if base.get(v) != cold.get(v)}
        target = out["final_edge"][1]
        if not self.check(target in changed,
                          f"removing the only definition of {target} "
                          "changed nothing"):
            return None
        known = sorted(base.keys() | cold.keys())
        probe = sorted(changed | set(known[::max(1, len(known) // PROBES)]))
        return cold, probe

    def round(self, slice_no):
        """One daemon life with a batch slice inside it; False if the
        daemon did not come up."""
        setup = self.start_daemon()
        if setup is None:
            return False
        if not self.cfg["batch"]:
            self.samples["setup_s"].append(setup)
        self.batch_slice()
        self.serve_slice(slice_no)
        self.ask("x\tshutdown")
        self.check(self.reap(self.daemon, counts_rss=not self.cfg["batch"])
                   == 0, "ctp-serve did not exit 0")
        self.daemon = None
        return True

    # -- the two modes -----------------------------------------------------

    def prepare(self):
        self.build()
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.log = open(os.path.join(self.work, "children.log"), "w")
        self.helper_json("gen", self.cfg["shape"], self.cfg["drivers"],
                         self.args.seed, self.facts)

    def measure(self):
        # A round starts only if it should end inside the measured time.
        start = time.perf_counter()
        slice_no, last = 0, 0.0
        while slice_no == 0 or (time.perf_counter() - start + last
                                <= self.args.seconds):
            begun = time.perf_counter()
            if not self.round(slice_no):
                break
            last = time.perf_counter() - begun
            slice_no += 1
        s = self.samples
        return {
            "setup_s": self.scaled(median(s["setup_s"])),
            "analyze_cs_s": self.scaled(median(s["analyze_cs_s"])),
            "analyze_ts_s": self.scaled(median(s["analyze_ts_s"])),
            "certify_s": self.scaled(median(s["certify_s"])),
            "peak_rss_mb": self.peak_rss_kb / 1024,
            "ci_pts_edges": self.ci_lines,
            "query_p50_us": self.scaled(quantile(self.latencies, 0.5)),
            "query_p90_us": self.scaled(quantile(self.latencies, 0.9)),
            "commit_add_ms": self.scaled(median(s["commit_add_ms"])),
            "commit_rm_ms": self.scaled(median(s["commit_rm_ms"])),
        }

    def trace(self):
        # One CLI round gives the client-side query latency that
        # serve.wire_us compares the in-process answer time with.
        self.round(0)
        query_p50 = quantile(self.latencies, 0.5)
        self.attempted += 1
        traced = self.helper_json(
            "trace", "--facts", self.facts, "--seed", self.args.seed,
            "--seconds", self.args.seconds, "--pairs", self.cfg["pairs"],
            "--period-ms", self.cfg["period_ms"],
            "--load-reps", self.cfg["load_reps"], "--work", self.work,
            "--spans-out", os.path.join(self.work, "..",
                                        f"spans-{self.args.workload}-"
                                        f"{self.args.seed}.tsv"))
        for err in traced["errors"]:
            self.check(False, f"traced pass: {err}")
        answer_p50 = traced["serve.answer_p50_us"]
        traced["serve.wire_us"] = (None if None in (query_p50, answer_p50)
                                   else query_p50 - answer_p50)
        return {name: traced[name] for name in metric_units("per_layer")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.exists(os.path.join("perfbench", "CMakeLists.txt")):
        fail("run from the root of a checkout")

    bench = Bench(args)
    bench.prepare()
    try:
        values = bench.trace() if args.trace else bench.measure()
    finally:
        if bench.daemon is not None and bench.daemon.poll() is None:
            bench.daemon.kill()
            bench.reap(bench.daemon)
        bench.log.close()
    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    shutil.rmtree(bench.work, ignore_errors=True)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    print(json.dumps({"correct": not bench.problems,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
