#!/usr/bin/env python3
"""Benchmark of record for O2: corpus time-to-verdict of the o2batch fleet.

    python3 perfbench/run.py --workload core --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run builds o2batch
(Release) under $CARGO_TARGET_DIR (default .bench_build); later runs reuse
the build. Each run then

  1. sets up: writes a seeded corpus of OIR modules, one per paper subject
     shape (perfbench/corpus.py), and runs one cold fleet pass over it,
     whose report is checked against
     the generator's race oracle; this is repeated and setup_s is the
     median;
  2. measures: runs o2batch over the corpus again and again for --seconds
     seconds, one process per fleet pass, checking every report (a pass
     that crashes or writes no report fails all its modules);
  3. prints one JSON line with the metrics named in BENCHMARK.json.

Workloads (one o2batch process per pass, --jobs=1 so passes do not compete
for the cores of a shared machine):

  core  default analyses (osa,race), cold: parser, pointer analysis, OSA,
        SHB, HB index and race check are the whole cost.
  all   --analyses=all, cold: adds the deadlock, over-synchronization,
        RacerD-like and escape passes and their report sections, which
        dominate the time.
  warm  --analyses=all with --cache-dir filled during set-up; before every
        pass a fixed quarter of the modules is edited (a new comment line),
        so each pass replays twelve results from the cache and analyses
        four. Exercises the result cache; core and all bypass it.

--trace 0 reports the end-to-end metrics: verdict_ms (median wall time of
one fleet pass), peak_rss_mb (median peak resident set of the o2batch
process) and setup_s. --trace 1 runs the same passes with --timings and
reports per-layer metrics instead: pass time per source module of the
analysis (src/pta, src/osa, src/shb, src/race), the driver's own time
(process start, parsing, cache, report writing: wall minus pass time), work
counters and cache hits. Per-pass spans go to
$CARGO_TARGET_DIR/perfbench/trace-<workload>-<seed>.jsonl.

Exit code 0 with a result line, whose "correct" is false when any report
disagrees with the oracle or with the set-up report; exit code 2 without a
result when the program cannot be built or started.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import corpus  # noqa: E402

ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "core": dict(analyses="osa,race", warm=False),
    "all": dict(analyses="all", warm=False),
    "warm": dict(analyses="all", warm=True),
}

SETUP_REPS = 5
MIN_PASSES = 5
PASS_TIMEOUT_S = 60
# warm: modules whose index is 1 modulo this change before every pass.
CHANGED_EVERY = 4

CACHE_LINE = re.compile(rb"cache: (\d+) hit\(s\), (\d+) miss\(es\)")

# Per-layer pass timings, grouped by the source module that implements them.
LAYERS = {
    "pta_ms": ("time.pta-ms",),
    "osa_ms": ("time.osa-ms", "time.escape-ms"),
    "shb_ms": ("time.shb-ms", "time.hbindex-ms"),
    "race_ms": ("time.race-ms", "time.deadlock-ms", "time.oversync-ms",
                "time.racerd-ms"),
}
COUNTERS = {
    "pta_propagated_words": "pta.propagated-words",
    "race_pairs_checked": "race.pairs-checked",
    "race_hb_queries": "race.hb-queries",
    "racerd_potential_races": "racerd.potential-races",
}


class BenchError(Exception):
    pass


def build():
    """Builds o2batch from the checkout; returns (its path, build dir)."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bdir = os.path.join(out, "cmake")
    tmp = os.path.join(out, "tmp")
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt at %s: not a source checkout" % ROOT)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "o2batch", "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(os.path.join(out, "build.log"), "ab") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log, env=env).returncode:
                raise BenchError("build failed: %s (see %s)"
                                 % (" ".join(cmd), log.name))
    exe = os.path.join(bdir, "examples", "o2batch")
    if not os.access(exe, os.X_OK):
        raise BenchError("build produced no %s" % exe)
    return exe, out


def run_o2batch(argv, err_path):
    """Runs one o2batch process; returns (wall s, exit code, peak RSS MiB)."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Launcher:
    """Starts o2batch processes from a helper forked while the benchmark is
    still small. exec() records the replaced address space's high-water mark
    as the new program's peak RSS, so spawning straight from this process
    would report the benchmark's own peak instead of o2batch's."""

    def __init__(self):
        to_child, self.requests = os.pipe()
        self.replies, to_parent = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self.requests)
            os.close(self.replies)
            with os.fdopen(to_child, "r") as rd, \
                    os.fdopen(to_parent, "w") as wr:
                for line in rd:
                    wr.write(json.dumps(run_o2batch(*json.loads(line))) + "\n")
                    wr.flush()
            os._exit(0)
        os.close(to_child)
        os.close(to_parent)
        self.wr = os.fdopen(self.requests, "w")
        self.rd = os.fdopen(self.replies, "r")

    def run(self, argv, err_path):
        self.wr.write(json.dumps([argv, err_path]) + "\n")
        self.wr.flush()
        reply = self.rd.readline()
        if not reply:
            raise BenchError("launcher process died")
        return tuple(json.loads(reply))

    def close(self):
        self.wr.close()
        self.rd.close()
        os.waitpid(self.pid, 0)


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def records(path):
    """The report's JSON records, one at a time: an all-analyses report
    holds millions of values, so it is never held in memory at once. A
    missing report has no records; a truncated one ends before the first
    line that does not parse."""
    if not os.path.exists(path):
        return
    with open(path, "rb") as f:
        for line in f:
            try:
                r = json.loads(line)
            except ValueError:
                return
            yield r


def check_report(path, modules, all_analyses, each=None):
    """Counts module verdicts in a report that disagree with the oracle;
    calls each(record) for every module record. Modules the report gives
    no verdict for count as failed."""
    expected = {name: races for name, _, races in modules}
    seen = set()
    failed = 0
    aggregate = False
    for r in records(path):
        if r.get("aggregate"):
            aggregate = True
            continue
        name = r.get("module")
        if name not in expected or name in seen:
            failed += 1
            continue
        seen.add(name)
        if each:
            each(r)
        races = expected[name]
        ok = (r.get("status") == ("races" if races else "clean") and
              Counter(corpus.report_key(x) for x in r.get("races", []))
              == races)
        if ok and all_analyses:
            # No generated program nests locks, so no lock-order cycle
            # exists; the other auxiliary sections must be present.
            ok = (r.get("deadlocks") == [] and "oversync" in r and
                  "racerd" in r and "escape.objects" in r.get("stats", {}))
        failed += not ok
    failed += len(expected) - len(seen)
    return failed if aggregate else max(failed, 1)


def cache_counts(err_path):
    with open(err_path, "rb") as f:
        m = CACHE_LINE.search(f.read())
    return (int(m.group(1)), int(m.group(2))) if m else (0, 0)


def write_corpus(directory, modules, revision=None, only=None):
    for i, (name, text, _) in enumerate(modules):
        if only is not None and i not in only:
            continue
        if revision is not None:
            text += "// revision %d\n" % revision
        with open(os.path.join(directory, name + ".oir"), "w") as f:
            f.write(text)


class Run:
    def __init__(self, launcher, exe, out, workload, seed, trace):
        self.launcher = launcher
        self.exe = exe
        self.cfg = WORKLOADS[workload]
        self.trace = trace
        self.modules = corpus.generate(seed)
        self.changed = (set(range(1, len(self.modules), CHANGED_EVERY))
                        if self.cfg["warm"] else set())
        self.work = os.path.join(out, "perfbench",
                                 "%s-%d-%d" % (workload, seed, os.getpid()))
        self.trace_path = os.path.join(out, "perfbench", "trace-%s-%d.jsonl"
                                       % (workload, seed))
        self.all_analyses = self.cfg["analyses"] == "all"
        # Modules each pass analyses rather than replays from the cache.
        self.analysed = {m[0] for i, m in enumerate(self.modules)
                         if not self.cfg["warm"] or i in self.changed}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def args(self, rep, report):
        a = [self.exe, "--jobs=1", "--analyses=" + self.cfg["analyses"],
             "--out=" + report]
        if self.cfg["warm"]:
            a.append("--cache-dir=" + os.path.join(self.work, "cache%d" % rep))
        if self.trace:
            a.append("--timings")
        a.append(os.path.join(self.work, "corpus%d" % rep))
        return a

    def setup(self):
        """Fresh corpus and one cold pass, SETUP_REPS times; returns the
        set-up times. The last repetition's corpus and cache are kept, and
        its report is the reference later passes must reproduce."""
        times = []
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            directory = os.path.join(self.work, "corpus%d" % rep)
            os.makedirs(directory)
            write_corpus(directory, self.modules)
            report = os.path.join(self.work, "setup%d.jsonl" % rep)
            err = os.path.join(self.work, "setup%d.err" % rep)
            _, code, _ = self.launcher.run(self.args(rep, report), err)
            times.append(time.perf_counter() - start)
            self.attempted += len(self.modules)
            if code != 1:
                self.failed += len(self.modules)
                self.problems.append("set-up pass exited %d" % code)
                continue
            bad = check_report(report, self.modules, self.all_analyses)
            if bad:
                self.failed += bad
                self.problems.append("set-up report disagrees with the "
                                     "oracle on %d module(s)" % bad)
            if self.cfg["warm"] and cache_counts(err) != (0, len(self.modules)):
                self.problems.append("cold fill was not all misses")
        self.rep = SETUP_REPS - 1
        self.reference = digest(report) if os.path.exists(report) else None
        return times

    def measure(self, seconds):
        report = os.path.join(self.work, "pass.jsonl")
        err = os.path.join(self.work, "pass.err")
        args = self.args(self.rep, report)
        directory = args[-1]
        samples = []
        deadline = time.perf_counter() + seconds
        n = 0
        while n < MIN_PASSES or time.perf_counter() < deadline:
            n += 1
            if os.path.exists(report):
                os.remove(report)
            if self.changed:
                write_corpus(directory, self.modules, revision=n,
                             only=self.changed)
            wall, code, rss = self.launcher.run(args, err)
            sample = dict(wall=wall, rss=rss, start=time.perf_counter() - wall)
            self.attempted += len(self.modules)
            bad = 0
            if code != 1:
                bad = len(self.modules)
                self.problems.append("pass %d exited %d" % (n, code))
            elif not os.path.exists(report):
                bad = len(self.modules)
                self.problems.append("pass %d wrote no report" % n)
            elif self.trace:
                analysed = sample["analysed"] = []

                def keep(r):
                    if r["module"] in self.analysed:
                        analysed.append(dict(
                            module=r["module"], stats=r.get("stats", {}),
                            **{k: v for k, v in r.items()
                               if k.startswith("time.")}))

                bad = check_report(report, self.modules, self.all_analyses,
                                   keep)
            elif digest(report) != self.reference:
                bad = check_report(report, self.modules, self.all_analyses)
                if not bad:
                    bad = 1
                    self.problems.append("pass %d report differs from the "
                                         "set-up report" % n)
            if self.cfg["warm"]:
                hits, misses = cache_counts(err)
                want = len(self.modules) - len(self.changed)
                if (hits, misses) != (want, len(self.changed)):
                    bad = max(bad, 1)
                    self.problems.append("pass %d: %d hit(s), %d miss(es)"
                                         % (n, hits, misses))
                sample.update(hits=hits, misses=misses)
            sample["report_mb"] = (os.path.getsize(report) / 1e6
                                   if os.path.exists(report) else 0.0)
            self.failed += bad
            samples.append(sample)
        return samples

    def layer_metrics(self, samples):
        """Per-layer metrics from the --timings reports. Only the modules a
        pass analysed count: cache hits replay the timings stored with
        them, so their cost shows in driver_ms instead."""
        per_pass = []
        with open(self.trace_path, "w") as trace:
            for n, s in enumerate(samples):
                analysed = s.get("analysed", [])
                row = {k: sum(r.get(key, 0.0) for r in analysed for key in keys)
                       for k, keys in LAYERS.items()}
                busy = sum(r.get("time.total-ms", 0.0) for r in analysed)
                row["wall_ms"] = s["wall"] * 1e3
                row["driver_ms"] = row["wall_ms"] - busy
                for k, stat in COUNTERS.items():
                    row[k] = sum(r["stats"].get(stat, 0) for r in analysed)
                row["cache_hits"] = s.get("hits", 0)
                row["cache_misses"] = s.get("misses", 0)
                row["report_mb"] = s["report_mb"]
                per_pass.append(row)
                trace.write(json.dumps(dict(
                    span="fleet-pass", id=n, start_s=s["start"],
                    end_s=s["start"] + s["wall"], **row)) + "\n")
                for r in analysed:
                    trace.write(json.dumps(dict(
                        span="module", parent=n, module=r["module"],
                        **{k: v for k, v in r.items()
                           if k.startswith("time.")})) + "\n")
        return {k: statistics.median(row[k] for row in per_pass)
                for k in per_pass[0]}

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def metric_units(trace):
    """Name -> unit of the metrics BENCHMARK.json asks for in this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    launcher = Launcher()
    try:
        units = metric_units(opts.trace)
        exe, out = build()
        run = Run(launcher, exe, out, opts.workload, opts.seed, opts.trace)
        try:
            setup = run.setup()
            samples = run.measure(opts.seconds)
            if opts.trace:
                metrics = run.layer_metrics(samples)
            else:
                metrics = dict(
                    verdict_ms=statistics.median(s["wall"] for s in samples)
                    * 1e3,
                    peak_rss_mb=statistics.median(s["rss"] for s in samples),
                    setup_s=statistics.median(setup))
        finally:
            run.cleanup()
        if set(metrics) != set(units):
            raise BenchError("measured %s, BENCHMARK.json names %s"
                             % (sorted(metrics), sorted(units)))
    except (BenchError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    finally:
        launcher.close()

    for p in run.problems:
        print("perfbench: %s" % p, file=sys.stderr)
    print("# workload=%s seed=%d passes=%d modules=%d analyses=%s"
          % (opts.workload, opts.seed, len(samples), len(run.modules),
             run.cfg["analyses"]))
    print(json.dumps(dict(
        correct=run.failed == 0 and not run.problems,
        attempted=run.attempted, failed=run.failed,
        metrics={k: dict(value=v, unit=units[k]) for k, v in metrics.items()})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
