"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload surface_direct --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; scythe is imported from its src/.
A run sets up its seeded job list three times (set-up time is the median,
plus the imports), then repeats whole passes over the list until the
time is up.  Every output is checked: the first pass against what each
input must give, later passes against the first.  Times are scaled to
the reference speed of speed.py.  With --trace 0 the result holds the
end-to-end metrics, medians over passes; with --trace 1 passes alternate
between untraced and traced, the result holds the per-layer metrics,
and the spans go to perfbench/results/.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import types

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
F5_REPEATS = 3

END_TO_END = (("rational_s", "s"), ("f5_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("serialize.parse_s", "s"),
    ("sheaf.compile_s", "s"),
    ("parametrization.verify_d_squared_s", "s"),
    ("parametrization.assemble_s", "s"),
    ("morse.scythe_s", "s"),
    ("morse.pairs", "count"),
    ("morse.critical_rank", "count"),
    ("morse.minimal_ratio", "ratio"),
    ("field.max_height_bits", "bits"),
    ("cohomology.betti_s", "s"),
    ("equivalence.tracked_scythe_s", "s"),
    ("equivalence.tracking_overhead_s", "s"),
    ("cohomology.generators_s", "s"),
    ("equivalence.lift_s", "s"),
    ("equivalence.project_s", "s"),
    ("serialize.equivalence_json_s", "s"),
    ("equivalence.tracemalloc_peak_mb", "MB"),
    ("nerve.stalks_s", "s"),
    ("cohomology.induced_map_s", "s"),
    ("nerve.base_cohomology_s", "s"),
    ("nerve.tasks", "count"),
    ("nerve.fiber_cells", "count"),
    ("trace.overhead_s", "s"),
)


def import_program():
    """Import scythe from this checkout's src/, refusing any other copy."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [ROOT, src]
    import scythe

    if os.path.dirname(os.path.dirname(os.path.abspath(scythe.__file__))) != src:
        raise ImportError("scythe imported from %s, not %s" % (scythe.__file__, src))
    from perfbench import jobs, spans, speed

    return types.SimpleNamespace(jobs=jobs, spans=spans, speed=speed)


class Pass:
    """Job times of one pass by field, wall and scaled, and its counts."""

    def __init__(self):
        self.wall = {"Q": 0.0, "F5": 0.0}
        self.seconds = {"Q": 0.0, "F5": 0.0}
        self.counters = None
        self.spans = (0, 0)

    def scale(self):
        """Reference-speed seconds per wall second over the pass's jobs."""
        wall = sum(self.wall.values())
        return sum(self.seconds.values()) / wall if wall else 1.0


def run_pass(bench, workload, rec, traced, reference, tally):
    """Run every job; check each output as soon as the job returns.

    Untraced passes run each F5 job F5_REPEATS times in a row and keep the
    fastest: F5 jobs take milliseconds, and a slow thread wake-up in the
    pool, which only ever adds time, would otherwise move the pass.
    """
    gc.collect()
    one = Pass()
    first = len(rec.spans)
    counters = bench.jobs.Counters() if traced else None
    before = bench.speed.reference_time()
    for job in workload.jobs:
        repeats = F5_REPEATS if job.field_name == "F5" and not traced else 1
        walls, scaled = [], []
        for _ in range(repeats):
            if not run_checked(workload, job, rec, traced, counters, reference, tally):
                continue
            after = bench.speed.reference_time()
            walls.append(rec.elapsed)
            scaled.append(bench.speed.scaled(rec.elapsed, before, after))
            before = after
        if walls:
            one.wall[job.field_name] += min(walls)
            one.seconds[job.field_name] += min(scaled)
    one.counters = counters
    one.spans = (first, len(rec.spans))
    return one


def run_checked(workload, job, rec, traced, counters, reference, tally):
    """Run one job and check its output; False when it raised."""
    rec.start_job(job.job_id)
    tally["attempted"] += 1
    try:
        out = workload.run_job(job, rec, traced, counters)
    except Exception as exc:  # a failed operation is counted, not fatal
        rec.end_job()
        tally["failed"] += 1
        print("FAILED %s: %r" % (job.job_id, exc), file=sys.stderr)
        return False
    rec.end_job()
    if job.job_id not in reference:
        reasons = workload.check(job, out)
        reference[job.job_id] = workload.fingerprint(out)
    elif workload.fingerprint(out) != reference[job.job_id]:
        reasons = ["output differs from the checked first pass"]
    else:
        reasons = []
    if traced and out.get("probed") is not None:
        reasons += workload.check(job, out)
    if reasons:
        tally["failed"] += 1
        tally["wrong"] += 1
        print("WRONG %s: %s" % (job.job_id, "; ".join(reasons)), file=sys.stderr)
    return True


def layer_metrics(workload, rec, traced_passes, untraced_passes):
    per_pass = [(rec.totals(*p.spans), p.scale()) for p in traced_passes]

    def span_s(name):
        return statistics.median(t.get(name, 0.0) * k for t, k in per_pass)

    counts = traced_passes[0].counters.values
    values = {
        "serialize.parse_s": span_s("serialize.parse"),
        "sheaf.compile_s": span_s("sheaf.compile"),
        "parametrization.verify_d_squared_s": span_s("parametrization.verify_d_squared"),
        "parametrization.assemble_s": span_s("parametrization.assemble"),
        "morse.scythe_s": span_s("morse.scythe"),
        "cohomology.betti_s": span_s("cohomology.betti"),
        "equivalence.tracked_scythe_s": span_s("equivalence.tracked_scythe"),
        "cohomology.generators_s": span_s("cohomology.generators"),
        "equivalence.lift_s": span_s("equivalence.lift"),
        "equivalence.project_s": span_s("equivalence.project"),
        "serialize.equivalence_json_s": span_s("serialize.equivalence_json"),
        "nerve.stalks_s": span_s("nerve.stalks"),
        "cohomology.induced_map_s": span_s("cohomology.induced_map"),
        "nerve.base_cohomology_s": span_s("nerve.base_cohomology"),
    }
    if values["equivalence.tracked_scythe_s"]:
        values["equivalence.tracking_overhead_s"] = (
            values["equivalence.tracked_scythe_s"] - values["morse.scythe_s"])
    for name in ("morse.pairs", "morse.critical_rank", "field.max_height_bits",
                 "nerve.tasks", "nerve.fiber_cells"):
        values[name] = counts.get(name, 0)
    if counts.get("morse.critical_rank"):
        values["morse.minimal_ratio"] = (
            counts["betti_total"] / counts["morse.critical_rank"])
    if hasattr(workload, "memory_probe"):
        values.update(workload.memory_probe())

    # Q jobs run once in both kinds of pass; F5 jobs are repeated only untraced.
    values["trace.overhead_s"] = (
        statistics.median(p.seconds["Q"] for p in traced_passes)
        - statistics.median(p.seconds["Q"] for p in untraced_passes))
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = import_program()
    except ImportError as exc:
        print("error: cannot import the program: %s" % exc, file=sys.stderr)
        return 1
    if args.workload not in bench.jobs.WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(sorted(bench.jobs.WORKLOADS))),
              file=sys.stderr)
        return 2
    imported = time.perf_counter() - START
    before = bench.speed.reference_time()
    imported = bench.speed.scaled(imported, before, before)

    builds = []
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        t0 = time.perf_counter()
        workload = bench.jobs.WORKLOADS[args.workload](args.seed)
        warm = bench.jobs.WORKLOADS[args.workload](args.seed, small=True)
        scratch = bench.spans.Recorder(False)
        for job in warm.jobs:
            warm.run_job(job, scratch, False, None)
        elapsed = time.perf_counter() - t0
        after = bench.speed.reference_time()
        builds.append(bench.speed.scaled(elapsed, before, after))
        before = after
    del warm
    setup_s = imported + statistics.median(builds)
    gc.collect()
    gc.freeze()

    rec = bench.spans.Recorder(bool(args.trace))
    reference = {}
    tally = {"attempted": 0, "failed": 0, "wrong": 0}
    untraced, traced = [], []
    began = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        t0 = time.perf_counter()
        one = run_pass(bench, workload, rec, trace_this, reference, tally)
        (traced if trace_this else untraced).append(one)
        now = time.perf_counter()
        enough = not args.trace or traced
        if enough and now - began + (now - t0) > args.seconds:
            break

    if args.trace:
        values = layer_metrics(workload, rec, traced, untraced)
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
        out_dir = os.path.join(HERE, "results")
        os.makedirs(out_dir, exist_ok=True)
        rec.write(os.path.join(out_dir, "spans-%s-seed%d.json"
                               % (args.workload, args.seed)))
    else:
        print("wall-time pass medians: Q %.4f F5 %.4f" % (
            statistics.median(p.wall["Q"] for p in untraced),
            statistics.median(p.wall["F5"] for p in untraced)), file=sys.stderr)
        values = {
            "rational_s": statistics.median(p.seconds["Q"] for p in untraced),
            "f5_s": statistics.median(p.seconds["F5"] for p in untraced),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print("passes: %d untraced, %d traced" % (len(untraced), len(traced)),
          file=sys.stderr)
    print(json.dumps({
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
