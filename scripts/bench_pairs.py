"""Compare two source checkouts on the benchmark, in alternating pairs of runs.

    python3 scripts/bench_pairs.py --before ../parent --after . \\
        --workload surface_direct --seeds 1701-1710 --seconds 30 \\
        --out BENCH_17.json

For every workload and seed it runs perfbench/run.py once from the root of
each checkout, so each run imports that checkout's src/.  The side that
runs first alternates from one pair to the next.  The JSON written holds
every run's result and, for every metric, each side's median and
quartiles, the relative change of the medians, the gap between the
medians against the before side's quartile spread, and how many pairs the
after side won.  What "won" means per metric (lower or higher is better)
is read from the after checkout's BENCHMARK.json.  It also records each
side's line count of src/scythe/*.py and their difference.  Progress goes
to stderr.  Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text):
    """"1701-1710" or "3,5,8" as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def directions(root):
    """Metric name -> "lower" or "higher", from root's BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in spec.get(key, ())}


def revision(root):
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def source_lines(root):
    """Total line count of root's src/scythe/*.py."""
    pkg = os.path.join(root, "src", "scythe")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def run_once(root, workload, seed, seconds, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed in %s (exit %d): %s"
                         % (root, done.returncode, done.stderr.strip()))
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def spread(values):
    """Median and quartiles; the quartiles of one value are that value."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs, better):
    summary = {}
    for name in pairs[0]["before"]["metrics"]:
        before = [p["before"]["metrics"][name] for p in pairs]
        after = [p["after"]["metrics"][name] for p in pairs]
        sign = -1 if better.get(name, "lower") == "higher" else 1
        b, a = spread(before), spread(after)
        summary[name] = {
            "better": better.get(name, "lower"),
            "before": b,
            "after": a,
            "change": (a["median"] - b["median"]) / b["median"]
            if b["median"] else None,
            "gap": sign * (b["median"] - a["median"]),
            "before_quartile_spread": b["q3"] - b["q1"],
            "wins": sum(sign * (x - y) > 0 for x, y in zip(before, after)),
            "pairs": len(pairs),
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", required=True,
                        help="root of the checkout compared against")
    parser.add_argument("--after", required=True,
                        help="root of the checkout being measured")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeatable")
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="one pair per seed, as 1701-1710 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    roots = {"before": os.path.abspath(args.before),
             "after": os.path.abspath(args.after)}
    better = directions(roots["after"])
    doc = {
        "command": ["python3", "perfbench/run.py", "--seconds",
                    str(args.seconds), "--trace", str(args.trace)],
        "revisions": {side: revision(root) for side, root in roots.items()},
        "source_lines": {side: source_lines(root)
                         for side, root in roots.items()},
        "workloads": {},
    }
    lines = doc["source_lines"]
    lines["change"] = lines["after"] - lines["before"]
    turn = 0
    for workload in args.workload:
        pairs = []
        for seed in args.seeds:
            order = ("before", "after") if turn % 2 == 0 else ("after", "before")
            turn += 1
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], workload, seed,
                                      args.seconds, args.trace)
            pairs.append(pair)
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s %.4g -> %.4g" % (name, pair["before"]["metrics"][name],
                                     pair["after"]["metrics"][name])
                for name in list(pair["before"]["metrics"])[:2])),
                file=sys.stderr, flush=True)
        doc["workloads"][workload] = {"pairs": pairs,
                                      "summary": summarize(pairs, better)}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
