#!/usr/bin/env python3
"""Check the benchmark's steadiness and its layer ranking across seeds.

    python3 perfbench/check.py spread [--seeds 1 2 ...] [--workloads W ...] [--save SET.json]
    python3 perfbench/check.py agree SET1.json SET2.json
    python3 perfbench/check.py rank   [--seeds 11 12]   [--workloads W ...]

spread: one end-to-end run per seed and workload; for every end-to-end
metric, prints the median and the interquartile range as a share of the
median (statistics.quantiles, n=4) next to the metric's bound in
BENCHMARK.json.  Every spread but that of setup_s must stay within its
bound; the target is a third of it.  --save writes the set's values.

agree: for two saved sets of the same code, prints how far each metric's
median moved between them, in whichever direction is worse, against the
metric's bound (setup_s included).

rank: one traced run per seed and workload; prints the layer times
(`*_s` per-layer metrics, largest first) and their shares of the traced
op, and whether every seed ranks the layers the same way.

Run from the root of a source checkout.  Every run's result line, with
the wall and reference-task seconds of its ops and set-ups, is appended to
.bench_build/perfbench-check.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
LOG = os.path.join(ROOT, ".bench_build", "perfbench-check.jsonl")


def run(workload, seed, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    samples = {}  # the "# <name> seconds: ..." lines: every op's and set-up's times
    for line in lines[:-1]:
        name, sep, values = line[2:].partition(": ")
        if line.startswith("# ") and sep and name.endswith(" seconds"):
            samples[name] = [float(x) for x in values.split()]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    shape = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != shape or not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: bad result {result}")
    os.makedirs(os.path.dirname(LOG), exist_ok=True)
    with open(LOG, "a") as log:
        log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                              "samples": samples, "result": result}) + "\n")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(workloads, seeds, save):
    saved = {}
    for w in workloads:
        runs = [run(w, s, 0) for s in seeds]
        saved[w] = {m["name"]: [r[m["name"]] for r in runs] for m in SPEC["end_to_end"]}
        print(f"{w}: {len(runs)} runs")
        for m in SPEC["end_to_end"]:
            values = saved[w][m["name"]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else 0.0
            verdict = "ok" if share <= m["bound"] / 3 else (
                "within bound" if share <= m["bound"] else "TOO WIDE")
            if m["name"] == "setup_s" and share > m["bound"]:
                verdict += " (setup_s spread is not bounded)"
            print(f"  {m['name']:16} median {med:<14.6g} spread {share:7.4f}  "
                  f"bound {m['bound']:.3f}  {verdict}")
    if save:
        with open(save, "w") as f:
            json.dump({"seeds": seeds, "values": saved}, f)


def agree(first, second):
    sets = [json.load(open(p))["values"] for p in (first, second)]
    ok = True
    for w in sets[0]:
        print(f"{w}:")
        for m in SPEC["end_to_end"]:
            a, b = (statistics.median(s[w][m["name"]]) for s in sets)
            moved = max(a, b) / min(a, b) - 1 if min(a, b) > 0 else 0.0
            fine = moved <= m["bound"]
            ok = ok and fine
            print(f"  {m['name']:16} {a:<14.6g} -> {b:<14.6g} moved {moved:7.4f}  "
                  f"bound {m['bound']:.3f}  {'ok' if fine else 'TOO FAR'}")
    print("the two sets agree" if ok else "the two sets DO NOT agree")


def rank(workloads, seeds):
    """Layers rank the same way on every seed when no two layers whose
    times differ by at least 25% on every seed swap places; closer pairs
    are ties, within run-to-run noise.  A layer's share is its time over
    the traced op's time (op_s * trace_overhead); nested spans (the
    re-analyses' layers under opt.rerun) make the shares add up past 1."""
    for w in workloads:
        times = []
        for s in seeds:
            metrics = run(w, s, 1)
            layers = {k: v for k, v in metrics.items()
                      if k.endswith("_s") and not k.endswith("_per_s")
                      and k != "traced_op_s" and v > 0}
            times.append(layers)
            order = sorted(layers, key=layers.get, reverse=True)
            op = metrics["traced_op_s"]
            print(f"{w} seed {s}: traced op {op:.3f} s: " + ", ".join(
                f"{k} {layers[k]:.3f} ({layers[k] / op:.0%})" for k in order))
        names = sorted(set().union(*times))
        swapped = [(a, b) for a in names for b in names
                   if all(t.get(a, 0) >= 1.25 * t.get(b, 0) > 0 for t in times[:1])
                   and any(t.get(b, 0) >= 1.25 * t.get(a, 0) > 0 for t in times[1:])]
        print(f"{w}: layer ranking {'the same' if not swapped else 'DIFFERS'} "
              f"across seeds {seeds}" + "".join(f"; {a} vs {b}" for a, b in swapped))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["spread", "agree", "rank"])
    parser.add_argument("sets", nargs="*")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--save")
    args = parser.parse_args()
    if args.mode == "spread":
        spread(args.workloads, args.seeds or list(range(1, 11)), args.save)
    elif args.mode == "agree":
        agree(*args.sets)
    else:
        rank(args.workloads, args.seeds or [11, 12])


if __name__ == "__main__":
    main()
