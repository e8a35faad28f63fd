"""Steadiness check: runs the benchmark in two sets of runs of the same
code and reports, per workload and end-to-end metric, each set's median
and quartiles, the spread (quartile distance over median) and whether the
two sets agree within the metric's bound in BENCHMARK.json.

    python3 medbench/steady.py

Every workload in BENCHMARK.json runs ten times per set, set 1 on seeds
1-10 and set 2 on seeds 11-20, so the two sets see different inputs. Runs
go one at a time, cycling through the workloads. A metric agrees when its
spread in each set is within the bound and the second median is not worse
than the first by more than the bound. The share of failed operations
must also match exactly. The report is printed and written to
BENCH_steady.json.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10  # runs per set and workload


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(median)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    runs = {w: [[], []] for w in workloads}
    for k in range(2):
        for i in range(RUNS):
            seed = 1 + k * RUNS + i
            for w in workloads:
                out = run_once(w, seed, seconds)
                runs[w][k].append(out)
                print(f"set {k + 1} seed {seed} {w}: " + " ".join(
                    f"{n}={out['metrics'][n]['value']:.4g}" for n in metrics), flush=True)

    report = {}
    ok = True
    for w in workloads:
        report[w] = {}
        shares = [sorted({r["failed"] / r["attempted"] for r in s}) for s in runs[w]]
        if any(len(s) > 1 for s in shares) or len({s[0] for s in shares}) > 1:
            print(f"{w}: failed share differs between runs: {shares}")
            ok = False
        correct = all(r["correct"] for s in runs[w] for r in s)
        if not correct:
            print(f"{w}: a run reported incorrect output")
            ok = False
        for name, m in metrics.items():
            sets = [summary([r["metrics"][name]["value"] for r in s]) for s in runs[w]]
            a, b = sets[0]["median"], sets[1]["median"]
            worse = (b - a) / abs(a) if m["better"] == "lower" else (a - b) / abs(a)
            agree = all(s["spread"] <= m["bound"] for s in sets) and worse <= m["bound"]
            row = {"sets": sets, "bound": m["bound"], "shift": worse, "agree": agree}
            ok = ok and agree
            report[w][name] = row
            cells = "  ".join(
                f"med {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] spread {s['spread']:.3f}"
                for s in sets)
            print(f"{w:7s} {name:16s} bound {m['bound']:.2f}  {cells}  shift {worse:+.3f}  "
                  f"{'ok' if agree else 'DISAGREE'}")
    with open(os.path.join(ROOT, "BENCH_steady.json"), "w", encoding="utf-8") as f:
        json.dump({"seconds": seconds, "runs": RUNS, "report": report,
                   "raw": {w: [[r["metrics"] for r in s] for s in runs[w]] for w in workloads}},
                  f, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
