"""Run bench/run.py on seeds 1 to 10 for every workload, in two sets, test
the result against the bounds in BENCHMARK.json, and write it to OUT.

    python3 bench/collect.py OUT

Each run measures for BENCHMARK.json's run_seconds.  Per set, each
end-to-end metric is summarised by its median and its quartile spread
(Q3 - Q1) / median, with quartiles as statistics.quantiles(values, n=4) gives
them.  A metric is within its bound when its spread is at most the bound in
both sets (setup_s is exempt), and the second set's median is not worse than
the first set's by more than the bound.  One traced run per workload (seed 1)
adds the per-layer metrics.  Run from the root of a crystref checkout.  It
exits 1 if any run fails its output checks or any metric is outside its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table", "oracle", "wide_box")
SEEDS = range(1, 11)
SETS = 2
NO_SPREAD_BOUND = ("setup_s",)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(x.split(" ", 1)[1]) for x in lines
                if x.startswith("environment ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["environment"] = env
    result["exit_code"] = proc.returncode
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def agreement(metric: dict, summaries: list[dict]) -> dict:
    """The metric's spreads and medians over the sets, and how much worse
    than the first set's median each later set's median is, as a share."""
    medians = [s["median"] for s in summaries]
    sign = 1 if metric["better"] == "lower" else -1
    worse = [sign * (m - medians[0]) / medians[0] if medians[0] else float("inf")
             for m in medians[1:]]
    spreads = [s["spread"] for s in summaries]
    ok = all(w <= metric["bound"] for w in worse)
    if metric["name"] not in NO_SPREAD_BOUND:
        ok &= all(s <= metric["bound"] for s in spreads)
    return {"bound": metric["bound"], "spreads": spreads, "medians": medians,
            "worse_than_first": worse, "within_bound": ok}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "seeds": list(SEEDS), "sets": [],
              "agreement": {}, "per_layer": {}}
    ok = True
    for number in range(1, SETS + 1):
        entries = {}
        for workload in WORKLOADS:
            runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
            ok &= all(r["correct"] and r["exit_code"] == 0 for r in runs)
            entry = {m["name"]: summarise([r["metrics"].get(m["name"], {})
                                           .get("value", 0.0) for r in runs])
                     for m in spec["end_to_end"]}
            for name, s in entry.items():
                print(f"set {number} {workload:8s} {name:16s} median "
                      f"{s['median']:12.5g} spread {s['spread']:.4f}", flush=True)
            entry["attempted"] = [r["attempted"] for r in runs]
            entry["failed"] = [r["failed"] for r in runs]
            entry["loadavg"] = [r["environment"].get("loadavg") for r in runs]
            report["environment"] = runs[-1]["environment"]
            entries[workload] = entry
        report["sets"].append(entries)
    for workload in WORKLOADS:
        report["agreement"][workload] = rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows[name] = agreement(metric, [s[workload][name] for s in report["sets"]])
            ok &= rows[name]["within_bound"]
            print(f"{workload:8s} {name:16s} spreads "
                  f"{' '.join(f'{x:.4f}' for x in rows[name]['spreads'])} worse "
                  f"{' '.join(f'{x:+.4f}' for x in rows[name]['worse_than_first'])}"
                  f" bound {metric['bound']}"
                  f"{'' if rows[name]['within_bound'] else '  OUTSIDE BOUND'}")
        traced = bench(workload, SEEDS[0], seconds, 1)
        ok &= traced["correct"]
        report["per_layer"][workload] = {k: v["value"]
                                         for k, v in traced["metrics"].items()}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
