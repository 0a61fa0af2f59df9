"""crystref benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload {table,oracle,wide_box} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports crystref from ./src.
Every repetition runs in a fresh interpreter (bench/child.py), one at a time,
with numpy/BLAS limited to one thread.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
interpreters of the import of crystref plus building the workload's groups,
mirror families and linear parts), wall_s (timed phase, run warm: the sum over
the parts of the workload's input of each part's median time), elements_per_s
(input size fixed by the workload over wall_s) and peak_rss_mb.  setup_s and
wall_s are in reference seconds, corrected for the host's drifting speed by
hostspeed.py; a summary line gives the raw seconds too.  A repetition runs one
part, the parts in turn.  Repetitions are started while the raw timed phases
so far leave room for one more within --seconds; every part runs at least
once.

--trace 1 runs one untraced and one traced repetition of the whole input and
prints the per-layer metrics of the traced one (see layertrace.py), with the
tracing overhead as traced minus untraced wall_s.

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; "attempted" and "failed" count
operations (rows for table and wide_box, elements for oracle).  The exit code
is 1 when any output check fails, 2 on bad usage or a checkout without the
crystref sources.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("table", "oracle", "wide_box")
SETUP_SAMPLES = 11          # fresh-interpreter set-ups per run, medianed
DEADLINE_S = 170            # a run ends well inside 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(Exception):
    pass


class Runner:
    """Starts child interpreters one at a time, within the run's deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        **{v: "1" for v in THREAD_VARS})
        # cached bytecode, as an installed package has; the warm-up writes it
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def child(self, mode: str, part="all") -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("run deadline reached")
        cmd = [sys.executable, str(HERE / "child.py"), mode, self.workload,
               str(self.seed), str(part)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=timeout,
                                  stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} of part {part} timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{mode} of part {part} exited {proc.returncode}")
        out = json.loads(lines[-1])
        if Path(out["crystref_source"]).resolve().parent.parent != SRC.resolve():
            raise ChildFailed(f"imported crystref from {out['crystref_source']}")
        return out


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "crystref").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def measure(runner: Runner, seconds: float) -> tuple[dict, list[dict], list[str]]:
    """End-to-end metrics over as many repetitions as fit in `seconds`."""
    reps = []
    try:
        # fills bytecode and file caches; discarded
        parts = runner.child("setup")["parts"]
        while True:
            reps.append(runner.child("run", len(reps) % parts))
            walls = [r["raw_wall_s"] for r in reps]
            if len(reps) >= parts and sum(walls) + statistics.median(walls) > seconds:
                break
        setups = list(reps)
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.child("setup"))
    except ChildFailed as exc:
        return {}, reps, [str(exc)]
    by_part = [[r for r in reps if r["part"] == k] for k in range(parts)]
    wall = sum(statistics.median(r["wall_s"] for r in rs) for rs in by_part)
    raw_wall = sum(statistics.median(r["raw_wall_s"] for r in rs) for rs in by_part)
    print(f"{runner.workload:8s} raw seconds, not corrected for host speed: "
          f"setup {statistics.median(r['raw_setup_s'] for r in setups):.4f}, "
          f"wall {raw_wall:.4f}")
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "wall_s": (wall, "s"),
        "elements_per_s": (sum(rs[0]["elements"] for rs in by_part) / wall, "1/s"),
        "peak_rss_mb": (max(statistics.median(r["peak_rss_mb"] for r in rs)
                            for rs in by_part), "MB"),
    }
    return metrics, reps, []


def measure_traced(runner: Runner) -> tuple[dict, list[dict], list[str]]:
    """Per-layer metrics from one traced repetition, and the tracing overhead
    against one untraced repetition of the same input."""
    try:
        runner.child("setup")
        plain = runner.child("run")
        traced = runner.child("trace")
    except ChildFailed as exc:
        return {}, [], [str(exc)]
    metrics = {}
    for group in ("setup_layers", "layers", "probes"):
        metrics.update(traced[group])
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100 * overhead / plain["wall_s"], "%")
    return metrics, [plain, traced], []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "crystref" / "__init__.py").is_file():
        print(f"error: no crystref sources under {SRC}; run from the root of a "
              "crystref checkout", file=sys.stderr)
        return 2

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True), flush=True)
    runner = Runner(args.workload, args.seed)
    if args.trace:
        metrics, reps, problems = measure_traced(runner)
    else:
        metrics, reps, problems = measure(runner, args.seconds)

    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for err in r["errors"][:20]:
            print(f"check failed: {err}", file=sys.stderr)
        if "summary" in r:
            print("outcomes " + json.dumps(r["summary"], sort_keys=True))
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if not reps:
        attempted = failed = 1
    correct = failed == 0 and not problems
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload:8s} {name:48s} {value:14.6g} {unit}")
    print(f"{args.workload:8s} {'ops':48s} {attempted:14d} count")
    print(f"{args.workload:8s} {'ops_failed':48s} {failed:14d} count")
    print(f"{args.workload:8s} repetitions {len(reps)}, load average "
          f"{[round(x, 2) for x in os.getloadavg()]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
