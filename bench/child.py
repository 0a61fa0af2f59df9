"""One repetition of a workload in a fresh interpreter; bench/run.py starts it
with the package's source directory on PYTHONPATH.

    python3 bench/child.py MODE WORKLOAD SEED PART

MODE is "setup" (import and set up only), "run" (set up, then the timed
phase, then the output checks) or "trace" (as "run", with the tracer of
layertrace.py installed after the import, then the fixed-operand probes).
PART is the part of the workload's input to run, or "all".
Set-up and the timed phase are each timed by a hostspeed.Phase, in raw and in
reference seconds.  The last line of standard output is one JSON object with
the measurements.
"""

import json
import resource
import sys

import hostspeed


def main(mode: str, workload_name: str, seed: int, part) -> dict:
    tracer = None
    # in the traced run the tracer times the calls; no calibration inside them
    with hostspeed.Phase(periodic=mode != "trace") as setup:
        import crystref  # the import is part of the set-up time
        if mode == "trace":
            import layertrace
            tracer = layertrace.Tracer()
            tracer.install()
        import workloads
        workload = workloads.WORKLOADS[workload_name]
        specs = workloads.setup(workload.group_ids())
    out = {"setup_s": setup.ref_s, "raw_setup_s": setup.raw_s,
           "crystref_source": crystref.__file__,
           "parts": workload.parts, "part": part}
    if mode == "setup":
        return out

    inputs = workload.prepare(specs, seed, part)
    out["ops"], out["elements"] = workload.size(specs, inputs)
    if tracer is not None:
        out["setup_layers"] = tracer.setup_metrics()
        tracer.reset()
    with hostspeed.Phase(periodic=tracer is None) as timed:
        outputs = workload.run(specs, inputs)
    out["wall_s"], out["raw_wall_s"] = timed.ref_s, timed.raw_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.phase_metrics(
            [layertrace.slug(str(gid)) for gid in crystref.catalog_ids()])
        out["probes"] = layertrace.probe_metrics()
    out["failed"], out["errors"] = workload.check(specs, inputs, outputs, seed)
    summary = getattr(workload, "summary", None)
    if summary is not None:
        out["summary"] = summary(outputs)
    return out


if __name__ == "__main__":
    mode, name, seed, part = sys.argv[1:5]
    print(json.dumps(main(mode, name, int(seed),
                          None if part == "all" else int(part))))
