"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload extract-sorted --seed 1 --seconds 12 --trace 0

Run from the repository root.  The program is imported from ``src/`` next
to this directory.  Jobs run in a closed loop, one process and one thread:
each job starts when the previous one ends, and whole rounds of jobs start
until ``--seconds`` have passed.  Every completed job's output is checked
by code of the benchmark's own.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` wraps the program's layer boundaries and prints the
per-layer metrics instead (README.md lists both).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def since_process_start() -> float:
    """Seconds since this process started: its start time in
    /proc/self/stat is in clock ticks since boot, the clock CLOCK_BOOTTIME
    reads."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def import_program():
    """Import ``slramsey`` from this checkout's ``src/``, never elsewhere."""
    if not (SRC / "slramsey" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'slramsey'}")
    sys.path.insert(0, str(SRC))
    import slramsey

    if Path(slramsey.__file__).resolve().parent != SRC / "slramsey":
        raise SystemExit(f"error: slramsey imported from {slramsey.__file__}")


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# per-layer times: median per completed job of the summed span seconds
LAYER_SECONDS = {
    "semilinear.decompose_s": ("semilinear.decompose.s",),
    "exactnum.perturb_s": ("exactnum.perturb.s",),
    "streamline.monotone_s": ("streamline.monotone.s",),
    "streamline.cupcap_s": ("streamline.cupcap.s",),
    "streamline.expshift_s": ("streamline.expshift.s",),
    "pipeline.self_s": ("pipeline.extract.self_s",),
    "domination.clique_s": ("domination.clique.s",),
    "jsonio.dump_s": ("jsonio.to_json.s", "jsonio.dumps.s"),
    "cli.verify_s": ("cli.verify.s",),
    "hypergraph.omega_s": ("hypergraph.omega.s",),
    "hypergraph.alpha_s": ("hypergraph.alpha.s",),
    "constructions.edge_fn_s": ("constructions.edge_fn_s",),
}
# per-layer counts: summed over every job of the first round
LAYER_COUNTS = {
    "semilinear.decompose_calls": ("semilinear.decompose.calls", "count"),
    "exactnum.floor_log_calls": ("exactnum.floor_log.calls", "count"),
    "domination.steps": ("domination.steps", "count"),
    "domination.fallbacks": ("domination.fallbacks", "count"),
    "domination.below_threshold_jobs": ("domination.below_threshold_jobs", "count"),
    "jsonio.certificate_bytes": ("jsonio.certificate_bytes", "bytes"),
    "hypergraph.edge_tests": ("hypergraph.edge_tests", "count"),
}
# extraction widths: mean over the first round's completed extract jobs
LAYER_WIDTHS = {
    "streamline.monotone_width": "monotone",
    "streamline.cupcap_width": "cupcap",
    "streamline.sampled_width": "sampled",
}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from slramsey.errors import InsufficientInputError

    make_round = workloads.WORKLOADS[workload]
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    wrap = tracer.predicate if tracer else None

    pending = make_round(seed, 0, wrap)
    first_round = range(len(pending))
    job = pending[0]()  # the first job's inputs belong to set-up
    setup_s = since_process_start()

    OUT_DIR.mkdir(exist_ok=True)
    cert_path = OUT_DIR / f"cert-{os.getpid()}.json"
    if tracer:
        tracer.install()

    done = []  # one record per completed job
    sizes = []
    attempted = failed = 0
    correct = True
    peak_rss_mb = 0.0
    rnd = 0
    t_start = time.perf_counter()
    try:
        while rnd == 0 or time.perf_counter() - t_start < seconds:
            if rnd > 0:
                pending = make_round(seed, rnd, wrap)
            for slot, build in enumerate(pending):
                if not (rnd == 0 and slot == 0):
                    job = None  # free the last job's inputs before building
                    job = build()
                index = attempted
                attempted += 1
                if tracer:
                    tracer.job = index
                t0 = time.perf_counter()
                try:
                    res = job.solve()
                except InsufficientInputError as exc:  # a rejected input: failed
                    failed += 1
                    print(f"job {index} failed: {exc}", file=sys.stderr)
                    continue
                except Exception as exc:  # anything else is a wrong answer
                    failed += 1
                    correct = False
                    print(f"job {index} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                t1 = time.perf_counter()
                problems = []
                if job.certified:
                    try:
                        rc = workloads.verify_certificate(job.certificate(res), cert_path)
                        if rc != 0:
                            problems.append(f"verify exited {rc}")
                    except Exception as exc:
                        problems.append(f"certificate: {type(exc).__name__}: {exc}")
                t2 = time.perf_counter()
                try:
                    job.check(res)
                except Exception as exc:  # CheckFailed, or a malformed result
                    problems.append(str(exc))
                if problems:
                    correct = False
                    print(f"job {index} check failed: {'; '.join(problems)}", file=sys.stderr)
                job_sizes = job.sizes(res)
                sizes.extend(job_sizes)
                done.append({
                    "job": index, "round": rnd, "slot": slot,
                    "solve_s": t1 - t0, "job_s": t2 - t0,
                    "sizes": job_sizes, "widths": getattr(res, "widths", None),
                })
            if rnd == 0:
                # Peak memory over the first round, a fixed set of jobs, so
                # that it does not depend on how many rounds fit in the run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            rnd += 1
    finally:
        if tracer:
            tracer.uninstall()
        cert_path.unlink(missing_ok=True)

    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"jobs-{tag}.json").write_text(json.dumps(done) + "\n")
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    if not tracer:
        result["metrics"] = {
            "setup_s": metric(setup_s, "s"),
            "job_s": metric(median([d["job_s"] for d in done]), "s"),
            "solve_s": metric(median([d["solve_s"] for d in done]), "s"),
            "result_size": metric(statistics.fmean(sizes) if sizes else 0.0, "vertices"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        return result

    metrics = {}
    for name, keys in LAYER_SECONDS.items():
        per_job = [sum(tracer.counts[d["job"]].get(k, 0.0) for k in keys) for d in done]
        metrics[name] = metric(median(per_job), "s")
    for name, (key, unit) in LAYER_COUNTS.items():
        metrics[name] = metric(sum(tracer.counts[j].get(key, 0) for j in first_round), unit)
    widths = [d["widths"] for d in done if d["round"] == 0 and d["widths"]]
    for name, key in LAYER_WIDTHS.items():
        value = statistics.fmean(w[key] for w in widths) if widths else 0.0
        metrics[name] = metric(value, "columns")
    result["metrics"] = metrics
    tracer.write(OUT_DIR / f"trace-{tag}.json")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps(result)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
