"""Run one workload of the solvsph benchmark and print its metrics.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 0

Untraced runs (``--trace 0``) report the end-to-end metrics; traced runs
(``--trace 1``) alternate untraced and traced passes and report per-layer
metrics.  Each run is one process and one client: jobs run one after
another, in whole passes over the seed's job list, until ``--seconds`` are
used up.  Each job's latency is its median over the passes, scaled by the
host's speed in the run, as timed by the reference loop of
``calibrate.py`` between jobs.  The last line of stdout is the JSON
result; the full run record, with the unscaled figures, goes to
``bench/.work/records/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
SETUP_BEFORE = 3  # set-up samples before the first pass; one more follows every pass
MIN_PASSES = 3  # untraced passes; each job's latency is its median over them
CALIBRATE_EVERY = 4  # jobs between two timings of the reference loop
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}
SCALED = ("jobs_per_s", "job_p50_s", "job_tail_s")  # multiplied by the host-speed scale
PER_LAYER = {
    **{
        f"{layer}.self_s": "s"
        for layer in (
            "oracle.irrep",
            "oracle.kernel",
            "oracle.realization",
            "oracle.rep_check",
            "oracle.orbit",
            "oracle.witness",
            "oracle.enumerate",
            "chevalley",
            "rootsys",
            "subgroup",
            "sphericity",
            "semigroup",
            "linalg",
            "config",
            "cli",
        )
    },
    "oracle.irrep.calls": "count",
    "oracle.irrep.dim_sum": "count",
    "oracle.kernel.calls": "count",
    "oracle.kernel.useful_ratio": "1",
    "oracle.realization.calls": "count",
    "oracle.rep_check.calls": "count",
    "oracle.orbit.calls": "count",
    "oracle.orbit.witnessed_ratio": "1",
    "oracle.orbit.rank_calls": "count",
    "chevalley.algebras": "count",
    "chevalley.brackets": "count",
    "subgroup.validations": "count",
    "semigroup.decompositions": "count",
    "linalg.rref_calls": "count",
    "linalg.rref_entries": "count",
    "trace.overhead_ratio": "1",
    "trace.unattributed_ratio": "1",
}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "solvsph" / "__init__.py").is_file():
    fail(f"no solvsph source at {SRC / 'solvsph'}; run from a full checkout")
sys.path[:0] = [str(SRC), str(ROOT)]

import solvsph  # noqa: E402

from bench import calibrate, workloads  # noqa: E402
from bench.tracer import Tracer  # noqa: E402


def setup_time():
    """Time for a fresh interpreter to import solvsph.cli."""
    code = "import time; t = time.perf_counter(); import solvsph.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        fail(f"a fresh interpreter cannot import solvsph.cli: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout)


def tail_latency(latencies):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = (100, ordered[-1])
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)  # nearest-rank percentile
        if n - rank >= TAIL_BEYOND:
            best = (p, ordered[rank - 1])
    return best


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def passes_within(seconds, start, run_pass, minimum):
    """Whole passes: at least ``minimum``, then more while the next should end
    in time even if it is as slow as the slowest pass so far."""
    passes, slowest = [], 0.0
    while len(passes) < minimum or time.perf_counter() - start + slowest <= seconds:
        t0 = time.perf_counter()
        passes.append(run_pass())
        slowest = max(slowest, time.perf_counter() - t0)
    return passes


def measure(jobs, seconds, trace):
    """(untraced passes, traced passes, tracer, set-up samples, reference-loop
    samples); a pass is a list of job results.

    Set-up and reference-loop samples are spread over the whole run, so that
    their medians do not hang on the host's speed in one moment.  A traced
    run alternates untraced and traced passes, so that the overhead ratio
    compares the same jobs under the same host conditions.
    """
    start = time.perf_counter()
    setup = [setup_time() for _ in range(SETUP_BEFORE)]
    reference = []

    def after_job(index):
        if index % CALIBRATE_EVERY == CALIBRATE_EVERY - 1:
            reference.append(calibrate.time_reference_loop())

    def plain_pass():
        results = workloads.run_pass(jobs, after_job=after_job)
        setup.append(setup_time())
        return results

    if not trace:
        return passes_within(seconds, start, plain_pass, MIN_PASSES), [], None, setup, reference
    tracer = Tracer()

    def pair():
        plain = plain_pass()
        with tracer:
            return plain, workloads.run_pass(jobs, tracer)

    pairs = passes_within(seconds, start, pair, 2)
    return [plain for plain, _ in pairs], [traced for _, traced in pairs], tracer, setup, reference


def typical(passes):
    """Each job's median latency over the passes."""
    return [statistics.median(p[i][1] for p in passes) for i in range(len(passes[0]))]


def end_to_end(latencies, setup, scale):
    """The end-to-end metrics, job latencies multiplied by ``scale``.

    Set-up time is not scaled: the host's slow minutes move the reference
    loop by more than they move a fresh import, and scaled set-up times
    spread three times as far as unscaled ones.
    """
    scaled = [x * scale for x in latencies]
    percentile, tail_s = tail_latency(scaled)
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(scaled) / sum(scaled),
        "job_p50_s": statistics.median(scaled),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, percentile


def run_all(args):
    codes = [
        subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]).returncode
        for name in workloads.FRAMES
    ]
    return max(codes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.FRAMES, "all"],
                        help="one workload, or all of them, each in a fresh process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if Path(solvsph.__file__).resolve().parent != (SRC / "solvsph").resolve():
        fail(f"imported solvsph from {solvsph.__file__}, not from {SRC}")

    jobs = workloads.select_jobs(workloads.load_corpus(), args.workload, args.seed)
    digest = workloads.input_digest(jobs)
    workloads.prepare(jobs, WORK / "inputs")
    untraced, traced, tracer, setup, reference = measure(jobs, args.seconds, args.trace)
    results = [r for one_pass in untraced + traced for r in one_pass]
    latencies = typical(untraced)
    failures = [(job.id, error) for job, _, error in results if error is not None]
    reference_s = statistics.median(reference)
    scale = calibrate.REFERENCE_S / reference_s
    values, percentile = end_to_end(latencies, setup, scale)
    unscaled, _ = end_to_end(latencies, setup, 1.0)
    fail_ratio = len(failures) / len(results)
    props = workloads.properties(args.workload, jobs)

    print(f"workload {args.workload}  seed {args.seed}  {len(untraced)} untraced and {len(traced)} "
          f"traced passes of {len(jobs)} jobs  inputs sha256 {digest[:16]}")
    print(f"  host speed: reference loop {reference_s * 1e3:.4g} ms (median of {len(reference)}), "
          f"{calibrate.REFERENCE_S * 1e3:.4g} ms by definition; job times below are scaled by {scale:.4g}")
    for name, unit in END_TO_END.items():
        note = {
            "setup_s": f"   (median of {len(setup)} fresh imports)",
            "job_tail_s": f"   (p{percentile} of {len(latencies)} jobs)",
        }.get(name, "")
        if name in SCALED:
            note = f"   unscaled {unscaled[name]:.6g}{note}"
        print(f"  {name:12s} = {values[name]:.6g} {unit}{note}")
    print(f"  {'fail_ratio':12s} = {fail_ratio:.6g} 1   ({len(failures)} of {len(results)} jobs failed)")
    print(f"  properties: {json.dumps(props)}")
    for job_id, error in failures[:5]:
        print(f"  FAILED {job_id}: {error}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", "not loaded"),
        "nproc": len(os.sched_getaffinity(0)),
        "input_digest": digest,
        "properties": props,
        "tail_percentile": percentile,
        "samples": len(latencies),
        "setup_samples": len(setup),
        "fail_ratio": fail_ratio,
        "failures": failures[:20],
        "end_to_end": values,
        "unscaled": unscaled,
        "reference_loop_s": reference_s,
        "reference_loop_samples": len(reference),
        "scale": scale,
    }
    if args.trace:
        layer_metrics, traced_s = tracer.summary(len(traced))
        layer_metrics["trace.overhead_ratio"] = sum(latencies) / sum(typical(traced))
        values = layer_metrics
        units = PER_LAYER
        self_times = {k[: -len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
        dominant = max(self_times, key=self_times.get)
        print("  per traced pass:")
        for name in sorted(units, key=lambda k: (not k.endswith(".self_s"), k)):
            print(f"  {name:30s} = {values[name]:.6g} {units[name]}")
        print(f"  dominant layer: {dominant} ({self_times[dominant] / traced_s:.1%} of traced job time)")
        print("  wait time: none; every layer runs on one thread and nothing queues")
        if tracer.missing:
            print(f"  not traced (missing in this version): {', '.join(tracer.missing)}")
        record.update(per_layer=values, dominant_layer=dominant, missing_targets=tracer.missing)
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write_spans(WORK / "spans" / f"{args.workload}-seed{args.seed}.tsv")
    else:
        units = END_TO_END

    (WORK / "records").mkdir(parents=True, exist_ok=True)
    path = WORK / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
