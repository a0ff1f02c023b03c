"""The three workloads: which frozen jobs a seed selects, and the closed loop.

Inputs come from ``bench/corpus.json``, written once by ``make_corpus.py``
with ``solvsph.fuzzing`` and holding the reference answer of every job.  A
workload's frame fixes how many jobs each stratum contributes to one pass;
the seed only chooses which corpus entries fill those slots and their
order.  The share of each stratum, and so the cost of a pass, is therefore
the same on every seed, while the configs themselves vary.

Strata are named TYPE/VARIANT: the height for ``enumerate``, the verdict
for ``crosscheck``, the verdict and command for ``pipeline``.  ``preset``
strata hold the bundled configurations.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from pathlib import Path

import solvsph

from .jobs import CONFIG_SLOT, Job

CORPUS_PATH = Path(__file__).resolve().parent / "corpus.json"

# stratum -> jobs per pass; None takes every entry of the stratum.  The
# counts put the median (20th of 40 per-job latencies) and the tail (11th
# from the top) inside a block of jobs of one cost, away from its edges, so
# that host noise on single jobs does not move them across blocks.  A pass of enumerate or crosscheck is kept to about
# 5-7 s, so that a 60-s run gives every job six or more passes.
FRAMES = {
    # verify jobs: module build, kernels and realization dominate.
    "enumerate": {
        "preset": None,
        "A1/h1": 4,
        "A1/h2": 4,
        "A1/h3": 4,
        "A2/h2": 11,
        "A2/h3": 4,
        "C2/h1": 5,
        "C2/h2": 2,
        "A3/h1": 1,
    },
    # criterion vs open-orbit differential jobs: the orbit test dominates.
    "crosscheck": {
        "preset": None,
        "A1/sph": 8,
        "A1/non": 6,
        "A2/sph": 8,
        "A2/non": 5,
        "C2/sph": 7,
    },
    # check and semigroup --json on large ranks: Chevalley constants dominate.
    "pipeline": {
        "E8/preset": 2,
        "E7/preset": 1,
        "E6/preset": 2,
        **{
            f"{t}/{v}/{c}": 1 + 2 * (v == "sph" and t == "E6")
            for t in ("A4", "B4", "C4", "D5", "F4", "E6", "A2xG2", "B3xA1")
            for v in ("sph", "non")
            for c in ("check", "semigroup")
        },
    },
}


def load_corpus(path=CORPUS_PATH):
    with open(path) as fh:
        return json.load(fh)


def select_jobs(corpus, workload, seed):
    """The job list of one pass: the same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    strata = corpus["workloads"][workload]
    jobs = []
    for stratum, count in FRAMES[workload].items():
        entries = strata[stratum]
        picked = entries if count is None else rng.sample(entries, count)
        jobs.extend(Job.from_entry(stratum, e) for e in picked)
    rng.shuffle(jobs)
    return jobs


def input_digest(jobs):
    """sha256 over everything a job feeds the program, in pass order."""
    doc = [[j.id, list(j.argv), j.config_text, j.orbit_seed] for j in jobs]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def prepare(jobs, input_dir):
    """Write config files and parse crosscheck configs, outside any timing."""
    input_dir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if CONFIG_SLOT in job.argv:
            name = hashlib.sha256(job.config_text.encode()).hexdigest()[:16] + ".cfg"
            job.path = str(input_dir / name)
            Path(job.path).write_text(job.config_text)
        if job.kind == "crosscheck":
            job.config = solvsph.parse_config_text(job.config_text)


def run_pass(jobs, tracer=None, after_job=None):
    """One closed-loop pass: [(job, latency seconds, failure reason or None)].

    ``after_job(index)``, if given, runs after each job, outside its timing.
    """
    results = []
    for index, job in enumerate(jobs):
        error = answer = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer = job.run()
            else:
                answer = tracer.root(index, job.run)
        except Exception:  # a crash is a failed job, not a failed benchmark
            error = traceback.format_exc(limit=-2).strip().splitlines()[-1]
        elapsed = time.perf_counter() - t0
        if error is None:
            error = job.mismatch(answer)
        results.append((job, elapsed, error))
        if after_job is not None:
            after_job(index)
    return results


def properties(workload, jobs):
    """Input properties the workload's behaviour depends on."""
    out = {"jobs_per_pass": len(jobs)}
    if workload == "enumerate":
        out["module_dim_min"] = min(j.props["dim_min"] for j in jobs)
        out["module_dim_max"] = max(j.props["dim_max"] for j in jobs)
    else:
        non = sum(1 for j in jobs if not j.expect["spherical"])
        out["non_spherical_share"] = round(non / len(jobs), 4)
    return out
