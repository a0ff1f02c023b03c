"""Tests of the benchmark harness itself: answers, tracer and inputs."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import solvsph  # noqa: E402
import solvsph.cli  # noqa: E402

from bench import workloads  # noqa: E402
from bench.tracer import ROOT as ROOT_SPAN  # noqa: E402
from bench.tracer import Tracer  # noqa: E402

SMALL_TYPES = ("A4/", "B4/", "A2xG2/", "B3xA1/")


def small_jobs(workload, seed, tmp_path, keep=lambda job: True):
    """Cheap jobs of one workload's pass, prepared for running."""
    jobs = workloads.select_jobs(workloads.load_corpus(), workload, seed)
    jobs = [j for j in jobs if keep(j)]
    workloads.prepare(jobs, tmp_path)
    return jobs


def namespace_snapshot():
    owners = [m for n, m in sys.modules.items() if n == "solvsph" or n.startswith("solvsph.")]
    owners += [solvsph.ChevalleyAlgebra, solvsph.SemigroupGenerators, solvsph.JobConfig]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_reference_answers_pass_at_this_commit(tmp_path):
    jobs = small_jobs("pipeline", 3, tmp_path, lambda j: j.stratum.startswith(SMALL_TYPES))
    assert jobs
    assert [e for _, _, e in workloads.run_pass(jobs) if e] == []


def test_injected_wrong_answer_raises_fail_ratio(tmp_path, monkeypatch):
    original = solvsph.cli.generators

    def drop_one(sub, table):
        gens = original(sub, table)
        gens.torus_gens = gens.torus_gens[1:]
        return gens

    monkeypatch.setattr(solvsph.cli, "generators", drop_one)
    jobs = small_jobs(
        "pipeline", 3, tmp_path,
        lambda j: j.stratum.startswith(SMALL_TYPES) and j.argv[0] == "semigroup",
    )
    results = workloads.run_pass(jobs)
    failed = [e for _, _, e in results if e]
    assert 0 < len(failed) / len(results)
    assert all("generator set differs" in e for e in failed)


def test_crash_counts_as_failure(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(solvsph, "open_orbit_check", boom)
    jobs = small_jobs("crosscheck", 1, tmp_path, lambda j: j.stratum.startswith("A1/"))
    results = workloads.run_pass(jobs)
    assert all(e and "ArithmeticError" in e for _, _, e in results)


def test_tracer_restores_every_patched_attribute():
    before = namespace_snapshot()
    with Tracer() as tracer:
        during = namespace_snapshot()
    after = namespace_snapshot()
    patched = {k for k, v in before.items() if during[k] is not v}
    # names bound by `from .x import f` are patched where they are bound too
    for owner, name in [
        (solvsph.cli, "check_spherical"),
        (solvsph.cli, "bounded_members"),
        (solvsph.config, "validate"),
        (solvsph.oracle, "check_spherical"),
        (solvsph, "build_subgroup"),
        (solvsph.ChevalleyAlgebra, "bracket"),
        (solvsph.SemigroupGenerators, "decompose"),
    ]:
        assert (id(owner), name) in patched
    assert tracer.missing == []
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_missing_target_is_listed_not_fatal():
    tracer = Tracer({"oracle.orbit": ["oracle:no_such_function", "oracle:open_orbit_check"]})
    with tracer:
        assert solvsph.open_orbit_check.__wrapped__ is not None
    assert tracer.missing == ["oracle:no_such_function"]
    assert not hasattr(solvsph.open_orbit_check, "__wrapped__")


def test_self_times_reproduce_root_spans(tmp_path):
    jobs = small_jobs("crosscheck", 2, tmp_path, lambda j: j.stratum in ("preset", "A2/sph"))[:6]
    jobs += small_jobs("pipeline", 2, tmp_path, lambda j: j.stratum.startswith(SMALL_TYPES))[:6]
    with Tracer() as tracer:
        results = workloads.run_pass(jobs, tracer)
    assert [e for _, _, e in results if e] == []
    selfs = tracer.self_times()
    assert all(s >= 0 for s in selfs)
    roots = [i for i, s in enumerate(tracer.spans) if s[0] == ROOT_SPAN]
    assert len(roots) == len(jobs)
    for i in roots:
        target, start, end, parent, job, _ = tracer.spans[i]
        tree = [k for k, s in enumerate(tracer.spans) if s[4] == job]
        assert parent == -1
        assert abs(sum(selfs[k] for k in tree) - (end - start)) < 1e-9 * max(1.0, end - start) + 1e-12
    metrics, traced = tracer.summary(1)
    layer_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert abs(layer_total + metrics["trace.unattributed_ratio"] * traced - traced) < 1e-6
    assert metrics["chevalley.algebras"] == len(jobs)
    assert metrics["oracle.orbit.calls"] == sum(1 for j in jobs if j.kind == "crosscheck")


def test_input_digest_is_stable_for_a_fixed_seed():
    corpus = workloads.load_corpus()
    for workload in workloads.FRAMES:
        a = workloads.input_digest(workloads.select_jobs(corpus, workload, 7))
        b = workloads.input_digest(workloads.select_jobs(workloads.load_corpus(), workload, 7))
        c = workloads.input_digest(workloads.select_jobs(corpus, workload, 8))
        assert a == b != c


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from bench import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.FRAMES)


def test_compare_refuses_runs_with_different_inputs(tmp_path):
    from bench import compare

    record = {"workload": "pipeline", "input_digest": "a", "end_to_end": {"jobs_per_s": 2.0}}
    for side, digest in (("old", "a"), ("new", "b")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "pipeline-seed1-trace0.json").write_text(
            json.dumps(dict(record, input_digest=digest))
        )
    assert compare.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 2
    (tmp_path / "new" / "pipeline-seed1-trace0.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
