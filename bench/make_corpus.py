"""Write bench/corpus.json: the frozen inputs and their reference answers.

    python3 bench/make_corpus.py

Fuzzed configs come from ``solvsph.fuzzing`` with fixed generator seeds and
are stored as ``JobConfig.to_text()``; each entry carries the answer the
package gives at the commit that writes the file.  Regenerating after a
change to fuzzing, presets or the config format changes the input digests,
so runs before and after are no longer comparable.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import solvsph  # noqa: E402
from solvsph.fuzzing import (  # noqa: E402
    POOL_ORACLE_RANK2,
    random_mixed_config,
    random_spherical_config,
)

from bench.jobs import CONFIG_SLOT, Job  # noqa: E402
from bench.workloads import CORPUS_PATH, FRAMES, prepare  # noqa: E402

WORK = ROOT / "bench" / ".work" / "corpus-inputs"
VERIFY_OPTS = ["--cap", "20000", "--trials", "200"]
POOL_PIPELINE = [
    (("A", 4),),
    (("B", 4),),
    (("C", 4),),
    (("D", 5),),
    (("F", 4),),
    (("E", 6),),
    (("A", 2), ("G", 2)),
    (("B", 3), ("A", 1)),
]
ENUMERATE_PRESETS = [
    ("sl2-torus", None, 3),
    ("borel", "C2", 1),
    ("tu-prime", "A2", 2),
    ("maximal-unipotent", "A2", 3),
    ("sl4-sp4borel", None, 1),
]
CROSSCHECK_PRESETS = ["borel", "maximal-unipotent", "tu-prime", "sl4-sp4borel", "sl2-torus", "sl2-trivial"]
PIPELINE_PRESETS = ["borel", "tu-prime", "maximal-unipotent"]
COMMANDS = {"check": ["check"], "semigroup": ["semigroup", "--json"]}
CANDIDATES = 2  # fuzzed candidates timed per pool entry of enumerate and crosscheck
TIMING_REPEATS = 3  # a candidate's cost is its fastest of this many runs


def type_name(components):
    return "x".join(f"{t}{r}" for t, r in components)


def parse_type(name):
    return tuple((part[0], int(part[1:])) for part in name.split("x"))


def pool_size(count):
    """Entries kept per stratum: enough for seeds to differ, few enough that
    every seed draws from one cost profile (see ``Builder.keep_typical``)."""
    return count + max(2, count // 2)


def dim_range(config, height):
    rs = solvsph.build_root_system(config.components)
    dims = [solvsph.weyl_dim(rs, lam) for lam in solvsph.dominant_weights_up_to(rs, height)]
    return {"dim_min": min(dims), "dim_max": max(dims)}


class Builder:
    def __init__(self):
        self.next_seed = 0
        self.strata = defaultdict(lambda: defaultdict(list))
        self.seconds = defaultdict(float)
        self.costs = defaultdict(list)

    def seed(self):
        self.next_seed += 1
        return self.next_seed

    def reference(self, job, config, repeats=1):
        """The answer at this commit, checked to be a passing one, and the
        fastest of ``repeats`` timed runs."""
        sub = solvsph.build_subgroup(config)
        spherical = bool(solvsph.check_spherical(sub).spherical)
        prepare([job], WORK)
        seconds = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            answer = job.run()
            seconds = min(seconds, time.perf_counter() - t0)
        if job.kind == "crosscheck":
            if answer["witnessed"] != spherical:
                raise SystemExit(f"{job.id}: open-orbit test disagrees with the criterion")
            return {"spherical": spherical}, seconds
        expect = {"exit": answer["exit"], "spherical": spherical, "generators": None}
        if spherical:
            probe = Job(job.id, "", job.config_text, {}, argv=("semigroup", CONFIG_SLOT, "--json"))
            prepare([probe], WORK)
            expect["generators"] = probe.run()["generators"]
        if job.argv[0] == "verify" and answer["exit"] != 0:
            raise SystemExit(f"{job.id}: verify fails on a spherical config")
        return expect, seconds

    def add(self, workload, stratum, config, argv=(), orbit_seed=None, props=None, repeats=1):
        entries = self.strata[workload][stratum]
        job = Job(
            id=f"{workload}/{stratum}/{len(entries)}",
            stratum=stratum,
            config_text=config.to_text(),
            expect={},
            argv=tuple(argv),
            orbit_seed=orbit_seed,
        )
        expect, seconds = self.reference(job, config, repeats)
        self.seconds[(workload, stratum)] += seconds
        self.costs[(workload, stratum)].append(seconds)
        entry = {"id": job.id, "config": job.config_text, "expect": expect}
        if argv:
            entry["argv"] = list(argv)
        if orbit_seed is not None:
            entry["orbit_seed"] = orbit_seed
        if props:
            entry["props"] = props
        entries.append(entry)

    def keep_typical(self, workload, stratum, count):
        """Keep the ``count`` entries whose cost is nearest the stratum's
        median, so that which entries a seed picks barely changes the cost
        of a pass."""
        entries = self.strata[workload][stratum]
        costs = self.costs[(workload, stratum)]
        middle = statistics.median(costs)
        kept = sorted(sorted(range(len(entries)), key=lambda i: abs(costs[i] - middle))[:count])
        for number, i in enumerate(kept):
            entries[i]["id"] = f"{workload}/{stratum}/{number}"
        self.strata[workload][stratum] = [entries[i] for i in kept]
        self.costs[(workload, stratum)] = [costs[i] for i in kept]
        self.seconds[(workload, stratum)] = sum(costs[i] for i in kept)


def draws(make, limit=20000):
    """Fuzzed configs; stops when a stratum cannot be filled with distinct ones."""
    for _ in range(limit):
        yield make()
    raise SystemExit("the fuzzer keeps repeating itself; shrink the frame's strata")


def distinct_configs(make, count):
    out, seen = [], set()
    for config in draws(make):
        if len(out) == count:
            break
        if config.to_text() not in seen:
            seen.add(config.to_text())
            out.append(config)
    return out


def build_enumerate(b):
    for name, group, height in ENUMERATE_PRESETS:
        components = parse_type(group) if group else None
        config = solvsph.get_preset(name, components)
        argv = ["verify", "--preset", name] + (["--group", group] if group else [])
        argv += ["--height", str(height), *VERIFY_OPTS, "--seed", str(b.seed())]
        b.add("enumerate", "preset", config, argv, props=dim_range(config, height))
    rng = random.Random(20261017)
    by_type = defaultdict(list)
    for stratum, count in FRAMES["enumerate"].items():
        if count is not None:
            by_type[stratum.split("/")[0]].append((stratum, count))
    for tname, strata in by_type.items():
        components = parse_type(tname)
        configs = distinct_configs(
            lambda: random_spherical_config(rng, [components]),
            max(pool_size(c) for _, c in strata) * CANDIDATES,
        )
        for stratum, count in strata:
            height = int(stratum.split("/h")[1])
            for config in configs[: pool_size(count) * CANDIDATES]:
                argv = ["verify", CONFIG_SLOT, "--height", str(height), *VERIFY_OPTS]
                argv += ["--seed", str(b.seed())]
                b.add("enumerate", stratum, config, argv, props=dim_range(config, height),
                      repeats=TIMING_REPEATS)
            b.keep_typical("enumerate", stratum, pool_size(count))


def build_crosscheck(b):
    for name in CROSSCHECK_PRESETS:
        b.add("crosscheck", "preset", solvsph.get_preset(name), orbit_seed=b.seed())
    rng = random.Random(6021023)
    frame = {s: c for s, c in FRAMES["crosscheck"].items() if c is not None}
    # A1 has only 22 distinct configs, all of one cost: no candidates to spare
    want = {s: pool_size(c) * (1 if s.startswith("A1/") else CANDIDATES) for s, c in frame.items()}
    seen = set()
    for config in draws(lambda: random_mixed_config(rng, POOL_ORACLE_RANK2)):
        if all(len(b.strata["crosscheck"][s]) >= n for s, n in want.items()):
            break
        if config.to_text() in seen:
            continue
        seen.add(config.to_text())
        spherical = solvsph.check_spherical(solvsph.build_subgroup(config)).spherical
        stratum = f"{type_name(config.components)}/{'sph' if spherical else 'non'}"
        if len(b.strata["crosscheck"][stratum]) < want.get(stratum, 0):
            b.add("crosscheck", stratum, config, orbit_seed=b.seed(), repeats=TIMING_REPEATS)
    for stratum, count in frame.items():
        b.keep_typical("crosscheck", stratum, pool_size(count))


def build_pipeline(b):
    for letter, rank in (("E", 6), ("E", 7), ("E", 8)):
        for name in PIPELINE_PRESETS:
            config = solvsph.get_preset(name, ((letter, rank),))
            for command in COMMANDS.values():
                argv = command + ["--preset", name, "--group", f"{letter}{rank}"]
                b.add("pipeline", f"{letter}{rank}/preset", config, argv)
    rng = random.Random(4862)
    for components in POOL_PIPELINE:
        tname = type_name(components)
        counts = {
            (v, c): FRAMES["pipeline"][f"{tname}/{v}/{c}"] for v in ("sph", "non") for c in COMMANDS
        }
        need = {v: pool_size(max(counts[v, c] for c in COMMANDS)) for v in ("sph", "non")}
        configs = {"sph": [], "non": []}
        seen = set()
        for config in draws(lambda: random_mixed_config(rng, [components])):
            if all(len(configs[v]) >= n for v, n in need.items()):
                break
            if config.to_text() in seen:
                continue
            seen.add(config.to_text())
            spherical = solvsph.check_spherical(solvsph.build_subgroup(config)).spherical
            verdict = "sph" if spherical else "non"
            if len(configs[verdict]) < need[verdict]:
                configs[verdict].append(config)
        for (verdict, command), count in counts.items():
            words = COMMANDS[command]
            for config in configs[verdict][: pool_size(count)]:
                argv = [words[0], CONFIG_SLOT, *words[1:]]
                b.add("pipeline", f"{tname}/{verdict}/{command}", config, argv)


def main():
    b = Builder()
    for build in (build_enumerate, build_crosscheck, build_pipeline):
        t0 = time.perf_counter()
        build(b)
        print(f"{build.__name__}: {time.perf_counter() - t0:.1f}s", flush=True)
    for (workload, stratum), seconds in sorted(b.seconds.items()):
        n = len(b.strata[workload][stratum])
        print(f"  {workload:10s} {stratum:22s} {n:3d} entries  mean job {seconds / n:.3f}s")
    corpus = {
        "schema": 1,
        "solvsph_version": solvsph.__version__,
        "workloads": {w: dict(s) for w, s in b.strata.items()},
    }
    CORPUS_PATH.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CORPUS_PATH}")


if __name__ == "__main__":
    main()
