"""Command line interface.

    solvsph check  <file | --preset NAME>          sphericity + consistency
    solvsph semigroup <file | --preset NAME> [--json]
    solvsph verify <file | --preset NAME> [--height H] [--cap D] [--trials T]
    solvsph presets list | show NAME

A config file is either in the text format or a JSON document whose
``config`` member holds the config, as ``semigroup --json`` prints it; both
are read by the field rules of ``config``, whose integer rule also reads
``--group``, the verify flags and the SOLVSPH_* variables.

Exit codes: 0 success, 1 negative verdict or failed check, 2 refused input (a
SolvsphError or ValueError, an unreadable config included), 141 stdout closed
by its reader (as for SIGPIPE), 3 any other failure: an internal error.
Options fall back to SOLVSPH_HEIGHT / SOLVSPH_CAP / SOLVSPH_TRIALS /
SOLVSPH_SEED and then to the config's [options] section.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

from . import oracle, presets
from .config import JobConfig, _component, _integer, _parse_file, build_subgroup
from .errors import ConfigParseError, DimensionCap, SolvsphError
from .rootsys import fmt_root, fmt_weight
from .semigroup import bounded_members, generators
from .sphericity import active_roots, check_spherical, verify_active_axioms


def _parse_group_override(text):
    """``--group``: components joined by x, e.g. A2 or A1xC2."""
    if not text.strip():
        raise ConfigParseError(f"--group wants components such as A2 or A1xC2, got {text!r}")
    return tuple(_component(p.strip()[:1], p.strip()[1:]) for p in text.replace("X", "x").split("x"))


def load_config(args) -> JobConfig:
    if args.preset:
        override = _parse_group_override(args.group) if args.group is not None else None
        return presets.get_preset(args.preset, override)
    if not args.config:
        raise ConfigParseError("either a config file or --preset is required")
    try:
        with open(args.config, encoding="utf-8-sig") as fh:  # a byte-order mark is dropped
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a null byte in the path
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigParseError(f"cannot read {args.config}: {reason}") from None
    return _parse_file(text)


def _resolve(flag_value, env_name, config_value):
    if flag_value is not None:
        return flag_value
    env = os.environ.get(env_name)
    if env is not None:
        return _integer(env, f"{env_name} must be an integer")
    return config_value


def _spherical_table(sub, out):
    """The active-root table of a spherical subgroup; for any other, None
    once the negative verdict is printed."""
    verdict = check_spherical(sub)
    if verdict.spherical:
        return active_roots(sub)
    print(f"NOT spherical: {verdict.violations}", file=out)
    return None


def cmd_check(config: JobConfig, out=None):
    """Validation, weight table, sphericity verdict, consistency report."""
    sub = build_subgroup(config)
    print(f"group: {sub.root_system.describe()}   (n = {sub.root_system.n}, "
          f"d = {sub.tau.d}, dim N = {sub.dim_n} of {sub.dim_u})", file=out)
    print("weight table:", file=out)
    for phi, roots, c in sub.weight_table():
        names = " ".join(fmt_root(r) for r in roots)
        print(f"  chi={list(phi)}  codim={c}  roots: {names}", file=out)
    if (table := _spherical_table(sub, out)) is None:
        return 1
    print(f"spherical: yes   (m = {table.m})", file=out)
    for i, fam in enumerate(table.families):
        names = " ".join(fmt_root(r) for r in fam.roots)
        anchors = " ".join(f"a{table.anchor[r.coords] + 1}" for r in fam.roots)
        print(f"  family {i + 1}: chi={list(fam.phi)}  roots: {names}  anchors: {anchors}", file=out)
    report = verify_active_axioms(sub, table)
    checks = ", ".join(f"{k}={v}" for k, v in sorted(report.checks.items()))
    print(f"consistency checks passed: {checks}", file=out)
    return 0


def _generators_json(config, gens):
    return {
        "schema": 1,
        "config": config.to_json_dict(),
        "spherical": True,
        "n": gens.n,
        "m": gens.m,
        "generators": {
            "torus": [
                {"weight": list(w.coords), "chi": list(chi)} for w, chi in gens.torus_gens
            ],
            "active": [
                {
                    "weight": list(w.coords),
                    "chi": list(chi),
                    "family_weight": list(lam.coords),
                }
                for (w, chi), lam in zip(gens.active_gens, gens.anchor_wts)
            ],
        },
    }


def cmd_semigroup(config: JobConfig, as_json=False, out=None):
    """The free generators, as a table or as JSON."""
    sub = build_subgroup(config)
    if (table := _spherical_table(sub, out)) is None:
        return 1
    gens = generators(sub, table)
    if as_json or config.options.format == "json":
        import json  # only JSON output needs it

        print(json.dumps(_generators_json(config, gens), indent=2, sort_keys=True), file=out)
        return 0
    print(f"{gens.n + gens.m} free generators (n = {gens.n}, m = {gens.m}):", file=out)
    for w, chi in gens.torus_gens:
        print(f"  ({fmt_weight(w)}, chi={list(chi)})   weight={list(w.coords)}  [torus]", file=out)
    for w, chi in gens.active_gens:
        print(f"  ({fmt_weight(w)}, chi={list(chi)})   weight={list(w.coords)}  [active]", file=out)
    return 0


def cmd_verify(config: JobConfig, height=None, cap=None, trials=None, seed=None, out=None):
    """Brute-force verification; one pass/fail line per criterion."""
    height = _resolve(height, "SOLVSPH_HEIGHT", config.options.height_bound)
    cap = _resolve(cap, "SOLVSPH_CAP", config.options.dim_cap)
    trials = _resolve(trials, "SOLVSPH_TRIALS", config.options.trials)
    seed = _resolve(seed, "SOLVSPH_SEED", config.options.seed)
    for value, least, what in ((height, 0, "height bound"), (cap, 1, "module dimension cap"),
                               (trials, 1, "open-orbit trials")):
        if value < least:
            raise ValueError(f"{what} must be at least {least}, got {value}")

    sub = build_subgroup(config)
    if (table := _spherical_table(sub, out)) is None:
        return 1
    gens = generators(sub, table)
    rs = sub.root_system
    anchors = gens.anchor_wts
    # check every module built below against the cap before building any;
    # level by level, so an over-cap height stops at its first over-cap level
    levels = itertools.chain.from_iterable(
        oracle.dominant_weights_at_level(rs, level) for level in range(height + 1)
    )
    for lam in itertools.chain(oracle.checked_fundamentals(rs), levels, anchors):
        predicted = oracle.weyl_dim(rs, lam)
        if predicted > cap:
            raise DimensionCap(predicted, cap)
    oracle.build_realization(sub.algebra)  # the table's verdict, on every run, even if each module is a memo hit
    # held until verify returns: the algebra's memo keeps a held module, so the stream reuses each anchor
    anchor_mods = [oracle.build_irrep(sub.algebra, lam, cap) for lam in anchors]
    failures = 0

    def emit(ok, label):
        nonlocal failures
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {label}", file=out)

    records = oracle.enumerate_semigroup(sub, height, cap)
    emit(all(r.dim <= 1 for r in records), f"multiplicity free: {len(records)} records, all dim <= 1")

    duals = {lam: rs.dual_weight(lam).coords for lam in {r.lam for r in records}}
    found = {(duals[r.lam], r.chi) for r in records}
    member = bounded_members(gens, height)
    consistent = all(gens.decompose(p) is not None for p in member)
    emit(member == found and consistent,
         f"semigroup matches enumeration up to height {height}: {len(found)} pairs")

    for j, mod in enumerate(anchor_mods):
        w = oracle.semi_invariant_witness(mod, sub, table, j)
        ok = any(x != 0 for x in w) and oracle.annihilated_by_nil(mod, sub, w)
        try:
            chi = oracle.vector_s_weight(mod, sub, w)
        except ValueError:  # zero, or of mixed S-weights: the self-check fails
            chi = None
        expect = gens.active_gens[j][1]  # the character of the j-th active generator
        emit(ok and chi == expect, f"witness vector for family {j + 1} is a semi-invariant")

    emit(oracle.open_orbit_check(sub, trials=trials, seed=seed),
         f"open orbit witnessed within {trials} trials")
    return 1 if failures else 0


def cmd_presets(action, name=None, out=None):
    if action == "list":
        if name is not None:
            raise ConfigParseError(f"presets list takes no preset name, got {name!r}")
        for n in presets.preset_names():
            print(f"{n:20s} {presets.preset_description(n)}", file=out)
        return 0
    if name is None:
        raise ConfigParseError("presets show needs a preset name")
    print(presets.get_preset(name).to_text(), end="", file=out)
    return 0


@functools.cache  # built on the first call to main, then reused
def _build_parser():
    parser = argparse.ArgumentParser(prog="solvsph", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("config", nargs="?", help="config file, text or JSON (or use --preset)")
        p.add_argument("--preset", help="bundled configuration name")
        p.add_argument("--group", help="group override for parametrized presets, e.g. A3")

    p_check = subs.add_parser("check", help="validate and test sphericity")
    add_source(p_check)

    p_semi = subs.add_parser("semigroup", help="print the free generators")
    add_source(p_semi)
    p_semi.add_argument("--json", action="store_true", help="machine-readable output")

    p_verify = subs.add_parser("verify", help="run the brute-force verification")
    add_source(p_verify)
    p_verify.add_argument("--height", help="enumeration height bound")
    p_verify.add_argument("--cap", help="module dimension cap")
    p_verify.add_argument("--trials", help="open-orbit sample count")
    p_verify.add_argument("--seed", help="random seed")

    p_presets = subs.add_parser("presets", help="list or show bundled configurations")
    p_presets.add_argument("action", choices=["list", "show"])
    p_presets.add_argument("name", nargs="?")
    return parser


def _run(args):
    try:
        if args.command == "presets":
            return cmd_presets(args.action, args.name)
        config = load_config(args)
        if args.command == "check":
            return cmd_check(config)
        if args.command == "semigroup":
            return cmd_semigroup(config, as_json=args.json)
        flags = {k: getattr(args, k) for k in ("height", "cap", "trials", "seed")}
        flags = {k: v if v is None else _integer(v, f"--{k} wants an integer") for k, v in flags.items()}
        return cmd_verify(config, **flags)
    except (SolvsphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is left to devnull, so the flush at
        # exit cannot fail again, and exit as a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:  # refused input is handled by _run: whatever is left is internal
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
