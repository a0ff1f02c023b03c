"""Below the config parser, ``verify`` runs on ints.

A ``verify`` run is profiled, and every call into ``fractions.py`` is
counted by the module and function that made it.  Fractions belong to the
config coefficients only, up to the primitive integer functionals that
``validate`` makes of them: the config parser, the presets, ``NilradicalSpec``,
``validate`` and ``linalg.primitive`` may call into ``fractions.py``, and no
other function of the package does.
"""

import ast
import collections
import fractions
import random
import sys
from pathlib import Path

import solvsph
from solvsph import cli, oracle
from solvsph.fuzzing import random_spherical_config

# the only callers of fractions.py in the package: whole modules, or one
# top-level class or function of a module
CONFIG_BOUNDARY = {
    "solvsph.config",
    "solvsph.presets",
    "solvsph.subgroup.NilradicalSpec",
    "solvsph.subgroup.validate",
    "solvsph.linalg.primitive",
}
NO_FRACTIONS_IMPORT = ["rootsys", "chevalley", "sphericity", "oracle", "semigroup"]


def _integer_coefficient_config():
    """The first fuzzed spherical config whose coefficients are all integers."""
    rng = random.Random(5)
    while True:
        config = random_spherical_config(rng)
        coeffs = [c for group in config.groups for _, c in group]
        if coeffs and all(c.denominator == 1 for c in coeffs):
            return config


def _profiled_verify(argv, monkeypatch, capsys):
    """Calls into fractions.py by (caller module, caller class or function),
    and the modules the run built."""
    modules = []  # every module build_irrep returns

    def keep(algebra, lam, dim_cap=oracle.DIM_CAP, build=oracle.build_irrep):
        modules.append(build(algebra, lam, dim_cap))
        return modules[-1]

    monkeypatch.setattr(oracle, "build_irrep", keep)
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            caller = frame.f_back
            qualname = getattr(caller.f_code, "co_qualname", caller.f_code.co_name)
            name = qualname.split(".<locals>")[0].split(".")[0]  # comprehensions and methods too
            calls[str(caller.f_globals.get("__name__")), name] += 1

    sys.setprofile(profile)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(None)
    out = capsys.readouterr().out
    assert code == 0 and "[FAIL]" not in out
    return calls, modules


def test_verify_makes_no_fractions_in_the_integer_core(tmp_path, monkeypatch, capsys):
    path = tmp_path / "job.txt"
    path.write_text(_integer_coefficient_config().to_text())
    runs = [["verify", "--preset", "sl4-sp4borel", "--height", "2"], ["verify", str(path), "--height", "1"]]
    for argv in runs:
        calls, modules = _profiled_verify(argv, monkeypatch, capsys)
        assert calls, "the profile saw no Fraction at all"
        bad = {
            (module, name): n
            for (module, name), n in calls.items()
            if module.startswith("solvsph.") and not {module, f"{module}.{name}"} & CONFIG_BOUNDARY
        }
        assert not bad, (argv, bad)
        assert len(modules) > 1
        for mod in modules:
            assert all(type(c) is int for w in mod.weights for c in w.coords), mod


def test_the_integer_core_does_not_import_fractions():
    for name in NO_FRACTIONS_IMPORT:
        tree = ast.parse((Path(solvsph.__file__).parent / f"{name}.py").read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "fractions" not in imported, name
