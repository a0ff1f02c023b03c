"""The combinatorial core and the modules of ``verify`` run on ints.

A ``verify`` run is profiled, and every call into ``fractions.py`` is
counted by the module and function that made it.  Fractions belong to the
config coefficients, the rational kernels of ``linalg`` and the subgroup
built from them, and to two oracle functions; the root system, the
Chevalley constants, sphericity and the semigroup reducer make none.
"""

import collections
import fractions
import random
import sys

from solvsph import cli, oracle
from solvsph.fuzzing import random_spherical_config

NO_FRACTIONS = {"solvsph.rootsys", "solvsph.chevalley", "solvsph.semigroup", "solvsph.sphericity"}
ORACLE_ALLOWED = {"semi_invariant_witness", "highest_vector"}


def _integer_coefficient_config():
    """The first fuzzed spherical config whose coefficients are all integers."""
    rng = random.Random(5)
    while True:
        config = random_spherical_config(rng)
        coeffs = [c for group in config.groups for _, c in group]
        if coeffs and all(c.denominator == 1 for c in coeffs):
            return config


def _profiled_verify(argv, monkeypatch, capsys):
    """Calls into fractions.py by (caller module, caller function), and the
    modules the run built."""
    realizations = []

    def keep(algebra, build=oracle.build_realization):
        realizations.append(build(algebra))
        return realizations[-1]

    monkeypatch.setattr(oracle, "build_realization", keep)
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            caller = frame.f_back
            qualname = getattr(caller.f_code, "co_qualname", caller.f_code.co_name)
            function = qualname.split(".<locals>")[0].rsplit(".", 1)[-1]  # comprehensions too
            calls[caller.f_globals.get("__name__"), function] += 1

    sys.setprofile(profile)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(None)
    out = capsys.readouterr().out
    assert code == 0 and "[FAIL]" not in out
    return calls, [mod for real in realizations for mod in real.modules.values()]


def test_verify_makes_no_fractions_in_the_integer_core(tmp_path, monkeypatch, capsys):
    path = tmp_path / "job.txt"
    path.write_text(_integer_coefficient_config().to_text())
    runs = [["verify", "--preset", "sl4-sp4borel", "--height", "2"], ["verify", str(path), "--height", "1"]]
    for argv in runs:
        calls, modules = _profiled_verify(argv, monkeypatch, capsys)
        assert calls, "the profile saw no Fraction at all"
        bad = {k: n for k, n in calls.items() if k[0] in NO_FRACTIONS}
        bad.update({k: n for k, n in calls.items() if k[0] == "solvsph.oracle" and k[1] not in ORACLE_ALLOWED})
        assert not bad, (argv, bad)
        assert len(modules) > 1
        for mod in modules:
            assert all(type(c) is int for w in mod.weights for c in w.coords), mod
