"""Mutation sweep: show that the test suite catches each fault a self-check exists for.

Each mutant replaces one piece of text, which must occur exactly once, in one
file of a fresh copy of the tree made under ``tempfile.mkdtemp()``, and runs

    python -m pytest -x -q -p no:cacheprovider tests bench/tests

in that copy, one mutant at a time, without ``tests/test_mutants_list.py``:
that test checks this list against the files, so it fails on every mutated
copy and would count each mutant killed.  A mutant is killed when the suite
fails or runs past ``TIMEOUT`` seconds.  The unmutated copy is run first and
must pass.  The sweep prints each mutant with the first test that failed on
it, and exits 1 if any survives.

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per run of the suite
SUITE = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests", "bench/tests",
         "--ignore=tests/test_mutants_list.py"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work", "*.egg-info")

# (name, file, old text, new text)
MUTANTS = [
    ("chains without 1/k!", "src/solvsph/oracle.py",
     "steps.append((r, k, w * pow(math.factorial(k), -1, PRIME) % PRIME))",
     "steps.append((r, k, w))"),
    ("chains cut at k <= 2", "src/solvsph/oracle.py",
     "        while entry is not None:\n            if len(steps) == 3:",
     "        while entry is not None and len(steps) < 2:\n            if len(steps) == 3:"),
    ("representation check without its bracket comparison", "src/solvsph/oracle.py",
     "            if _bracket_defect(actions, nonzero, x, y, terms):",
     "            if False:"),
    ("semi-invariant dimension clamped to 1", "src/solvsph/oracle.py",
     "return MultiplicityRecord(mod.lam, chi, len(cols) - len(linalg.echelon(images)))",
     "return MultiplicityRecord(mod.lam, chi, min(1, len(cols) - len(linalg.echelon(images))))"),
    ("active_roots ignores the verdict", "src/solvsph/sphericity.py",
     "    if not verdict.spherical:\n        raise NotSpherical(verdict.violations)\n    families = []",
     "    if False:\n        raise NotSpherical(verdict.violations)\n    families = []"),
    ("rank_mod_p skips its first kept pivot", "src/solvsph/linalg.py",
     "        for c, tail in kept:",
     "        for c, tail in kept[1:]:"),
    ("echelon without its gcd step", "src/solvsph/linalg.py",
     "                s = pow(a // g, -1, abs(b) // g)\n"
     "                rows[p] = add_into({k: s * x for k, x in r.items()}, v, (g - s * a) // b)\n",
     ""),
    ("floor division for the derived actions", "src/solvsph/oracle.py",
     "cols = [linalg.divide(add_into(apply(a, bj), apply(b, aj), -1), sign * n) for aj, bj in zip(a, b)]",
     "cols = [{r: x // (sign * n) for r, x in add_into(apply(a, bj), apply(b, aj), -1).items()}"
     " for aj, bj in zip(a, b)]"),
    ("_derived ignores the table", "src/solvsph/oracle.py",
     "    if kept is None or kept[0] is not table:",
     "    if kept is None:"),
    ("_module without the dimension formula check", "src/solvsph/oracle.py",
     "        if mod.dim != (predicted := weyl_dim(algebra.root_system, lam)):",
     "        if False:"),
    ("module check without [e_i, f_j] = delta_ij h_i", "src/solvsph/oracle.py",
     "            if _bracket_defect(self.actions, nonzero, e_keys[i], f_keys[j], want):",
     "            if False:"),
    ("decompose checks only the pair's total length", "src/solvsph/semigroup.py",
     '        if len(coords) != self.n:\n'
     '            raise ValueError(f"the weight of a pair has {len(coords)} coordinates, not n = {self.n}")\n'
     '        if len(chi) != self.d:\n'
     '            raise ValueError(f"the character of a pair has {len(chi)} coordinates, not d = {self.d}")\n',
     '        if len(coords) + len(chi) != self.n + self.d:\n'
     '            raise ValueError("pair has the wrong number of coordinates")\n'),
    ("annihilated_by_nil takes a vector of any length", "src/solvsph/oracle.py",
     'kills the vector; ValueError unless it has mod.dim coordinates."""\n    if len(vec) != mod.dim:',
     'kills the vector; ValueError unless it has mod.dim coordinates."""\n    if False:'),
    ("vector_s_weight takes a vector of any length", "src/solvsph/oracle.py",
     'if mixed, or unless it has mod.dim coordinates."""\n    if len(vec) != mod.dim:',
     'if mixed, or unless it has mod.dim coordinates."""\n    if False:'),
    ("the command line imports json up front", "src/solvsph/cli.py",
     "import argparse\n",
     "import argparse\nimport json\n"),
]


def run_suite(tree):
    """'passed', 'timeout' or the suite's first FAILED or ERROR line: the suite
    run in the tree, its process group killed when it runs past TIMEOUT."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(SUITE, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout"
    if proc.returncode == 0:
        return "passed"
    lines = out.splitlines()
    return next((line for line in lines if line.startswith(("FAILED ", "ERROR "))), lines[-1] if lines else "failed")


def run_mutant(file=None, old=None, new=None):
    """The suite's outcome in a fresh copy of the tree with the one mutant applied (none if no file)."""
    scratch = Path(tempfile.mkdtemp(prefix="solvsph-mutant-"))
    try:
        tree = scratch / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if file is not None:
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{file}: the mutated text occurs {text.count(old)} times, not once")
            path.write_text(text.replace(old, new))
        return run_suite(tree)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    start = time.monotonic()
    if (outcome := run_mutant()) != "passed":
        print(f"the unmutated tree did not pass ({outcome}); no mutant was run")
        return 2
    survivors = []
    for name, file, old, new in MUTANTS:
        t = time.monotonic()
        outcome = run_mutant(file, old, new)
        killed = outcome != "passed"
        survivors += [] if killed else [name]
        print(f"{'killed' if killed else 'SURVIVED'} in {time.monotonic() - t:.0f} s: {name}\n    {outcome}", flush=True)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed in {time.monotonic() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
