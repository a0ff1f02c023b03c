"""Replay recorded CLI runs: the answers stay the same.

``tests/data/golden_cli.json`` holds argv, stdout, stderr and the exit code
of ``verify`` on the six presets at heights 0-2, of ``verify --height 1`` on
30 fuzzed rank-3 configs (drawn with ``random.Random(2026)``), of ``check``
and ``semigroup --json`` on the six presets, and of ``verify --height 1`` on
30 fuzzed spherical rank-3 configs (drawn with ``random.Random(2027)``, so
every one reaches the module layer).  A change that alters
the output on purpose regenerates the file and says so:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from solvsph import chevalley, preset_names
from solvsph.cli import main
from solvsph.fuzzing import random_mixed_config, random_spherical_config

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"
CONFIG = "{config}"  # stands in argv for the file that holds a case's config text
ENV = ("SOLVSPH_HEIGHT", "SOLVSPH_CAP", "SOLVSPH_TRIALS", "SOLVSPH_SEED")


def _cases():
    for name in preset_names():
        for height in range(3):
            yield {"argv": ["verify", "--preset", name, "--height", str(height)]}
    rng = random.Random(2026)
    for _ in range(30):
        config = random_mixed_config(rng)
        yield {"argv": ["verify", CONFIG, "--height", "1"], "config": config.to_text()}
    for name in preset_names():
        yield {"argv": ["check", "--preset", name]}
        yield {"argv": ["semigroup", "--preset", name, "--json"]}
    rng = random.Random(2027)
    for _ in range(30):
        config = random_spherical_config(rng)
        yield {"argv": ["verify", CONFIG, "--height", "1"], "config": config.to_text()}


def _run(case, workdir):
    argv = list(case["argv"])
    if "config" in case:
        path = Path(workdir) / "job.cfg"
        path.write_text(case["config"])
        argv[argv.index(CONFIG)] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


# read when the tests are collected; the script that rewrites it does not read it
RECORDED = json.loads(GOLDEN.read_text()) if __name__ != "__main__" else []


@pytest.mark.parametrize(
    "case", RECORDED, ids=[f"{i}:{'_'.join(case['argv'])}" for i, case in enumerate(RECORDED)]
)
def test_cli_output_matches_the_recording(case, tmp_path, monkeypatch):
    for name in ENV:
        monkeypatch.delenv(name, raising=False)
    expected = {k: case[k] for k in ("stdout", "stderr", "exit")}
    assert _run(case, tmp_path) == expected


def test_the_verify_preset_cases_match_the_recording_from_an_empty_memo(tmp_path, monkeypatch):
    # the replay above runs in one process, so most of its modules come from
    # the memo of each type's one algebra; here every preset case builds a
    # new algebra and its modules afresh
    for name in ENV:
        monkeypatch.delenv(name, raising=False)
    cases = [case for case in RECORDED if case["argv"][:2] == ["verify", "--preset"]]
    assert len(cases) == 3 * len(preset_names())
    for case in cases:
        monkeypatch.setattr(chevalley, "_ALGEBRAS", {})
        assert _run(case, tmp_path) == {k: case[k] for k in ("stdout", "stderr", "exit")}, case["argv"]


def test_the_recorded_cases_are_the_ones_drawn_today():
    drawn = list(_cases())
    assert len(drawn) == len(RECORDED)
    for i, (case, recorded) in enumerate(zip(drawn, RECORDED)):
        assert case == {k: recorded[k] for k in ("argv", "config") if k in recorded}, i


def _regenerate():
    for name in ENV:
        os.environ.pop(name, None)
    cases = []
    with tempfile.TemporaryDirectory() as workdir:
        for case in _cases():
            cases.append({**case, **_run(case, workdir)})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
