import copy
import io
import json
import os
import pickle
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from solvsph import (
    AxiomViolation,
    ConfigParseError,
    JobConfig,
    MultipleCandidates,
    NoValidCandidate,
    build_root_system,
    cli,
    get_preset,
    oracle,
    parse_config_text,
    preset_names,
)
from solvsph.config import JobOptions
from solvsph.fuzzing import POOL_RANK3, random_mixed_config
from solvsph.cli import cmd_check, cmd_semigroup, cmd_verify, main


def _run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_preset_text_round_trips():
    for name in preset_names():
        config = get_preset(name)
        assert parse_config_text(config.to_text()) == config


def test_json_round_trips():
    for name in preset_names():
        config = get_preset(name)
        blob = json.dumps(config.to_json_dict())
        assert JobConfig.from_json_dict(json.loads(blob)) == config


def test_configs_survive_deepcopy_and_pickle():
    for name in preset_names():
        config = get_preset(name)
        for twin in (copy.deepcopy(config), pickle.loads(pickle.dumps(config))):
            assert type(twin) is JobConfig and type(twin.options) is JobOptions
            assert twin == config and twin.to_text() == config.to_text()
    assert repr(JobOptions()) == "JobOptions(height_bound=4, dim_cap=20000, trials=200, seed=0, format='text')"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("[group]\nA x\n")
    assert err.value.line == 2
    with pytest.raises(ConfigParseError):
        parse_config_text("stray\n")
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("[group]\nA 2\n[options]\nheight_bound = soon\n")
    assert err.value.line == 4


def test_check_command_on_presets(capsys):
    code, out, _ = _run_main(["check", "--preset", "sl4-sp4borel"], capsys)
    assert code == 0
    assert "spherical: yes   (m = 2)" in out
    code, out, _ = _run_main(["check", "--preset", "borel"], capsys)
    assert code == 0
    assert "(m = 0)" in out


def test_check_command_negative_verdict(capsys):
    code, out, _ = _run_main(["check", "--preset", "sl2-trivial"], capsys)
    assert code == 1
    assert "NOT spherical" in out


def test_check_command_rejects_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[group]\nA 2\n[torus]\n1 0\n0 1\n[nilradical]\n(1 0) 1, (0 1) 1\n")
    code, _, err = _run_main(["check", str(bad)], capsys)
    assert code == 2
    assert "MixedWeightConstraint" in err or "mixes S-weights" in err


def test_semigroup_command_text(capsys):
    code, out, _ = _run_main(["semigroup", "--preset", "sl4-sp4borel"], capsys)
    assert code == 0
    assert "5 free generators (n = 3, m = 2)" in out
    assert "(w1+w3, chi=[1, 1])   weight=[1, 0, 1]  [active]" in out


def test_semigroup_command_not_spherical(capsys):
    code, out, _ = _run_main(["semigroup", "--preset", "sl2-trivial"], capsys)
    assert code == 1
    assert "NOT spherical" in out


def test_semigroup_json_is_deterministic():
    config = get_preset("tu-prime")
    buf1, buf2 = io.StringIO(), io.StringIO()
    assert cmd_semigroup(config, as_json=True, out=buf1) == 0
    assert cmd_semigroup(config, as_json=True, out=buf2) == 0
    assert buf1.getvalue() == buf2.getvalue()
    payload = json.loads(buf1.getvalue())
    assert payload["schema"] == 1
    assert payload["n"] == 2 and payload["m"] == 2
    assert JobConfig.from_json_dict(payload["config"]) == config


def test_verify_command_passes_on_presets(capsys):
    code, out, _ = _run_main(["verify", "--preset", "sl2-torus", "--height", "3"], capsys)
    assert code == 0
    assert out.count("[PASS]") >= 3 and "[FAIL]" not in out


def test_verify_command_refuses_nonspherical(capsys):
    code, out, _ = _run_main(["verify", "--preset", "sl2-trivial"], capsys)
    assert code == 1
    assert "NOT spherical" in out


def test_verify_env_overrides(monkeypatch):
    monkeypatch.setenv("SOLVSPH_HEIGHT", "1")
    monkeypatch.setenv("SOLVSPH_TRIALS", "40")
    buf = io.StringIO()
    code = cmd_verify(get_preset("sl2-torus"), out=buf)
    assert code == 0
    assert "up to height 1" in buf.getvalue()
    assert "within 40 trials" in buf.getvalue()


def test_verify_flag_beats_env(monkeypatch):
    monkeypatch.setenv("SOLVSPH_HEIGHT", "1")
    buf = io.StringIO()
    code = cmd_verify(get_preset("sl2-torus"), height=2, out=buf)
    assert code == 0
    assert "up to height 2" in buf.getvalue()


@pytest.mark.parametrize(
    "flag, env, option, value",
    [
        ("--height", "SOLVSPH_HEIGHT", "height_bound", -3),
        ("--trials", "SOLVSPH_TRIALS", "trials", 0),
        ("--cap", "SOLVSPH_CAP", "dim_cap", -1),
    ],
)
def test_verify_rejects_out_of_range_options_from_every_source(
    flag, env, option, value, tmp_path, monkeypatch, capsys
):
    argv = ["verify", "--preset", "borel", "--group", "A1"]
    code, out, err = _run_main(argv + [flag, str(value)], capsys)
    assert code == 2 and "[PASS]" not in out and "at least" in err
    monkeypatch.setenv(env, str(value))
    code, out, err = _run_main(argv, capsys)
    assert code == 2 and "[PASS]" not in out and "at least" in err
    monkeypatch.delenv(env)
    config = get_preset("borel", (("A", 1),))
    config = config._replace(options=config.options._replace(**{option: value}))
    path = tmp_path / "job.cfg"
    path.write_text(config.to_text())
    code, out, err = _run_main(["verify", str(path)], capsys)
    assert code == 2 and "[PASS]" not in out and "at least" in err


@pytest.mark.parametrize("env", ["SOLVSPH_HEIGHT", "SOLVSPH_CAP", "SOLVSPH_TRIALS", "SOLVSPH_SEED"])
def test_verify_names_the_variable_of_a_non_integer_environment_value(env, monkeypatch, capsys):
    for value in ["abc", "\u0661", "1_0"]:  # int() would read the last two as 1 and 10
        monkeypatch.setenv(env, value)
        code, out, err = _run_main(["verify", "--preset", "borel", "--group", "A1"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {env} must be an integer, got {value!r}\n"


def test_verify_flags_take_only_ascii_integers(capsys):
    code, out, err = _run_main(["verify", "--preset", "borel", "--group", "A1", "--height", "\u0661"], capsys)
    assert (code, out, err) == (2, "", "error: --height wants an integer, got '\u0661'\n")


@pytest.mark.parametrize("exc", [AssertionError("self-check failed"), ZeroDivisionError("division by zero")])
def test_internal_errors_exit_3(exc, monkeypatch, capsys):
    def broken(algebra):
        raise exc

    monkeypatch.setattr(oracle, "build_realization", broken)
    code, _, err = _run_main(["verify", "--preset", "sl2-torus", "--height", "1"], capsys)
    assert code == 3
    assert err.startswith("internal error: ") and str(exc) in err and err.count("\n") == 1


def test_verify_runs_without_numpy():
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from solvsph import cli\n"
        "sys.exit(cli.main(['verify', '--preset', 'sl2-torus', '--height', '2']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("group", ["B2", "G2", "A1xA1"])
def test_verify_tu_prime_beyond_a_and_c2(group, capsys):
    code, out, _ = _run_main(["verify", "--preset", "tu-prime", "--group", group, "--height", "2"], capsys)
    assert code == 0
    assert "[FAIL]" not in out


def test_verify_checks_the_cap_before_building_modules(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a module was built")

    monkeypatch.setattr(oracle, "build_realization", refuse)
    monkeypatch.setattr(oracle, "build_irrep", refuse)
    t0 = time.time()
    code, _, err = _run_main(["verify", "--preset", "tu-prime", "--group", "E8", "--height", "1"], capsys)
    assert code == 2
    assert "exceeds cap" in err
    assert time.time() - t0 < 5.0
    code, _, err = _run_main(["verify", "--preset", "tu-prime", "--height", "3", "--cap", "14"], capsys)
    assert code == 2
    assert "module dimension 15 exceeds cap 14" in err


def test_presets_commands(capsys):
    code, out, _ = _run_main(["presets", "list"], capsys)
    assert code == 0
    for name in preset_names():
        assert name in out
    code, out, _ = _run_main(["presets", "show", "sl4-sp4borel"], capsys)
    assert code == 0
    assert parse_config_text(out) == get_preset("sl4-sp4borel")
    code, _, _ = _run_main(["presets", "show", "nope"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["presets", "show", "nope"],
    ["presets", "show"],
    ["presets", "list", "nope"],
    ["check", "--preset", "nope"],
])
def test_preset_errors_are_input_errors(argv, capsys):
    code, out, err = _run_main(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert '"' not in err and "None" not in err


def test_group_override(capsys):
    code, out, _ = _run_main(["semigroup", "--preset", "tu-prime", "--group", "A3"], capsys)
    assert code == 0
    assert "6 free generators (n = 3, m = 3)" in out
    # fixed presets reject overrides
    code, _, err = _run_main(["check", "--preset", "sl2-torus", "--group", "A2"], capsys)
    assert code == 2


@pytest.mark.parametrize("preset", ["borel", "sl2-torus"])
@pytest.mark.parametrize("group", ["", " "])
def test_an_empty_group_override_is_refused(preset, group, capsys):
    # an empty --group is not the default group, and not accepted on a fixed preset
    code, out, err = _run_main(["check", "--preset", preset, "--group", group], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --group wants components such as A2 or A1xC2, got {group!r}\n"


def test_check_from_config_file(tmp_path, capsys):
    path = tmp_path / "job.cfg"
    path.write_text(get_preset("sl4-sp4borel").to_text())
    code, out, _ = _run_main(["check", str(path)], capsys)
    assert code == 0
    assert "spherical: yes" in out


def test_missing_source_is_input_error(capsys):
    code, _, err = _run_main(["check"], capsys)
    assert code == 2


def test_semigroup_json_output_is_a_config(tmp_path, capsys):
    code, blob, _ = _run_main(["semigroup", "--preset", "tu-prime", "--json"], capsys)
    assert code == 0
    path = tmp_path / "job.json"
    path.write_text(blob)
    code, out, _ = _run_main(["check", str(path)], capsys)
    assert code == 0 and "spherical: yes" in out
    code, again, _ = _run_main(["semigroup", str(path), "--json"], capsys)
    assert code == 0 and again == blob


@pytest.mark.parametrize("text", ['{"schema": 1, "config": ', '{"schema": 1}', '{"config": {"group": 7}}'])
def test_bad_json_config_is_input_error(text, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(text)
    code, out, err = _run_main(["check", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deeply_nested_json_config_is_input_error(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text('{"config": ' + "[" * 100000 + "]" * 100000 + "}")
    code, out, err = _run_main(["check", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_byte_order_mark_before_a_config_is_dropped(tmp_path, capsys):
    for name, text in [("job.cfg", "[group]\nA 2\n"), ("job.json", '{"config": {"group": [["A", 2]]}}')]:
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        code, out, err = _run_main(["check", str(path)], capsys)
        assert code == 0 and out.startswith("group: A2") and err == ""


def test_verify_builds_each_module_once(monkeypatch, capsys):
    from solvsph import chevalley

    built = []
    original = oracle._build_irreducible

    def counting(algebra, lam):
        built.append(lam)
        return original(algebra, lam)

    monkeypatch.setattr(oracle, "_build_irreducible", counting)
    monkeypatch.setattr(chevalley, "_ALGEBRAS", {})  # a new A3 algebra, its memo empty
    code, _, _ = _run_main(["verify", "--preset", "sl4-sp4borel", "--height", "2"], capsys)
    assert code == 0
    assert len(built) == len(set(built)) == 10


def test_verify_holds_only_the_checked_fundamentals_and_the_anchors(monkeypatch, capsys):
    from solvsph.config import build_subgroup
    from solvsph.semigroup import generators
    from solvsph.sphericity import active_roots

    snapshots = []  # (weights alive in the memo, weights the algebra keeps) at the first witness

    def snapshot(mod, sub, table, j, witness=oracle.semi_invariant_witness):
        if not snapshots:
            alg = mod.algebra
            snapshots.append((set(alg._modules), {m.lam.coords for m in alg._small}))
        return witness(mod, sub, table, j)

    monkeypatch.setattr(oracle, "semi_invariant_witness", snapshot)
    code, _, _ = _run_main(["verify", "--preset", "sl4-sp4borel", "--height", "3"], capsys)
    assert code == 0
    sub = build_subgroup(get_preset("sl4-sp4borel"))
    anchors = {lam.coords for lam in generators(sub, active_roots(sub)).anchor_wts}
    [(alive, kept)] = snapshots
    assert {lam.coords for lam in oracle.checked_fundamentals(sub.root_system)} <= kept
    assert alive == kept | anchors


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak from /proc/self/status")
def test_verify_peak_memory_stays_bounded_at_height_5():
    # The child reads its own peak, VmHWM, which starts afresh at exec.  Its
    # RUSAGE_SELF ru_maxrss would not do: Linux carries the peak of the process
    # image an exec replaces into it, so it would count the test runner itself.
    script = (
        "import contextlib, io, re\n"
        "from solvsph import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--preset', 'sl4-sp4borel', '--height', '5'])\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(code, re.search(r'VmHWM:\\s*(\\d+) kB', fh.read()).group(1))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kb < 28 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak from /proc/self/status")
def test_verify_on_every_a3_preset_in_one_process_keeps_the_memo_small():
    # one child verifies the four A3 presets at height 4, so the memo of the
    # one A3 algebra serves the later runs; it holds only modules no larger
    # than dim A3 = 15
    script = (
        "import contextlib, io, json, re\n"
        "from solvsph import chevalley, cli\n"
        "runs = [['--preset', 'sl4-sp4borel']]\n"
        "runs += [['--preset', p, '--group', 'A3'] for p in ('borel', 'maximal-unipotent', 'tu-prime')]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['verify', *run, '--height', '4']) for run in runs]\n"
        "dims = [mod.dim for alg in chevalley._ALGEBRAS.values() for mod in alg._modules.values()]\n"
        "with open('/proc/self/status') as fh:\n"
        "    peak = re.search(r'VmHWM:\\s*(\\d+) kB', fh.read()).group(1)\n"
        "print(json.dumps([codes, sorted(dims), int(peak)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    codes, dims, peak_kb = json.loads(proc.stdout)
    assert codes == [0, 0, 0, 0] and dims == [1, 4, 4, 6, 10, 10, 15]
    assert peak_kb < 28 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


def test_verify_rejects_an_over_cap_height_without_listing_weights(capsys):
    t0 = time.time()
    code, _, err = _run_main(["verify", "--preset", "borel", "--group", "A2", "--height", "1000000"], capsys)
    assert code == 2 and "exceeds cap 20000" in err
    assert time.time() - t0 < 2.0


def test_json_options_default_from_job_options_and_ignore_unknown_keys():
    data = get_preset("borel").to_json_dict()
    data["options"] = {"trials": "7", "colour": "blue"}
    options = JobConfig.from_json_dict(data).options
    assert options == JobOptions()._replace(trials=7)
    text = JobConfig.from_json_dict(data).to_text()
    assert parse_config_text(text).options == options


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_141_silently(unbuffered):
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env["PYTHONUNBUFFERED"] = unbuffered
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "solvsph", "check", "--preset", "sl4-sp4borel"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == b""


def test_unreadable_config_is_input_error(tmp_path, capsys):
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"# \xff\n[group]\nA 2\n")
    for path in [tmp_path / "missing.cfg", tmp_path, latin1]:
        code, out, err = _run_main(["check", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("group", ["B4", "C4", "D4", "F4"])
def test_verify_tu_prime_rank_4(group, capsys):
    code, out, _ = _run_main(["verify", "--preset", "tu-prime", "--group", group, "--height", "1"], capsys)
    assert code == 0
    assert "[FAIL]" not in out


def test_verify_tu_prime_e6(capsys):
    code, out, _ = _run_main(["verify", "--preset", "tu-prime", "--group", "E6", "--height", "1"], capsys)
    assert code == 0
    assert "[FAIL]" not in out


def test_verify_borel_e7_checks_the_56_dimensional_module(capsys):
    rs = build_root_system([("E", 7)])
    assert [oracle.weyl_dim(rs, lam) for lam in oracle.checked_fundamentals(rs)] == [56]
    code, out, err = _run_main(["verify", "--preset", "borel", "--group", "E7", "--height", "0"], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines and all(line.startswith("[PASS] ") for line in lines)


@pytest.mark.parametrize(
    "target, exc, command",
    [
        ("verify_active_axioms", AxiomViolation("partition", "a1 is in two families"), "check"),
        ("active_roots", NoValidCandidate("no anchor candidate for a1+a2"), "check"),
        ("active_roots", MultipleCandidates("anchors [0, 1] all valid for a1+a2"), "check"),
        ("active_roots", NoValidCandidate("no anchor candidate for a1+a2"), "semigroup"),
        ("active_roots", MultipleCandidates("anchors [0, 1] all valid for a1+a2"), "verify"),
    ],
)
def test_a_failed_self_check_of_the_criterion_is_an_internal_error(target, exc, command, monkeypatch, capsys):
    # these checks run only on a subgroup the criterion has accepted, so a
    # failure is a fault of the program, not a verdict or an input error
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, target, broken)
    code, _, err = _run_main([command, "--preset", "tu-prime"], capsys)
    assert code == 3
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize(
    "owner, target",
    [
        (cli, "build_subgroup"),
        (cli, "bounded_members"),
        (oracle, "enumerate_semigroup"),
        (oracle, "semi_invariant_records"),
        (oracle, "semi_invariant_witness"),
        (oracle, "open_orbit_check"),
    ],
)
def test_any_exception_but_refused_input_is_an_internal_error(owner, target, monkeypatch, capsys):
    # the type alone decides: a KeyError is neither a SolvsphError nor a ValueError
    def broken(*args, **kwargs):
        raise KeyError("stage")

    monkeypatch.setattr(owner, target, broken)
    code, _, err = _run_main(["verify", "--preset", "sl2-torus", "--height", "1"], capsys)
    assert (code, err) == (3, "internal error: KeyError: 'stage'\n")


def test_an_internal_error_prints_one_line_and_no_traceback():
    script = (
        "import sys\n"
        "from solvsph import cli, oracle\n"
        "def broken(*args, **kwargs):\n"
        "    raise KeyError('orbit')\n"
        "oracle.open_orbit_check = broken\n"
        "sys.exit(cli.main(['verify', '--preset', 'sl2-torus', '--height', '1']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (3, "internal error: KeyError: 'orbit'\n")
    assert proc.stdout.startswith("[PASS] multiplicity free")


def test_an_operator_that_is_not_nilpotent_is_an_internal_error(monkeypatch, capsys):
    # the orbit test exponentiates only lower nilpotent elements; the identity is not one
    monkeypatch.setattr(oracle, "_combination", lambda n, terms: [{j: 1} for j in range(n)])
    code, _, err = _run_main(["verify", "--preset", "sl2-torus", "--height", "1"], capsys)
    assert (code, err) == (3, "internal error: AssertionError: operator is not nilpotent\n")


def test_every_error_class_is_refused_input_or_a_self_check_and_cli_names_no_self_check():
    from solvsph import errors
    from solvsph.errors import SolvsphError

    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, BaseException)]
    assert all(issubclass(c, SolvsphError) != issubclass(c, AssertionError) for c in classes)
    internal = {c.__name__ for c in classes if issubclass(c, AssertionError)}
    assert internal == {"AxiomViolation", "MultipleCandidates", "NoValidCandidate"}
    names = set(re.findall(r"\w+", Path(cli.__file__).read_text(encoding="utf-8")))
    assert not names & (internal | {"AssertionError", "ArithmeticError"})


def _zero_witness(mod, sub, table, j):
    return [0] * mod.dim


def _mixed_witness(mod, sub, table, j):
    # the highest vector plus a basis vector of another S-weight
    top = sub.tau.restrict(mod.weights[0])
    k = next(k for k, w in enumerate(mod.weights) if sub.tau.restrict(w) != top)
    return [int(i in (0, k)) for i in range(mod.dim)]


@pytest.mark.parametrize("witness", [_zero_witness, _mixed_witness])
def test_failed_witness_self_check_is_a_failure_not_an_input_error(witness, monkeypatch, capsys):
    monkeypatch.setattr(oracle, "semi_invariant_witness", witness)
    code, out, err = _run_main(["verify", "--preset", "sl4-sp4borel", "--height", "1"], capsys)
    assert code == 1 and err == ""
    for j in (1, 2):
        assert f"[FAIL] witness vector for family {j} is a semi-invariant" in out
    assert "[PASS] open orbit witnessed" in out


@pytest.mark.parametrize(
    "options, message",
    [
        ({"format": "xml"}, "format must be text or json"),
        ({"height_bound": 2.7}, "option height_bound wants an integer"),
        ({"height_bound": True}, "option height_bound wants an integer"),
        ({"trials": "many"}, "option trials wants an integer"),
    ],
)
def test_json_options_are_checked_as_the_text_format_checks_them(options, message, tmp_path, capsys):
    data = get_preset("borel").to_json_dict()
    data["options"] = options
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"config": data}))
    code, out, err = _run_main(["verify", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    # the text format refuses the same value, naming its line
    ((key, value),) = options.items()
    with pytest.raises(ConfigParseError, match=message) as text_err:
        parse_config_text(f"[group]\nA 2\n[options]\n{key} = {value}\n")
    assert text_err.value.line == 4


def test_json_coefficient_with_zero_denominator_is_an_input_error(tmp_path, capsys):
    data = get_preset("borel").to_json_dict()
    data["nilradical"] = [[[[1, 0], "1/0"]]]
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"config": data}))
    code, out, err = _run_main(["verify", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "bad constraint entry" in err and err.count("\n") == 1
    # the text format refuses it too, naming its line
    with pytest.raises(ConfigParseError, match="bad constraint entry") as text_err:
        parse_config_text("[group]\nA 2\n[nilradical]\n(1 0) 1/0\n")
    assert text_err.value.line == 4


@pytest.mark.parametrize("literal", ["1e30000000", "-2E-30000000", "7" * 5000, "1/" + "3" * 5000])
def test_huge_coefficient_literal_is_refused_before_it_is_expanded(literal, tmp_path, capsys):
    # Fraction("1e30000000") alone takes many seconds
    message = "coefficient literal has more than 4300 digits or an exponent above 4300"
    text = tmp_path / "job.txt"
    text.write_text(f"[group]\nA 2\n[nilradical]\n(1 0) {literal}\n")
    data = get_preset("borel").to_json_dict()
    data["nilradical"] = [[[[1, 0], literal]]]
    blob = tmp_path / "job.json"
    blob.write_text(json.dumps({"config": data}))
    for path, where in ((text, "line 4: "), (blob, "")):
        start = time.perf_counter()
        code, out, err = _run_main(["check", str(path)], capsys)
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == "" and err == f"error: {where}{message}\n"
    # the largest accepted literals parse as before
    config = parse_config_text("[group]\nA 2\n[nilradical]\n(1 0) 1e4300, (0 1) 1/" + "9" * 4298 + "\n")
    assert config.groups[0][0][1] == 10**4300


@pytest.mark.parametrize(
    "literal", ["0.1000000000000000001", "1e400", "7" * 5000], ids=["decimal", "exponent", "5000-digits"]
)
def test_json_numbers_are_read_as_the_text_format_reads_them(literal, tmp_path, capsys):
    # a JSON number is neither rounded to a float nor expanded before the digit limit
    text = tmp_path / "job.txt"
    text.write_text(f"[group]\nA 2\n[torus]\n1 0\n0 1\n[nilradical]\n(1 0) {literal}\n")
    blob = tmp_path / "job.json"
    blob.write_text('{"config": {"group": [["A", 2]], "torus": [[1, 0], [0, 1]], '
                    '"nilradical": [[[[1, 0], %s]]]}}' % literal)
    code, out, err = _run_main(["semigroup", str(text), "--json"], capsys)
    assert _run_main(["semigroup", str(blob), "--json"], capsys) == (code, out, err.replace("line 7: ", ""))
    if code == 0:
        (((_, coeff),),) = JobConfig.from_json_dict(json.loads(out)["config"]).groups
        assert coeff == Fraction(literal)
    else:
        assert code == 2 and "more than 4300 digits" in err


def test_cap_check_covers_only_the_modules_verify_builds(capsys, monkeypatch):
    # A3 borel at height 0 builds the trivial module and the 4-dimensional V(w1) only
    argv = ["verify", "--preset", "borel", "--group", "A3", "--height", "0", "--cap"]
    code, out, err = _run_main(argv + ["5"], capsys)
    assert code == 0 and "[FAIL]" not in out and err == ""

    def refuse(*args, **kwargs):
        raise AssertionError("a module was built")

    monkeypatch.setattr(oracle, "build_realization", refuse)
    monkeypatch.setattr(oracle, "build_irrep", refuse)
    monkeypatch.setattr(oracle, "_build_irreducible", refuse)
    code, out, err = _run_main(argv + ["3"], capsys)
    assert code == 2 and out == ""
    assert "module dimension 4 exceeds cap 3" in err


@pytest.mark.parametrize("config", [
    {"group": [["A", 2.5]]},
    {"group": [["A", 2]], "torus": [[1.7, 0], [0, 1]]},
    {"group": [["A", 2]], "torus": [[1, 0], [0, 1]], "nilradical": [[[[1.9, 0], "1"]]]},
    {"group": [["A", True]]},
])
def test_json_config_refuses_non_integers_where_integers_belong(config, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"config": config}))
    code, out, err = _run_main(["check", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_closure_failure_names_roots_as_the_cli_prints_them(tmp_path, capsys):
    path = tmp_path / "job.cfg"
    path.write_text("[group]\nA 2\n[nilradical]\n(1 1) 1\n")
    code, out, err = _run_main(["check", str(path)], capsys)
    assert code == 2 and out == ""
    assert "e(a1)" in err and "e(a2)" in err and "e(1, 0)" not in err


@pytest.mark.parametrize(
    "nilradical", ["(1 0) 1\n(1 0) 2\n", "(1 0) 0\n", "(-1 0) 1\n"], ids=["duplicate", "zero", "negative"]
)
def test_validation_errors_name_roots_as_the_cli_prints_them(nilradical, tmp_path, capsys):
    path = tmp_path / "job.cfg"
    path.write_text("[group]\nA 2\n[nilradical]\n" + nilradical)
    code, out, err = _run_main(["check", str(path)], capsys)
    assert code == 2 and out == ""
    assert "a1" in err and "Root(" not in err


def test_rank_limit_is_checked_up_front(tmp_path, capsys):
    path = tmp_path / "job.cfg"
    path.write_text("[group]\nA 9\nA 8\n")
    for argv in (["check", "--preset", "borel", "--group", "A17"], ["check", str(path)]):
        code, out, err = _run_main(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "total rank 17 is above the limit of 16" in err
    code, _, _ = _run_main(["check", "--preset", "borel", "--group", "A16"], capsys)
    assert code == 0


@pytest.mark.parametrize("text, message", [
    ("[nilradical]\n(2 0) 1\n", "error: 2a1 is not a root of A2\n"),
    ("[torus]\n1\n", "error: torus row '1' does not have 2 entries\n"),
    ("[torus]\n10 0\n0 1\n", "error: torus rows '10 0', '0 1' are not onto Z^2\n"),
], ids=["non-root", "short-row", "not-onto"])
def test_config_errors_write_vectors_as_the_config_does(text, message, tmp_path, capsys):
    path = tmp_path / "job.cfg"
    path.write_text("[group]\nA 2\n" + text)
    code, out, err = _run_main(["check", str(path)], capsys)
    assert (code, out, err) == (2, "", message)
    assert re.search(r"\(-?[0-9]+,", err) is None


# one config in both formats, every field given as text; each input below
# goes in turn into every field
_FIELDS = {"letter": "A", "rank": "2", "torus": "1", "coord": "1", "coeff": "1", "option": "2"}


def _both_formats(tmp_path, fields):
    text = tmp_path / "job.cfg"
    blob = tmp_path / "job.json"
    f = fields
    text.write_text(
        (f"[group]\n{f['letter']} {f['rank']}\n" if "letter" in f else "")
        + f"[torus]\n{f['torus']} 0\n0 1\n[nilradical]\n({f['coord']} 0) {f['coeff']}\n"
        + f"[options]\nheight_bound = {f['option']}\n"
    )
    config = {
        "torus": [[f["torus"], 0], [0, 1]],
        "nilradical": [[[[f["coord"], 0], f["coeff"]]]],
        "options": {"height_bound": f["option"]},
    }
    if "letter" in f:
        config["group"] = [[f["letter"], f["rank"]]]
    blob.write_text(json.dumps({"config": config}))
    return text, blob


@pytest.mark.parametrize(
    "value", ["a", "+2", " A ", "2_0", "1_0", "\u0661", "\u00b2", 1.0, True, "1/0"],
    ids=["lower", "plus", "spaces", "underscore", "underscore-1", "arabic-indic", "superscript",
         "float", "true", "zero-denominator"],
)
def test_text_and_json_configs_read_each_field_alike(value, tmp_path, capsys):
    for name in _FIELDS:
        text, blob = _both_formats(tmp_path, {**_FIELDS, name: value})
        code, out, err = _run_main(["check", str(text)], capsys)
        assert _run_main(["check", str(blob)], capsys) == (code, out, re.sub(r"line [0-9]+: ", "", err))
        if code == 2:
            assert err.count("\n") == 1 and "Error" not in err


def test_text_and_json_configs_refuse_a_missing_group_alike(tmp_path, capsys):
    fields = dict(_FIELDS)
    del fields["letter"]
    for path in _both_formats(tmp_path, fields):
        assert _run_main(["check", str(path)], capsys) == (2, "", "error: missing [group] section\n")


_FIELD_TEMPLATES = [
    ("[group]\nA {}\n", "line 2: rank"),
    ("[group]\nA 2\n[torus]\n{} 0\n0 1\n", "line 4: torus entry"),
    ("[group]\nA 2\n[nilradical]\n({} 0) 1\n", "line 4: root coordinate"),
    ("[group]\nA 2\n[nilradical]\n(1 0) {}\n", "line 4: bad constraint entry"),
    ("[group]\nA 2\n[options]\nseed = {}\n", "line 4: option seed"),
]


@pytest.mark.parametrize("text, field", [
    pytest.param("[group]\nA \u00b2\n", "line 2: rank", id="superscript-rank")
] + [
    pytest.param(template.format(value), field, id=f"{name}-{field[8:].replace(' ', '-')}")
    for name, value in (("arabic-indic", "\u0661"), ("underscore", "1_0"))
    for template, field in _FIELD_TEMPLATES
])
def test_non_ascii_and_underscored_integers_are_refused_naming_the_field(text, field, tmp_path, capsys):
    path = tmp_path / "job.cfg"
    path.write_text(text)
    code, out, err = _run_main(["check", str(path)], capsys)
    assert (code, out) == (2, "") and err.startswith(f"error: {field}") and err.count("\n") == 1


def test_fuzzed_configs_round_trip_through_both_formats():
    rng = random.Random(7)
    for _ in range(200):
        config = random_mixed_config(rng, POOL_RANK3)
        assert parse_config_text(config.to_text()) == config
        assert JobConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict()))) == config


@pytest.mark.parametrize("document, schema", [
    ({"schema": 99, "config": {"schema": 7, "group": [["A", 1]]}}, "99"),
    ({"schema": 2, "config": {"group": [["A", 1]]}}, "2"),
    ({"config": {"schema": 7, "group": [["A", 1]]}}, "7"),
    ({"schema": 1, "config": {"schema": 0, "group": [["A", 1]]}}, "0"),
    ({"schema": "one", "config": {"group": [["A", 1]]}}, "'one'"),
])
def test_json_config_of_another_schema_is_refused(document, schema, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(document))
    code, out, err = _run_main(["check", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "schema" in err and schema in err

