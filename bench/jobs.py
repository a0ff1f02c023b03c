"""One benchmark job: how it calls solvsph and what its answer means.

A job is one config answered end to end.  ``cli`` jobs go through
``solvsph.cli.main`` with captured output; ``crosscheck`` jobs call the
exported library functions the way acceptance criterion 6 does.  Every call
looks the function up on its module at call time, so a tracer that has
replaced it is seen.

Answers are compared by meaning (exit code, sphericity verdict, generator
set), never by the bytes a command prints.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

import solvsph
from solvsph import cli

CONFIG_SLOT = "{config}"  # argv placeholder for the path of the job's config file
ORBIT_TRIALS = 200


@dataclass
class Job:
    id: str
    stratum: str
    config_text: str  # JobConfig.to_text() of the config the job answers
    expect: dict
    argv: tuple = ()  # cli jobs only
    orbit_seed: int | None = None  # crosscheck jobs only
    props: dict = field(default_factory=dict)
    path: str | None = None  # file holding config_text, set before timing
    config: object = None  # parsed JobConfig for crosscheck jobs, set before timing

    @classmethod
    def from_entry(cls, stratum, entry):
        return cls(
            id=entry["id"],
            stratum=stratum,
            config_text=entry["config"],
            expect=entry["expect"],
            argv=tuple(entry.get("argv", ())),
            orbit_seed=entry.get("orbit_seed"),
            props=entry.get("props", {}),
        )

    @property
    def kind(self):
        return "cli" if self.argv else "crosscheck"

    def resolved_argv(self):
        return [self.path if a == CONFIG_SLOT else a for a in self.argv]

    def run(self):
        """Answer the job; exceptions propagate to the caller."""
        if self.kind == "cli":
            return cli_answer(self.argv[0], *run_cli(self.resolved_argv()))
        return crosscheck_answer(self.config, self.orbit_seed)

    def mismatch(self, answer):
        """None when the answer matches the reference, else a reason."""
        exp = self.expect
        if self.kind == "crosscheck":
            if answer["spherical"] != exp["spherical"]:
                return f"criterion says spherical={answer['spherical']}, reference {exp['spherical']}"
            if answer["witnessed"] != answer["spherical"]:
                return f"open-orbit test says {answer['witnessed']}, criterion {answer['spherical']}"
            return None
        # the exit code carries the verdict of check and semigroup (0 or 1)
        # and the outcome of every verify check
        if answer["exit"] != exp["exit"]:
            return f"exit code {answer['exit']}, reference {exp['exit']}"
        if self.argv[0] == "semigroup" and exp["spherical"]:
            if answer.get("generators") != exp["generators"]:
                return "generator set differs from the reference"
        return None


def run_cli(argv):
    """(exit code, captured stdout) of one in-process ``solvsph`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code
    return rc, out.getvalue()


def generator_set(data):
    """The generator pairs of a ``semigroup --json`` document, sorted."""
    gens = data["generators"]
    return sorted([g["weight"], g["chi"]] for g in gens["torus"] + gens["active"])


def cli_answer(command, rc, stdout):
    answer = {"exit": rc}
    if command == "semigroup" and rc == 0:
        answer["generators"] = generator_set(json.loads(stdout))
    return answer


def crosscheck_answer(config, orbit_seed):
    """Criterion verdict and open-orbit result for one config."""
    sub = solvsph.build_subgroup(config)
    spherical = bool(solvsph.check_spherical(sub).spherical)
    realization = solvsph.build_realization(sub.algebra)
    witnessed = bool(
        solvsph.open_orbit_check(sub, realization, trials=ORBIT_TRIALS, seed=orbit_seed)
    )
    return {"spherical": spherical, "witnessed": witnessed}
