"""Job configurations: the text format, JSON form, and assembly.

The text format is line oriented with four sections:

    [group]         one "TYPE RANK" line per simple component
    [torus]         d rows of n integers (omit the section for d = 0)
    [nilradical]    one constraint group per line:
                    (root coords) coeff, (root coords) coeff, ...
    [options]       key = value pairs (height_bound, dim_cap, trials,
                    seed, format)

Roots are integer coefficient vectors over the simple roots; rationals
are written p/q.  '#' starts a comment.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .chevalley import build_algebra
from .errors import ConfigParseError
from .rootsys import build_root_system
from .subgroup import NilradicalSpec, TorusRestriction, validate

MAX_DIGITS = 4300  # as many digits as Python's int(str) accepts


def _coefficient(text, lineno=None):
    """Fraction(text), refused first when the literal has more than MAX_DIGITS
    digits or an exponent above MAX_DIGITS: Fraction takes seconds to expand it."""
    exponent = text.lower().partition("e")[2]
    if sum(map(str.isdigit, text)) > MAX_DIGITS or exponent and abs(int(exponent)) > MAX_DIGITS:
        limit = f"more than {MAX_DIGITS} digits or an exponent above {MAX_DIGITS}"
        raise ConfigParseError(f"coefficient literal has {limit}", lineno)
    return Fraction(text)


@dataclass(frozen=True)
class JobOptions:
    height_bound: int = 4
    dim_cap: int = 20000
    trials: int = 200
    seed: int = 0
    format: str = "text"


@dataclass(frozen=True)
class JobConfig:
    components: tuple  # ((letter, rank), ...)
    torus_rows: tuple  # d rows of n ints
    groups: tuple  # ((coords, Fraction), ...) per constraint group
    options: JobOptions = field(default_factory=JobOptions)

    def to_json_dict(self):
        return {
            "schema": 1,
            "group": [[t, r] for t, r in self.components],
            "torus": [list(row) for row in self.torus_rows],
            "nilradical": [
                [[list(coords), str(coeff)] for coords, coeff in group] for group in self.groups
            ],
            "options": asdict(self.options),
        }

    @classmethod
    def from_json_dict(cls, data):
        given = data.get("options", {})  # unknown keys are ignored
        opts = {k: _parse_option(k, str(given[k])) for k in asdict(JobOptions()) if k in given}
        # integers are read from their text, as in the text format, so that
        # 2.5 or true is refused rather than read as 2 or 1
        return cls(
            components=tuple((str(t), int(str(r))) for t, r in data["group"]),
            torus_rows=tuple(tuple(int(str(x)) for x in row) for row in data.get("torus", [])),
            groups=tuple(
                tuple((tuple(int(str(x)) for x in coords), _coefficient(str(c))) for coords, c in group)
                for group in data.get("nilradical", [])
            ),
            options=JobOptions(**opts),
        )

    def to_text(self):
        lines = ["[group]"]
        lines += [f"{t} {r}" for t, r in self.components]
        lines.append("")
        lines.append("[torus]")
        lines += [" ".join(str(x) for x in row) for row in self.torus_rows]
        lines.append("")
        lines.append("[nilradical]")
        for group in self.groups:
            lines.append(
                ", ".join(f"({' '.join(str(x) for x in coords)}) {coeff}" for coords, coeff in group)
            )
        lines.append("")
        lines.append("[options]")
        lines += [f"{k} = {v}" for k, v in asdict(self.options).items()]
        return "\n".join(lines) + "\n"


def parse_config_text(text) -> JobConfig:
    """Parse the line-oriented config format; errors carry line numbers."""
    sections = {"group": [], "torus": [], "nilradical": [], "options": []}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise ConfigParseError(f"unknown section [{name}]", lineno)
            current = name
            continue
        if current is None:
            raise ConfigParseError("content before any section header", lineno)
        sections[current].append((lineno, line))

    if not sections["group"]:
        raise ConfigParseError("missing [group] section")
    components = []
    for lineno, line in sections["group"]:
        parts = line.split()
        if len(parts) != 2 or not parts[1].lstrip("-").isdigit():
            raise ConfigParseError(f"expected 'TYPE RANK', got {line!r}", lineno)
        components.append((parts[0].upper(), int(parts[1])))

    torus_rows = []
    for lineno, line in sections["torus"]:
        try:
            torus_rows.append(tuple(int(x) for x in line.split()))
        except ValueError:
            raise ConfigParseError(f"torus row is not integers: {line!r}", lineno)

    groups = []
    for lineno, line in sections["nilradical"]:
        group = []
        for chunk in line.split(","):
            chunk = chunk.strip()
            if not chunk.startswith("("):
                raise ConfigParseError(f"expected '(coords) coeff', got {chunk!r}", lineno)
            close = chunk.find(")")
            if close < 0:
                raise ConfigParseError("unterminated root vector", lineno)
            try:
                coords = tuple(int(x) for x in chunk[1:close].split())
                coeff = _coefficient(chunk[close + 1 :].strip(), lineno)
            except (ValueError, ZeroDivisionError):
                raise ConfigParseError(f"bad constraint entry {chunk!r}", lineno)
            group.append((coords, coeff))
        if group:
            groups.append(tuple(group))

    opts = asdict(JobOptions())
    for lineno, line in sections["options"]:
        if "=" not in line:
            raise ConfigParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in opts:
            raise ConfigParseError(f"unknown option {key!r}", lineno)
        opts[key] = _parse_option(key, value, lineno)

    return JobConfig(
        components=tuple(components),
        torus_rows=tuple(torus_rows),
        groups=tuple(groups),
        options=JobOptions(**opts),
    )


def _parse_option(key, value, lineno=None):
    """The value of one known option, given as text in either format."""
    if key == "format":
        if value not in ("text", "json"):
            raise ConfigParseError(f"format must be text or json, got {value!r}", lineno)
        return value
    try:
        return int(value)
    except ValueError:
        raise ConfigParseError(f"option {key} wants an integer, got {value!r}", lineno) from None


def build_subgroup(config: JobConfig):
    """Assemble and validate the subgroup a configuration describes."""
    rs = build_root_system(config.components)
    algebra = build_algebra(rs)
    tau = TorusRestriction(config.torus_rows, rs.n)
    nil = NilradicalSpec([[(rs.root(coords), coeff) for coords, coeff in g] for g in config.groups])
    return validate(algebra, tau, nil)
