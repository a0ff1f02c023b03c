"""Job configurations: the text format, its JSON form, and assembly.

The text format is line oriented with four sections ('#' starts a comment):

    [group]         one "TYPE RANK" line per simple component
    [torus]         d rows of n integers (omit the section for d = 0)
    [nilradical]    one constraint group per line:
                    (root coords) coeff, (root coords) coeff, ...
    [options]       key = value pairs (height_bound, dim_cap, trials,
                    seed, format)

The JSON form (``to_json_dict``) ignores unknown option keys.  Both forms read
each field from its text, surrounding whitespace ignored, by one set of rules:
a type letter is uppercased; a rank, torus entry, root coordinate or integer
option is an ASCII [+-]?[0-9]+ (``_integer``); ``format`` is text or json; a
coefficient is an ASCII p/q, decimal or exponent within MAX_DIGITS digits and
exponent; a group is required.  An error names its line in the text format only.
A JSON document or config member whose ``schema`` (1 when missing) is not 1 is refused.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .chevalley import build_algebra
from .errors import ConfigParseError
from .oracle import DIM_CAP
from .rootsys import build_root_system
from .subgroup import NilradicalSpec, TorusRestriction, validate

MAX_DIGITS = 4300  # as many digits as Python's int(str) accepts
_INTEGER = re.compile(rf"[+-]?[0-9]{{1,{MAX_DIGITS}}}")


def _integer(text, complaint, lineno=None):
    """int(text) for an ASCII [+-]?[0-9]+, whitespace around it ignored; any
    other text is refused as "complaint, got 'text'"."""
    text = text.strip()
    if _INTEGER.fullmatch(text) is None:
        raise ConfigParseError(f"{complaint}, got {text!r}", lineno)
    return int(text)


def _component(letter, rank, lineno=None):
    """One (TYPE, RANK) pair of the group."""
    return letter.strip().upper(), _integer(rank, "rank wants an integer", lineno)


def _coefficient(text, lineno=None):
    """Fraction(text) for an ASCII literal, refused first when it has more than MAX_DIGITS
    digits or an exponent above MAX_DIGITS: Fraction takes seconds to expand it."""
    text = text.strip()
    exponent = text.lower().partition("e")[2]
    huge = _INTEGER.fullmatch(exponent) and abs(int(exponent)) > MAX_DIGITS
    if huge or sum(map(str.isdigit, text)) > MAX_DIGITS:
        limit = f"more than {MAX_DIGITS} digits or an exponent above {MAX_DIGITS}"
        raise ConfigParseError(f"coefficient literal has {limit}", lineno)
    try:
        if text.isascii() and "_" not in text:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigParseError(f"bad constraint entry: {text!r} is not an ASCII rational literal", lineno)


def _parse_option(key, value, lineno=None):
    """The value of one known option."""
    value = value.strip()
    if key != "format":
        return _integer(value, f"option {key} wants an integer", lineno)
    if value not in ("text", "json"):
        raise ConfigParseError(f"format must be text or json, got {value!r}", lineno)
    return value


class JobOptions(namedtuple("JobOptions", "height_bound dim_cap trials seed format",
                            defaults=(4, DIM_CAP, 200, 0, "text"))):
    __slots__ = ()


_OPTION_KEYS = JobOptions._fields


class JobConfig(namedtuple("JobConfig", "components torus_rows groups options", defaults=(JobOptions(),))):
    """components: ((letter, rank), ...); torus_rows: d rows of n ints;
    groups: ((coords, Fraction), ...) per constraint group."""

    __slots__ = ()

    def to_json_dict(self):
        return {
            "schema": 1,
            "group": [[t, r] for t, r in self.components],
            "torus": [list(row) for row in self.torus_rows],
            "nilradical": [
                [[list(coords), str(coeff)] for coords, coeff in group] for group in self.groups
            ],
            "options": self.options._asdict(),
        }

    @classmethod
    def from_json_dict(cls, data):
        """The config of a JSON object; each value is read from its text."""
        _check_schema(data, "JSON config")
        given = data.get("options", {})
        return _job(
            [(None, str(t), str(r)) for t, r in data.get("group", [])],
            [(None, [str(x) for x in row]) for row in data.get("torus", [])],
            [(None, [([str(x) for x in coords], str(c)) for coords, c in group])
             for group in data.get("nilradical", [])],
            [(None, key, str(given[key])) for key in _OPTION_KEYS if key in given],
        )

    def to_text(self):
        sections = {
            "group": [f"{t} {r}" for t, r in self.components],
            "torus": [" ".join(map(str, row)) for row in self.torus_rows],
            "nilradical": [", ".join(f"({' '.join(map(str, c))}) {x}" for c, x in g) for g in self.groups],
            "options": [f"{k} = {v}" for k, v in self.options._asdict().items()],
        }
        return "\n\n".join("\n".join([f"[{name}]", *lines]) for name, lines in sections.items()) + "\n"


def _check_schema(data, what):
    """Refuse a JSON object whose ``schema`` (1 when missing) is not 1."""
    if _integer(str(data.get("schema", 1)), f"{what} schema wants an integer") != 1:
        raise ConfigParseError(f"{what} has schema {data['schema']}; only schema 1 is read")


def _job(group, torus, nilradical, options):
    """The JobConfig of field texts, listed with their line numbers."""
    if not group:
        raise ConfigParseError("missing [group] section")
    return JobConfig(
        tuple(_component(letter, rank, lineno) for lineno, letter, rank in group),
        tuple(tuple(_integer(x, "torus entry wants an integer", lineno) for x in row)
              for lineno, row in torus),
        tuple(
            tuple((tuple(_integer(x, "root coordinate wants an integer", lineno) for x in coords),
                   _coefficient(coeff, lineno)) for coords, coeff in entries)
            for lineno, entries in nilradical
        ),
        JobOptions(**{key: _parse_option(key, value, lineno) for lineno, key, value in options}),
    )


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

    group = []
    for lineno, line in sections["group"]:
        parts = line.split()
        if len(parts) != 2:
            raise ConfigParseError(f"expected 'TYPE RANK', got {line!r}", lineno)
        group.append((lineno, *parts))

    nilradical = []
    for lineno, line in sections["nilradical"]:
        entries = []
        for chunk in line.split(","):
            chunk = chunk.strip()
            if not chunk.startswith("("):
                raise ConfigParseError(f"expected '(coords) coeff', got {chunk!r}", lineno)
            close = chunk.find(")")
            if close < 0:
                raise ConfigParseError("unterminated root vector", lineno)
            entries.append((chunk[1:close].split(), chunk[close + 1 :]))
        nilradical.append((lineno, entries))

    options = []
    for lineno, line in sections["options"]:
        if "=" not in line:
            raise ConfigParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _OPTION_KEYS:
            raise ConfigParseError(f"unknown option {key!r}", lineno)
        options.append((lineno, key, value))

    return _job(group, [(lineno, line.split()) for lineno, line in sections["torus"]], nilradical, options)


def _parse_file(text) -> JobConfig:
    """The config of a file's text: the ``config`` member of a JSON document,
    as ``semigroup --json`` prints it, or else the text format."""
    if not text.lstrip().startswith("{"):
        return parse_config_text(text)
    import json  # only a JSON config needs it

    try:  # numbers are kept as their text
        document = json.loads(text, parse_float=str, parse_int=str)
        _check_schema(document, "JSON document")
        return JobConfig.from_json_dict(document["config"])
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"malformed JSON: {exc.msg}", exc.lineno) from None
    except (KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        reason = f"{type(exc).__name__}: {exc}"  # a shape to_json_dict never writes
        raise ConfigParseError(f"JSON document has no valid config member ({reason})") from None


def build_subgroup(config: JobConfig):
    """Assemble and validate the subgroup a configuration describes."""
    rs = build_root_system(config.components)
    algebra = build_algebra(rs)
    tau = TorusRestriction(config.torus_rows, rs.n)
    nil = NilradicalSpec([[(rs.root(coords), coeff) for coords, coeff in g] for g in config.groups])
    return validate(algebra, tau, nil)
