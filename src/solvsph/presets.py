"""Bundled subgroup configurations.

Parametrized presets (borel, maximal-unipotent, tu-prime) accept a group
override; the remaining ones are tied to a fixed group.  An unknown name, or
an override of a fixed preset, is an input error (ConfigParseError).
"""

from __future__ import annotations

from fractions import Fraction

from .config import JobConfig, JobOptions
from .errors import ConfigParseError
from .rootsys import build_root_system


def _borel(components):
    rs = build_root_system(components)
    return JobConfig(tuple(components), tuple(r.coords for r in rs.simple_roots), ())


def _maximal_unipotent(components):
    build_root_system(components)  # admissibility check
    return JobConfig(tuple(components), (), ())


def _tu_prime(components):
    rs = build_root_system(components)
    rows = tuple(r.coords for r in rs.simple_roots)
    return JobConfig(tuple(components), rows, tuple(((c, Fraction(1)),) for c in rows))


def _sl4_sp4borel(components):
    # Borel subgroup of Sp4 embedded in SL4; the subtorus is
    # diag(s1, s2, 1/s2, 1/s1) and the unipotent part pairs the two
    # short-weight lines with opposite signs on one of them.
    return JobConfig(
        (("A", 3),),
        ((1, 1, 1), (0, 1, 0)),
        (
            (((1, 0, 0), Fraction(1)), ((0, 0, 1), Fraction(1))),
            (((1, 1, 0), Fraction(1)), ((0, 1, 1), Fraction(-1))),
        ),
        JobOptions(height_bound=2),
    )


def _sl2_torus(components):
    return JobConfig((("A", 1),), ((1,),), ((((1,), Fraction(1)),),), JobOptions(height_bound=3))


def _sl2_trivial(components):
    return JobConfig((("A", 1),), (), ((((1,), Fraction(1)),),), JobOptions(height_bound=3))


_PRESETS = {
    "borel": (_borel, True, "the Borel subgroup itself (S = T, full unipotent part)"),
    "maximal-unipotent": (_maximal_unipotent, True, "trivial torus, full unipotent part"),
    "tu-prime": (_tu_prime, True, "full torus over the derived unipotent subgroup"),
    "sl4-sp4borel": (_sl4_sp4borel, False, "Borel subgroup of Sp4 inside SL4"),
    "sl2-torus": (_sl2_torus, False, "the maximal torus of SL2"),
    "sl2-trivial": (_sl2_trivial, False, "the trivial subgroup of SL2 (not spherical)"),
}

_DEFAULT_COMPONENTS = (("A", 2),)


def preset_names():
    return sorted(_PRESETS)


def preset_description(name):
    return _PRESETS[name][2]


def get_preset(name, components=None) -> JobConfig:
    """A bundled configuration, optionally on an overridden group."""
    if name not in _PRESETS:
        raise ConfigParseError(f"unknown preset {name!r} (available: {', '.join(preset_names())})")
    builder, parametrized, _ = _PRESETS[name]
    if components is not None and not parametrized:
        raise ConfigParseError(f"preset {name!r} is tied to a fixed group")
    return builder(tuple(components) if components else _DEFAULT_COMPONENTS)
