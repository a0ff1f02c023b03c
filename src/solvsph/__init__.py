"""Sphericity and extended weight semigroups for solvable subgroups.

Given a simply connected semisimple group type and a connected solvable
subgroup of a Borel (a subtorus plus a torus-stable unipotent part), the
package decides whether the subgroup is spherical, computes the free
generators of the extended weight semigroup of the homogeneous space,
and cross-checks both against brute-force computations in explicit
matrix representations.
"""

from .chevalley import AlgebraElement, ChevalleyAlgebra, bracket, build_algebra
from .config import JobConfig, JobOptions, build_subgroup, parse_config_text
from .errors import (
    AlgebraMismatch,
    AxiomViolation,
    ConfigParseError,
    DimensionCap,
    DuplicateRoot,
    InvalidType,
    MixedWeightConstraint,
    MultipleCandidates,
    NonIntegralWeight,
    NonSurjectiveTau,
    NotBasisKey,
    NotDominant,
    NotSpherical,
    NotSubalgebra,
    NoValidCandidate,
    SolvsphError,
    ZeroCoefficient,
    ZeroRoot,
)
from .oracle import (
    HighestWeightModule,
    MultiplicityRecord,
    annihilated_by_nil,
    build_irrep,
    build_realization,
    dominant_weights_up_to,
    enumerate_semigroup,
    open_orbit_check,
    representation_property_check,
    semi_invariant_dim,
    semi_invariant_witness,
    vector_s_weight,
    weyl_dim,
)
from .presets import get_preset, preset_description, preset_names
from .rootsys import Root, RootSystem, Weight, build_root_system, fmt_root, fmt_weight
from .semigroup import (
    SemigroupGenerators,
    anchor_weights,
    bounded_members,
    decompose,
    generators,
)
from .sphericity import (
    ActiveFamily,
    ActiveRootTable,
    SphericityVerdict,
    active_roots,
    anchor_root,
    check_spherical,
    subordinate,
    verify_active_axioms,
)
from .subgroup import (
    NilradicalSpec,
    SubgroupData,
    TorusRestriction,
    restrict,
    validate,
    weight_table,
)

__version__ = "0.1.0"
