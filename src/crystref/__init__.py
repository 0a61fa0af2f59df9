"""crystref: exact arithmetic for the crystallographic complex reflection
groups of the infinite family, their mirror arrangements, and verification of
the fixed-point (Steinberg) property.
"""

from .affine import (EMPTY, AffineMap, AffineSubspace, Monomial, Vector,
                     compose, fixed_space, has_finite_order,
                     is_central_reflection, is_reflection, power,
                     subspace_satisfies_form)
from .catalog import (GroupId, GroupSpec, build_group, catalog_ids,
                      enumerate_linear_group, generators_of_linear_part,
                      linear_group_order, parse_group_name)
from .errors import (AlphaNotInvertible, AlphaSquared, ConstantNotAdmissible,
                     CrystrefError, DimensionMismatch, DivisionByZero,
                     EmptySubspace, ExpectedPositiveGroup, InvalidParameters,
                     NotAMember, NotRankOne, RankDeficient, RingMismatch,
                     TooLarge, UnknownGroup, ZeroDirection)
from .hyperplanes import (Branch, HyperplaneFamily, LinearForm, Witness,
                          in_window, module_window, off_arrangement_point,
                          point_on_arrangement, rank1_window,
                          reflection_families, subspace_on_arrangement,
                          witness_reflection)
from .lattices import Lattice, ScalarModule, lattice_from_generators
from .scalars import Ring, Scalar, parse_scalar
from .steinberg import (NO_FIXED_POINT, ON_HYPERPLANE, REFLECTION_POWER,
                        VIOLATION, ElementVerdict, SweepReport,
                        check_counterexample, full_table_report, orbit_classes,
                        orbit_equiv, sweep, sweep_exact, verify_element,
                        witness_from_conditions, witness_from_cycle)

__version__ = "1.0.0"

__all__ = [
    "AffineMap", "AffineSubspace", "Branch", "ElementVerdict", "EMPTY",
    "GroupId", "GroupSpec", "HyperplaneFamily", "Lattice", "LinearForm",
    "Monomial", "Ring", "Scalar", "ScalarModule", "SweepReport", "Vector",
    "Witness", "build_group", "catalog_ids", "check_counterexample",
    "compose", "enumerate_linear_group", "fixed_space", "full_table_report",
    "generators_of_linear_part", "has_finite_order", "in_window",
    "is_central_reflection", "is_reflection", "lattice_from_generators",
    "linear_group_order", "module_window", "off_arrangement_point",
    "orbit_classes", "orbit_equiv", "parse_group_name", "parse_scalar",
    "point_on_arrangement", "power", "rank1_window", "reflection_families",
    "subspace_on_arrangement", "subspace_satisfies_form",
    "sweep", "sweep_exact", "verify_element", "witness_from_conditions",
    "witness_from_cycle", "witness_reflection",
    "NO_FIXED_POINT", "ON_HYPERPLANE", "REFLECTION_POWER", "VIOLATION",
    "AlphaNotInvertible", "AlphaSquared", "ConstantNotAdmissible",
    "CrystrefError", "DimensionMismatch", "DivisionByZero", "EmptySubspace",
    "ExpectedPositiveGroup", "InvalidParameters", "NotAMember", "NotRankOne",
    "RankDeficient", "RingMismatch", "TooLarge", "UnknownGroup",
    "ZeroDirection",
]
