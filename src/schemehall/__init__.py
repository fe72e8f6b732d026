"""Hall subsets of solvable association schemes.

The package validates association schemes and finite hypergroups,
enumerates their closed subsets, builds quotients and homomorphisms,
decides solvability, and computes Hall subsets for a set of primes:
existence, mutual conjugacy, and extension of closed subsets, each
produced constructively through the thin quotient group and re-checked
against exhaustive searches.
"""
from .arith import format_pi, is_pi_number, is_prime, pi_part, prime_factors, validate_pi
from .errors import *  # noqa: F401,F403  (the exception taxonomy is the public surface)
from .errors import __all__ as _errors_all
from .formats import GroupFile, SchemeFile, parse_group, parse_scheme, render_group, render_scheme
from .catalogue import (
    bundled_catalogue,
    bundled_group,
    bundled_group_names,
    bundled_orders,
    bundled_scheme,
    bundled_scheme_names,
    fetch_catalogue,
    split_catalogue,
)
from .groups import (
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    quaternion,
    symmetric,
    thin_hypergroup,
    validate_group,
)
from .hall import (
    HallCertificate,
    all_hall_subsets,
    compute_o_pi,
    conjugating_element,
    extend_to_hall,
    find_hall,
    group_from_thin,
    hall_subgroups,
)
from .hypergroup import (
    ClosedSubset,
    ElementSubset,
    Hypergroup,
    closure,
    double_cosets,
    enumerate_closed_subsets,
    format_table,
    is_closed,
    is_metathin,
    is_normal_in,
    is_strongly_normal,
    is_subnormal,
    is_thin,
    normalizes,
    theta_core,
    thin_elements,
    validate_hypergroup,
)
from .quotient import (
    HypergroupHomomorphism,
    QuotientHypergroup,
    find_isomorphism,
    is_thin_quotient,
    kernel,
    lift_closed,
    natural_projection,
    project_closed,
    quotient,
    restriction,
    subquotient,
    validate_homomorphism,
)
from .report import report_records, render_jsonl, scheme_record
from .scheme import (
    AssociationScheme,
    QuotientScheme,
    SchemeClosedSubset,
    conjugate_subset,
    conjugators,
    from_group,
    is_pi_valenced,
    is_solvable_scheme,
    pi_predicates,
    quotient_scheme,
    solvable_chain_scheme,
    tensor_matrix,
    validate_scheme,
    wreath_matrix,
)
from .solvability import SolvableChain, is_solvable, solvable_chain, step_quotient_order

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # arith
    "is_prime", "prime_factors", "is_pi_number", "pi_part", "validate_pi", "format_pi",
    # hypergroups
    "Hypergroup", "ElementSubset", "ClosedSubset", "validate_hypergroup",
    "closure", "is_closed", "enumerate_closed_subsets", "double_cosets",
    "is_normal_in", "is_strongly_normal", "is_subnormal", "normalizes",
    "theta_core", "thin_elements", "is_thin", "is_metathin", "format_table",
    # quotients and maps
    "QuotientHypergroup", "quotient", "restriction", "subquotient",
    "lift_closed", "project_closed", "is_thin_quotient",
    "HypergroupHomomorphism", "validate_homomorphism", "kernel",
    "natural_projection", "find_isomorphism",
    # solvability
    "SolvableChain", "solvable_chain", "is_solvable", "step_quotient_order",
    # groups
    "validate_group", "thin_hypergroup", "cyclic", "dihedral", "dicyclic",
    "quaternion", "symmetric", "alternating", "direct_product",
    # schemes
    "AssociationScheme", "SchemeClosedSubset", "QuotientScheme",
    "validate_scheme", "from_group", "quotient_scheme",
    "pi_predicates", "is_pi_valenced", "conjugate_subset", "conjugators",
    "solvable_chain_scheme", "is_solvable_scheme", "wreath_matrix", "tensor_matrix",
    # hall
    "HallCertificate", "compute_o_pi", "group_from_thin", "hall_subgroups",
    "all_hall_subsets", "find_hall", "conjugating_element", "extend_to_hall",
    # io
    "SchemeFile", "GroupFile", "parse_scheme", "render_scheme",
    "parse_group", "render_group",
    "fetch_catalogue", "split_catalogue", "bundled_orders", "bundled_catalogue",
    "bundled_scheme", "bundled_scheme_names", "bundled_group", "bundled_group_names",
    "scheme_record", "report_records", "render_jsonl",
] + list(_errors_all)
