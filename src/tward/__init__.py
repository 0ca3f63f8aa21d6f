"""Finite left quasigroups, twisted Ward structures, and set-theoretic
Yang-Baxter maps on Cayley tables."""

from .braidings import Braiding, from_braiding, induced_bullet, is_braiding, properties, to_braiding
from .construct import (
    BlockFamily,
    TwqSpec,
    build_affine,
    build_block,
    build_permutational,
    build_twq,
    decompose_block,
    direct_product,
    dis_element_form,
    recover_structure,
    twq_spec_isomorphic,
)
from .errors import (
    AlgebraError,
    BudgetExceededError,
    ClosureOverflowError,
    ConsistencyError,
    IdentityViolationError,
    StructureError,
)
from .groups import (
    FiniteGroup,
    as_group,
    enumerate_groups,
    is_group,
    partition_number,
    q_count,
)
from .perms import (
    PermGroup,
    automorphism_group,
    closure,
    conjugacy_classes,
    is_group_isotope,
    is_regular,
    multiplication_groups,
)
from .search import (
    CountsRow,
    DichotomyReport,
    EnumerationReport,
    counts_row,
    dichotomy_report,
    enumerate_tw_left_quasigroups,
    enumerate_tw_quasigroups,
    twq_catalog_specs,
)
from .tables import (
    CayleyTable,
    Partition,
    canonical_form,
    cayley_kernel,
    check_identity,
    classify_structure,
    is_congruence,
    kernel_size_report,
    quadrangle_criterion,
    squaring_kernel,
    squaring_map,
    table_isomorphic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
