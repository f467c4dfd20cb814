"""Crossed modules, crossed squares and cat1/cat2-groups over small finite groups."""

from .groups import (
    DenseGroup,
    GroupAction,
    GroupError,
    GroupTable,
    Homomorphism,
    SemidirectGroup,
    Subgroup,
    TooLargeError,
    automorphism_group,
    conjugation_action,
    group_from_permutation_generators,
    idempotent_endomorphisms,
    image_of,
    isomorphism_between,
    kernel_of,
    semidirect_product,
    subgroup_generated,
)
from .catalog import CatalogEntry, groups_of_order, identify_group, small_group
from .xmod import CrossedModule, is_action, is_homomorphism
from .cat1 import (
    Cat1Group,
    PreCat1Group,
    all_cat1_groups,
    cat1_isomorphism_classes,
    is_cat1_group,
)
from .cat2 import (
    Cat2Group,
    PreCat2Group,
    all_cat2_groups,
    cat2_group,
    cat2_isomorphism_classes,
    diagonal_pre_cat1,
    is_cat2_group,
)
from .xsq import (
    CrossedSquare,
    cat2_of_crossed_square,
    crossed_square_by_normal_subgroups,
    crossed_square_of_cat2,
    is_crossed_square,
)

__version__ = "0.1.0"
