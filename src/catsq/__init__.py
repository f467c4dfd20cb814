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
    all_homomorphisms,
    automorphism_group,
    commutator_subgroup,
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
from .xmod import (
    CrossedModule,
    XModMorphism,
    automorphism_xmod,
    central_extension_xmod,
    conjugation_xmod,
    direct_product_xmod,
    is_action,
    is_crossed_module,
    is_homomorphism,
    zero_boundary_xmod,
)
from .cat1 import (
    Cat1Group,
    Cat1Morphism,
    PreCat1Group,
    all_cat1_groups,
    all_cat1_morphisms,
    cat1_group,
    cat1_isomorphism_classes,
    cat1_of_xmod,
    from_general_form,
    general_form,
    is_cat1_group,
    pre_cat1_by_endomorphisms,
    xmod_of_cat1,
)
from .cat2 import (
    Cat2Group,
    Cat2Morphism,
    CatNGroup,
    PreCat2Group,
    all_cat2_group_morphisms,
    all_cat2_groups,
    cat2_group,
    cat2_isomorphism_classes,
    catn_group,
    diagonal_pre_cat1,
    is_cat2_group,
    isomorphism_cat2_groups,
    pre_cat2_group,
)
from .xsq import (
    CrossedSquare,
    actor_crossed_square,
    cat2_of_crossed_square,
    crossed_square_by_normal_subgroups,
    crossed_square_of_cat2,
    direct_product_xsq,
    is_crossed_square,
    transpose_xsq,
    trivial_action_crossed_square,
)

__version__ = "0.1.0"
