"""Reflection identities for cubic and higher odd-degree fields.

The package computes both sides of a reflection identity between
quadratic field class groups and counts of degree-ell fields: the class
group side exactly, the cubic field side by direct tabulation, and for
odd primes ell >= 5 the predicted discriminants and counts of the
degree-ell fields, which can be reconciled against external field tables.
"""

from .arith import (
    Factorization,
    factorize,
    fundamental_discriminants_in,
    is_fundamental_discriminant,
    is_prime,
    smallest_primitive_root,
)
from .quadforms import (
    ClassGroupStructure,
    QuadForm,
    class_group,
    compose,
    ell_rank,
    form_discriminant,
    is_equivalent,
    reduce,
)
from .cubicforms import (
    CubicForm,
    CubicTabulation,
    count_N3,
    cubic_disc,
    enumerate_cubic_fields,
    is_irreducible,
    is_maximal,
)
from .reflection import (
    Corollary5Report,
    FieldDiscriminant,
    OnVerification,
    PredictionRecord,
    admissible_conductor_exponents,
    classify_mirror,
    corollary5_predict,
    count_Dl,
    dl_disc,
    fl_disc_from_conductor,
    mirror_disc,
    predict,
    target_discs,
    verify_on3,
)
from .fieldtables import (
    FieldTableEntry,
    TableComparison,
    compare_with_table,
    parse_field_table,
)

__version__ = "0.1.0"

__all__ = [
    "Factorization",
    "factorize",
    "fundamental_discriminants_in",
    "is_fundamental_discriminant",
    "is_prime",
    "smallest_primitive_root",
    "QuadForm",
    "ClassGroupStructure",
    "form_discriminant",
    "reduce",
    "compose",
    "is_equivalent",
    "class_group",
    "ell_rank",
    "CubicForm",
    "CubicTabulation",
    "cubic_disc",
    "is_irreducible",
    "is_maximal",
    "enumerate_cubic_fields",
    "count_N3",
    "FieldDiscriminant",
    "PredictionRecord",
    "OnVerification",
    "Corollary5Report",
    "mirror_disc",
    "classify_mirror",
    "dl_disc",
    "count_Dl",
    "admissible_conductor_exponents",
    "fl_disc_from_conductor",
    "target_discs",
    "predict",
    "verify_on3",
    "corollary5_predict",
    "FieldTableEntry",
    "TableComparison",
    "parse_field_table",
    "compare_with_table",
]
