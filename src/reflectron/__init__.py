"""Reflection identities for cubic and higher odd-degree fields.

The package computes both sides of a reflection identity between
quadratic field class groups and counts of degree-ell fields: the class
group side exactly, the cubic field side by direct tabulation, and for
odd primes ell >= 5 the predicted discriminants and counts of the
degree-ell fields, which can be reconciled against external field tables.
"""

import importlib

__version__ = "0.1.0"

# where each public name lives; a module is imported on first access to
# one of its names, so importing the package, or one module of it, loads
# nothing else
_MODULES = {
    "factorize": "arith",
    "fundamental_discriminants": "arith",
    "is_fundamental_discriminant": "arith",
    "is_prime": "arith",
    "smallest_primitive_root": "arith",
    "ClassGroupStructure": "quadforms",
    "class_group": "quadforms",
    "class_groups": "quadforms",
    "ell_rank": "quadforms",
    "ell_ranks": "quadforms",
    "CubicForm": "cubicforms",
    "CubicTabulation": "cubicforms",
    "cubic_disc": "cubicforms",
    "is_irreducible": "cubicforms",
    "is_maximal": "cubicforms",
    "enumerate_cubic_fields": "cubicforms",
    "count_N3": "cubicforms",
    "FieldDiscriminant": "reflection",
    "PredictionRecord": "reflection",
    "OnVerification": "reflection",
    "Corollary5Report": "reflection",
    "mirror_disc": "reflection",
    "classify_mirror": "reflection",
    "count_Dl": "reflection",
    "admissible_conductor_exponents": "reflection",
    "fl_disc_from_conductor": "reflection",
    "target_discs": "reflection",
    "predict": "reflection",
    "predictions": "reflection",
    "verify_on3": "reflection",
    "corollary5_predict": "reflection",
    "corollary5_predictions": "reflection",
    "FieldTableEntry": "fieldtables",
    "TableComparison": "fieldtables",
    "parse_field_table": "fieldtables",
    "compare_with_table": "fieldtables",
    "compare_each_with_table": "fieldtables",
}

__all__ = list(_MODULES)


def __getattr__(name: str):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    # bound once, so later lookups do not come back here
    globals()[name] = value
    return value
