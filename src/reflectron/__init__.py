"""Reflection identities for cubic and higher odd-degree fields.

The package computes both sides of a reflection identity between
quadratic field class groups and counts of degree-ell fields: the class
group side exactly, the cubic field side by direct tabulation, and for
odd primes ell >= 5 the predicted discriminants and counts of the
degree-ell fields, which can be reconciled against external field tables.

Each public name is reached by the path of its module, as in
`from reflectron.quadforms import class_group`; importing the package
loads none of them.
"""

__version__ = "0.1.0"
