"""certalg: algebraic structures with executable laws and certified algorithms.

The package is organized around StructureInstance, a kind-tagged bundle of a
carrier description (DSet) and named operations. check_laws runs the law
suite any instance of that kind must satisfy and reports recheckable
counterexamples. On top of that sit certified algorithms whose outputs carry
enough data to be verified independently: extended gcd with Bezout
coefficients, primality with factor witnesses and Pratt certificates,
certified factoring, residue fields gated on verified primality, canonical
fractions, sparse polynomial groups, certified sorting with permutation
witnesses, binary powering, and an equational prover by normalization for
monoid and semiring theories.
"""

from .errors import (CertAlgError, CompositeModulusError, InvalidInputError,
                     ParseError, StructuralError)
from .structures import (DSet, Decision, Kind, LawReport, StructureInstance,
                         ancestors, check_laws, direct_product,
                         multiplicative_monoid, recheck_failure,
                         validate_instance)
from .numbers import (bin_add_monoid, bin_suc, bin_to_str, from_bin,
                      int_add_group, int_dset, monus, nat_add_monoid,
                      nat_dset, nat_monus_semigroup, nat_mul_monoid,
                      pos_nat_mul_monoid, power, power_instrumented, to_bin)
from .euclid import (BezoutCertificate, DividesWitness, PrattCertificate,
                     PrimalityCert, Residue, check_divides,
                     euclidean_div_mod, extended_gcd, int_ring, is_prime, make_residue,
                     prime_split, residue_field, residue_ring, verify_bezout,
                     verify_primality)
from .factorization import (FactorEntry, FactorizationData,
                            check_factorization, check_unique_sampled,
                            factor, factorizations_equal,
                            int_factorization_ring, merge_factorizations,
                            pos_nat_factorization_monoid, product_of)
from .fractions import (Fraction, add_naive, add_optimized,
                        build_fraction_field, fraction_field, inverse,
                        is_canonical, mk_fraction, mul_fractions,
                        neg_fraction)
from .polynomials import (Poly, degree, mk_poly, poly_add, poly_group,
                          poly_mul, poly_neg)
from .certlists import (DecTotalOrder, SortResult, append, fraction_order,
                        int_order, rev, sort_certified, verify_sort_result)
from .eqprover import (Apply, NatConst, NormalForm, Term, UnitConst, Var,
                       eval_mat2, eval_nat, eval_word, normalize, prove_eq,
                       term_vars)

__version__ = "0.1.0"

__all__ = [
    "CertAlgError", "CompositeModulusError", "InvalidInputError",
    "ParseError", "StructuralError",
    "DSet", "Decision", "Kind", "LawReport", "StructureInstance",
    "ancestors", "check_laws", "direct_product",
    "multiplicative_monoid", "recheck_failure", "validate_instance",
    "bin_add_monoid", "bin_suc", "bin_to_str", "from_bin", "int_add_group",
    "int_dset", "monus", "nat_add_monoid", "nat_dset", "nat_monus_semigroup",
    "nat_mul_monoid", "pos_nat_mul_monoid", "power", "power_instrumented",
    "to_bin",
    "BezoutCertificate", "DividesWitness", "PrattCertificate", "PrimalityCert",
    "Residue",
    "check_divides", "euclidean_div_mod", "extended_gcd",
    "int_ring", "is_prime", "make_residue", "prime_split", "residue_field",
    "residue_ring", "verify_bezout", "verify_primality",
    "FactorEntry", "FactorizationData", "check_factorization",
    "check_unique_sampled", "factor", "factorizations_equal",
    "int_factorization_ring", "merge_factorizations",
    "pos_nat_factorization_monoid", "product_of",
    "Fraction", "add_naive", "add_optimized", "build_fraction_field",
    "fraction_field", "inverse", "is_canonical", "mk_fraction",
    "mul_fractions", "neg_fraction",
    "Poly", "degree", "mk_poly", "poly_add", "poly_group", "poly_mul",
    "poly_neg",
    "DecTotalOrder", "SortResult", "append", "fraction_order", "int_order",
    "rev", "sort_certified", "verify_sort_result",
    "Apply", "NatConst", "NormalForm", "Term", "UnitConst", "Var",
    "eval_mat2", "eval_nat", "eval_word", "normalize", "prove_eq",
    "term_vars",
]
