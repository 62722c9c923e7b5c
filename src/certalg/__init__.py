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

Each exported name loads its submodule on first use, so code that uses one
structure does not pay to import the others.
"""

__version__ = "0.1.0"

# submodule -> the names it exports through the package
_EXPORTS = {
    "errors": ("CertAlgError", "CompositeModulusError", "InvalidInputError",
               "ParseError", "StructuralError"),
    "structures": ("DSet", "Decision", "Kind", "LawReport", "StructureInstance",
                   "ancestors", "check_laws", "multiplicative_monoid",
                   "recheck_failure", "validate_instance"),
    "numbers": ("bin_add_monoid", "bin_suc", "bin_to_str", "from_bin", "int_add_group",
                "int_dset", "monus", "nat_add_monoid", "nat_dset", "nat_monus_semigroup",
                "nat_mul_monoid", "pos_nat_mul_monoid", "power", "power_instrumented",
                "to_bin"),
    "euclid": ("BezoutCertificate", "DividesWitness", "FactorEntry", "PrattCertificate",
               "PrimalityCert", "Residue", "check_divides", "euclidean_div_mod",
               "extended_gcd", "int_ring", "is_prime", "make_residue", "prime_split",
               "residue_field", "residue_ring", "verify_bezout", "verify_primality"),
    "factorization": ("FactorizationData", "check_factorization",
                      "check_unique_sampled", "factor", "factorizations_equal",
                      "int_factorization_ring", "merge_factorizations",
                      "pos_nat_factorization_monoid", "product_of"),
    "fractions": ("Fraction", "add_naive", "add_optimized", "build_fraction_field",
                  "fraction_field", "inverse", "is_canonical", "mk_fraction",
                  "mul_fractions", "neg_fraction"),
    "polynomials": ("Poly", "degree", "mk_poly", "poly_add", "poly_group", "poly_mul",
                    "poly_neg"),
    "certlists": ("DecTotalOrder", "SortResult", "append", "fraction_order", "int_order",
                  "rev", "sort_certified", "verify_sort_result"),
    "eqprover": ("Apply", "NatConst", "NormalForm", "Term", "UnitConst", "Var",
                 "eval_mat2", "eval_nat", "eval_word", "normalize", "prove_eq"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    """Import the submodule that owns name (or is name) and bind the value
    here, so the next lookup finds it. The builtin __import__ does the import
    because `python -X importtime` reports it; importlib.import_module's is
    not reported."""
    module = name if name in _EXPORTS else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # binds the submodule here
    if module != name:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
