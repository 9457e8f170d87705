"""Totient and sum-of-divisors arithmetic for polynomials over finite fields.

The library computes phi and sigma on F_q[x], decides when two polynomials
share a totient value from signatures alone, counts and lists preimages
exactly, locates common phi/sigma values, and enumerates the totient value
set with its proven size ceiling.  All counting paths are backed by
independent brute-force oracles exercised in the test and verify suites.

Names load lazily (PEP 562): ``import fqphi`` imports no submodule, and the
first access to a name imports the module that defines it, so a caller that
only counts never compiles polynomial arithmetic.
"""

from importlib import import_module

# The public names, by the module that defines each one.
_EXPORTS = {
    "collision": ("same_phi",),
    "density": ("DensityReport", "density_bound", "density_sweep",
                "phi_values_up_to"),
    "erdos": ("IntersectionVerdict", "erdos_witness", "intersection_member",
              "intersection_up_to"),
    "errors": ("CounterexampleError",),
    "field": ("FieldSpec",),
    "gfpoly": ("Factorization", "Poly", "enumerate_irreducibles",
               "enumerate_monic", "factor", "gcd", "is_irreducible",
               "parse_poly", "pi_divisibility_holds", "powmod"),
    "preimage": ("CountProfile", "Representation", "count_profile",
                 "degree_bound", "min_phi", "phi_counts", "phi_table",
                 "preimage_count", "preimage_list", "represent",
                 "sierpinski_witness", "sigma_values"),
    "totient": ("PhiValue", "Signature", "phi", "phi_from_signature",
                "sigma", "signature"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "numtheory", "verify"}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    # Called only for a name not yet in the module's namespace: a public
    # name is cached there, and importing a submodule binds it there.
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
