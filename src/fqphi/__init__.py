"""Totient and sum-of-divisors arithmetic for polynomials over finite fields.

The library computes phi and sigma on F_q[x], decides when two polynomials
share a totient value from signatures alone, counts and lists preimages
exactly, locates common phi/sigma values, and enumerates the totient value
set with its proven size ceiling.  All counting paths are backed by
independent brute-force oracles exercised in the test and verify suites.
"""

from .collision import phi_classes, same_phi
from .density import (
    DensityReport,
    density_bound,
    density_report,
    density_sweep,
    phi_values_up_to,
)
from .erdos import (
    IntersectionVerdict,
    erdos_witness,
    intersection_member,
    intersection_up_to,
)
from .errors import CounterexampleError
from .gfpoly import (
    Factorization,
    FieldSpec,
    Poly,
    enumerate_irreducibles,
    enumerate_monic,
    factor,
    gcd,
    is_irreducible,
    parse_poly,
    pi_divisibility_holds,
    poly_to_text,
    powmod,
)
from .preimage import (
    CountProfile,
    Representation,
    count_profile,
    degree_bound,
    min_phi,
    phi_table,
    preimage_count,
    preimage_list,
    represent,
    sierpinski_witness,
    sigma_values,
)
from .totient import (
    PhiValue,
    Signature,
    SigmaExponents,
    phi,
    phi_from_signature,
    sigma,
    sigma_exponents,
    signature,
)

__version__ = "0.1.0"

__all__ = [
    "CounterexampleError",
    "CountProfile",
    "DensityReport",
    "Factorization",
    "FieldSpec",
    "IntersectionVerdict",
    "PhiValue",
    "Poly",
    "Representation",
    "Signature",
    "SigmaExponents",
    "count_profile",
    "degree_bound",
    "density_bound",
    "density_report",
    "density_sweep",
    "enumerate_irreducibles",
    "enumerate_monic",
    "erdos_witness",
    "factor",
    "gcd",
    "intersection_member",
    "intersection_up_to",
    "is_irreducible",
    "min_phi",
    "parse_poly",
    "phi",
    "phi_classes",
    "phi_from_signature",
    "phi_table",
    "phi_values_up_to",
    "pi_divisibility_holds",
    "poly_to_text",
    "powmod",
    "preimage_count",
    "preimage_list",
    "represent",
    "same_phi",
    "sierpinski_witness",
    "sigma",
    "sigma_exponents",
    "sigma_values",
    "signature",
    "__version__",
]
