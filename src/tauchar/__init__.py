"""Exact and numeric verification tools for divisor-count character sums.

The object of study is the multiplicative function sending n to the Legendre
symbol of its divisor count modulo an odd prime q, its Dirichlet convolution
with the constant function 1, and the growth of the partial sums of that
convolution.  The package provides:

* exact sieves for the base arithmetic functions (``sieves``),
* exact Dirichlet-coefficient algebra and an Euler-product factorization
  verifier (``dirichlet``),
* certified numeric evaluation of the asymptotic main-term constants
  (``constants``),
* large-x summatory traces and growth diagnostics (``summatory``),
* short-interval decompositions and integer-points-near-curves counting
  (``curves``),
* a CLI for all of the above (``tauchar`` console script, module ``cli``).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
