"""Positive discrete series irreps of the noncompact quantum algebra u_q(2,1).

Subpackages:

- qarith: q-numbers, q-factorials, exact/float evaluation contexts, radicals
- repspace: signatures, basis label enumeration, weights, Gelfand-style patterns
- generators: matrix elements of the nine generators in both reductions
- weylracah: transformation brackets between the two bases and q-Racah coefficients
- verify: self-contained identity checks on truncated matrix representations
- cli: command line front end
- records: the frozen-record base of the package's value classes
"""

from .qarith import EvalContext, SignedRadical
from .repspace import Signature, SeriesClass, UBasisLabel, TBasisLabel, Weight

__all__ = [
    "EvalContext",
    "SignedRadical",
    "Signature",
    "SeriesClass",
    "UBasisLabel",
    "TBasisLabel",
    "Weight",
]

__version__ = "0.1.0"
