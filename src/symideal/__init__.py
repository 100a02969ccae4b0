"""Exact-arithmetic toolkit for zero-dimensional symmetric ideals.

Builds Specht and higher Specht polynomials, Tanisaki-type ideals,
isotypic decompositions of finite quotient rings, and equivariant
tangent-space dimensions of invariant punctual Hilbert schemes, all over
the rationals.
"""

__version__ = "0.1.0"

from .combinat import (IsotypicDecomposition, Partition, Permutation,
                       Tableau, d_min, dominates, kostka_decomposition,
                       kostka_number, multinomial, partitions_of, r_lambda,
                       R_k, standard_tableaux, transpose, word)
from .combinat import index as tableau_index
from .equivariant import (TangentReport, decompose_quotient,
                          is_permutation_module_sum, is_symmetric,
                          tangent_dimension)
from .ideals import Ideal, maximal_power, orbit_ideal
from .poly import (DEGREVLEX, Polynomial, apply_permutation, elementary_symmetric,
                   parse_polynomial, power_sum)
from .specht import (coinvariant_isotypic_basis, higher_specht,
                     specht_polynomial, vandermonde)
from .tanisaki import inclusion_chain_check, tanisaki_ideal, tilde_ideal
