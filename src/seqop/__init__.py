"""Exact computations with the operad of sequence operations on cochains.

Subpackages by subject:

- :mod:`seqop.combinatorics` - surjection words, overlapping partitions as
  piece-size tuples, the signed sum over composition diagrams, the four
  sign rules, and the immutable linear combination of keys that the
  element, cochain and tensor types below share.
- :mod:`seqop.operad` - elements, boundary, symmetric action, composition,
  the prepend contraction, the complexity filtration, and the operator side
  of the chain-map, equivariance and composition identities of an action.
- :mod:`seqop.simplicial` - finite complexes, normalized (co)chains, the
  coaction, cup-i products, Steenrod squares, and the equality oracle.
- :mod:`seqop.homology` - unit elimination over a whole complex, sparse
  integer Smith reduction, and homology of graded word complexes.
- :mod:`seqop.berger` - the pairwise-complexity poset operad and its
  contractible word subcomplexes.
- :mod:`seqop.hochschild` - finite rings, normalized Hochschild cochains,
  cup and substitution, and the low-complexity word action.
- :mod:`seqop.cli` - the ``seqop`` command.
"""

__version__ = "1.0.0"

from .combinatorics import Surjection  # noqa: F401
from .operad import OperadElement  # noqa: F401
