"""Exact value semigroups, duality and motivic series of curve singularities.

The package computes, over exact rational arithmetic:

* value sets of fractional ideals of one-dimensional curve-singularity
  rings presented by branch power series (``curve``, ``algebra``);
* the combinatorics of multi-branch staircases: codimensions, jump
  counts, symmetry and four self-duality criteria (``valuemodule``);
* coefficient windows of the motivic series attached to the filtration
  by order vectors, and the duality and functional-equation identities
  tying a module to its dual (``lefschetz``, ``lattice``, ``poincare``);
* a finite-field counting oracle cross-checking the specialization at
  L = q (``algebra``);
* a JSON input layer and a command-line driver (``schemas``, ``cli``).

The library API is these submodules; import from them directly.
"""

__version__ = "0.1.0"
