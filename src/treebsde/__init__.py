"""Exact BSDE and reflected-BSDE laboratory on finite scenario trees.

Solvers run backward induction on uniformly branching trees whose filtration
can jump at announced instants, so every conditional expectation is a finite
sum and every identity can be checked to round-off.
"""

__version__ = "0.1.0"
