"""Group-covariant extreme channel construction.

For a named finite group or compact connected Lie group and a Hilbert-space
dimension, build every covariant generalized-extreme channel up to unitary
equivalence and decide whether each one is extreme or only quasi-extreme.
"""

__version__ = "0.1.0"
