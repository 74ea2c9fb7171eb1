"""Exact rational approximation on determinant-one matrix groups.

Enumerate the group points of a prescribed denominator inside a small ball
around a real target, measure the p-adic ball volumes and congruence
densities that govern how many there should be, run sieve lower bounds and
spectral decay checks on the results, and search for approximants whose
polynomial values have few prime factors.

Importing the package loads none of its modules; each layer is imported from
its own: ``enumeration`` (the points of denominator n), ``volumes`` (shell
volumes, global volumes, Xi), ``densities`` (congruence densities, delta_n),
``sieve`` (Z[1/n] values, sieve axioms, the lower bound), ``spectral`` (the
averaging operator and its gap) and ``engine`` (exponents, witnesses, the
counting check), all on the exact arithmetic of ``core``.  ``config``,
``errors`` and ``cli`` hold the budgets, the exceptions and the command line.
"""
