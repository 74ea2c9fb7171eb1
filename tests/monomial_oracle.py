"""Polynomial values read straight from the monomials, the oracle of
``Polynomial.eval_flat`` and ``Polynomial.eval_mod``."""


def monomial_value(poly, values, v=1):
    """v**deg * f(values / v) as the sum over the monomials c * x**e of f of
    c * v**(deg - |e|) * prod_i values[i]**e_i, computed without the term
    table of ``Polynomial``.  The values may be ints, Fractions or columns."""
    deg = max(sum(exps) for exps, _ in poly.monomials)
    total = 0
    for exps, c in poly.monomials:
        term = c * v ** (deg - sum(exps))
        for x, e in zip(values, exps):
            term = term * x**e
        total = total + term
    return total
