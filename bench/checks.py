"""Output checks computed apart from defectus.

Nothing here imports the library.  Monomial layouts, finite-field
arithmetic for point enumeration, binomial tails and the bound formulas
are re-derived from their definitions, so a fault in the library cannot
vouch for itself.  Reports and systems are read only through their
public attributes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

CERTIFIED_IRREDUCIBLE = "CertifiedIrreducible"
CERTIFIED_REDUCIBLE = "CertifiedReducible"

# point enumeration sizes: all of F_{q^2}^r when it has at most
# SCAN_EXT_POINTS points, otherwise all of F_q^r up to SCAN_BASE_POINTS
SCAN_EXT_POINTS = 1 << 16
SCAN_BASE_POINTS = 1 << 21


# -- monomial layout -----------------------------------------------------

def grevlex_key(e):
    """Degree first; among equal degrees the smaller last exponent wins."""
    return (sum(e), tuple(-x for x in reversed(e)))


def layout(r, caps):
    """Monomials of degree <= cap per generator, descending grevlex."""
    out = []
    for cap in caps:
        mons = [e for e in product(range(cap + 1), repeat=r) if sum(e) <= cap]
        mons.sort(key=grevlex_key, reverse=True)
        out.append(mons)
    return out


def decode_census_index(index, q, r, caps):
    """Coefficient indices per generator, most significant digit first."""
    mons = layout(r, caps)
    width = sum(len(m) for m in mons)
    digits = []
    for _ in range(width):
        index, dig = divmod(index, q)
        digits.append(dig)
    digits.reverse()
    polys, pos = [], 0
    for gen in mons:
        polys.append({m: digits[pos + i] for i, m in enumerate(gen)
                      if digits[pos + i]})
        pos += len(gen)
    return polys


def census_counts(q, r, caps):
    """Census size, per-generator degree drops and in_L, by counting.

    A generator drops degree iff all its top-degree coefficients are 0;
    a system lies in L iff some generator drops.
    """
    sizes = [math.comb(c + r, r) for c in caps]
    tops = [math.comb(c + r - 1, r - 1) for c in caps]
    total = sum(sizes)
    full = math.prod(q ** n - q ** (n - t) for n, t in zip(sizes, tops))
    return {"n": q ** total,
            "degree_drop": [q ** (total - t) for t in tops],
            "in_L": q ** total - full}


# -- the paper's bounds ----------------------------------------------------

def paper_bounds(r, s, q, caps):
    """(applicable, prob_B1, prob_B2) from delta, sigma and the exponents."""
    if any(c < 2 for c in caps):
        return False, None, None
    delta = math.prod(caps)
    sigma = sum(caps) - s
    prob_b1 = Fraction(2 * s * sigma * delta, q) ** (r - s + 2)
    prob_b2 = Fraction(2 * s * sigma * sigma * delta, q) ** (r - s + 1)
    return True, prob_b1, prob_b2


# -- exact Clopper-Pearson -------------------------------------------------

def binom_cdf(x, n, p):
    """P[Bin(n, p) <= x] as an exact Fraction, for a rational p."""
    p = Fraction(p)
    if p >= 1:
        return Fraction(1 if x >= n else 0)
    a, b = p.numerator, p.denominator
    num = sum(math.comb(n, j) * a ** j * (b - a) ** (n - j)
              for j in range(min(x, n) + 1))
    return Fraction(num, b ** n)


def cp_upper_clears(x, n, bound, confidence):
    """True iff the one-sided CP upper bound is <= ``bound``.

    The upper bound p_u solves P[Bin(n, p_u) <= x] = 1 - confidence and
    the tail falls as p grows, so p_u <= bound iff the tail at ``bound``
    is already <= 1 - confidence.
    """
    if x >= n:
        return bound >= 1
    return binom_cdf(x, n, bound) <= 1 - Fraction(confidence)


def cp_upper_bracket(x, n, confidence, bits=48):
    """Dyadic (lo, hi] of width 2**-bits holding the CP upper bound."""
    if x >= n:
        return Fraction(1), Fraction(1)
    alpha = 1 - Fraction(confidence)
    lo, hi = 0, 1 << bits          # tail(lo) > alpha >= tail(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if binom_cdf(x, n, Fraction(mid, 1 << bits)) > alpha:
            lo = mid
        else:
            hi = mid
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


# -- per-report properties -------------------------------------------------

def report_violations(rep, r, s):
    """Implications every ClassificationReport must satisfy."""
    out = []
    full = all(rep.degree_full)
    if rep.in_B1 and not rep.in_B2_lower:
        out.append("in_B1 without in_B2_lower")
    if rep.in_B2_lower and not rep.in_B2_upper:
        out.append("in_B2_lower without in_B2_upper")
    if rep.in_piW_rs and not rep.in_piW_rs1:
        out.append("in_piW_rs without in_piW_rs1")
    # K[X] is Cohen-Macaulay: for s=2 a proper ideal of pure codimension 2
    # is exactly a regular sequence (Macaulay unmixedness)
    if s == 2 and rep.regular_sequence != rep.set_theoretic_ci:
        out.append("regular_sequence != set_theoretic_ci")
    if full and not rep.in_B0 and rep.fiber_dim <= r - s - 1 \
            and not rep.ideal_theoretic_ci:
        out.append("cover: fiber_dim <= r-s-1 but not ideal_theoretic_ci")
    if rep.irreducibility == CERTIFIED_IRREDUCIBLE and (
            not full or rep.in_B0 or rep.fiber_dim > r - s - 2):
        out.append("CertifiedIrreducible outside its certificate")
    return out


def counts_of(reports, s):
    """OutcomeCounts fields summed from reports, written out by hand."""
    keys = ("in_B0", "in_B1", "in_B2_lower", "in_B2_upper",
            "regular_sequence", "set_theoretic_ci", "ideal_theoretic_ci",
            "in_piW_rs", "in_piW_rs1", "in_L")
    out = {k: 0 for k in keys}
    out.update(n=0, certified_irreducible=0, certified_reducible=0,
               undetermined=0, degree_drop=[0] * s)
    for rep in reports:
        out["n"] += 1
        for k in keys:
            out[k] += int(getattr(rep, k))
        irr = rep.irreducibility
        out["certified_irreducible"] += irr == CERTIFIED_IRREDUCIBLE
        out["certified_reducible"] += irr == CERTIFIED_REDUCIBLE
        out["undetermined"] += irr not in (CERTIFIED_IRREDUCIBLE,
                                           CERTIFIED_REDUCIBLE)
        for i, full in enumerate(rep.degree_full):
            out["degree_drop"][i] += not full
    return out


# -- point enumeration over small fields ------------------------------------

def _pmod(a, f, p):
    """Remainder of little-endian a modulo monic f over F_p."""
    a = list(a)
    while len(a) >= len(f):
        c = a[-1]
        if c:
            shift = len(a) - len(f)
            for i, fi in enumerate(f):
                a[shift + i] = (a[shift + i] - c * fi) % p
        a.pop()
    return a


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _monic(p, deg):
    for idx in range(p ** deg):
        yield [(idx // p ** i) % p for i in range(deg)] + [1]


def _irreducible(f, p):
    deg = len(f) - 1
    return not any(not any(_pmod(f, g, p))
                   for dg in range(1, deg // 2 + 1) for g in _monic(p, dg))


class SmallField:
    """GF(p^m) on ints 0..p^m-1, whose base-p digits are coefficients
    of 1, x, ..., x^(m-1) modulo the first monic irreducible found."""

    def __init__(self, p, m):
        self.p, self.m, self.size = p, m, p ** m
        self.modulus = next(f for f in _monic(p, m) if _irreducible(f, p))
        order = self.size - 1
        for g in range(1, self.size):
            exp, x = [], 1
            for _ in range(order):
                exp.append(x)
                x = self._slow_mul(x, g)
                if x == 1:
                    break
            if len(exp) == order:
                break
        self.exp = exp + exp
        self.log = {v: i for i, v in enumerate(exp)}

    def _digits(self, a):
        return [(a // self.p ** i) % self.p for i in range(self.m)]

    def _from_digits(self, ds):
        return sum(d * self.p ** i for i, d in enumerate(ds))

    def _slow_mul(self, a, b):
        prod = _pmul(self._digits(a), self._digits(b), self.p)
        return self._from_digits(_pmod(prod, self.modulus, self.p))

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        return self._from_digits(
            [(x + y) % self.p for x, y in zip(self._digits(a),
                                              self._digits(b))])

    def power(self, a, e):
        if e == 0:
            return 1
        return 0 if not a else self.exp[(self.log[a] * e) % (self.size - 1)]


class ZeroScan:
    """Searches F_{q^2}^r (or F_q^r when that is too large) for zeros.

    F_q = F_p[t]/(mu) is embedded by sending t to a root of mu, so a
    library element with coefficient digits c_j maps to sum c_j theta^j.
    Each prefix (x_1..x_{r-1}) turns every generator into a univariate
    polynomial in x_r, which is evaluated at every x_r by Horner's rule.
    """

    def __init__(self, p, k, modulus, r, max_degree):
        q = p ** k
        if q ** (2 * r) <= SCAN_EXT_POINTS:
            m = 2 * k
        elif q ** r <= SCAN_BASE_POINTS:
            m = k
        else:
            raise ValueError(f"no point scan fits q={q}, r={r}")
        self.field = fld = SmallField(p, m)
        self.scope = "F_{q^2}" if m == 2 * k else "F_q"
        self.r = r
        theta = 0 if k == 1 else next(
            x for x in range(fld.size) if _eval_upoly(fld, modulus, x) == 0)
        self.embedded = []
        for idx in range(q):
            acc = 0
            for j in range(k):
                digit = (idx // p ** j) % p
                if digit:
                    acc = fld.add(acc, fld.mul(digit, fld.power(theta, j)))
            self.embedded.append(acc)
        self.powers = [[fld.power(x, e) for e in range(max_degree + 1)]
                       for x in range(fld.size)]

    def has_zero(self, polys):
        """``polys``: one {monomial: library element index} per generator."""
        fld, pw = self.field, self.powers
        gens = [[(m, self.embedded[c]) for m, c in f.items()] for f in polys]
        for prefix in product(range(fld.size), repeat=self.r - 1):
            unis = []
            for gen in gens:
                coeffs = {}
                for m, c in gen:
                    v = c
                    for x, e in zip(prefix, m):
                        v = fld.mul(v, pw[x][e])
                    coeffs[m[-1]] = fld.add(coeffs.get(m[-1], 0), v)
                top = max(coeffs, default=-1)
                unis.append([coeffs.get(e, 0) for e in range(top, -1, -1)])
            for x in range(fld.size):
                if all(not _horner(fld, uni, x) for uni in unis):
                    return True
        return False


def _horner(fld, coeffs, x):
    acc = 0
    for c in coeffs:
        acc = fld.add(fld.mul(acc, x), c)
    return acc


def _eval_upoly(fld, coeffs, x):
    """Value of a little-endian polynomial with constant coefficients."""
    return _horner(fld, list(reversed(coeffs)), x)


def element_index(c, p):
    """Index of a library element: an int, or the digits of a tuple."""
    if isinstance(c, int):
        return c
    return sum(d * p ** j for j, d in enumerate(c))
