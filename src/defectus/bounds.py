"""Closed-form bound bookkeeping, in exact arithmetic only.

Let delta = d_1*...*d_s and sigma = d_1+...+d_s - s.  For d_i >= 2 the
verified quantities are

    count_B1 = (2*s*sigma*delta)^(r-s+2) * q^(dimF - (r-s+2))
    prob_B1  = (2*s*sigma*delta / q)^(r-s+2)
    count_B2 = (2*s*sigma^2*delta)^(r-s+1) * q^(dimF - (r-s+1))
    prob_B2  = (2*s*sigma^2*delta / q)^(r-s+1)

where dimF = sum_i C(d_i + r, r) is the coefficient-space dimension,
plus the per-generator degree constants

    C1_i = delta*sigma*(1 + 1/d_i)      C2_i = delta*sigma*(sigma/d_i + 2)

and the point-count bound |V(F_q)| <= deg(V) * q^dim(V).  These blow up
or shrink past any float range, so the report holds big ints and exact
fractions; floats appear only in rendered decimal strings.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .fields import Field, extension_of, prime_power_decompose
from .polynomials import PolySystem, embed_poly

BUDGET_DEFAULT = 1 << 20


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, required: int, budget: int, what: str):
        super().__init__(
            f"{what} needs {required} evaluations, budget is {budget}")
        self.required = required
        self.budget = budget


def enumeration_budget() -> int:
    """Default budget, overridable via the DEFECTUS_BUDGET variable."""
    raw = os.environ.get("DEFECTUS_BUDGET")
    if raw is None:
        return BUDGET_DEFAULT
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"DEFECTUS_BUDGET must be an integer: {raw!r}") from exc
    if value < 1:
        raise ValueError("DEFECTUS_BUDGET must be positive")
    return value


@dataclass(frozen=True)
class BoundInputs:
    r: int
    s: int
    q: int
    d: tuple

    def __post_init__(self):
        if not 1 < self.s < self.r:
            raise ValueError("require 1 < s < r")
        if len(self.d) != self.s:
            raise ValueError("need s degree caps")
        if any(di < 1 for di in self.d):
            raise ValueError("degree caps must be >= 1")
        prime_power_decompose(self.q)  # raises unless q is a prime power

    def to_json_dict(self):
        p, k = prime_power_decompose(self.q)
        return {"r": self.r, "s": self.s, "q": self.q, "p": p, "k": k,
                "d": list(self.d)}


@dataclass(frozen=True)
class BoundReport:
    inputs: BoundInputs
    delta: int
    sigma: int
    dimF: int
    n_minors: int
    applicable: bool                 # bound fields need every d_i >= 2
    c1: Optional[tuple]
    c2: Optional[tuple]
    count_B1: Optional[int]
    prob_B1: Optional[Fraction]
    count_B2: Optional[int]
    prob_B2: Optional[Fraction]
    vacuous_B1: Optional[bool]
    vacuous_B2: Optional[bool]
    nonvacuous_threshold_B1: Optional[int]   # bounds bite once q exceeds this
    nonvacuous_threshold_B2: Optional[int]

    def to_json_dict(self):
        def frac(f):
            if f is None:
                return None
            return {"num": f.numerator, "den": f.denominator,
                    "decimal": decimal_string(f)}

        return {
            "inputs": self.inputs.to_json_dict(),
            "delta": self.delta,
            "sigma": self.sigma,
            "dimF": self.dimF,
            "n_minors": self.n_minors,
            "applicable": self.applicable,
            "C1": list(self.c1) if self.c1 is not None else None,
            "C2": list(self.c2) if self.c2 is not None else None,
            "count_B1": self.count_B1,
            "prob_B1": frac(self.prob_B1),
            "count_B2": self.count_B2,
            "prob_B2": frac(self.prob_B2),
            "vacuous_B1": self.vacuous_B1,
            "vacuous_B2": self.vacuous_B2,
            "nonvacuous_threshold_B1": self.nonvacuous_threshold_B1,
            "nonvacuous_threshold_B2": self.nonvacuous_threshold_B2,
        }


def derive(inputs: BoundInputs) -> BoundReport:
    """Evaluate every bound quantity exactly.

    Structural fields (delta, sigma, dimF, minor count) are always
    produced; the count/probability bounds require every d_i >= 2 and
    are marked inapplicable otherwise.  ``vacuous_*`` flags a
    probability bound >= 1, which small q makes common.
    """
    r, s, q, d = inputs.r, inputs.s, inputs.q, inputs.d
    delta = math.prod(d)
    sigma = sum(d) - s
    dim_f = sum(math.comb(di + r, r) for di in d)
    n_minors = math.comb(r + 1, s)
    if any(di < 2 for di in d):
        return BoundReport(inputs, delta, sigma, dim_f, n_minors, False,
                           None, None, None, None, None, None, None, None,
                           None, None)
    c1 = tuple(delta * sigma + (delta // di) * sigma for di in d)
    c2 = tuple((delta // di) * sigma * sigma + 2 * delta * sigma for di in d)
    e1 = r - s + 2
    e2 = r - s + 1
    base1 = 2 * s * sigma * delta
    base2 = 2 * s * sigma * sigma * delta
    count_b1 = base1 ** e1 * q ** (dim_f - e1)
    count_b2 = base2 ** e2 * q ** (dim_f - e2)
    prob_b1 = Fraction(base1, q) ** e1
    prob_b2 = Fraction(base2, q) ** e2
    return BoundReport(
        inputs, delta, sigma, dim_f, n_minors, True, c1, c2,
        count_b1, prob_b1, count_b2, prob_b2,
        prob_b1 >= 1, prob_b2 >= 1, base1, base2,
    )


def point_count_bound(degree: int, dim: int, q: int) -> int:
    """Upper bound degree * q^dim on the F_q-rational points."""
    if degree < 0 or dim < 0:
        raise ValueError("degree and dimension must be nonnegative")
    return degree * q ** dim


def enumerate_points(system: PolySystem, ext_degree: int = 1,
                     budget: int = None):
    """Exhaustive scan for the zeros of the system in F_{q^k}^r.

    Refuses (BudgetExceeded) when q^(k*r) points would exceed the
    budget.  Returned points are coordinate tuples over the scanned
    field, in enumeration-index order.
    """
    if ext_degree < 1:
        raise ValueError("extension degree must be >= 1")
    if budget is None:
        budget = enumeration_budget()
    field: Field = system.field
    if ext_degree == 1:
        big = field
        polys = list(system.polys)
    else:
        big = extension_of(field, ext_degree)
        polys = [embed_poly(f, big, big.embed) for f in system.polys]
    total = big.q ** system.r
    if total > budget:
        raise BudgetExceeded(total, budget, "point enumeration")
    points = []
    for idx in range(total):
        rest = idx
        coords = []
        for _ in range(system.r):
            rest, digit = divmod(rest, big.q)
            coords.append(big.element_from_index(digit))
        point = tuple(coords)
        if all(f.evaluate(point) == big.zero for f in polys):
            points.append(point)
    return points


def decimal_string(fr: Fraction, sig: int = 6) -> str:
    """Exact decimal rendering to ``sig`` significant digits.

    Works at any magnitude; floats would overflow or flush to zero on
    the astronomically sized bounds.
    """
    if fr == 0:
        return "0"
    sign = "-" if fr < 0 else ""
    num, den = abs(fr.numerator), fr.denominator
    exp = len(str(num)) - len(str(den))
    for _ in range(3):
        shift = sig - 1 - exp
        if shift >= 0:
            a, b = num * 10 ** shift, den
        else:
            a, b = num, den * 10 ** (-shift)
        mant, rem = divmod(a, b)
        if 2 * rem >= b:
            mant += 1
        if mant >= 10 ** sig:
            exp += 1
            continue
        if mant < 10 ** (sig - 1):
            exp -= 1
            continue
        digits = str(mant)
        return f"{sign}{digits[0]}.{digits[1:]}e{exp:+03d}"
    raise AssertionError("unreachable: exponent adjustment converges")
