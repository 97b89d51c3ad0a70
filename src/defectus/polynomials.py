"""Sparse multivariate polynomials over a finite field.

Monomials are plain exponent tuples.  A polynomial is a term map
(monomial -> nonzero coefficient) plus its variable count and field.
Term iteration is canonical (descending graded reverse lexicographic),
so equal polynomials serialize to identical bytes.

Variable layout: an affine polynomial in r variables uses indices
0..r-1 for X_1..X_r.  Homogenization appends the homogenizing variable
X_0 at the last index, where the monomial order ranks it below every
other variable.  The zero polynomial has degree NEG_INF.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations
import hashlib
import json

from .fields import Field

NEG_INF = float("-inf")


# -- monomials -----------------------------------------------------------

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def grevlex_key(e):
    """Sort key: bigger key = bigger monomial under grevlex.

    Degree first; ties broken so the monomial whose rightmost differing
    exponent is smaller wins.  The last variable index is therefore the
    cheapest, which is where homogenization puts X_0.
    """
    return (sum(e), tuple(-x for x in reversed(e)))


def monomials_exact(nvars: int, degree: int):
    """All degree-``degree`` monomials in ``nvars`` variables, descending."""
    if degree < 0:
        return []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    out.sort(key=grevlex_key, reverse=True)
    return out


def monomials_upto(nvars: int, degree: int):
    """All monomials of degree <= ``degree``, descending grevlex."""
    out = []
    for d in range(degree, -1, -1):
        out.extend(monomials_exact(nvars, d))
    return out


# -- polynomials ---------------------------------------------------------

class Poly:
    """Immutable sparse polynomial; stored coefficients are never zero."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms: dict, _clean=False):
        self.field = field
        self.nvars = nvars
        if _clean:
            self.terms = terms
        else:
            zero = field.zero
            cleaned = {}
            for m, c in terms.items():
                if len(m) != nvars:
                    raise ValueError("exponent vector has wrong length")
                if any(e < 0 for e in m):
                    raise ValueError("negative exponent")
                if c != zero:
                    cleaned[m] = c
            self.terms = cleaned

    # construction helpers

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {}, _clean=True)

    @classmethod
    def constant(cls, field, nvars, c):
        if c == field.zero:
            return cls.zero(field, nvars)
        return cls(field, nvars, {(0,) * nvars: c}, _clean=True)

    @classmethod
    def variable(cls, field, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(field, nvars, {tuple(e): field.one}, _clean=True)

    @classmethod
    def from_int_terms(cls, field, nvars, int_terms: dict):
        """Build from {exponent tuple: python int}; convenient in tests."""
        return cls(field, nvars,
                   {m: field.from_int(c) for m, c in int_terms.items()})

    # basic structure

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self):
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: grevlex_key(t[0]), reverse=True)

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    # arithmetic

    def __add__(self, other):
        self._check(other)
        f = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = f.add(out.get(m, f.zero), c)
            if s == f.zero:
                out.pop(m, None)
            else:
                out[m] = s
        return Poly(f, self.nvars, out, _clean=True)

    def __sub__(self, other):
        self._check(other)
        f = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = f.sub(out.get(m, f.zero), c)
            if s == f.zero:
                out.pop(m, None)
            else:
                out[m] = s
        return Poly(f, self.nvars, out, _clean=True)

    def __neg__(self):
        f = self.field
        return Poly(f, self.nvars,
                    {m: f.neg(c) for m, c in self.terms.items()}, _clean=True)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = f.add(out.get(m, f.zero), f.mul(c1, c2))
                if s == f.zero:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Poly(f, self.nvars, out, _clean=True)

    def scale(self, c):
        f = self.field
        if c == f.zero:
            return Poly.zero(f, self.nvars)
        return Poly(f, self.nvars,
                    {m: f.mul(c, v) for m, v in self.terms.items()},
                    _clean=True)

    def mul_term(self, c, mono):
        f = self.field
        if c == f.zero:
            return Poly.zero(f, self.nvars)
        return Poly(f, self.nvars,
                    {mono_mul(m, mono): f.mul(c, v)
                     for m, v in self.terms.items()}, _clean=True)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.field == other.field and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}"
                for i, e in enumerate(m) if e
            )
            bits.append(f"{c!r}" + ("*" + mono if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"

    def _check(self, other):
        if self.nvars != other.nvars or self.field != other.field:
            raise ValueError("polynomials live in different rings")

    # evaluation and calculus

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError("point has wrong dimension")
        f = self.field
        total = f.zero
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v = f.mul(v, f.pow(x, e))
            total = f.add(total, v)
        return total

    def derivative(self, var: int):
        """Formal partial derivative; exponents reduce mod p as scalars."""
        f = self.field
        out = {}
        for m, c in self.terms.items():
            e = m[var]
            if e == 0:
                continue
            scalar = f.from_int(e)
            if scalar == f.zero:
                continue
            m2 = m[:var] + (e - 1,) + m[var + 1:]
            s = f.add(out.get(m2, f.zero), f.mul(c, scalar))
            if s == f.zero:
                out.pop(m2, None)
            else:
                out[m2] = s
        return Poly(f, self.nvars, out, _clean=True)

    # homogenization (cap-relative: a degree-drop polynomial is raised to
    # the declared cap, every term acquiring positive X_0 power)

    def homogenize(self, cap: int):
        if self.degree() > cap:
            raise ValueError(f"degree {self.degree()} exceeds cap {cap}")
        out = {m + (cap - sum(m),): c for m, c in self.terms.items()}
        return Poly(self.field, self.nvars + 1, out, _clean=True)

    def substitute_last(self, value):
        """Substitute the last variable by a constant and drop it."""
        f = self.field
        out = {}
        for m, c in self.terms.items():
            e = m[-1]
            coeff = c if e == 0 else f.mul(c, f.pow(value, e))
            m2 = m[:-1]
            s = f.add(out.get(m2, f.zero), coeff)
            if s == f.zero:
                out.pop(m2, None)
            else:
                out[m2] = s
        return Poly(f, self.nvars - 1, out, _clean=True)

    def dehomogenize(self):
        return self.substitute_last(self.field.one)

    def initial_form(self, cap: int):
        """Degree-``cap`` homogeneous component (zero if degree < cap)."""
        out = {m: c for m, c in self.terms.items() if sum(m) == cap}
        return Poly(self.field, self.nvars, out, _clean=True)

    # serialization

    def to_json_dict(self):
        enc = self.field.encode
        return {
            "nvars": self.nvars,
            "terms": [{"exp": list(m), "c": enc(c)}
                      for m, c in self.sorted_terms()],
        }

    @classmethod
    def from_json_dict(cls, field, obj):
        try:
            nvars = int(obj["nvars"])
            terms = {}
            for t in obj["terms"]:
                m = tuple(int(e) for e in t["exp"])
                terms[m] = field.decode(t["c"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial encoding: {exc}") from exc
        return cls(field, nvars, terms)

    def canonical_bytes(self):
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":")).encode()


def canonical_digest(polys) -> int:
    """64-bit key of a polynomial sequence: SHA-256 of canonical bytes."""
    h = hashlib.sha256()
    for f in polys:
        h.update(f.canonical_bytes())
    return int.from_bytes(h.digest()[:8], "big")


# -- systems -------------------------------------------------------------

@dataclass(frozen=True)
class PolySystem:
    """Ordered s-tuple of affine polynomials with declared degree caps."""

    field: Field
    r: int
    s: int
    caps: tuple
    polys: tuple = dc_field(default=())

    def __post_init__(self):
        if not 1 < self.s < self.r:
            raise ValueError("require 1 < s < r")
        if len(self.caps) != self.s or len(self.polys) != self.s:
            raise ValueError("need exactly s caps and s polynomials")
        if any(d < 1 for d in self.caps):
            raise ValueError("degree caps must be >= 1")
        for f, d in zip(self.polys, self.caps):
            if f.nvars != self.r:
                raise ValueError("polynomial has wrong variable count")
            if f.field != self.field:
                raise ValueError("polynomial over wrong field")
            if f.degree() > d:
                raise ValueError("polynomial exceeds its degree cap")

    def degree_full(self):
        return tuple(f.degree() == d for f, d in zip(self.polys, self.caps))

    def homogenized(self):
        return [f.homogenize(d) for f, d in zip(self.polys, self.caps)]

    def to_json_dict(self):
        return {
            "r": self.r,
            "s": self.s,
            "d": list(self.caps),
            "polys": [f.to_json_dict() for f in self.polys],
        }

    @classmethod
    def from_json_dict(cls, field, obj, r=None, s=None, caps=None):
        if "polys" not in obj:
            raise ValueError("system file lacks a 'polys' list")
        for key, given in (("r", r), ("s", s)):
            if key in obj and given is not None and int(obj[key]) != given:
                raise ValueError(f"system file '{key}' disagrees with flags")
        if "d" in obj and caps is not None \
                and tuple(int(x) for x in obj["d"]) != tuple(caps):
            raise ValueError("system file 'd' disagrees with flags")
        r = r if r is not None else int(obj["r"])
        s = s if s is not None else int(obj["s"])
        caps = tuple(caps) if caps is not None \
            else tuple(int(x) for x in obj["d"])
        polys = tuple(Poly.from_json_dict(field, p) for p in obj["polys"])
        return cls(field, r, s, caps, polys)

    def digest(self) -> bytes:
        h = hashlib.sha256()
        h.update(json.dumps(self.field.describe(), sort_keys=True).encode())
        for f in self.polys:
            h.update(f.canonical_bytes())
        h.update(repr((self.r, self.s, self.caps)).encode())
        return h.digest()


# -- jacobian machinery --------------------------------------------------

def jacobian(polys):
    """Rows of partials (dF_i/dX_j) for same-ring polynomials."""
    if not polys:
        return []
    n = polys[0].nvars
    return [[f.derivative(j) for j in range(n)] for f in polys]


def det_poly_matrix(rows):
    """Determinant of a small square matrix of polynomials (cofactors)."""
    m = len(rows)
    f0 = rows[0][0]
    if m == 1:
        return rows[0][0]
    field, nvars = f0.field, f0.nvars
    total = Poly.zero(field, nvars)
    for j in range(m):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = entry * det_poly_matrix(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def jacobian_minors(polys):
    """All maximal minors of the Jacobian, in canonical column order.

    For m polynomials in n variables this is the C(n, m) list of m-by-m
    determinants of (dF_i/dX_j), columns chosen in ascending index
    order.  Formal derivatives honor the field characteristic.
    """
    m = len(polys)
    if m == 0:
        raise ValueError("empty system")
    n = polys[0].nvars
    if m > n:
        raise ValueError("more polynomials than variables")
    rows = jacobian(polys)
    out = []
    for cols in combinations(range(n), m):
        sub = [[row[j] for j in cols] for row in rows]
        out.append(det_poly_matrix(sub))
    return out


def embed_poly(poly: Poly, big_field: Field, embed) -> Poly:
    """Re-encode a polynomial over an extension via ``embed``."""
    return Poly(big_field, poly.nvars,
                {m: embed(c) for m, c in poly.terms.items()}, _clean=True)
