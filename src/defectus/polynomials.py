"""Sparse multivariate polynomials over a finite field.

A polynomial is a term map (packed monomial -> nonzero coefficient),
``Poly.packed``, plus its variable count and field.  Exponent tuples
appear only at the edges: the validating constructor, the ``terms``
view, ``sorted_terms``, ``leading_monomial``, JSON, ``canonical_bytes``
and ``repr``.  Canonical output order is descending graded reverse
lexicographic, so equal polynomials serialize to identical bytes.

Packed monomials (Monagan & Pearce, CASC 2007) are the one monomial
encoding of the package, decided here.  A monomial in n variables is
one int of n + 1 fields, 16 bits each: exponent e[i] sits at bit 16*i,
so e[n-1] is the most significant exponent field, and the total degree
sits above them all.  The top bit of every field is a guard bit, clear
in every valid monomial; G is the mask of all guard bits.  A product
is a + b, a quotient b - a, and a divides b iff ((b + G - a) & G) == G.
The lcm takes each field's larger value through the guard bits of
a + G - b and recomputes the degree.  An exponent or degree of 2**15
or more does not fit: building such a polynomial, and any product,
homogenization, lcm or reduction that would reach it, raises
ValueError instead of wrapping.

The order is stated once, as the ``key`` of a packing: an int sort
key on packed monomials.  With L = 16*n, the grevlex key of
``_packing(n)`` is ((M >> L) << (L + 1)) - M, i.e. the degree above
the negated exponent fields.  ``_elimination_packing(n)``, the one
other packing, keeps the layout and puts the last exponent above the
grevlex key of the rest, for colon ideals.  Both sort exactly as the
tuple keys of ``tests/reference_groebner.py``.  ``packed_monomials``
is the one monomial enumerator, sorted by that key; its leading slice
``degree_block`` holds the monomials of the top degree, and
``monomials_upto`` and ``monomials_exact`` unpack the two.

Variable layout: an affine polynomial in r variables uses indices
0..r-1 for X_1..X_r.  Homogenization appends the homogenizing variable
X_0 at the last index, where the monomial order ranks it below every
other variable.  The zero polynomial has degree NEG_INF.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import combinations, combinations_with_replacement
from math import comb
from operator import lshift
import hashlib
import json

from .fields import Field

NEG_INF = float("-inf")


# -- packed monomials ----------------------------------------------------

_WIDTH = 16                    # bits per packed field, guard bit on top
_LIMIT = 1 << (_WIDTH - 1)     # every exponent and degree stays below
_FIELD = (1 << _WIDTH) - 1


def _overflow():
    raise ValueError(f"exponent or degree reaches the packing limit {_LIMIT}")


class _Packing:
    """The packed layout of monomials in ``nvars`` variables, and its
    order: ``key`` is an int sort key, bigger for a bigger monomial."""

    __slots__ = ("nvars", "bits", "guard", "key", "_shifts", "_exps",
                 "_ones", "_top")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.bits = nvars * _WIDTH              # shift of the degree field
        self._shifts = tuple(range(0, self.bits, _WIDTH))
        self.guard = sum(_LIMIT << s
                         for s in range(0, self.bits + 1, _WIDTH))
        self._exps = sum((_LIMIT - 1) << s for s in self._shifts)
        self._ones = sum(1 << s for s in self._shifts)
        self._top = max(nvars - 1, 0) * _WIDTH  # shift of the last exponent
        bits = self.bits
        # grevlex: the degree above the negated exponent fields
        self.key = lambda m: ((m >> bits) << (bits + 1)) - m

    def pack(self, e) -> int:
        """The packed monomial of an exponent vector, validated."""
        if len(e) != self.nvars:
            raise ValueError("exponent vector has wrong length")
        if any(x < 0 for x in e):
            raise ValueError("negative exponent")
        deg = sum(e)
        if deg >= _LIMIT:
            _overflow()
        return sum(map(lshift, e, self._shifts)) + (deg << self.bits)

    def unpack(self, m: int) -> tuple:
        return tuple((m >> s) & _FIELD for s in self._shifts)

    def lcm(self, a: int, b: int) -> int:
        g = (a + self.guard - b) & self.guard   # guards where a >= b
        take_a = g - (g >> (_WIDTH - 1))        # value bits of those fields
        e = (a & take_a | b & ~take_a) & self._exps
        # times _ones, the top exponent field collects the degree
        m = e + ((((e * self._ones) >> self._top) & _FIELD) << self.bits)
        if m & self.guard:
            _overflow()
        return m

    def power_var(self, m: int):
        """i when m is a pure power of x_i, -1 when m is 1, else None."""
        if not m:
            return -1
        e = m & self._exps
        i = (e.bit_length() - 1) // _WIDTH
        return i if e == (m >> self.bits) << (i * _WIDTH) else None

    def support(self, m: int) -> int:
        """Bit mask of the variables that occur in m."""
        return sum(1 << i for i, s in enumerate(self._shifts)
                   if (m >> s) & _FIELD)

    def append(self, m: int, e: int) -> int:
        """m * x_nvars^e, a monomial in nvars + 1 variables."""
        deg = (m >> self.bits) + e
        if deg >= _LIMIT:
            _overflow()
        return (m & self._exps) + (e << self.bits) \
            + (deg << (self.bits + _WIDTH))

    def split_last(self, m: int):
        """(m without its last variable, in nvars - 1 variables; the
        exponent of that variable)."""
        e = (m >> self._top) & _FIELD
        rest = m & ((1 << self._top) - 1)
        return rest + (((m >> self.bits) - e) << self._top), e


_packing = cache(_Packing)   # one grevlex packing per variable count


@cache
def _elimination_packing(nvars: int) -> _Packing:
    """The layout of ``_packing(nvars)`` under colon_ideal's block order:
    the last exponent first, then grevlex on the rest.

    A separate object, so the cached grevlex packing of the same
    variable count keeps its key.
    """
    pk = _Packing(nvars)
    bits, low = pk.bits, pk._top
    rest = (1 << low) - 1

    def key(m):
        t = (m >> low) & _FIELD
        return (((t << _WIDTH) + (m >> bits) - t) << low) - (m & rest)
    pk.key = key
    return pk


@cache
def packed_monomials(nvars: int, degree: int) -> tuple:
    """Every packed monomial of degree <= ``degree``, descending grevlex.

    The one monomial enumerator: the degrees come out highest first, so
    the degree-``degree`` monomials lead.
    """
    if degree >= _LIMIT:
        _overflow()
    pk = _packing(nvars)
    # a factor x_i adds one to its exponent field and one to the degree
    units = [(1 << s) + (1 << pk.bits) for s in pk._shifts]
    return tuple(sorted(
        (sum(factors) for d in range(degree + 1)
         for factors in combinations_with_replacement(units, d)),
        key=pk.key, reverse=True))


def monomials_upto(nvars: int, degree: int) -> list:
    """All monomials of degree <= ``degree``, descending grevlex."""
    return list(map(_packing(nvars).unpack, packed_monomials(nvars, degree)))


def degree_block(nvars: int, degree: int) -> tuple:
    """The packed degree-``degree`` monomials, descending grevlex: the
    leading slice of ``packed_monomials``."""
    return packed_monomials(nvars, degree)[:comb(degree + nvars - 1,
                                                 nvars - 1)]


def monomials_exact(nvars: int, degree: int) -> list:
    """All degree-``degree`` monomials in ``nvars`` variables, descending."""
    return list(map(_packing(nvars).unpack, degree_block(nvars, degree)))


def _mul_acc(acc: dict, a: dict, b: dict, field: Field, op,
             nvars: int) -> dict:
    """acc op= a * b in place on term maps in ``nvars`` variables, ``op``
    the field's add or sub; returns acc.

    The one multiply-accumulate of the package outside the Groebner
    engine: Poly's +, - and * and the Jacobian minors run on it.
    """
    # the product has degree deg a + deg b exactly, and no exponent
    # exceeds the degree: one check covers every term's int add
    if a and b and (max(a) + max(b)) >> (nvars * _WIDTH) >= _LIMIT:
        _overflow()
    zero, mul = field.zero, field.mul
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            s = op(acc.get(m, zero), mul(c1, c2))
            if s == zero:
                acc.pop(m, None)
            else:
                acc[m] = s
    return acc


# -- polynomials ---------------------------------------------------------

class Poly:
    """Immutable sparse polynomial; stored coefficients are never zero.

    ``packed`` maps packed monomials to coefficients; ``terms`` is the
    same map keyed by exponent tuples, in the same order.
    """

    __slots__ = ("field", "nvars", "packed")

    def __init__(self, field: Field, nvars: int, terms: dict):
        """Build from {exponent tuple: coefficient}, validating each
        exponent vector and dropping zero coefficients."""
        pack = _packing(nvars).pack
        zero = field.zero
        packed = {}
        for m, c in terms.items():
            pm = pack(m)
            if c != zero:
                packed[pm] = c
        self.field = field
        self.nvars = nvars
        self.packed = packed

    # construction helpers

    @classmethod
    def from_packed(cls, field: Field, nvars: int, packed: dict):
        """Wrap {packed monomial: nonzero coefficient}, unchecked."""
        poly = object.__new__(cls)
        poly.field = field
        poly.nvars = nvars
        poly.packed = packed
        return poly

    @classmethod
    def zero(cls, field, nvars):
        return cls.from_packed(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, c):
        if c == field.zero:
            return cls.zero(field, nvars)
        return cls.from_packed(field, nvars, {0: c})

    @classmethod
    def variable(cls, field, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls.from_packed(field, nvars,
                               {_packing(nvars).pack(e): field.one})

    @classmethod
    def from_int_terms(cls, field, nvars, int_terms: dict):
        """Build from {exponent tuple: python int}; convenient in tests."""
        return cls(field, nvars,
                   {m: field.from_int(c) for m, c in int_terms.items()})

    # basic structure

    @property
    def terms(self) -> dict:
        """{exponent tuple: coefficient}, in the order of ``packed``."""
        unpack = _packing(self.nvars).unpack
        return {unpack(m): c for m, c in self.packed.items()}

    def is_zero(self):
        return not self.packed

    def degree(self):
        if not self.packed:
            return NEG_INF
        # the degree field is the most significant one
        return max(self.packed) >> (self.nvars * _WIDTH)

    def is_homogeneous(self):
        bits = self.nvars * _WIDTH
        return len({m >> bits for m in self.packed}) <= 1

    def sorted_terms(self):
        unpack = _packing(self.nvars).unpack
        packed = self.packed
        return [(unpack(m), packed[m])
                for m in sorted(packed, key=_packing(self.nvars).key,
                                reverse=True)]

    def _leading(self):
        if not self.packed:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.packed, key=_packing(self.nvars).key)

    def leading_monomial(self):
        return _packing(self.nvars).unpack(self._leading())

    def leading_coefficient(self):
        return self.packed[self._leading()]

    # arithmetic: sums are products by the constant 1 (see _mul_acc)

    def __add__(self, other):
        self._check(other)
        f = self.field
        return Poly.from_packed(f, self.nvars, _mul_acc(
            dict(self.packed), other.packed, {0: f.one}, f, f.add,
            self.nvars))

    def __sub__(self, other):
        self._check(other)
        f = self.field
        return Poly.from_packed(f, self.nvars, _mul_acc(
            dict(self.packed), other.packed, {0: f.one}, f, f.sub,
            self.nvars))

    def __neg__(self):
        f = self.field
        return Poly.from_packed(
            f, self.nvars, {m: f.neg(c) for m, c in self.packed.items()})

    def __mul__(self, other):
        self._check(other)
        f = self.field
        return Poly.from_packed(f, self.nvars, _mul_acc(
            {}, self.packed, other.packed, f, f.add, self.nvars))

    def scale(self, c):
        f = self.field
        if c == f.zero:
            return Poly.zero(f, self.nvars)
        return Poly.from_packed(
            f, self.nvars, {m: f.mul(c, v) for m, v in self.packed.items()})

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.field == other.field and self.packed == other.packed)

    def __repr__(self):
        if not self.packed:
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
        unpack = _packing(self.nvars).unpack
        total = f.zero
        for m, c in self.packed.items():
            v = c
            for x, e in zip(point, unpack(m)):
                if e:
                    v = f.mul(v, f.pow(x, e))
            total = f.add(total, v)
        return total

    def derivative(self, var: int):
        """Formal partial derivative; exponents reduce mod p as scalars."""
        f = self.field
        shift = var * _WIDTH
        # one off x_var and one off the degree: distinct terms stay
        # distinct, and a nonzero coefficient times a nonzero scalar is
        # nonzero
        step = (1 << shift) + (1 << (self.nvars * _WIDTH))
        out = {}
        for m, c in self.packed.items():
            e = (m >> shift) & _FIELD
            if e == 0:
                continue
            scalar = f.from_int(e)
            if scalar == f.zero:
                continue
            out[m - step] = f.mul(c, scalar)
        return Poly.from_packed(f, self.nvars, out)

    # homogenization (cap-relative: a degree-drop polynomial is raised to
    # the declared cap, every term acquiring positive X_0 power)

    def homogenize(self, cap: int):
        if self.degree() > cap:
            raise ValueError(f"degree {self.degree()} exceeds cap {cap}")
        append = _packing(self.nvars).append
        bits = self.nvars * _WIDTH
        out = {append(m, cap - (m >> bits)): c
               for m, c in self.packed.items()}
        return Poly.from_packed(self.field, self.nvars + 1, out)

    def substitute_last(self, value):
        """Substitute the last variable by a constant and drop it."""
        f = self.field
        split_last = _packing(self.nvars).split_last
        out = {}
        for m, c in self.packed.items():
            m2, e = split_last(m)
            coeff = c if e == 0 else f.mul(c, f.pow(value, e))
            s = f.add(out.get(m2, f.zero), coeff)
            if s == f.zero:
                out.pop(m2, None)
            else:
                out[m2] = s
        return Poly.from_packed(f, self.nvars - 1, out)

    def dehomogenize(self):
        return self.substitute_last(self.field.one)

    def initial_form(self, cap: int):
        """Degree-``cap`` homogeneous component (zero if degree < cap)."""
        bits = self.nvars * _WIDTH
        out = {m: c for m, c in self.packed.items() if m >> bits == cap}
        return Poly.from_packed(self.field, self.nvars, out)

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
        # outside input: a wrong shape is a ValueError, never a TypeError
        if not isinstance(obj, dict) or not isinstance(obj.get("polys"), list):
            raise ValueError("system file lacks a 'polys' list")
        try:
            for key, given in (("r", r), ("s", s)):
                if key in obj and given is not None \
                        and int(obj[key]) != given:
                    raise ValueError(
                        f"system file '{key}' disagrees with flags")
            if "d" in obj and caps is not None \
                    and tuple(int(x) for x in obj["d"]) != tuple(caps):
                raise ValueError("system file 'd' disagrees with flags")
            r = r if r is not None else int(obj["r"])
            s = s if s is not None else int(obj["s"])
            caps = tuple(caps) if caps is not None \
                else tuple(int(x) for x in obj["d"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed system header: {exc}") from exc
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

def jacobian_minors(polys):
    """All maximal minors of the Jacobian, in canonical column order.

    For m polynomials in n variables this is the C(n, m) list of m-by-m
    determinants of (dF_i/dX_j), columns chosen in ascending index
    order.  Formal derivatives honor the field characteristic.

    One Laplace pass: the minors of the first k + 1 rows, over every
    (k + 1)-subset of the columns, expand along row k + 1 into the
    minors of the first k rows, starting from the constant 1 on no rows.
    """
    m = len(polys)
    if m == 0:
        raise ValueError("empty system")
    field, n = polys[0].field, polys[0].nvars
    if m > n:
        raise ValueError("more polynomials than variables")
    signs = (field.add, field.sub)
    minors = {(): {0: field.one}}
    for k, f in enumerate(polys):
        row = [f.derivative(j).packed for j in range(n)]
        expanded = {}
        for cols in combinations(range(n), k + 1):
            acc = {}
            for pos, j in enumerate(cols):
                # the cofactor of entry (k, pos) has sign (-1)^(k + pos)
                _mul_acc(acc, row[j], minors[cols[:pos] + cols[pos + 1:]],
                         field, signs[(k + pos) & 1], n)
            expanded[cols] = acc
        minors = expanded
    return [Poly.from_packed(field, n, minors[cols])
            for cols in combinations(range(n), m)]


def embed_poly(poly: Poly, big_field: Field) -> Poly:
    """The same polynomial over an extension of its field.

    A base-field element is the extension's constant of the same int
    (see ``fields``), so the terms carry over unchanged.
    """
    return Poly.from_packed(big_field, poly.nvars, poly.packed)
