"""Arithmetic for F_{p^k}.

A field object is an arithmetic context; elements are plain data that
only the owning field knows how to combine.  Prime fields use Python
ints in ``[0, p)``.  Extension fields use length-k tuples of base-field
elements in the basis ``1, t, ..., t^(k-1)`` modulo a fixed monic
irreducible polynomial.  Extensions may be stacked (a tower over an
extension) which is how the randomized tests obtain fields of size at
least 2**20 over an arbitrary ground field.

Two fields with equal (p, k, modulus) compare equal and define
identical arithmetic.  Moduli are found by a seeded deterministic
search so the same (p, k, seed) always yields the same field.
"""

from __future__ import annotations

from typing import Iterator

from .rng import HashStream


class Field:
    """Common interface; see PrimeField and ExtensionField."""

    p: int
    k: int
    q: int

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def pow(self, a, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def from_int(self, n: int):
        """Image of the integer n under Z -> F (reduction mod p)."""
        raise NotImplementedError

    def element_from_index(self, i: int):
        """Bijection [0, q) -> field elements, with index 0 -> 0."""
        raise NotImplementedError

    def index_of(self, a) -> int:
        raise NotImplementedError

    def elements(self) -> Iterator:
        for i in range(self.q):
            yield self.element_from_index(i)

    def encode(self, a):
        """JSON form of an element."""
        raise NotImplementedError

    def decode(self, obj):
        raise NotImplementedError

    def spec_key(self) -> tuple:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec_key() == other.spec_key()

    def __hash__(self):
        return hash(self.spec_key())


class PrimeField(Field):
    """F_p with elements represented as ints in [0, p)."""

    __slots__ = ("p", "k", "q", "zero", "one")

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.k = 1
        self.q = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        return pow(a, e, self.p)

    def from_int(self, n: int):
        return n % self.p

    def element_from_index(self, i: int):
        if not 0 <= i < self.p:
            raise ValueError("index out of range")
        return i

    def index_of(self, a) -> int:
        return a

    def encode(self, a):
        return a

    def decode(self, obj):
        if not isinstance(obj, int):
            raise ValueError(f"prime field element must be an int, got {obj!r}")
        return obj % self.p

    def spec_key(self):
        return ("prime", self.p)

    def describe(self):
        return {"p": self.p, "k": 1, "q": self.p, "modulus": None}

    def __repr__(self):
        return f"F_{self.p}"


class ExtensionField(Field):
    """Degree-k extension of ``base`` modulo a monic irreducible."""

    __slots__ = (
        "base", "degree", "modulus", "p", "k", "q", "zero", "one", "_red",
        "_inv",
    )

    def __init__(self, base: Field, degree: int, modulus: tuple):
        if degree < 2:
            raise ValueError("extension degree must be at least 2")
        if len(modulus) != degree + 1 or modulus[-1] != base.one:
            raise ValueError("modulus must be monic of the stated degree")
        if not _upoly_is_irreducible(base, modulus):
            raise ValueError("modulus is reducible")
        self.base = base
        self.degree = degree
        self.modulus = tuple(modulus)
        self.p = base.p
        self.k = base.k * degree
        self.q = base.q ** degree
        self.zero = (base.zero,) * degree
        self.one = (base.one,) + (base.zero,) * (degree - 1)
        # _red[j] = t^(degree+j) reduced mod the modulus, built by the
        # recurrence t^(degree+j+1) = t * t^(degree+j)
        red = [tuple(base.neg(c) for c in modulus[:degree])]
        for _ in range(degree - 2):
            prev = red[-1]
            shifted = (base.zero,) + prev[:-1]
            overflow = prev[-1]
            nxt = tuple(
                base.add(shifted[i], base.mul(overflow, red[0][i]))
                for i in range(degree)
            )
            red.append(nxt)
        self._red = tuple(red)
        # inverses found so far; filled on use, since a table of all
        # q - 1 would make a large tower expensive to build
        self._inv = {}

    def add(self, a, b):
        base = self.base
        return tuple(base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        base = self.base
        return tuple(base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        base = self.base
        return tuple(base.neg(x) for x in a)

    def mul(self, a, b):
        base = self.base
        k = self.degree
        conv = [base.zero] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai == base.zero:
                continue
            for j, bj in enumerate(b):
                if bj == base.zero:
                    continue
                conv[i + j] = base.add(conv[i + j], base.mul(ai, bj))
        out = conv[:k]
        for j in range(k - 1):
            c = conv[k + j]
            if c == base.zero:
                continue
            rj = self._red[j]
            for i in range(k):
                out[i] = base.add(out[i], base.mul(c, rj[i]))
        return tuple(out)

    def inv(self, a):
        cached = self._inv.get(a)
        if cached is not None:
            return cached
        if a == self.zero:
            raise ZeroDivisionError("inverse of 0")
        g, u = _upoly_exgcd(self.base, _upoly_trim(self.base, a), self.modulus)
        if len(g) != 1:
            raise ArithmeticError("modulus not irreducible")
        c = self.base.inv(g[0])
        out = [self.base.mul(c, x) for x in u]
        out += [self.base.zero] * (self.degree - len(out))
        inverse = self._inv[a] = tuple(out[:self.degree])
        return inverse

    def from_int(self, n: int):
        return (self.base.from_int(n),) + (self.base.zero,) * (self.degree - 1)

    def embed(self, b):
        """Image of a base-field element as a constant of the extension."""
        return (b,) + (self.base.zero,) * (self.degree - 1)

    def element_from_index(self, i: int):
        if not 0 <= i < self.q:
            raise ValueError("index out of range")
        digits = []
        for _ in range(self.degree):
            i, d = divmod(i, self.base.q)
            digits.append(self.base.element_from_index(d))
        return tuple(digits)

    def index_of(self, a) -> int:
        i = 0
        for c in reversed(a):
            i = i * self.base.q + self.base.index_of(c)
        return i

    def encode(self, a):
        return [self.base.encode(c) for c in a]

    def decode(self, obj):
        if not isinstance(obj, (list, tuple)) or len(obj) != self.degree:
            raise ValueError(f"expected a length-{self.degree} coefficient vector")
        return tuple(self.base.decode(c) for c in obj)

    def spec_key(self):
        mod_idx = tuple(self.base.index_of(c) for c in self.modulus)
        return ("ext", self.base.spec_key(), self.degree, mod_idx)

    def describe(self):
        return {
            "p": self.p,
            "k": self.k,
            "q": self.q,
            "modulus": [self.base.encode(c) for c in self.modulus],
        }

    def __repr__(self):
        return f"F_{self.p}^{self.k}"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10**24."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == small:
            return True
        if n % small == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Write q = p^k with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for k in range(q.bit_length(), 0, -1):
        p = round(q ** (1.0 / k))
        for cand in (p - 1, p, p + 1):
            if cand >= 2 and cand ** k == q and is_prime(cand):
                return cand, k
    raise ValueError(f"{q} is not a prime power")


# -- univariate polynomial helpers over an arbitrary Field --------------
# Coefficient lists are little-endian; used only for modulus search and
# extension-field inversion, so clarity beats speed here.

def _upoly_trim(field, coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == field.zero:
        coeffs.pop()
    return coeffs


def _upoly_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == field.zero:
            continue
        for j, bj in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return _upoly_trim(field, out)


def _upoly_divmod(field, a, b):
    a = list(a)
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    binv = field.inv(b[-1])
    quot = [field.zero] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = field.mul(a[-1], binv)
        shift = len(a) - len(b)
        quot[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(c, bi))
        a = _upoly_trim(field, a)
    return _upoly_trim(field, quot), a


def _upoly_gcd(field, a, b):
    a, b = _upoly_trim(field, a), _upoly_trim(field, b)
    while b:
        _, a = _upoly_divmod(field, a, b)
        a, b = b, a
    if a:
        c = field.inv(a[-1])
        a = [field.mul(c, x) for x in a]
    return a


def _upoly_exgcd(field, a, m):
    """Return (g, u) with g = gcd(a, m) and u*a = g mod m."""
    r0, r1 = list(m), _upoly_trim(field, a)
    u0, u1 = [], [field.one]
    while r1:
        q, rem = _upoly_divmod(field, r0, r1)
        r0, r1 = r1, rem
        qu1 = _upoly_mul(field, q, u1)
        width = max(len(u0), len(qu1))
        nxt = [
            field.sub(
                u0[i] if i < len(u0) else field.zero,
                qu1[i] if i < len(qu1) else field.zero,
            )
            for i in range(width)
        ]
        u0, u1 = u1, _upoly_trim(field, nxt)
    _, u0 = _upoly_divmod(field, u0, list(m))
    return r0, u0


def _upoly_pow_mod(field, a, e, m):
    result = [field.one]
    base = _upoly_divmod(field, a, m)[1]
    while e:
        if e & 1:
            result = _upoly_divmod(field, _upoly_mul(field, result, base), m)[1]
        base = _upoly_divmod(field, _upoly_mul(field, base, base), m)[1]
        e >>= 1
    return result


def _upoly_is_irreducible(base: Field, modulus) -> bool:
    """Irreducibility of a monic degree-k polynomial over ``base``.

    g of degree k is irreducible iff it shares no factor with
    X^(Q^i) - X for i up to k/2 (no irreducible factor of degree <= k/2),
    Q being the base field order.
    """
    k = len(modulus) - 1
    if k == 1:
        return True
    x = [base.zero, base.one]
    h = list(x)
    for _ in range(k // 2):
        h = _upoly_pow_mod(base, h, base.q, modulus)
        diff = list(h) + [base.zero] * (2 - len(h))
        diff[1] = base.sub(diff[1], base.one)
        g = _upoly_gcd(base, _upoly_trim(base, diff), modulus)
        if len(g) != 1:
            return False
    return True


def field_make(p: int, k: int, seed: int = 0) -> Field:
    """Construct F_{p^k} deterministically.

    The degree-k modulus is drawn from a seeded candidate stream until
    the gcd-based irreducibility test accepts, so the same (p, k, seed)
    yields the same field on every machine.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    base = PrimeField(p)
    if k == 1:
        return base
    return extension_of(base, k, seed, label="modulus")


def extension_of(base: Field, degree: int, seed: int = 0,
                 label: str = "tower") -> ExtensionField:
    """Seeded search for a degree-``degree`` extension of ``base``."""
    stream = HashStream(label, base.p, base.k, degree, seed)
    while True:
        coeffs = tuple(
            base.element_from_index(stream.randint(base.q))
            for _ in range(degree)
        )
        modulus = coeffs + (base.one,)
        if _upoly_is_irreducible(base, modulus):
            return ExtensionField(base, degree, modulus)


# the randomized cross-checks draw from a field of at least this size
MIN_RANDOMIZED_FIELD = 1 << 20


def ensure_min_size(field: Field, min_size: int, seed: int = 0):
    """Return (big_field, embed) with |big_field| >= min_size.

    ``embed`` maps elements of ``field`` into ``big_field``.  When the
    field is already large enough it is returned with the identity map;
    otherwise the smallest sufficient tower extension is built.
    """
    if field.q >= min_size:
        return field, lambda a: a
    m = 1
    size = field.q
    while size < min_size:
        size *= field.q
        m += 1
    ext = extension_of(field, m, seed)
    return ext, ext.embed
