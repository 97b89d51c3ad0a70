"""Arithmetic for F_{p^k}.

A field object is an arithmetic context; elements are plain ints that
only the owning field knows how to combine.  Every element is its own
index in [0, q): 0 is zero, 1 is one, and ``element_from_index`` and
``index_of`` are the identity.

Prime fields hold residues in [0, p).  An extension of degree k over a
base field of order Q, taken modulo a fixed monic irreducible mu, holds
the element sum_j d_j t^j (t the class of X, d_j base-field elements)
as the int sum_j d_j Q^j: the base-Q digits, little-endian, are the
coefficients.  Bases are prime fields or extensions themselves (a tower
over an extension): ``extension_of`` builds F_{q^k} over any field, for
point enumeration over F_{q^k} (``bounds``).

The layout is sound because every step of it is a bijection that
respects the F_p-vector space: digit j of an extension element is a
base element, itself an int whose base-p digits are its own
coordinates, so the base-p digits of any element are its coordinates
over F_p in the basis built level by level.  Hence
  * addition is digit-wise in base p, which is XOR in characteristic 2;
  * a base element b is the constant b of the extension (same int), so
    embedding a field into an extension built over it is the identity;
  * the integer n maps to the constant n mod p in every field.

Every extension multiplies through one rule, ``_ring_product``: the
digits of the factors are convolved, and the high coefficients fold
back through the reductions of t^k .. t^(2k-2).  Over a prime base the
convolution is one bigint product of the digits packed into bit slots
(Kronecker substitution, von zur Gathen & Gerhard, *Modern Computer
Algebra*, ch. 8); over an extension base it is schoolbook on the
base-field digits.  The modulus search's irreducibility test raises X
to the powers Q^i through the same product.  Up to q = 2**16
(``TableField``) the field also builds log/exp tables over a primitive
element with it (Lidl & Niederreiter, *Finite Fields*) and multiplies
and inverts by lookup.  Outside the tables, inversion is extended
Euclid on the digits, with nothing remembered between calls.

``_digits`` is the one base-q digit codec of the package: besides the
extension arithmetic here, the census decoder (``experiment``), point
enumeration (``bounds``) and the witness candidates (``classify``) read
base-q indices through it.

Two fields with equal (base, degree, modulus) compare equal and define
identical arithmetic.  Moduli are found by a seeded deterministic
search so the same (p, k, seed) always yields the same field, and the
search and the construction are cached per process.  A field whose
degree over F_p passes ``MAX_DEGREE``, or whose order passes
``MAX_FIELD_BITS`` bits, is refused (``BudgetExceeded``, the package's
one refusal) before the search.
"""

from __future__ import annotations

import math
from functools import cache
from operator import pos, xor

from .rng import HashStream


class BudgetExceeded(RuntimeError):
    """Work of base^exponent items would exceed the budget.

    The message names the size as a power, so a refusal never formats
    an integer of thousands of digits; ``budget`` is shown as given.
    """

    def __init__(self, base: int, exponent: int, budget, what: str,
                 unit: str = "evaluations"):
        super().__init__(
            f"{what} needs {base}^{exponent} {unit}, budget is {budget}")
        self.base = base
        self.exponent = exponent
        self.budget = budget
        self.what = what
        self.unit = unit

    def __reduce__(self):
        # ``args`` holds the message only; a pool worker's refusal is
        # pickled back to the parent through the constructor
        return type(self), (self.base, self.exponent, self.budget,
                            self.what, self.unit)

    @property
    def required(self) -> int:
        return self.base ** self.exponent


class ReducibleModulus(ValueError):
    """An extension's modulus has a factor; the search draws another."""


class Field:
    """What every field shares: the element model and its equality.

    Elements are their own indices in [0, q), with 0 and 1 the zero and
    the one, and the integer n maps to n mod p (module docstring).  Two
    fields are equal when their ``_key`` is, the key naming the whole
    base chain with its moduli.  Subclasses set p, k, q and ``_key`` and
    supply add, sub, neg, mul, inv, encode, decode and describe.
    """

    zero = 0
    one = 1

    def pow(self, a, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        return _power(self.mul, a, e)

    def from_int(self, n: int):
        """Image of the integer n under Z -> F (reduction mod p)."""
        return n % self.p

    def element_from_index(self, i: int):
        """Bijection [0, q) -> field elements: the identity."""
        if not 0 <= i < self.q:
            raise ValueError("index out of range")
        return i

    def index_of(self, a) -> int:
        return a

    def __eq__(self, other):
        return self is other or (isinstance(other, Field)
                                 and self._key == other._key)

    def __hash__(self):
        return hash(self._key)


class PrimeField(Field):
    """F_p with elements represented as ints in [0, p)."""

    __slots__ = ("p", "k", "q", "_key")

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.k = 1
        self.q = p
        self._key = ("prime", p)

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

    def encode(self, a):
        return a

    def decode(self, obj):
        if not isinstance(obj, int):
            raise ValueError(f"prime field element must be an int, got {obj!r}")
        return obj % self.p

    def describe(self):
        return {"p": self.p, "k": 1, "q": self.p, "modulus": None}

    def __repr__(self):
        return f"F_{self.p}"


class ExtensionField(Field):
    """Degree-k extension of ``base`` modulo a monic irreducible.

    Multiplies through ``_ring_product``, which the base picks (module
    docstring), and inverts by extended Euclid; ``TableField`` replaces
    both where q allows tables.  ``add``, ``sub`` and ``neg`` are chosen
    per instance: XOR in characteristic 2, the base-p digit loops
    otherwise.  ``extension_of`` and ``field_make`` build through a
    cache and choose tables by order.
    """

    __slots__ = (
        "base", "degree", "modulus", "p", "k", "q", "_product", "_key",
        "add", "sub", "neg",
    )

    def __init__(self, base: Field, degree: int, modulus: tuple):
        if degree < 2:
            raise ValueError("extension degree must be at least 2")
        if len(modulus) != degree + 1 or modulus[-1] != base.one:
            raise ValueError("modulus must be monic of the stated degree")
        if not _upoly_is_irreducible(base, modulus):
            raise ReducibleModulus("modulus is reducible")
        self.base = base
        self.degree = degree
        self.modulus = tuple(modulus)
        self.p = base.p
        self.k = base.k * degree
        self.q = base.q ** degree
        self._key = ("ext", base._key, degree, self.modulus)
        self._product = _ring_product(base, self.modulus)
        if self.p == 2:
            self.add = self.sub = xor
            self.neg = pos
        else:
            self.add, self.sub, self.neg = self._add, self._sub, self._neg

    def __reduce__(self):
        return _extension, (self.base, self.degree, self.modulus)

    # odd characteristic: digit-wise in base p (see the module docstring)

    def _add(self, a, b):
        p = self.p
        out, scale = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            x += y
            out += (x - p if x >= p else x) * scale
            scale *= p
        return out

    def _sub(self, a, b):
        p = self.p
        out, scale = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            x -= y
            out += (x + p if x < 0 else x) * scale
            scale *= p
        return out

    def _neg(self, a):
        return self._sub(0, a)

    def mul(self, a, b):
        # a method of the class body, where a tracer patching
        # vars(type(field)) finds it
        return self._product(a, b)

    def inv(self, a):
        """Inverse by extended Euclid against the modulus, on digits."""
        if not a:
            raise ZeroDivisionError("inverse of 0")
        base = self.base
        g, u = _upoly_exgcd(base, _digits(a, base.q, self.degree),
                            self.modulus)
        if len(g) != 1:
            raise ArithmeticError("modulus not irreducible")
        c = base.inv(g[0])
        return _from_digits([base.mul(c, x) for x in u], base.q)

    def encode(self, a):
        base = self.base
        return [base.encode(c) for c in _digits(a, base.q, self.degree)]

    def decode(self, obj):
        if not isinstance(obj, (list, tuple)) or len(obj) != self.degree:
            raise ValueError(f"expected a length-{self.degree} coefficient vector")
        return _from_digits([self.base.decode(c) for c in obj], self.base.q)

    def describe(self):
        return {
            "p": self.p,
            "k": self.k,
            "q": self.q,
            "modulus": [self.base.encode(c) for c in self.modulus],
        }

    def __repr__(self):
        return f"F_{self.p}^{self.k}"


# the largest order that TableField serves
TABLE_MAX = 1 << 16


class TableField(ExtensionField):
    """q <= 2**16: multiply and invert through log/exp tables.

    ``_exp`` lists g^0 .. g^(q-2) twice over, so a sum of two logs
    indexes it without a reduction.  The tables are built through the
    ring product, and addition is the inherited one.
    """

    __slots__ = ("_log", "_exp")

    def __init__(self, base, degree, modulus):
        super().__init__(base, degree, modulus)
        p, q = self.p, self.q
        order = q - 1
        mul = self._product
        g = _primitive_element(q, mul)
        # x -> x*g is F_p-linear in the base-p digits: cut x into chunks
        # of c <= k digits (radix R = p^c <= 256) and add up the images of
        # the chunks; at R = q a step is one lookup
        c = 1
        while c < self.k and p ** (c + 1) <= 256:
            c += 1
        radix = p ** c
        images = [[mul(v * radix ** i, g) for v in range(radix)]
                  for i in range(-(-self.k // c))]
        add = self.add
        exp = [0] * (2 * order)
        log = [0] * q
        x = 1
        for i in range(order):
            exp[i] = exp[i + order] = x
            log[x] = i
            y = 0
            for image in images:
                x, v = divmod(x, radix)
                y = add(y, image[v])
            x = y
        self._exp, self._log = exp, log

    def mul(self, a, b):
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of 0")
        # _exp[-l] = g^(2(q-1) - l) = g^(-l)
        return self._exp[-self._log[a]]


def _digits(n, radix, count):
    """The ``count`` lowest base-``radix`` digits of n, little-endian."""
    out = []
    for _ in range(count):
        n, d = divmod(n, radix)
        out.append(d)
    return out


def _from_digits(digits, radix):
    out = 0
    for d in reversed(digits):
        out = out * radix + d
    return out


def _ring_product(base: Field, modulus):
    """The product of F_Q[X]/(modulus), Q = base.q, on base-Q digit ints.

    The k digits of the factors are convolved, and the coefficient of
    X^(k+j) folds back through ``rows[j]``, the digits of X^(k+j) mod the
    modulus.  Over a prime base the convolution is one bigint product: a
    w-bit slot per digit holds every coefficient of the product and of
    its fold, (2k-1)(p-1)^2 at most, so nothing carries across slots.
    Over an extension base it is schoolbook on the base-field digits.
    The modulus need not be irreducible, so the irreducibility test
    multiplies in the same ring.
    """
    k = len(modulus) - 1
    add, mul = base.add, base.mul
    # rows[j+1] = X * rows[j]: shift up, fold the top digit through rows[0]
    rows = [[base.neg(c) for c in modulus[:k]]]
    for _ in range(k - 2):
        prev = rows[-1]
        rows.append([add(s, mul(prev[-1], r))
                     for s, r in zip([0] + prev[:-1], rows[0])])
    if isinstance(base, PrimeField):
        p = base.p
        w = ((2 * k - 1) * (p - 1) ** 2).bit_length()
        mask, top = (1 << w) - 1, w * k
        packed = [_from_digits(row, 1 << w) for row in rows]

        def product(a, b):
            if not a or not b:
                return 0
            pa = shift = 0
            while a:
                a, d = divmod(a, p)
                pa |= d << shift
                shift += w
            pb = shift = 0
            while b:
                b, d = divmod(b, p)
                pb |= d << shift
                shift += w
            prod = pa * pb
            low = prod & ((1 << top) - 1)
            shift = top
            for row in packed:
                h = (prod >> shift) & mask
                if h:
                    low += (h % p) * row
                shift += w
            out = 0
            for shift in range(top - w, -1, -w):
                out = out * p + ((low >> shift) & mask) % p
            return out
        return product
    Q = base.q

    def product(a, b):
        if not a or not b:
            return 0
        x, y = _digits(a, Q, k), _digits(b, Q, k)
        conv = [0] * (2 * k - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        conv[i + j] = add(conv[i + j], mul(xi, yj))
        out = conv[:k]
        for c, row in zip(conv[k:], rows):
            if c:
                for i, r in enumerate(row):
                    if r:
                        out[i] = add(out[i], mul(c, r))
        return _from_digits(out, Q)
    return product


def _power(mul, a, e: int):
    """a^e for e >= 0 by square-and-multiply under the product ``mul``."""
    result = 1
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def _primitive_element(q: int, mul):
    """The smallest index that generates the multiplicative group of the
    field of order q whose product is ``mul``."""
    order = q - 1
    primes, n, d = [], order, 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    for g in range(2, q):
        if all(_power(mul, g, order // ell) != 1 for ell in primes):
            return g
    raise ArithmeticError("no primitive element: modulus not irreducible")


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


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, exactly (integer Newton steps)."""
    x = 1 << -(-n.bit_length() // k)   # at least the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# trial divisors run below 2**_TRIAL_BITS
_TRIAL_BITS = 10


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Write q = p^k with p prime, or raise ValueError.

    The first trial divisor of q is its least prime factor, the only
    candidate for p.  With none, p > 2**_TRIAL_BITS, so k is at most
    log2(q) / _TRIAL_BITS, and only those integer roots are tried.
    """
    if q >= 2:
        for ell in range(2, 1 << _TRIAL_BITS):
            if q % ell == 0:
                k = round(math.log(q, ell))
                if ell ** k == q:
                    return ell, k
                break
        else:
            for k in range(q.bit_length() // _TRIAL_BITS, 0, -1):
                p = _iroot(q, k)
                if p ** k == q and is_prime(p):
                    return p, k
    # 14000 bits stay below the interpreter's int-to-str limit, 4300 digits
    shown = q if q.bit_length() <= 14000 \
        else f"an integer of {q.bit_length()} bits"
    raise ValueError(f"{shown} is not a prime power")


# -- univariate polynomial helpers over an arbitrary Field --------------
# Coefficient lists are little-endian; used for the modulus search and
# for inversion in the large extensions.

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


def _upoly_is_irreducible(base: Field, modulus) -> bool:
    """Irreducibility of a monic degree-k polynomial over ``base``.

    g of degree k is irreducible iff it shares no factor with
    X^(Q^i) - X for i up to k/2 (no irreducible factor of degree <= k/2),
    Q being the base field order.  The powers of X are taken in
    F_Q[X]/(g) through ``_ring_product``.
    """
    k = len(modulus) - 1
    if k == 1:
        return True
    product = _ring_product(base, modulus)
    Q = base.q
    h = Q  # the class of X: digits (0, 1)
    for _ in range(k // 2):
        h = _power(product, h, Q)
        diff = _digits(h, Q, k)
        diff[1] = base.sub(diff[1], base.one)
        g, _ = _upoly_exgcd(base, diff, modulus)
        if len(g) != 1:
            return False
    return True


@cache
def _extension(base: Field, degree: int, modulus: tuple) -> ExtensionField:
    """The extension modulo ``modulus``, with tables up to ``TABLE_MAX``."""
    cls = TableField if base.q ** degree <= TABLE_MAX else ExtensionField
    return cls(base, degree, modulus)


@cache
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


# the largest degree over F_p of a field that is built: field_make took
# 0.13 s (p=2), 0.26 s (p=3) and 0.16 s (p=101) at k = 64, and 0.22 s
# at p=2, k = 128 (2 vCPUs, CPython 3.11)
MAX_DEGREE = 64
# the largest bit length of q = p^k: the search also grows with log p.
# field_make took 0.09 s at 65521^32 (512 bits), 0.11-0.20 s at
# (2^31 - 1)^16 and (2^32 - 5)^16, 0.006 s at (2^127 - 1)^4, 0.16 s at
# 101^64 and 1.0-1.1 s at 251^64 (the seeded search's luck); above it,
# 0.08 s at (2^31 - 1)^32, 0.43 s at (2^61 - 1)^32 and 18 s at
# (2^61 - 1)^64 (2 vCPUs, CPython 3.11)
MAX_FIELD_BITS = 512


@cache
def extension_of(base: Field, degree: int, seed: int = 0,
                 label: str = "tower") -> ExtensionField:
    """Seeded search for a degree-``degree`` extension of ``base``.

    Refuses (BudgetExceeded) a field of degree over F_p past
    ``MAX_DEGREE``, or of order past ``MAX_FIELD_BITS`` bits, before
    the search.
    """
    k = base.k * degree
    if k > MAX_DEGREE:
        raise BudgetExceeded(base.p, k, f"{base.p}^{MAX_DEGREE}",
                             "the field", "elements")
    if (base.q ** degree).bit_length() > MAX_FIELD_BITS:
        raise BudgetExceeded(base.p, k, f"2^{MAX_FIELD_BITS}",
                             "the field", "elements")
    stream = HashStream(label, base.p, base.k, degree, seed)
    while True:
        coeffs = tuple(stream.randint(base.q) for _ in range(degree))
        try:
            # the constructor's own test is the search's only one
            return _extension(base, degree, coeffs + (base.one,))
        except ReducibleModulus:
            pass
