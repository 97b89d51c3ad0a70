"""Reference F_{p^k} arithmetic on coefficient tuples.

A self-contained oracle for ``defectus.fields``: it shares none of the
library's field code, only ``HashStream`` for the modulus search.  An
extension element is a length-k tuple of base-field elements in the
basis 1, t, ..., t^(k-1) modulo a monic irreducible; products are
schoolbook convolutions folded through the reductions of t^k ..
t^(2k-2), and inverses come from extended Euclid.  Towers over an
extension hold tuples of tuples.

Index i maps to the tuple of its base-Q digits, little-endian (Q the
base order), each digit mapped the same way by the base field; this is
the layout under which the library's element *is* its index.
"""

from defectus.rng import HashStream


class RefPrimeField:
    """F_p on ints in [0, p)."""

    def __init__(self, p):
        self.p = self.q = p
        self.k = 1
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def element_from_index(self, i):
        return i

    def index_of(self, a):
        return a

    def encode(self, a):
        return a


class RefExtensionField:
    """Degree-k extension of ``base`` on tuples of base elements."""

    def __init__(self, base, degree, modulus):
        if not is_irreducible(base, modulus):
            raise ValueError("modulus is reducible")
        self.base = base
        self.degree = degree
        self.modulus = tuple(modulus)
        self.p = base.p
        self.k = base.k * degree
        self.q = base.q ** degree
        self.zero = (base.zero,) * degree
        self.one = (base.one,) + (base.zero,) * (degree - 1)
        red = [tuple(base.neg(c) for c in modulus[:degree])]
        for _ in range(degree - 2):
            prev = red[-1]
            shifted = (base.zero,) + prev[:-1]
            red.append(tuple(base.add(shifted[i], base.mul(prev[-1], red[0][i]))
                             for i in range(degree)))
        self.red = red

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        base, k = self.base, self.degree
        conv = [base.zero] * (2 * k - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                conv[i + j] = base.add(conv[i + j], base.mul(ai, bj))
        out = conv[:k]
        for j in range(k - 1):
            for i in range(k):
                out[i] = base.add(out[i], base.mul(conv[k + j], self.red[j][i]))
        return tuple(out)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of 0")
        base = self.base
        g, u = exgcd(base, trim(base, a), self.modulus)
        c = base.inv(g[0])
        out = [base.mul(c, x) for x in u]
        return tuple(out + [base.zero] * (self.degree - len(out)))

    def pow(self, a, e):
        result = self.one
        for _ in range(e):
            result = self.mul(result, a)
        return result

    def from_int(self, n):
        return (self.base.from_int(n),) + (self.base.zero,) * (self.degree - 1)

    def element_from_index(self, i):
        digits = []
        for _ in range(self.degree):
            i, d = divmod(i, self.base.q)
            digits.append(self.base.element_from_index(d))
        return tuple(digits)

    def index_of(self, a):
        i = 0
        for c in reversed(a):
            i = i * self.base.q + self.base.index_of(c)
        return i

    def encode(self, a):
        return [self.base.encode(c) for c in a]

    def describe(self):
        return {"p": self.p, "k": self.k, "q": self.q,
                "modulus": [self.base.encode(c) for c in self.modulus]}


def extension_of(base, degree, seed=0, label="tower"):
    """The seeded modulus search, drawing base elements by index."""
    stream = HashStream(label, base.p, base.k, degree, seed)
    while True:
        modulus = tuple(base.element_from_index(stream.randint(base.q))
                        for _ in range(degree)) + (base.one,)
        if is_irreducible(base, modulus):
            return RefExtensionField(base, degree, modulus)


def field_make(p, k, seed=0):
    base = RefPrimeField(p)
    return base if k == 1 else extension_of(base, k, seed, label="modulus")


# -- univariate polynomials over a reference field, little-endian ----------

def trim(field, coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == field.zero:
        coeffs.pop()
    return coeffs


def upoly_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return trim(field, out)


def upoly_divmod(field, a, b):
    a = list(a)
    binv = field.inv(b[-1])
    quot = [field.zero] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = field.mul(a[-1], binv)
        shift = len(a) - len(b)
        quot[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(c, bi))
        a = trim(field, a)
    return trim(field, quot), a


def gcd(field, a, b):
    a, b = trim(field, a), trim(field, b)
    while b:
        a, b = b, upoly_divmod(field, a, b)[1]
    return a


def exgcd(field, a, m):
    """(g, u) with g = gcd(a, m) and u*a = g mod m."""
    r0, r1 = list(m), trim(field, a)
    u0, u1 = [], [field.one]
    while r1:
        q, rem = upoly_divmod(field, r0, r1)
        r0, r1 = r1, rem
        qu1 = upoly_mul(field, q, u1)
        width = max(len(u0), len(qu1))
        pad0 = u0 + [field.zero] * (width - len(u0))
        pad1 = qu1 + [field.zero] * (width - len(qu1))
        u0, u1 = u1, trim(field, [field.sub(x, y) for x, y in zip(pad0, pad1)])
    return r0, upoly_divmod(field, u0, list(m))[1]


def is_irreducible(base, modulus):
    """No common factor with X^(Q^i) - X for i <= k/2."""
    k = len(modulus) - 1
    h = [base.zero, base.one]
    for _ in range(k // 2):
        power, acc, e = h, [base.one], base.q
        while e:
            if e & 1:
                acc = upoly_divmod(base, upoly_mul(base, acc, power), modulus)[1]
            power = upoly_divmod(base, upoly_mul(base, power, power), modulus)[1]
            e >>= 1
        h = acc
        diff = list(h) + [base.zero] * (2 - len(h))
        diff[1] = base.sub(diff[1], base.one)
        if len(gcd(base, diff, modulus)) != 1:
            return False
    return True
