"""Differential checks of ``defectus.fields`` against the tuple reference.

The library's element is its index; the reference's element is the
coefficient tuple of that index (``reference_fields``).  Small fields
are compared on every element and pair, the large ones on seeded draws.
"""

import pickle
from itertools import product
from types import SimpleNamespace

import pytest

from defectus import ExtensionField, Poly, PrimeField, extension_of, field_make
import defectus.fields as fmod
from defectus.fields import TABLE_MAX, TableField
from defectus.rng import HashStream

import reference_fields as ref
from randomized_checks import MIN_RANDOMIZED_FIELD, ensure_min_size


def _reference_of(field):
    """The reference field with the same base chain and moduli."""
    if isinstance(field, PrimeField):
        return ref.RefPrimeField(field.p)
    base = _reference_of(field.base)
    modulus = tuple(base.element_from_index(c) for c in field.modulus)
    return ref.RefExtensionField(base, field.degree, modulus)


def _check_element(field, rf, a):
    x = rf.element_from_index(a)
    assert rf.index_of(x) == a
    assert field.element_from_index(a) == a == field.index_of(a)
    assert field.neg(a) == rf.index_of(rf.neg(x))
    assert field.encode(a) == rf.encode(x)
    assert field.decode(field.encode(a)) == a
    if a:
        assert field.inv(a) == rf.index_of(rf.inv(x))
    for e in (0, 1, 2, 3, field.p, field.q - 1):
        if e <= 3 or field.q <= 32:
            assert field.pow(a, e) == rf.index_of(rf.pow(x, e))


def _check_pair(field, rf, a, b):
    x, y = rf.element_from_index(a), rf.element_from_index(b)
    assert field.add(a, b) == rf.index_of(rf.add(x, y))
    assert field.sub(a, b) == rf.index_of(rf.sub(x, y))
    assert field.mul(a, b) == rf.index_of(rf.mul(x, y))


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2)])
def test_small_fields_match_reference_exhaustively(p, k):
    field = field_make(p, k)
    rf = ref.field_make(p, k)
    assert isinstance(field, TableField)
    assert field.describe() == rf.describe()
    for a in range(field.q):
        _check_element(field, rf, a)
        for b in range(field.q):
            _check_pair(field, rf, a, b)
    for n in range(-2 * p, 3 * p):
        assert field.from_int(n) == rf.index_of(rf.from_int(n))
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


# built inside the tests, so that a broken field fails its own test
FIELDS = {
    "F_4": lambda: field_make(2, 2),
    "F_8": lambda: field_make(2, 3),
    "F_9": lambda: field_make(3, 2),
    "F_101^4": lambda: ensure_min_size(field_make(101, 1),
                                       MIN_RANDOMIZED_FIELD),
    "F_2^20": lambda: ensure_min_size(field_make(2, 1), MIN_RANDOMIZED_FIELD),
    "F_4^10": lambda: ensure_min_size(field_make(2, 2), MIN_RANDOMIZED_FIELD),
    "F_9^7": lambda: ensure_min_size(field_make(3, 2), MIN_RANDOMIZED_FIELD),
    "F_4^3": lambda: extension_of(field_make(2, 2), 3),
}
LARGE = ["F_101^4", "F_2^20", "F_4^10", "F_9^7", "F_4^3"]


@pytest.mark.parametrize("name", LARGE)
def test_large_fields_match_reference_on_draws(name):
    field = FIELDS[name]()
    rf = _reference_of(field)
    # the library's modulus search draws the reference's moduli: the
    # top level is a tower search, the levels below come from field_make
    chain = [field]
    while isinstance(chain[-1], ExtensionField):
        chain.append(chain[-1].base)
    search = ref.RefPrimeField(chain[-1].p)
    for level in reversed(chain[:-1]):
        label = "tower" if level is field else "modulus"
        search = ref.extension_of(search, level.degree, 0, label)
    assert search.describe() == rf.describe() == field.describe()
    stream = HashStream("fields-reference", name)
    draws = [stream.randint(field.q) for _ in range(60)] + [0, 1, field.q - 1]
    for a in draws:
        _check_element(field, rf, a)
    for a, b in zip(draws, draws[1:] + draws[:1]):
        _check_pair(field, rf, a, b)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 16)])
def test_table_field_tests_its_modulus_once(monkeypatch, p, k):
    # the tables come from the field's own ring product, with no second
    # field of the same modulus to test again
    made = field_make(p, k)
    calls = []
    irreducible = fmod._upoly_is_irreducible

    def counted(base, modulus):
        calls.append(modulus)
        return irreducible(base, modulus)

    monkeypatch.setattr(fmod, "_upoly_is_irreducible", counted)
    field = TableField(made.base, made.degree, made.modulus)
    assert len(calls) == 1
    assert field._exp == made._exp and field._log == made._log


def test_multiply_is_chosen_by_order():
    # tables are chosen by order; the product under them by the base, in
    # _ring_product, whatever the class
    f4, f101 = field_make(2, 2), field_make(101, 1)
    assert type(field_make(2, 16)) is TableField and 2 ** 16 == TABLE_MAX
    assert type(field_make(2, 17)) is ExtensionField
    assert type(ensure_min_size(f101, 1 << 20)) is ExtensionField
    assert type(ensure_min_size(f4, 1 << 20)) is ExtensionField
    assert type(extension_of(f4, 3)) is TableField


@pytest.mark.parametrize("p,k", [(2, 2), (2, 16), (3, 2), (101, 4),
                                 (65521, 4), (251, 12)])
def test_kronecker_and_schoolbook_products_agree(p, k):
    # a base with the prime field's arithmetic that is not a PrimeField
    # takes the schoolbook branch of the same rule
    field = field_make(p, k)
    base = field.base
    digits = SimpleNamespace(q=p, add=base.add, mul=base.mul, neg=base.neg)
    kronecker = fmod._ring_product(base, field.modulus)
    schoolbook = fmod._ring_product(digits, field.modulus)
    stream = HashStream("ring-product", p, k)
    draws = [stream.randint(field.q) for _ in range(60)]
    edges = [0, 1, field.q - 1]
    pairs = list(zip(draws, draws[1:] + draws[:1]))
    pairs += [(a, b) for a in edges for b in draws + edges]
    for a, b in pairs:
        assert kronecker(a, b) == schoolbook(a, b) == field.mul(a, b)


@pytest.mark.parametrize("name", ["F_8", "F_9", "F_101^4"])
def test_extension_field_built_directly_has_working_arithmetic(name):
    # the public constructor skips the factory: no tables, the ring
    # product and Euclid
    made = FIELDS[name]()
    field = ExtensionField(made.base, made.degree, made.modulus)
    assert type(field) is ExtensionField and field == made
    rf = _reference_of(field)
    stream = HashStream("fields-direct", name)
    draws = [stream.randint(field.q) for _ in range(40)] + [0, 1, field.q - 1]
    for a in draws:
        _check_element(field, rf, a)
    for a, b in zip(draws, draws[1:] + draws[:1]):
        _check_pair(field, rf, a, b)
        assert field.mul(a, b) == made.mul(a, b)


def test_construction_is_cached():
    assert field_make(3, 2) is field_make(3, 2)
    f101 = field_make(101, 1)
    assert ensure_min_size(f101, 1 << 20) is ensure_min_size(PrimeField(101),
                                                            1 << 20)
    assert extension_of(f101, 2) is extension_of(f101, 2)


@pytest.mark.parametrize("name", FIELDS)
def test_pickle_round_trip_keeps_field_and_arithmetic(name):
    field = FIELDS[name]()
    twin = pickle.loads(pickle.dumps(field))
    assert twin == field and hash(twin) == hash(field)
    poly = Poly(field, 2, {(1, 0): field.q - 1, (0, 2): 1})
    assert pickle.loads(pickle.dumps(poly)) == poly
    # rebuilt without the construction cache: a new, equal object
    rebuild, args = field.__reduce__()
    fresh = rebuild.__wrapped__(*args)
    assert fresh is not field and fresh == field
    assert type(fresh) is type(field)
    stream = HashStream("fields-pickle", repr(field))
    for _ in range(20):
        a, b = stream.randint(field.q), stream.randint(field.q)
        for f in (twin, fresh):
            assert f.mul(a, b) == field.mul(a, b)
            assert f.add(a, b) == field.add(a, b)
            assert f.sub(a, b) == field.sub(a, b)
            if a:
                assert f.inv(a) == field.inv(a)


# monic irreducibles of degree n over F_Q, by Gauss's formula
# (1/n) sum_{d | n} mu(d) Q^(n/d)
IRREDUCIBLE_COUNTS = {(2, 2): 1, (2, 3): 2, (2, 4): 3,
                      (3, 2): 3, (3, 3): 8, (3, 4): 18, (4, 2): 6}


@pytest.mark.parametrize("q,degree", sorted(IRREDUCIBLE_COUNTS))
def test_constructor_accepts_exactly_the_irreducible_moduli(q, degree):
    base = field_make(2, 2) if q == 4 else field_make(q, 1)
    rb = _reference_of(base)
    accepted = 0
    for low in product(range(q), repeat=degree):
        modulus = low + (1,)
        irreducible = ref.is_irreducible(
            rb, [rb.element_from_index(c) for c in modulus])
        if irreducible:
            field = ExtensionField(base, degree, modulus)
            assert field.modulus == modulus and field.q == q ** degree
            accepted += 1
        else:
            with pytest.raises(ValueError):
                ExtensionField(base, degree, modulus)
    assert accepted == IRREDUCIBLE_COUNTS[q, degree]
