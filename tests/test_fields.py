from concurrent.futures import ProcessPoolExecutor
import multiprocessing
import pickle

import pytest

from defectus import (
    BudgetExceeded, ExtensionField, extension_of, field_make, is_prime,
    prime_power_decompose,
)
from defectus.rng import HashStream

from randomized_checks import ensure_min_size


def test_prime_field_basics(f7):
    assert f7.describe() == {"p": 7, "k": 1, "q": 7, "modulus": None}
    assert f7.add(3, 5) == 1
    assert f7.mul(3, 5) == 1
    assert f7.inv(3) == 5
    for x in range(1, 7):
        assert f7.mul(x, f7.inv(x)) == 1


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        field_make(6, 1)
    with pytest.raises(ValueError):
        field_make(1, 1)


def test_f4_modulus_is_forced():
    # t^2 + t + 1 is the only monic irreducible quadratic over F_2
    f4 = field_make(2, 2, 0)
    assert f4.describe()["modulus"] == [1, 1, 1]
    t = f4.element_from_index(2)
    assert f4.mul(t, t) == f4.add(t, f4.one)  # t^2 = t + 1


def test_f9_modulus_has_no_root():
    f9 = field_make(3, 2, 0)
    mod = f9.describe()["modulus"]
    assert len(mod) == 3 and mod[-1] == 1
    # degree-2 irreducibility over F_3 is exactly rootlessness
    for x in range(3):
        assert (mod[0] + mod[1] * x + mod[2] * x * x) % 3 != 0


def test_inverse_of_zero_raises(f7):
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)
    f4 = field_make(2, 2, 0)
    with pytest.raises(ZeroDivisionError):
        f4.inv(f4.zero)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 5), (5, 3)])
def test_field_axioms_random(p, k):
    field = field_make(p, k, 0)
    stream = HashStream("axioms", p, k)
    for _ in range(60):
        a, b, c = (field.element_from_index(stream.randint(field.q))
                   for _ in range(3))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == \
            field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one


def test_exhaustive_inverse_f8():
    f8 = field_make(2, 3, 0)
    for i in range(1, 8):
        a = f8.element_from_index(i)
        assert f8.mul(a, f8.inv(a)) == f8.one
    # a second round, on the tables the first one built, must agree, and
    # zero must still be refused
    for i in range(1, 8):
        a = f8.element_from_index(i)
        assert f8.inv(a) == field_make(2, 3, 0).inv(a)
    with pytest.raises(ZeroDivisionError):
        f8.inv(f8.zero)


def test_index_roundtrip():
    f9 = field_make(3, 2, 0)
    seen = set()
    for i in range(9):
        a = f9.element_from_index(i)
        assert f9.index_of(a) == i
        seen.add(a)
    assert len(seen) == 9


def test_encode_decode_roundtrip():
    f9 = field_make(3, 2, 0)
    for i in range(9):
        a = f9.element_from_index(i)
        assert f9.decode(f9.encode(a)) == a
    f7 = field_make(7, 1)
    assert f7.decode(f7.encode(5)) == 5


def test_same_spec_means_equal_fields():
    assert field_make(3, 2, 0) == field_make(3, 2, 0)
    assert field_make(7, 1) == field_make(7, 1)
    assert field_make(3, 2, 0) != field_make(3, 1)


def test_determinism_of_modulus_search():
    a = field_make(5, 4, 9)
    b = field_make(5, 4, 9)
    assert a.describe() == b.describe()


def test_frobenius_order():
    # multiplicative group of F_{p^k} has order q - 1
    field = field_make(3, 3, 0)
    stream = HashStream("frobenius")
    for _ in range(10):
        a = field.element_from_index(1 + stream.randint(field.q - 1))
        assert field.pow(a, field.q - 1) == field.one


def test_tower_extension_embedding_is_homomorphic():
    # a ground element is the extension's constant of the same int
    ground = field_make(101, 1)
    big = ensure_min_size(ground, 1 << 20)
    assert big.q >= 1 << 20
    assert big.q == 101 ** 4  # smallest power of 101 over 2^20
    stream = HashStream("tower")
    for _ in range(25):
        a = stream.randint(101)
        b = stream.randint(101)
        assert ground.add(a, b) == big.add(a, b)
        assert ground.mul(a, b) == big.mul(a, b)
        assert ground.sub(a, b) == big.sub(a, b)
    assert ground.one == big.one


def test_large_field_not_extended():
    ground = field_make(2, 1)
    assert ensure_min_size(ground, 2) is ground


def test_tower_over_extension():
    f4 = field_make(2, 2, 0)
    big = extension_of(f4, 3, 0)
    assert isinstance(big, ExtensionField)
    assert big.q == 64 and big.p == 2 and big.k == 6
    stream = HashStream("tower64")
    for _ in range(30):
        a, b = (big.element_from_index(stream.randint(64)) for _ in range(2))
        if a != big.zero:
            assert big.mul(a, big.inv(a)) == big.one
        assert big.sub(big.add(a, b), b) == a


def test_prime_power_decompose():
    assert prime_power_decompose(101) == (101, 1)
    assert prime_power_decompose(4) == (2, 2)
    assert prime_power_decompose(8) == (2, 3)
    assert prime_power_decompose(27) == (3, 3)
    assert prime_power_decompose(1024) == (2, 10)
    # exact roots: past 2^53, and past the float range (2^1024)
    big = 10**20 + 39
    for k in (1, 2, 3):
        assert prime_power_decompose(big ** k) == (big, k)
    assert prime_power_decompose(3 ** 700) == (3, 700)
    for bad in (1, 6, 12, 100, big * (big + 2), 6 ** 464):
        with pytest.raises(ValueError):
            prime_power_decompose(bad)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 104729}
    for n in range(2, 120):
        assert is_prime(n) == all(n % d for d in range(2, n))
    assert all(is_prime(p) for p in primes)


def _refuse(*args):
    raise BudgetExceeded(*args)


def test_budget_exceeded_survives_pickling():
    for args in [(2, 3, 4, "x"), (101, 7, "2^64", "census", "systems")]:
        exc = BudgetExceeded(*args)
        twin = pickle.loads(pickle.dumps(exc))
        assert type(twin) is BudgetExceeded and str(twin) == str(exc)
        assert (twin.base, twin.exponent, twin.budget) == args[:3]
    # a refusal raised in a pool worker reaches the parent as itself
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
        with pytest.raises(BudgetExceeded, match=r"x needs 2\^3 "):
            pool.submit(_refuse, 2, 3, 4, "x").result()


def test_field_order_past_the_bit_budget_is_refused():
    # the modulus search grows with log p as well as with the degree:
    # (2^61 - 1)^32 (1952 bits) is refused before it starts
    from defectus.fields import MAX_FIELD_BITS
    mersenne = 2 ** 127 - 1
    assert field_make(mersenne, 4).q.bit_length() <= MAX_FIELD_BITS
    for p, k in [(2 ** 61 - 1, 32), (mersenne, 5)]:
        with pytest.raises(BudgetExceeded,
                           match=rf"needs {p}\^{k} elements, budget is "
                                 rf"2\^{MAX_FIELD_BITS}"):
            field_make(p, k)
