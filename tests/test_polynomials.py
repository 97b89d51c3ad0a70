import ast
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from defectus import (
    NEG_INF, Poly, PolySystem, field_make, jacobian_minors,
    monomials_exact, monomials_upto,
)
import defectus.polynomials as polymod
from defectus.rng import HashStream

from conftest import random_point, random_poly
from reference_groebner import grevlex_key


def _poly_strategy(field, nvars=3, max_degree=2):
    mons = monomials_upto(nvars, max_degree)
    return st.builds(
        lambda coeffs: Poly(field, nvars,
                            {m: field.from_int(c)
                             for m, c in zip(mons, coeffs)}),
        st.lists(st.integers(0, field.q - 1),
                 min_size=len(mons), max_size=len(mons)),
    )


def test_monomial_order_is_graded():
    # every exponent vector, sorted by the reference key: the engine's
    # enumerator must give exactly that list, degree by degree
    every = [(a, b, c) for a in range(4) for b in range(4)
             for c in range(4) if a + b + c <= 3]
    expected = sorted(every, key=grevlex_key, reverse=True)
    assert monomials_upto(3, 3) == expected
    for d in range(4):
        assert monomials_exact(3, d) == [m for m in expected if sum(m) == d]
    # grevlex tie-break: the rightmost differing exponent decides
    assert grevlex_key((1, 1, 0)) > grevlex_key((1, 0, 1))
    assert grevlex_key((2, 0, 0)) > grevlex_key((1, 1, 0))


def test_monomials_exact_count():
    import math
    for n in (1, 2, 3, 4):
        for d in (0, 1, 2, 3):
            assert len(monomials_exact(n, d)) == math.comb(d + n - 1, n - 1)


def test_evaluate_example(f5):
    F = Poly.from_int_terms(f5, 2, {(2, 0): 1, (0, 1): 1})  # X1^2 + X2
    assert F.evaluate((2, 3)) == 2  # 4 + 3 mod 5
    assert Poly.zero(f5, 2).evaluate((4, 4)) == 0


def test_evaluate_is_homomorphism(f7):
    stream = HashStream("eval-hom")
    for _ in range(40):
        F = random_poly(f7, 3, 2, stream)
        G = random_poly(f7, 3, 2, stream)
        pt = random_point(f7, 3, stream)
        assert (F + G).evaluate(pt) == f7.add(F.evaluate(pt), G.evaluate(pt))
        assert (F * G).evaluate(pt) == f7.mul(F.evaluate(pt), G.evaluate(pt))


def test_degree_conventions(f5):
    assert Poly.zero(f5, 3).degree() == NEG_INF
    assert NEG_INF < -10 ** 9
    assert Poly.constant(f5, 3, 2).degree() == 0


def test_homogenize_example(f5):
    F = Poly.from_int_terms(f5, 2, {(2, 0): 1, (0, 1): 1})
    H = F.homogenize(2)
    # X1^2 stays, X2 picks up one power of the appended X_0
    assert H == Poly.from_int_terms(f5, 3, {(2, 0, 0): 1, (0, 1, 1): 1})
    assert H.is_homogeneous() and H.degree() == 2


def test_homogenize_degree_drop_roundtrip(f5):
    F = Poly.variable(f5, 2, 0)  # X1 under cap 2
    H = F.homogenize(2)
    assert H == Poly.from_int_terms(f5, 3, {(1, 0, 1): 1})  # X0*X1
    assert H.dehomogenize() == F


def test_homogenize_rejects_cap_violation(f5):
    with pytest.raises(ValueError):
        Poly.from_int_terms(f5, 2, {(2, 1): 1}).homogenize(2)


def test_homogenize_properties(f5):
    stream = HashStream("homog-prop")
    for _ in range(40):
        d = 1 + stream.randint(3)
        F = random_poly(f5, 3, d, stream)
        H = F.homogenize(d)
        assert H.dehomogenize() == F
        if not F.is_zero():
            assert H.is_homogeneous() and H.degree() == d
        # X_0 -> 0 recovers the initial form on the original variables
        assert H.substitute_last(f5.zero) == F.initial_form(d)


def test_initial_form_examples(f5):
    F = Poly.from_int_terms(f5, 2, {(2, 0): 1, (0, 1): 1})
    assert F.initial_form(2) == Poly.from_int_terms(f5, 2, {(2, 0): 1})
    G = Poly.from_int_terms(f5, 2, {(1, 0): 1, (0, 0): 1})
    assert G.initial_form(2).is_zero()


def test_initial_form_zero_iff_degree_drop(f5):
    stream = HashStream("init-form")
    for _ in range(40):
        d = 1 + stream.randint(3)
        F = random_poly(f5, 2, d, stream)
        assert F.initial_form(d).is_zero() == (F.degree() < d)


def test_derivative_linearity_and_product_rule(f7):
    stream = HashStream("deriv")
    for _ in range(30):
        F = random_poly(f7, 3, 2, stream)
        G = random_poly(f7, 3, 2, stream)
        for j in range(3):
            assert (F + G).derivative(j) == F.derivative(j) + G.derivative(j)
            assert (F * G).derivative(j) == \
                F.derivative(j) * G + F * G.derivative(j)


def test_derivative_char_p(f2):
    F = Poly.from_int_terms(f2, 3, {(2, 0, 0): 1})  # X1^2 over F_2
    assert F.derivative(0).is_zero()
    f3 = field_make(3, 1)
    G = Poly.from_int_terms(f3, 1, {(3,): 1})  # X^3 over F_3
    assert G.derivative(0).is_zero()


def test_jacobian_minors_2x4(f7):
    # X1*X2 and X0*X3 in the homogeneous 4-variable ring (X0 last)
    F = Poly.from_int_terms(f7, 4, {(1, 1, 0, 0): 1})
    G = Poly.from_int_terms(f7, 4, {(0, 0, 1, 1): 1})
    minors = jacobian_minors([F, G])
    assert len(minors) == 6
    x2x3 = Poly.from_int_terms(f7, 4, {(0, 1, 1, 0): 1})
    assert any(m == x2x3 or m == -x2x3 for m in minors)


def test_jacobian_minors_constant(f7):
    F = Poly.variable(f7, 3, 0)
    G = Poly.variable(f7, 3, 1)
    minors = jacobian_minors([F, G])
    nonzero = [m for m in minors if not m.is_zero()]
    assert len(minors) == 3 and len(nonzero) == 1
    assert nonzero[0].degree() == 0


def test_jacobian_minors_char2_vanish(f2):
    # d(X1^2) = 2*X1 = 0 formally in characteristic 2
    F = Poly.from_int_terms(f2, 3, {(2, 0, 0): 1})
    G = Poly.variable(f2, 3, 2)
    assert all(m.is_zero() for m in jacobian_minors([F, G]))


def test_jacobian_minors_shape_errors(f7):
    with pytest.raises(ValueError):
        jacobian_minors([])
    too_many = [Poly.variable(f7, 2, 0)] * 3
    with pytest.raises(ValueError):
        jacobian_minors(too_many)


def _leibniz(rows, field, nvars):
    """det of a square matrix of Polys by the Leibniz formula, as
    {exponent tuple: coefficient}, on exponent tuples only."""
    total = {}
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for i, a in enumerate(perm)
                         for b in perm[i + 1:])
        prod = {(0,) * nvars: field.one}
        for i, j in enumerate(perm):
            nxt = {}
            for m1, c1 in prod.items():
                for m2, c2 in rows[i][j].terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    nxt[m] = field.add(nxt.get(m, field.zero),
                                       field.mul(c1, c2))
            prod = nxt
        op = field.sub if inversions % 2 else field.add
        for m, c in prod.items():
            total[m] = op(total.get(m, field.zero), c)
    return {m: c for m, c in total.items() if c != field.zero}


@pytest.mark.parametrize("q", [2, 4, 9, 101])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_jacobian_minors_match_leibniz(q, s):
    # quadrics in r = s + 1 variables, homogenized: the second is
    # degree-dropped (an X_0 factor), and the last trial has a zero
    # row; each minor against the Leibniz determinant of its columns
    field = field_make(*{2: (2, 1), 4: (2, 2), 9: (3, 2),
                         101: (101, 1)}[q])
    r = s + 1
    stream = HashStream("leibniz", q, s)
    for trial in range(3):
        polys = [random_poly(field, r, 2, stream) for _ in range(s)]
        polys[1] = random_poly(field, r, 1, stream)
        if trial == 2:
            polys[0] = Poly.zero(field, r)
        homog = [f.homogenize(2) for f in polys]
        rows = [[f.derivative(j) for j in range(r + 1)] for f in homog]
        minors = jacobian_minors(homog)
        cols = list(combinations(range(r + 1), s))
        assert len(minors) == len(cols)
        for minor, chosen in zip(minors, cols):
            sub = [[row[j] for j in chosen] for row in rows]
            assert minor.terms == _leibniz(sub, field, r + 1)
            if trial == 2:
                assert minor.is_zero()


def test_char2_minors_vanish_like_leibniz(f2):
    # X1^2 + X2^2 = (X1 + X2)^2: every partial vanishes in characteristic
    # 2, so each minor with it is zero; X1*X2 keeps its partials
    F = Poly.from_int_terms(f2, 4, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1})
    G = Poly.from_int_terms(f2, 4, {(1, 1, 0, 0): 1})
    H = Poly.from_int_terms(f2, 4, {(0, 0, 1, 1): 1})
    assert all(m.is_zero() for m in jacobian_minors([F, G, H]))
    assert any(not m.is_zero() for m in jacobian_minors([G, H]))


def test_one_multiply_accumulate():
    # the minors and Poly's +, - and * share polynomials._mul_acc: the
    # cofactor expansion, the Jacobian rows and the second degree-block
    # slice are gone from the package
    package = Path(polymod.__file__).parent
    gone = {"det_poly_matrix", "jacobian", "_degree_block"}
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in gone, (path.name, node.name)
    tree = ast.parse(Path(polymod.__file__).read_text())
    poly = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "Poly")
    calls = {}
    for node in poly.body:
        if isinstance(node, ast.FunctionDef):
            calls[node.name] = {n.func.id for n in ast.walk(node)
                                if isinstance(n, ast.Call)
                                and isinstance(n.func, ast.Name)}
    for name in ("__add__", "__sub__", "__mul__"):
        assert "_mul_acc" in calls[name], name


@given(_poly_strategy(field_make(5, 1)), _poly_strategy(field_make(5, 1)))
def test_canonical_serialization(F, G):
    assert (F == G) == (F.canonical_bytes() == G.canonical_bytes())


def test_json_roundtrip_prime(f7):
    stream = HashStream("json")
    for _ in range(20):
        F = random_poly(f7, 3, 2, stream)
        assert Poly.from_json_dict(f7, F.to_json_dict()) == F


def test_json_roundtrip_extension():
    f9 = field_make(3, 2, 0)
    stream = HashStream("json-ext")
    F = random_poly(f9, 2, 2, stream)
    blob = F.to_json_dict()
    for t in blob["terms"]:
        assert isinstance(t["c"], list) and len(t["c"]) == 2
    assert Poly.from_json_dict(f9, blob) == F


def test_system_validation(f7):
    x1 = Poly.variable(f7, 3, 0)
    x2 = Poly.variable(f7, 3, 1)
    PolySystem(f7, 3, 2, (1, 1), (x1, x2))
    with pytest.raises(ValueError):  # s must exceed 1
        PolySystem(f7, 3, 1, (1,), (x1,))
    with pytest.raises(ValueError):  # s must stay below r
        PolySystem(f7, 3, 3, (1, 1, 1), (x1, x2, x1))
    with pytest.raises(ValueError):  # cap violated
        PolySystem(f7, 3, 2, (1, 1), (x1 * x1, x2))


def test_system_degree_full(f7):
    x1 = Poly.variable(f7, 3, 0)
    x2 = Poly.variable(f7, 3, 1)
    sys1 = PolySystem(f7, 3, 2, (2, 1), (x1 * x1, x2))
    assert sys1.degree_full() == (True, True)
    sys2 = PolySystem(f7, 3, 2, (2, 1), (x1, x2))
    assert sys2.degree_full() == (False, True)


def test_system_json_flag_consistency(f7):
    x1 = Poly.variable(f7, 3, 0)
    x2 = Poly.variable(f7, 3, 1)
    sys1 = PolySystem(f7, 3, 2, (1, 1), (x1, x2))
    blob = sys1.to_json_dict()
    assert PolySystem.from_json_dict(f7, blob) == sys1
    with pytest.raises(ValueError):
        PolySystem.from_json_dict(f7, blob, r=4)
    with pytest.raises(ValueError):
        PolySystem.from_json_dict(f7, blob, caps=(2, 2))


def test_packing_limit_at_build_product_and_homogenize(f7):
    limit = 2 ** 15
    for exps in [(limit, 0), (0, limit), (limit // 2, limit // 2)]:
        with pytest.raises(ValueError, match="packing limit"):
            Poly(f7, 2, {exps: 1})
    top = Poly(f7, 2, {(limit - 1, 0): 1})          # fits exactly
    assert top.terms == {(limit - 1, 0): 1}
    assert top.degree() == limit - 1
    x = Poly.variable(f7, 2, 1)
    with pytest.raises(ValueError, match="packing limit"):
        top * x                                      # degree 2^15
    half = Poly(f7, 2, {(limit // 2, 0): 1})
    with pytest.raises(ValueError, match="packing limit"):
        half * half                                  # exponent 2^15
    assert (top * Poly.constant(f7, 2, 3)).degree() == limit - 1
    with pytest.raises(ValueError, match="packing limit"):
        x.homogenize(limit)                          # X_0 degree 2^15
    assert x.homogenize(limit - 1).degree() == limit - 1
