import ast
import os
from pathlib import Path
import random
import resource
import subprocess
import sys

import pytest

import defectus
from defectus import (
    Poly, colon_ideal, embed_poly, extension_of, field_make,
    ideal_dimension, monomials_upto, normal_form, projective_dimension,
)
import defectus.groebner as gbmod
import defectus.polynomials as polymod
from defectus.groebner import groebner
from defectus.rng import HashStream

import reference_groebner
from conftest import random_poly

# each packing of the engine, whose key is its order on packed
# monomials, and the tuple key of the same order: grevlex, and the
# block order private to colon_ideal
ORDERS = {
    "grevlex": (polymod._packing, reference_groebner.grevlex_key),
    "elim_last": (polymod._elimination_packing,
                  reference_groebner.elim_last_key),
}


def _vars(field, n=3):
    return [Poly.variable(field, n, i) for i in range(n)]


def test_already_reduced(f7):
    x1, x2, _ = _vars(f7)
    gb = groebner([x1, x2])
    assert list(gb.gens) == [x1, x2]


def test_inconsistent_gives_unit(f7):
    x1, _, _ = _vars(f7)
    one = Poly.constant(f7, 3, 1)
    gb = groebner([x1, x1 + one])
    assert gb.is_unit
    assert list(gb.gens) == [one]


def test_hand_buchberger_monomial_pair(f7):
    # S(X1^2, X1*X2) = X2*X1^2 - X1*X1X2 = 0: the pair is already a basis
    x1, x2, _ = _vars(f7)
    gb = groebner([x1 * x1, x1 * x2])
    assert list(gb.gens) == [x1 * x1, x1 * x2]


def test_generator_order_irrelevant(f7):
    x1, x2, x3 = _vars(f7)
    a = [x1 * x2 + x3, x2 * x3 + x1, x1 + x2 + x3]
    assert groebner(a) == groebner(list(reversed(a)))


def test_normal_form_examples(f7):
    x1, x2, _ = _vars(f7)
    one = Poly.constant(f7, 3, 1)
    gb = groebner([x1, x2])
    assert normal_form(x1, gb).is_zero()
    assert normal_form(x1 + one, gb) == one


def test_normal_form_idempotent(f7):
    stream = HashStream("nf-idem")
    x = _vars(f7)
    gb = groebner([x[0] * x[1] + x[2], x[1] * x[1] + x[0]])
    for _ in range(30):
        F = random_poly(f7, 3, 3, stream)
        nf = normal_form(F, gb)
        assert normal_form(nf, gb) == nf
        assert normal_form(F - nf, gb).is_zero()


def test_membership_soundness(f5):
    stream = HashStream("membership")
    for _ in range(15):
        gens = [random_poly(f5, 3, 2, stream) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = groebner(gens)
        for g in gens:
            assert normal_form(g, gb).is_zero()


def test_gb_determinism(f5):
    stream = HashStream("gb-det")
    for _ in range(10):
        gens = [random_poly(f5, 3, 2, stream) for _ in range(3)]
        a = groebner(gens)
        b = groebner(gens)
        assert a == b
        assert [g.canonical_bytes() for g in a.gens] == \
            [g.canonical_bytes() for g in b.gens]


def test_colon_examples(f7):
    x1, x2, _ = _vars(f7)
    gb = groebner([x1 * x1, x1 * x2])
    assert colon_ideal(gb, x1) == groebner([x1, x2])
    gbp = groebner([x1])
    assert colon_ideal(gbp, x2) == gbp


def test_colon_by_member_is_unit(f5):
    stream = HashStream("colon-member")
    x = _vars(f5)
    for _ in range(10):
        g1 = random_poly(f5, 3, 2, stream)
        g2 = random_poly(f5, 3, 2, stream)
        if g1.is_zero() or g2.is_zero():
            continue
        gb = groebner([g1, g2])
        h = random_poly(f5, 3, 1, stream)
        f = g1 * h + g2  # an element of the ideal
        if f.is_zero():
            continue
        assert colon_ideal(gb, f).is_unit


def test_colon_zero_divisor_raises(f7):
    gb = groebner([Poly.variable(f7, 3, 0)])
    with pytest.raises(ValueError):
        colon_ideal(gb, Poly.zero(f7, 3))


def test_colon_against_brute_force(f2):
    # every low-degree g with g*f in I must reduce to 0 mod (I : f)
    from defectus.polynomials import monomials_upto
    x1 = Poly.variable(f2, 2, 0)
    x2 = Poly.variable(f2, 2, 1)
    ideal = groebner([x1 * x1, x1 * x2])
    for f in (x1, x2, x1 + x2):
        col = colon_ideal(ideal, f)
        mons = monomials_upto(2, 2)
        for mask in range(2 ** len(mons)):
            terms = {m: 1 for b, m in enumerate(mons) if (mask >> b) & 1}
            g = Poly.from_int_terms(f2, 2, terms)
            in_colon_bruteforce = normal_form(g * f, ideal).is_zero()
            in_colon_computed = normal_form(g, col).is_zero()
            assert in_colon_bruteforce == in_colon_computed


def test_nonzerodivisor_bridge(f2):
    # (I : f) == I exactly when f avoids the zero divisors mod I
    x1, x2, x3 = _vars(f2)
    ideal = groebner([x1 * x2])
    assert colon_ideal(ideal, x3) == ideal            # nzd
    assert colon_ideal(ideal, x1) != ideal            # x1 * x2 = 0 mod I
    assert colon_ideal(ideal, x1 + x3) == ideal       # nzd again


def test_dimension_examples(f7):
    x1, x2, x3 = _vars(f7)
    assert ideal_dimension(groebner([x1, x2])) == 1
    assert ideal_dimension(groebner([x1, x1 + Poly.constant(f7, 3, 1)])) == -1
    assert ideal_dimension(groebner([x1 * x2, x1 * x3])) == 2
    assert ideal_dimension(groebner([], field=f7, nvars=3)) == 3


def test_independent_dim_matches_brute_force():
    # every subset, largest first, against the pruned search
    rng = random.Random(20)
    for _ in range(400):
        n = rng.randint(1, 8)
        supports = [rng.randint(1, (1 << n) - 1)
                    for _ in range(rng.randint(0, 6))]
        full = (1 << n) - 1
        brute = max(bin(sub).count("1") for sub in range(1 << n)
                    if all(supp & (full & ~sub) for supp in supports))
        assert gbmod._independent_dim(supports, n) == brute
        assert gbmod._independent_dim(supports + [0], n) == -1


_MANY_VARIABLES = """
import sys
from defectus.cli import main
from defectus.groebner import _independent_dim

n = 40
assert _independent_dim([], n) == 40
assert _independent_dim([0b11 << i for i in range(0, n, 2)], n) == 20
cycle = [1 << i | 1 << (i + 1) % n for i in range(n)]
assert _independent_dim(cycle, n) == 20
assert _independent_dim([1 << i for i in range(0, n, 3)], n) == 26
sys.exit(main(["sample", "--q", "2", "--r", "30", "--s", "2",
               "--d", "1,1", "--n", "20", "--threads", "1", "--no-meta"]))
"""


def test_independent_dim_in_many_variables_under_a_memory_cap():
    # a table of all 2^n variable subsets would pass the cap many times
    # over (n = 31 in the fiber run at r = 30); the search needs no table
    cap = 512 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(defectus.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _MANY_VARIABLES], preexec_fn=limit,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert '"n": 20' in done.stdout


def test_order_is_stated_once():
    # the packing carries the order: no module defines a key of its own,
    # and no engine function takes one beside the packing
    package = Path(defectus.__file__).parent
    gone = {"grevlex_key", "_grevlex_packed", "_elim_last_packed"}
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in gone, (path.name, node.name)
            elif isinstance(node, ast.Assign):
                names = {t.id for t in node.targets
                         if isinstance(t, ast.Name)}
                assert not names & gone, (path.name, names)
    tree = ast.parse(Path(gbmod.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args.posonlyargs + node.args.args \
                + node.args.kwonlyargs
            assert "key" not in {a.arg for a in args}, \
                getattr(node, "name", "lambda")
    # colon's packing is an object of its own: the cached grevlex
    # packing of the same ring keeps its key
    epk, pk = polymod._elimination_packing(3), polymod._packing(3)
    assert epk is not pk and epk.key is not pk.key


def test_dimension_field_extension_invariance(f3):
    f9 = extension_of(f3, 2, 0)
    stream = HashStream("dim-ext")
    for _ in range(12):
        gens = [random_poly(f3, 3, 2, stream) for _ in range(2)]
        if all(g.is_zero() for g in gens):
            continue
        lifted = [embed_poly(g, f9) for g in gens]
        assert ideal_dimension(groebner(gens)) == \
            ideal_dimension(groebner(lifted))


def test_is_empty_affine(f7):
    # the affine zero set is empty exactly for the unit ideal
    x1, _, _ = _vars(f7)
    one = Poly.constant(f7, 3, 1)
    assert groebner([x1 * x1, x1 * x1 + one]).is_unit
    assert not groebner([x1]).is_unit


def test_is_empty_projective(f7):
    # the projective zero set is empty exactly at dimension -1
    xs = [Poly.variable(f7, 4, i) for i in range(4)]
    assert projective_dimension(groebner(xs)) < 0  # irrelevant ideal
    assert projective_dimension(groebner(xs[:2])) == 1  # a line in P^3


def test_projective_mode_rejects_inhomogeneous(f7):
    x1 = Poly.variable(f7, 3, 0)
    x2 = Poly.variable(f7, 3, 1)
    one = Poly.constant(f7, 3, 1)
    gb = groebner([x1 * x2 + one])
    with pytest.raises(ValueError):
        projective_dimension(gb)
    # inputs that merely generate a homogeneous ideal are fine: the
    # reduced basis of (X1+1, X1^2) is the (homogeneous) unit ideal
    assert projective_dimension(groebner([x1 + one, x1 * x1])) < 0


def test_projective_dimension_examples(f7):
    xs = [Poly.variable(f7, 4, i) for i in range(4)]
    assert projective_dimension(groebner(xs)) == -1
    assert projective_dimension(groebner(xs[:1])) == 2  # hyperplane in P^3


def test_projective_dimension_is_cone_minus_one(f5):
    stream = HashStream("proj-dim")
    for _ in range(15):
        gens = [random_poly(f5, 3, 2, stream, homogeneous=True)
                for _ in range(2)]
        if all(g.is_zero() for g in gens):
            continue
        gb = groebner(gens)
        cone = ideal_dimension(gb)
        expected = cone - 1 if cone >= 1 else -1
        assert projective_dimension(gb) == expected


def test_basis_gens_are_monic_and_sorted(f7):
    stream = HashStream("monic")
    from reference_groebner import grevlex_key
    for _ in range(10):
        gens = [random_poly(f7, 3, 2, stream) for _ in range(2)]
        if all(g.is_zero() for g in gens):
            continue
        gb = groebner(gens)
        lms = [g.leading_monomial() for g in gb.gens]
        assert all(g.leading_coefficient() == f7.one for g in gb.gens)
        assert lms == sorted(lms, key=grevlex_key, reverse=True)
        # reduced: no generator's term is divisible by another's lead
        from reference_groebner import mono_divides
        for i, g in enumerate(gb.gens):
            for j, h in enumerate(gb.gens):
                if i == j:
                    continue
                assert not any(mono_divides(h.leading_monomial(), m)
                               for m in g.terms)


@pytest.mark.parametrize("order", ["grevlex", "elim_last"])
@pytest.mark.parametrize("nvars", [4, 5])
def test_inverted_key_reverses_order(order, nvars):
    # the heaps push -key(m) on packed monomials: -key(a) < -key(b)
    # must hold exactly when b < a in the order
    packing, tuple_key = ORDERS[order]
    mons = monomials_upto(nvars, 4)
    pk = packing(nvars)
    key = pk.key
    packed = {m: pk.pack(m) for m in mons}
    assert len({tuple_key(m) for m in mons}) == len(mons)
    assert len({-key(packed[m]) for m in mons}) == len(mons)
    assert sorted(mons, key=lambda m: -key(packed[m])) == \
        sorted(mons, key=tuple_key, reverse=True)


@pytest.mark.parametrize("nvars", [4, 5])
def test_packed_monomials_match_tuples(nvars):
    # every monomial of degree <= 4: the round trip, both order keys,
    # and product, quotient, divisibility and lcm on all pairs
    mons = monomials_upto(nvars, 4)
    pk = polymod._packing(nvars)
    packed = [pk.pack(m) for m in mons]
    assert [pk.unpack(m) for m in packed] == mons
    assert len(set(packed)) == len(mons)
    for packing, tuple_key in ORDERS.values():
        key = packing(nvars).key
        keys = [key(m) for m in packed]
        assert all(isinstance(k, int) for k in keys)
        assert len(set(keys)) == len(mons)
        assert sorted(mons, key=lambda m: key(pk.pack(m))) == \
            sorted(mons, key=tuple_key)
    guard = pk.guard
    for a, pa in zip(mons, packed):
        for b, pb in zip(mons, packed):
            assert pa + pb == pk.pack(reference_groebner.mono_mul(a, b))
            divides = ((pb + guard - pa) & guard) == guard
            assert divides == reference_groebner.mono_divides(a, b)
            if divides:
                assert pb - pa == pk.pack(reference_groebner.mono_div(b, a))
            assert pk.lcm(pa, pb) == \
                pk.pack(reference_groebner.mono_lcm(a, b))


@pytest.mark.parametrize("p,k", [(2, 2), (101, 1)])
def test_records_are_monic_with_one_inverse_each(p, k, monkeypatch):
    # a record is made monic when it joins the basis, at one inverse at
    # most; S-polynomials and reduction steps invert nothing
    field = field_make(p, k)
    calls = []
    inv = type(field).inv

    def counted(self, a):
        if self is field:
            calls.append(a)
        return inv(self, a)

    monkeypatch.setattr(type(field), "inv", counted)
    pk = polymod._packing(3)
    stream = HashStream("monic-records", field.q)
    grown = 0
    for _ in range(20):
        seeds = [random_poly(field, 3, 2, stream).packed for _ in range(3)]
        seeds = [t for t in seeds if t]
        del calls[:]
        basis = gbmod._buchberger(seeds, field, pk)
        assert len(calls) <= len(basis)
        assert all(terms[lm] == field.one for terms, lm in basis)
        grown += len(basis) > len(seeds)
    assert grown  # the S-pairs added records too


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (101, 1)])
def test_reduce_basis_inter_reduces_once(p, k, monkeypatch):
    # leading monomials never change under inter-reduction, so one
    # normal form per kept record already gives the reduced basis
    field = field_make(p, k)
    calls = []
    normal_form_of = gbmod._normal_form

    def counted(*args):
        calls.append(args[0])
        return normal_form_of(*args)

    pk = polymod._packing(3)
    stream = HashStream("reduce-once", field.q)
    changed = 0
    for _ in range(20):
        seeds = [random_poly(field, 3, 2, stream).packed for _ in range(3)]
        basis = gbmod._buchberger([t for t in seeds if t], field, pk)
        monkeypatch.setattr(gbmod, "_normal_form", counted)
        del calls[:]
        reduced = gbmod._reduce_basis(basis, field, pk)
        monkeypatch.setattr(gbmod, "_normal_form", normal_form_of)
        assert len(calls) == len(reduced)
        for terms, lm in reduced:  # no term but the lead is reducible
            others = [rec for rec in reduced if rec[1] != lm]
            assert normal_form_of(terms, others, field, pk) == terms
        changed += any(t is not terms for t, (terms, _) in
                       zip(calls, reversed(reduced)))
    assert changed  # some tails did need reducing


def test_packing_limit_raises(f7):
    limit = polymod._LIMIT
    pk = polymod._packing(4)
    top = (limit - 1, 0, 0, 0)
    assert pk.unpack(pk.pack(top)) == top
    for e in [(limit, 0, 0, 0), (0, 0, 0, limit),
              (limit // 2, 0, limit // 2, 0)]:
        with pytest.raises(ValueError, match="packing limit"):
            pk.pack(e)
    # the limit fires when the polynomial is built
    with pytest.raises(ValueError, match="packing limit"):
        groebner([Poly(f7, 2, {(limit, 0): 1})])
    x = Poly(f7, 2, {(1, 0): 1})
    with pytest.raises(ValueError, match="packing limit"):
        normal_form(Poly(f7, 2, {(limit, 0): 1}), groebner([x]))
    with pytest.raises(ValueError, match="packing limit"):
        colon_ideal(groebner([x]), Poly(f7, 2, {(limit, 0): 1}))


def test_packing_overflow_in_computation_raises(f7):
    # inputs fit, but the computation needs a monomial past the limit;
    # it must raise rather than wrap into a wrong basis
    half = 20000
    x, y = (Poly.variable(f7, 2, i) for i in range(2))
    xh = Poly(f7, 2, {(half, 0): 1})
    yh = Poly(f7, 2, {(0, half): 1})
    epk = polymod._elimination_packing(2)

    def eliminate(gens):  # the engine under colon_ideal's block order
        basis = gbmod._buchberger([g.packed for g in gens], f7, epk)
        return gbmod._reduce_basis(basis, f7, epk)

    with pytest.raises(ValueError, match="packing limit"):
        groebner([xh + y, yh + x])            # the pair's lcm
    with pytest.raises(ValueError, match="packing limit"):
        eliminate([y - xh, y * y])            # reducing x^half * y
    xq = Poly(f7, 2, {(15000, 0): 1})
    with pytest.raises(ValueError, match="packing limit"):
        eliminate([y - xh, y * xq])           # the S-polynomial


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (101, 1)])
def test_engine_matches_scan_reference(p, k):
    # the packed engine must retrace the tuple engine of
    # reference_groebner exactly: the same monic unreduced bases term by
    # term, the same reduced bases, remainders and colon ideals, under
    # grevlex (the public operations) and under colon_ideal's block order
    field = field_make(p, k, 0)
    stream = HashStream("engine-reference", p, k)
    cases = []
    while len(cases) < 8:
        gens = [random_poly(field, 3, 2, stream)
                for _ in range(2 + len(cases) % 2)]
        if all(not g.is_zero() for g in gens):
            cases.append((gens, random_poly(field, 3, 3, stream)))

    def items(terms):
        return list(terms.items())

    pk = polymod._packing(3)

    def unpacked(terms):
        return [(pk.unpack(m), c) for m, c in terms.items()]

    for gens, probe in cases:
        seeds = [dict(g.terms) for g in gens]
        for order, (packing, tuple_key) in ORDERS.items():
            opk = packing(3)
            raw = gbmod._buchberger(
                [{pk.pack(m): c for m, c in t.items()} for t in seeds],
                field, opk)
            ref_raw = reference_groebner.buchberger_scan(seeds, field,
                                                         tuple_key)
            assert [unpacked(t) for t, _ in raw] == \
                [items(t) for t, _ in ref_raw]
            reduced = gbmod._reduce_basis(raw, field, opk)
            ref_gb = reference_groebner.reduce_basis(ref_raw, field,
                                                     tuple_key)
            assert [unpacked(t) for t, _ in reduced] == \
                [items(t) for t in ref_gb]
            rem = gbmod._normal_form(probe.packed, reduced, field, opk)
            ref_rem = reference_groebner.normal_form_scan(
                probe.terms,
                [reference_groebner.record(t, field, tuple_key)
                 for t in ref_gb],
                field, tuple_key)
            assert unpacked(rem) == items(ref_rem)
            if order == "grevlex":
                gb = groebner(gens)
                assert [items(g.packed) for g in gb.gens] == \
                    [items(t) for t, _ in reduced]
                assert items(normal_form(probe, gb).packed) == items(rem)
        prefix = groebner(gens[:-1])
        col = colon_ideal(prefix, gens[-1])
        ref_col = reference_groebner.colon_terms(
            [g.terms for g in prefix.gens], gens[-1].terms, field)
        assert [items(g.terms) for g in col.gens] == \
            [items(t) for t in ref_col]


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 2), (101, 1)])
def test_exact_divide_matches_reference(p, k):
    # None exactly where the tuple reference raises, the same quotient
    # elsewhere; every other numerator is a planted product G*H
    field = field_make(p, k)
    pk = polymod._packing(3)
    stream = HashStream("exact-divide", p, k)
    exact = inexact = 0
    for case in range(40):
        div = random_poly(field, 3, 1 + case % 3 // 2, stream)
        if div.is_zero():
            continue
        monic = gbmod._record(div.packed, field, pk)[0]
        if case % 2:
            num = Poly.from_packed(field, 3, monic) \
                * random_poly(field, 3, 2, stream)
        else:
            num = random_poly(field, 3, 3, stream)
        quot = gbmod._exact_divide(num.packed, monic, field, pk)
        try:
            ref = reference_groebner.exact_divide(
                num.terms, {pk.unpack(m): c for m, c in monic.items()},
                field, reference_groebner.grevlex_key)
        except ArithmeticError:
            ref = None
        if ref is None:
            assert quot is None
            inexact += 1
        else:
            assert {pk.unpack(m): c for m, c in quot.items()} == ref
            exact += 1
    assert exact >= 15 and inexact >= 5


def test_one_basis_representation(monkeypatch, f7):
    # a basis is the list of records _reduce_basis returned; membership,
    # dimension and unit reads use it as it stands and rebuild none
    returned = []
    reduce_basis = gbmod._reduce_basis

    def kept(*args):
        returned.append(reduce_basis(*args))
        return returned[-1]

    monkeypatch.setattr(gbmod, "_reduce_basis", kept)
    x1, x2, x3 = _vars(f7)
    gb = groebner([x1 * x2 - x3, x2 * x2 + x1])
    assert gb.records is returned[-1]
    assert [g.packed for g in gb.gens] == [t for t, _ in gb.records]
    homog = groebner([x1 * x2 - x3 * x3, x2 * x2])
    record = gbmod._record
    rebuilt = []

    def counted(*args):
        rebuilt.append(args)
        return record(*args)

    monkeypatch.setattr(gbmod, "_record", counted)
    assert not normal_form(x1 * x3 + x2, gb).is_zero()
    assert normal_form(x1 * x2 - x3, gb).is_zero()
    assert ideal_dimension(gb) == 1 and not gb.is_unit
    assert projective_dimension(homog) == 0
    assert not rebuilt
    # the witness search tests membership on term maps: it catches no
    # inexact division, and builds a Poly only in its return
    tree = ast.parse(Path(gbmod.__file__).with_name("classify.py")
                     .read_text())
    search = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "find_reducibility_witness")
    assert not any(isinstance(node, ast.Try) for node in ast.walk(search))
    returns = [node for node in ast.walk(search)
               if isinstance(node, ast.Return)]
    in_return = {id(n) for ret in returns for n in ast.walk(ret)}
    assert all(id(node) in in_return for node in ast.walk(search)
               if isinstance(node, ast.Name) and node.id == "Poly")
