"""Reference Buchberger engine on exponent tuples, with full scans.

A self-contained oracle for ``defectus.groebner``: it shares no code
with the engine.  Both orders are defined here on exponent tuples,
grevlex as ``grevlex_key`` and the block order of colon ideals as
``elim_last_key``; the engine's int keys (``_packing(n).key`` and
``_elimination_packing(n).key``) must sort exactly as these.
Monomials are tuples, each step scans every pending S-pair for the
smallest (lcm key, i, j), and every reduction step scans the whole
work polynomial for its leading monomial.  Records are monic, and the
pair criteria, the reduction and the colon construction follow the
same rules as the engine, so both build the same unreduced bases term
by term, and the same reduced bases, remainders and colon ideals.
Term maps go in and come out as ``{exponent tuple: coefficient}``.
"""


def grevlex_key(e):
    """Sort key: bigger key = bigger monomial under grevlex.

    Degree first; ties broken so the monomial whose rightmost differing
    exponent is smaller wins.  The last variable index is therefore the
    cheapest, which is where homogenization puts X_0.
    """
    return (sum(e), tuple(-x for x in reversed(e)))


def elim_last_key(e):
    """The last variable dominates, grevlex on the rest: eliminates it."""
    return (e[-1], grevlex_key(e[:-1]))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def record(terms, field, key):
    """(terms divided by the leading coefficient, leading monomial)."""
    lm = max(terms, key=key)
    inv = field.inv(terms[lm])
    return ({m: field.mul(inv, c) for m, c in terms.items()}, lm)


def s_poly(rec_i, rec_j, field):
    zero = field.zero
    ti, lmi = rec_i
    tj, lmj = rec_j
    lcm = mono_lcm(lmi, lmj)
    si, sj = mono_div(lcm, lmi), mono_div(lcm, lmj)
    out = {}
    for m, c in ti.items():
        out[mono_mul(m, si)] = c
    for m, c in tj.items():
        m2 = mono_mul(m, sj)
        v = field.sub(out.get(m2, zero), c)
        if v == zero:
            out.pop(m2, None)
        else:
            out[m2] = v
    return out


def normal_form_scan(terms, records, field, key):
    """Full remainder of ``terms`` modulo the monic records."""
    zero = field.zero
    rem = {}
    work = dict(terms)
    while work:
        lm = max(work, key=key)
        c = work.pop(lm)
        hit = None
        for rec in records:
            if mono_divides(rec[1], lm):
                hit = rec
                break
        if hit is None:
            rem[lm] = c
            continue
        gterms, glm = hit
        shift = mono_div(lm, glm)
        for gm, gc in gterms.items():
            if gm == glm:
                continue
            m2 = mono_mul(gm, shift)
            v = field.sub(work.get(m2, zero), field.mul(c, gc))
            if v == zero:
                work.pop(m2, None)
            else:
                work[m2] = v
    return rem


def buchberger_scan(seed_terms, field, key):
    """Unreduced basis records, in the order the engine appends them."""
    basis = [record(t, field, key) for t in seed_terms if t]
    pending = {(i, j) for i in range(len(basis))
               for j in range(i + 1, len(basis))}

    def pair_rank(ij):
        return (key(mono_lcm(basis[ij[0]][1], basis[ij[1]][1])), ij)

    while pending:
        i, j = min(pending, key=pair_rank)
        pending.discard((i, j))
        lmi, lmj = basis[i][1], basis[j][1]
        lcm = mono_lcm(lmi, lmj)
        if lcm == mono_mul(lmi, lmj):
            continue  # coprime leading monomials: S-poly reduces to 0
        skip = False
        for t in range(len(basis)):
            if t in (i, j) or not mono_divides(basis[t][1], lcm):
                continue
            if ((min(i, t), max(i, t)) not in pending
                    and (min(j, t), max(j, t)) not in pending):
                skip = True  # chain criterion
                break
        if skip:
            continue
        rem = normal_form_scan(s_poly(basis[i], basis[j], field), basis,
                               field, key)
        if rem:
            basis.append(record(rem, field, key))
            new = len(basis) - 1
            pending.update((t, new) for t in range(new))
    return basis


def reduce_basis(basis, field, key):
    """Minimal, inter-reduced term maps, largest lead first.

    Inter-reduction keeps each leading term, so the maps stay monic.
    """
    kept = []
    for rec in sorted(basis, key=lambda r: key(r[1])):
        if not any(mono_divides(k[1], rec[1]) for k in kept):
            kept.append(rec)
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            others = kept[:idx] + kept[idx + 1:]
            rem = normal_form_scan(kept[idx][0], others, field, key)
            if rem != kept[idx][0]:
                kept[idx] = record(rem, field, key)
                changed = True
    kept.sort(key=lambda r: key(r[1]), reverse=True)
    return [t for t, _ in kept]


def groebner_terms(seed_terms, field, key):
    """Reduced basis of the ideal the term maps span."""
    return reduce_basis(buchberger_scan(seed_terms, field, key), field, key)


def exact_divide(num_terms, div_terms, field, key):
    """Quotient of an exact division (raises ArithmeticError if inexact)."""
    dlm = max(div_terms, key=key)
    dinv = field.inv(div_terms[dlm])
    zero = field.zero
    work = dict(num_terms)
    quot = {}
    while work:
        lm = max(work, key=key)
        c = work.pop(lm)
        if not mono_divides(dlm, lm):
            raise ArithmeticError("inexact division")
        shift = mono_div(lm, dlm)
        qc = field.mul(c, dinv)
        quot[shift] = qc
        for dm, dc in div_terms.items():
            if dm == dlm:
                continue
            m2 = mono_mul(dm, shift)
            v = field.sub(work.get(m2, zero), field.mul(qc, dc))
            if v == zero:
                work.pop(m2, None)
            else:
                work[m2] = v
    return quot


def colon_terms(basis_terms, f_terms, field):
    """Reduced grevlex basis of (I : f) from one of I, via I cap (f).

    The intersection is computed in K[x, t] under ``elim_last_key``.
    """
    zero = field.zero
    ext = [{m + (1,): c for m, c in g.items()} for g in basis_terms]
    mixed = {m + (0,): c for m, c in f_terms.items()}
    for m, c in f_terms.items():
        mt = m + (1,)
        v = field.sub(mixed.get(mt, zero), c)
        if v == zero:
            mixed.pop(mt, None)
        else:
            mixed[mt] = v
    ext.append(mixed)
    quotients = []
    for terms in groebner_terms([t for t in ext if t], field, elim_last_key):
        if max(terms, key=elim_last_key)[-1] == 0:
            inter = {m[:-1]: c for m, c in terms.items()}
            quotients.append(exact_divide(inter, f_terms, field, grevlex_key))
    return groebner_terms(quotients, field, grevlex_key)
