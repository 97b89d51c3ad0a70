"""Reference Buchberger engine: full scans instead of heaps.

This is the selection code ``defectus.groebner`` used before its pair
queue and normal forms were driven by heaps.  Each step scans every
pending S-pair for the smallest (lcm key, i, j), and every reduction
step scans the whole work polynomial for its leading monomial.  The
functions take the same arguments as ``_buchberger`` and
``_normal_form`` in ``defectus.groebner``, so a test can swap them in
and run the public operations on this engine as an oracle.
"""

from defectus.groebner import _record, _s_poly
from defectus.polynomials import (
    mono_div, mono_divides, mono_lcm, mono_mul,
)


def normal_form_scan(terms, records, field, order):
    """Full remainder of ``terms`` modulo the records (deterministic)."""
    key = order.key
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
        gterms, glm, glc = hit
        factor = field.mul(c, field.inv(glc))
        shift = mono_div(lm, glm)
        for gm, gc in gterms.items():
            if gm == glm:
                continue
            m2 = mono_mul(gm, shift)
            v = field.sub(work.get(m2, zero), field.mul(factor, gc))
            if v == zero:
                work.pop(m2, None)
            else:
                work[m2] = v
    return rem


def buchberger_scan(seed_terms, field, order):
    key = order.key
    basis = [_record(t, key) for t in seed_terms if t]
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
        rem = normal_form_scan(_s_poly(basis[i], basis[j], field), basis,
                               field, order)
        if rem:
            basis.append(_record(rem, key))
            new = len(basis) - 1
            pending.update((t, new) for t in range(new))
    return basis
