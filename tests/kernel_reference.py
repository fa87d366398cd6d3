"""Routes the package no longer takes, kept as the references its faster
routes are tested against.

kernel: the kernel of a linear map by witnessed elimination, the route
the package read Ann f, the filtration ideals and the colon and joint
spaces of constructions by, before each was read by duality as an
orthogonal.

products_reach_plain: the presentation rank test as it ran before the
products x^m * g were read top-down, every product built and fed to one
plain Echelon.  The reference verifiers verify_ideal_plain,
verify_graded_plain and verify_graded_ideal_plain pair it with a plain
containment test: the presentation checks as they ran before they were
read by Nakayama's lemma, each product of each generator ranked against
the dimensions the Hilbert function gives.

annihilator_full_reduction: Ann f as it was read before its rank spans
grew by leading column, every shift reduced in full, its rows read by the
kernel route.

generator_degrees_by_lifts: the generator degrees of Q(a) as
decomposition.component_generator_degrees read them before they were
counted as one rank per degree: each reduced basis class lifted to a
partial by solve_linear, and each contraction of a lift solved for its
coordinates in the degree below."""

from math import comb

from macdual.apolarity import PartialFiltration, _images_descending, _shifted
from macdual.fields import Field
from macdual.errors import InternalCheckError
from macdual.linalg import (Echelon, _div, primitive, rref_rows, solve_linear,
                            vec_axpy)
from macdual.poly import PSElement, contract, mdeg


def kernel(field: Field, images) -> list[dict]:
    """Basis of the kernel of the linear map sending the i-th unit vector to
    images[i], as sparse dicts over the positions i.

    The images' keys are relabelled to 0..n-1 in sorted order, and image i
    carries its witness e_i at column n + i.  Each is reduced once against
    the images kept so far: a remainder with a column below n becomes a
    row, any other leaves a kernel vector in columns n and past.  Its entry
    at n + i is the product of the factors fraction-free reduction
    multiplied it by (one over F_p), and the vector is returned divided by
    it, one division per kernel vector: the unique kernel vector supported
    on i and the stored images with 1 at i.  Entries are canonical (over Q,
    ints whenever the denominator is one)."""
    images = list(images)
    col = {k: c for c, k in enumerate(sorted({k for img in images
                                              for k in img}))}
    n = len(col)
    ech = Echelon(field)
    out = []
    for i, img in enumerate(images):
        rem = ech.reduce({**{col[k]: a for k, a in img.items()},
                          n + i: field.one})
        if min(rem) < n:
            ech.store(rem)
            continue
        d = rem[n + i]
        out.append({k - n: a if d == 1 else _div(a, d)
                    for k, a in rem.items()})
    return out


def multiples(g, top: int):
    """x^m * g for |m| <= top - order(g) in the order of rmon_index(top), as
    vectors over it with terms of degree > top dropped; each is a column
    shift of an earlier one.  Over Q they are primitive integer vectors:
    g's is scaled once."""
    ring = g.ring
    rindex = ring.rmon_index(top)
    vec = {rindex[m]: c for m, c in g.coeffs.items() if mdeg(m) <= top}
    if not ring.field.char:
        vec = primitive(vec)
    return _shifted(ring.rmon_steps(top), comb(ring.r + top - g.order, ring.r),
                    vec, ring.multiplication_tables(top))


def products_reach_plain(ring, gens, dims) -> bool:
    """apolarity._products_reach by its old route: the products x^m * g,
    terms of degree > top = len(dims) - 1 dropped, monomial generators
    first and each generator's products in rmon_index order (multiples),
    every one into one plain Echelon; reading stops once the span has
    sum(dims) dimensions."""
    target = sum(dims)
    ech = Echelon(ring.field)
    for g in sorted(gens, key=lambda g: len(g.coeffs) > 1):
        for v in multiples(g, len(dims) - 1):
            if ech.dim == target:
                return True
            ech.insert(v)
    return ech.dim == target


def _ideal_dims(P) -> list:
    """r_d - h_d for d = 0..j+1: dim I*_d, and dim Ann f summed."""
    return [P.ring.dim_of_degree(d) - h
            for d, h in enumerate(P.hilbert() + (0,))]


def verify_ideal_plain(gens, P) -> bool:
    """(gens) = Ann f modulo m^{j+2}, f = P.f: no unit among the gens,
    every g o f zero by contraction, and the products x^m * g, truncated at
    j+1, of rank dim R_{<j+2} - dim A."""
    if any(g.order == 0 for g in gens):
        return False
    if not all(contract(g, P.f).is_zero for g in gens):
        return False
    return products_reach_plain(
        P.ring, [g for g in gens if not g.is_zero and g.order <= P.j + 1],
        _ideal_dims(P))


def verify_graded_plain(gens, P) -> bool:
    """The homogeneous gens generate I* = Gr(Ann f) up to degree j+1: each
    g of degree d pairs to zero, entry by entry, with every row of L(0, d),
    and the products of each degree d reach r_d - h_d."""
    ring, field = P.ring, P.ring.field
    dims = _ideal_dims(P)
    gens = [g for g in gens if g.order < len(dims)]
    for g in gens:
        v = g.vector(ring.monomial_index(g.order))
        for row in P.lt_rows(0, g.order):
            if field.canon({0: sum(a * row.get(k, 0) for k, a in v.items())}):
                return False
    return products_reach_plain(ring, gens, dims)


def verify_graded_ideal_plain(gens, data) -> bool:
    """The homogeneous gens generate the graded ideal of data up to degree
    j+1: each g lies in its degree's space of data, and the products of
    each degree d reach data.dims[d]."""
    ring = data.ring
    gens = [g for g in gens if g.order < len(data.dims)]
    if not all(Echelon(ring.field, data.spaces[g.order]).contains(
            g.vector(ring.monomial_index(g.order))) for g in gens):
        return False
    return products_reach_plain(ring, gens, data.dims)


def annihilator_full_reduction(f):
    """(rows, min_gens, orders) of Ann f by the route apolarity.annihilator
    took before its rank spans grew by leading column, with its rows read
    by the kernel route, not by the orthogonal annihilator reads them by:
    rref_rows of the kernel of the images x^beta o f, beta over
    rmon_index(j+1) fed from the last (the order in which over Q the
    kernel comes out reduced already, so that rref_rows has little left to
    do), relabelled into R's columns; every x_i-shift of every row,
    over Q each row made primitive, inserted into one plain Echelon,
    reduced in full, with no unit coordinates and no vector skipped; row k
    a minimal generator iff inserting e_k grows that echelon."""
    P = PartialFiltration(f)
    ring, field, j = P.ring, P.ring.field, P.j
    rmons = list(ring.rmon_index(j + 1))
    n = len(rmons)
    rows = rref_rows(field, [
        {n - 1 - k: v for k, v in w.items()} for w in kernel(
            field, (img for _, img in _images_descending(P.f, j + 1)))])
    row_of = {min(row): k for k, row in enumerate(rows)}
    mi = Echelon(field)
    for row in rows:
        row = row if field.char else primitive(row)
        for tab in ring.multiplication_tables(j + 1):
            w = {row_of[tab[c]]: v for c, v in row.items()
                 if tab.get(c) in row_of}
            if w:
                mi.insert(w)
    min_gens, orders = [], []
    for k, row in enumerate(rows):
        if mi.insert({k: field.one}) is not None:
            min_gens.append(PSElement.from_vector(ring, row, rmons, j + 1))
            orders.append(mdeg(rmons[min(row)]))
    return rows, min_gens, orders


def _reduced_classes(P, s: int, i: int) -> list[dict]:
    """The reduced basis rows of L(s, i) whose pivots are not pivots of
    L(s+1, i): the canonical basis of Q^v(a)_i, s = j-a-i."""
    den_pivots = {min(r) for r in P.lt_rows(s + 1, i)}
    return [r for r in rref_rows(P.ring.field, P.lt_rows(s, i))
            if min(r) not in den_pivots]


def generator_degrees_by_lifts(P, a: int) -> dict:
    """{degree: count} of the minimal generators of Q(a): a class of
    degree i is a socle class of the dual module when every x_k contracts
    it into L(s+2, i-1); counted as the classes whose vector of
    contraction coordinates is zero or depends on earlier classes'."""
    j = P.j
    field = P.ring.field
    tables = P.ring.contraction_tables(j)
    gendeg = {}
    for i in range(j - a + 1):
        s = j - a - i
        classes = _reduced_classes(P, s, i)
        if not classes:
            continue
        lt_full = P.lt_rows(s, i)
        lev_rows = P.rows_of_degree(s, i)
        lifts = []
        for row in classes:
            coeffs = solve_linear(field, lt_full, row)
            if coeffs is None:
                raise InternalCheckError("dual basis class failed to lift")
            lift = {}
            for c, lev in zip(coeffs, lev_rows):
                vec_axpy(field, lift, c, lev)
            lifts.append(lift)
        tgt_rows = _reduced_classes(P, s + 1, i - 1)
        tgt_den = P.lt_rows(s + 2, i - 1)
        hidx = P.ring.monomial_index(i - 1)
        ech = Echelon(field)
        kdim = 0
        for lift in lifts:
            rowvec = {}
            for v, tab in enumerate(tables):
                w = {tab[c]: val for c, val in lift.items() if c in tab}
                wlt = {hidx[P.dmons[c]]: val for c, val in w.items()
                       if P.col_deg[c] == i - 1}
                if not wlt:
                    continue
                coeffs = solve_linear(field, tgt_rows + tgt_den, wlt)
                if coeffs is None:
                    raise InternalCheckError("contraction left the module")
                for t, c in enumerate(coeffs[:len(tgt_rows)]):
                    if not field.is_zero(c):
                        rowvec[v * len(tgt_rows) + t] = c
            if not rowvec or not ech.insert(rowvec):
                kdim += 1
        if kdim:
            gendeg[i] = kdim
    return gendeg
