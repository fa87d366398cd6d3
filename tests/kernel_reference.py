"""Routes the package no longer takes, kept as the references its faster
routes are tested against.

kernel: the kernel of a linear map by witnessed elimination, the route
the package read Ann f, the filtration ideals and the colon and joint
spaces of constructions by, before each was read by duality as an
orthogonal.

products_reach_plain: the presentation rank test as it ran before the
products x^m * g were read top-down, every product built and fed to one
plain Echelon.

annihilator_full_reduction: Ann f as it was read before its rank spans
grew by leading column, every shift reduced in full."""

from math import comb

from macdual.apolarity import PartialFiltration, _shifted
from macdual.fields import Field
from macdual.linalg import (Echelon, _div, orthogonal, primitive,
                            reversed_columns)
from macdual.poly import PSElement, mdeg


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


def annihilator_full_reduction(f):
    """(rows, min_gens, orders) of Ann f by the route apolarity.annihilator
    took before its rank spans grew by leading column: R o f relabelled
    into R's columns, then reversed for orthogonal, rows in pivot order;
    every x_i-shift of every row, over Q each row made primitive, inserted
    into one plain Echelon, reduced in full, with no unit coordinates and
    no vector skipped; row k a minimal generator iff inserting e_k grows
    that echelon."""
    P = PartialFiltration(f)
    ring, field, j = P.ring, P.ring.field, P.j
    rindex = ring.rmon_index(j + 1)
    rmons = list(rindex)
    n = len(rmons)
    rows = orthogonal(field, reversed_columns(
        [{rindex[P.dmons[c]]: v for c, v in row.items()}
         for row in P.level(0).rows], n), n)
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
