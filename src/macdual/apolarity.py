"""Everything derived from the module of partials R o f.

The engine is the order filtration V_s = m^s o f, s = 0..j, spanned by the
images x^beta o f with |beta| >= s.  One forward echelon over D_{<= j} takes
the images from the highest |beta| down and tags each row it stores with
that |beta|.  Stored rows are never modified after insertion, so the rows
tagged >= s, stored by the time the last image with |beta| >= s was fed,
stay a basis of V_s with distinct pivots.  Coordinates are ordered
degree-descending, so a row's pivot sits on its leading monomial and

    P(s, t) = (m^s o f)_{<= t}

is spanned by the rows tagged s or more whose pivot degree is at most t:
every dimension in sight is read off count[t][d], the number of rows with
tag t and pivot degree d.  Such a row is one dimension of Q^v(j-t-d)_d
(macdual.decomposition), h_d sums count[t][d] over t, and the Loewy
series of (0 : m^b) counts, per tag, the rows of pivot degree below b.

On a dense f most images already lie in the span when they are fed.  An
image x^beta o f lies in D_{<= j-|beta|}, a suffix of the degree-descending
columns, so once every column from its first column on is a pivot
(Echelon.covers, O(1)) it could only reduce to zero, and it is skipped.  A
zero reduction stores nothing, so the rows and their tags stay the same.

The annihilator I = Ann f modulo m^{j+2} (exact for minimal generators, as
m^{j+1} lies in I, hence m^{j+2} in mI) is read off the rows by duality: it
is the orthogonal of R o f under <x^a, X^[b]> = delta_ab (Macaulay's
inverse system; Iarrobino's Memoir, AMS 514, 1994), so no second
elimination is run.  Each row of R o f is relabelled once, from D's
columns straight into the reversed R columns that linalg.orthogonal
reads.  filtration(f) returns the PartialFiltration built
last again for an equal generator, so a caller that filters f and then
asks for Ann f, or checks a presentation of it, filters f once.  For a sparse f
most of Ann f is monomial (x^beta o f = 0 whenever x^beta divides no term
of f), and every shift of a monomial row is a unit vector.  The spans that
are only read for a rank (m*I, the presentation products) therefore take
unit vectors as coordinates U and project every other vector off U into
one echelon (_Span): the span is the direct sum <e_U> + span(echelon), so
every answer is exact.  The echelon grows by leading column
(Echelon.grow): a vector is reduced only until its first column is not a
pivot, and stored as it stands, as only the rank is read ("top reduction",
Becker-Weispfenning, Groebner Bases, 1993).  A _Span skips, unreduced, a
vector whose columns from its first column on are all units or pivots: it
already lies in the span.  m*I is fed last row first, so its high columns
fill first and most of its shifts are skipped; graded-lex is
multiplicative, so the first coordinate of x_i * row is the row of x_i *
pivot, and a shift whose first coordinate is covered is not even built.
Membership in Ann f needs no span at all: LocalIdeal.contains tests
phi o f = 0.

A listed presentation is checked against f itself; no Ann f is computed.
Containment comes first: a generator g lies in Ann f iff g o f = 0, that
is iff g pairs to zero with R o f (every row of the filtration), and a
homogeneous g of degree d lies in the associated graded ideal I* iff it
pairs to zero with the leading-form space L(0, d), because I*_d is the
orthogonal of L(0, d) under contraction (Iarrobino's Memoir; this is where
H(A*) = H(A) comes from).  Equality then follows from dimension alone: the
products x^m * g, a subspace of Ann f modulo m^{j+2}, are all of it once
their rank reaches dim R_{<j+2} - dim A, and those of degree d are all of
I*_d once it reaches r_d - h_d.  The Hilbert function also gives the
elements of order d or more, sum_{e >= d} (r_e - h_e) dimensions in Ann f
and in I* alike, so _products_reach reads the products by the degree of
their first column, highest first, and builds none of those left in a
degree once the span holds that much of order d: they already lie in it.
A product of one term, every product of a monomial generator among them,
is a unit vector and is never built either.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from math import comb
from typing import NamedTuple

from .errors import DomainError
from .linalg import Echelon, orthogonal, primitive
from .poly import (DPPoly, PSElement, check_image_budget, contract,
                   mdeg)


def _shifted(steps, n: int, start: dict, tables: list) -> list:
    """The vectors v_m for the first n monomials m of an rmon_index whose
    rmon_steps are steps: v_0 = start, and each later v_m is the column
    shift by tables[i] of v_{m - e_i}, i the first variable of m.  With
    contraction tables v_m is x^m o start; with multiplication tables,
    x^m * start."""
    r = len(tables)
    out = [start]
    for k in range(1, n):
        prev, i = divmod(steps[k], r)
        tab = tables[i]
        out.append({tab[c]: v for c, v in out[prev].items() if c in tab})
    return out


def _images_descending(f: DPPoly, top: int):
    """(beta, x^beta o f) for every beta in R_{<= top}, the last coordinate
    of rmon_index(top) first, so |beta| never increases; vectors are over
    dmon_index(j).  The table is built forward, then emptied as it is
    read."""
    ring = f.ring
    j = f.degree
    rmons = list(ring.rmon_index(top))
    images = _shifted(ring.rmon_steps(top), len(rmons),
                      f.vector(ring.dmon_index(j)), ring.contraction_tables(j))
    while images:
        yield rmons[len(images) - 1], images.pop()


class Level(NamedTuple):
    """A basis of V_s: the rows tagged s or more, in pivot order, and the
    degree of each row's pivot."""

    rows: list
    degs: list

    @property
    def dim(self) -> int:
        return len(self.rows)


_last = None    # the PartialFiltration built last; see filtration()


class PartialFiltration:
    """All spaces P(s,t) = (m^s o f)_{<= t} for one dual generator f.

    rows holds the echelon rows in pivot order, degs and tags their pivot
    degrees and tags, count[t][d] the number of rows with tag t and pivot
    degree d.  level(s) is a view of the rows tagged s or more, s = 0..j+1
    (the last is empty); a negative s means 0 in every query.  The constant
    term of f is discarded at intake; a zero generator, or one whose image
    table exceeds poly.MAX_IMAGES, is rejected before any index is built.
    Immutable after construction; every query is read-only, so filtration()
    may hand the same instance to every caller.
    """

    def __init__(self, f: DPPoly):
        global _last
        f = f.drop_constant()
        if f.is_zero:
            raise DomainError("zero dual generator")
        check_image_budget(f.ring.r, f.degree)
        self.f = f
        self.ring = f.ring
        self.j = j = f.degree
        self.dindex = f.ring.dmon_index(j)
        self.dmons = list(self.dindex)
        self.col_deg = [mdeg(m) for m in self.dmons]
        ech = Echelon(f.ring.field)
        n = len(self.dindex)
        tag = {}
        # the images of degree j+1 are zero: level j+1 comes out empty; an
        # image whose columns from its first on are all pivots already lies
        # in the span
        for beta, img in _images_descending(f, j):
            if not img or ech.covers(min(img), n):
                continue
            row = ech.insert(img)
            if row is not None:
                tag[min(row)] = mdeg(beta)
        self.rows = ech.rows
        self.degs = [self.col_deg[p] for p in ech.pivots]
        self.tags = [tag[p] for p in ech.pivots]
        self.count = [[0] * (j + 1) for _ in range(j + 1)]
        for t, d in zip(self.tags, self.degs):
            self.count[t][d] += 1
        self._lt_cache: dict = {}
        _last = self

    # -- dimension queries ------------------------------------------------------

    def level(self, s: int) -> Level | None:
        """The basis of V_s, or None past the last level."""
        if s > self.j + 1:
            return None
        keep = [k for k, t in enumerate(self.tags) if t >= s]
        return Level([self.rows[k] for k in keep],
                     [self.degs[k] for k in keep])

    def dim_partials(self, s: int, t: int) -> int:
        """dim P(s,t)."""
        return sum(sum(row[:max(t + 1, 0)]) for row in self.count[max(s, 0):])

    def lt_count(self, s: int, d: int) -> int:
        """dim of the degree-d leading-term space of m^s o f."""
        if d < 0 or d > self.j:
            return 0
        return sum(row[d] for row in self.count[max(s, 0):])

    def rows_upto(self, s: int, t: int) -> list[dict]:
        """Echelon rows spanning P(s,t)."""
        return [row for row, d, g in zip(self.rows, self.degs, self.tags)
                if g >= s and d <= t]

    def rows_of_degree(self, s: int, d: int) -> list[dict]:
        """The rows of level(s) whose pivot degree is d."""
        return [row for row, pd, g in zip(self.rows, self.degs, self.tags)
                if g >= s and pd == d]

    def lt_rows(self, s: int, d: int) -> list[dict]:
        """Degree-d components of rows_of_degree(s, d), re-indexed over the
        graded-lex basis of D_d; spans the leading-term space L(s, d)."""
        key = (s, d)
        if key not in self._lt_cache:
            rows = self.rows_of_degree(s, d)
            hidx = self.ring.monomial_index(d) if rows else {}
            self._lt_cache[key] = [
                {hidx[self.dmons[c]]: v for c, v in row.items()
                 if self.col_deg[c] == d} for row in rows]
        return self._lt_cache[key]

    # -- classical invariants ------------------------------------------------------

    def hilbert(self) -> tuple:
        """H(A) for A = R/Ann f: the column sums of count."""
        return tuple(map(sum, zip(*self.count)))

    def loewy_hilbert(self, b: int) -> tuple:
        """Hilbert function of the ideal (0 : m^b) of A in the m-adic grading:
        entry s counts the rows tagged s with pivot degree below b."""
        if b < 0 or b > self.j + 1:
            raise DomainError("Loewy index out of range")
        return tuple(sum(row[:b]) for row in self.count)


def filtration(f: DPPoly | PartialFiltration) -> PartialFiltration:
    """The PartialFiltration of a dual generator f, or f itself when it is
    one already, so that a caller holding P does not filter f again.  The
    filtration built last is returned again when f equals its generator
    (by value: ring, field and coefficients, constant term dropped), so
    neither does a caller that filtered f just before."""
    if isinstance(f, PartialFiltration):
        return f
    P = _last
    if P is not None and P.f == f.drop_constant():
        return P
    return PartialFiltration(f)


def hilbert_function(f: DPPoly) -> tuple:
    return PartialFiltration(f).hilbert()


# ---------------------------------------------------------------------------
# the annihilator ideal

class _Span:
    """A growing span read only for its dimension.  Each vector is
    projected off a set U of coordinates.  While the echelon holds no row,
    a projection with one entry joins U; every other projection grows one
    Echelon by its leading column (Echelon.grow).  The echelon never holds
    a row with an entry in U, so the span is the direct sum <e_U> +
    span(echelon).  While U is empty, vectors reach the echelon untouched.
    Vectors hold no zero entries, over F_p residues, and lie in F^n; add
    may store or change the dict it is given.

    A projection whose first column is q lies in the span, and is not
    reduced, when every column in range(q, n) is a unit or a pivot.  U is
    final once the echelon holds a row, so free[n - q], the number of
    non-unit columns in range(q, n), is counted once then.  The pivots are
    non-unit columns below n, and so is q, so the pivots cover those
    free[n - q] columns iff the last free[n - q] of them start at q:
    ech.covers(q, q + free[n - q])."""

    __slots__ = ("n", "units", "ech", "_free")

    def __init__(self, field, n: int):
        self.n = n
        self.units: set = set()
        self.ech = Echelon(field)
        self._free = None

    @property
    def dim(self) -> int:
        return len(self.units) + self.ech.dim

    def add(self, v: dict) -> bool:
        """Add v; True iff the span grew."""
        units, ech = self.units, self.ech
        if units:
            v = {k: a for k, a in v.items() if k not in units}
        if not v:
            return False
        if not ech.rows:
            if len(v) == 1:
                units.update(v)
                return True
            # v is the first row: U is final
            self._free = list(accumulate(
                (c not in units for c in range(self.n - 1, -1, -1)),
                initial=0))
        elif self.covers(min(v)):
            return False
        return ech.grow(v) is not None

    def covers(self, q: int) -> bool:
        """True iff the echelon holds a row, q is no unit, and every column
        from q on is a unit or a pivot: then every vector whose first column
        is q lies in the span."""
        free = self._free
        return (free is not None and q not in self.units
                and self.ech.covers(q, q + free[self.n - q]))


class LocalIdeal:
    """I = Ann f modulo m^N with N = j+2: a canonical subspace of R_{<N},
    minimal generators adapted to the order filtration, and the graded
    dimension data of the associated graded ideal I*.  f is the dual
    generator with its constant dropped."""

    __slots__ = ("f", "ring", "rmons", "rows", "pivots", "min_gens",
                 "orders", "socle_degree")

    def __init__(self, f: DPPoly, rmons, rows, min_gens, orders):
        self.f = f
        self.ring = f.ring
        self.rmons = rmons
        self.rows = rows
        self.pivots = [min(r) for r in rows]
        self.min_gens = min_gens
        self.orders = orders
        self.socle_degree = f.degree

    @property
    def dim(self) -> int:
        return len(self.rows)

    def graded_dims(self) -> tuple:
        """dim I*_d for d = 0..j+1 (pivot degrees of the canonical basis)."""
        counts = [0] * (self.socle_degree + 2)
        for p in self.pivots:
            counts[mdeg(self.rmons[p])] += 1
        return tuple(counts)

    def contains(self, phi: PSElement) -> bool:
        """phi in Ann f, that is phi o f = 0.  As m^{j+1} lies in Ann f,
        that is membership in I + m^{j+2}: terms of degree > j contract f
        to zero, and a constant term leaves a nonzero degree-j part."""
        return contract(phi, self.f).is_zero


def annihilator(f: DPPoly | PartialFiltration) -> LocalIdeal:
    """Kernel of contraction against f, with minimal generators I/mI; f is
    the dual generator or its PartialFiltration."""
    P = filtration(f)
    ring = P.ring
    field = ring.field
    j = P.j
    rindex = ring.rmon_index(j + 1)
    rmons = list(rindex)
    n = len(rmons)
    # I is the orthogonal of R o f, x^beta paired with X^[beta]: each row of
    # P.rows is relabelled once, from D's columns straight into the
    # reversed R columns orthogonal reads, last row first (the sparsest rows
    # of each pivot degree lead there, and the others reduce by them)
    col = [n - 1 - rindex[m] for m in P.dmons]
    rows = orthogonal(field, [{col[c]: v for c, v in row.items()}
                              for row in reversed(P.rows)], n)
    # m*I in the coordinates of I: a vector of I is the combination of the
    # rows given by its pivot entries, so x_i * row is kept on pivot columns
    # only, each relabelled by its row number.  Only the span of m*I is
    # read.  Every shift of a monomial row is a unit vector, a coordinate of
    # the _Span, all taken in one update while its echelon is empty; the
    # shifts of the other rows are projected off those, last row first
    # (sparse high-order rows, less fill-in), over Q each row scaled once
    # to a primitive integer row.  The first coordinate of x_i * row is
    # var_shift[i][lead], x_i * lead being its leading monomial when that
    # has degree j+1 or less; a shift covered there is not built.
    row_of = {min(row): k for k, row in enumerate(rows)}
    var_shift = [{c: row_of[t] for c, t in tab.items() if t in row_of}
                 for tab in ring.multiplication_tables(j + 1)]
    mi = _Span(field, len(rows))
    mi.units.update(tab[c] for row in rows if len(row) == 1 for c in row
                    for tab in var_shift if c in tab)
    for row in reversed(rows):
        if len(row) == 1:
            continue
        lead = min(row)
        shifts = [tab for tab in var_shift
                  if lead not in tab or not mi.covers(tab[lead])]
        if not shifts:
            continue
        row = row if field.char else primitive(row)
        for tab in shifts:
            w = {tab[c]: v for c, v in row.items() if c in tab}
            if w:
                mi.add(w)
    # row k is a minimal generator iff it is not in m*I + <rows before it>;
    # that depends on these spans only, not on which rows the echelon keeps
    min_gens, orders = [], []
    for k, row in enumerate(rows):
        if mi.add({k: field.one}):
            min_gens.append(PSElement.from_vector(ring, row, rmons, j + 1))
            orders.append(mdeg(rmons[min(row)]))
    return LocalIdeal(P.f, rmons, rows, min_gens, orders)


def _products_reach(ring, gens: list[PSElement], dims: list) -> bool:
    """True iff the products x^m * g, g in gens, with terms of degree > top
    = len(dims) - 1 dropped, span sum(dims) dimensions of R_{<= top}.  The
    products must lie in an ideal J whose elements of order d or more span
    dims[d] + ... + dims[top] dimensions modulo m^{top+1} (Ann f, or a
    graded J with dims[d] = dim J_d); reaching sum(dims) is then equality
    with J.  Every g has order at most top.

    The products of a monomial g (one term up to degree top) are the unit
    vectors of the monomial ideal it generates, and so is x^m * g for any g
    once |m| is past the degree of every term but the lead: they join the
    _Span's coordinates U in one closure over the multiplication tables,
    and no vector is built for them.  Graded-lex is multiplicative, so the
    first column of any other x^m * g is that of x^m * lead(g), found along
    the rmon_steps chain on one int before the product exists.

    Products are read by the degree d of their first column, highest
    first; inside a degree, one product for each first column, then the
    others, each by first column, highest first.  The first product read
    at a column that is not a unit grows the span, as no earlier row has
    its pivot there.  Every row, and every unit outside the closure, has
    its first column at or past that of the product it came from, so the
    span's part of order d or more is all of it but the closure units
    below degree d.  Once that part reaches dims[d] + ... + dims[top] it
    holds all of J's elements of order d, every product left in degree d
    lies in it, and none of them is built.  Over Q each g is scaled once
    to a primitive integer vector.
    """
    top = len(dims) - 1
    field, r = ring.field, ring.r
    rindex = ring.rmon_index(top)
    tabs = ring.multiplication_tables(top)
    steps = ring.rmon_steps(top)
    code, col = ring.rmon_codes(top)
    # by degree of the first column q: heads[d][q] the first product seen
    # at q, rest[d] the others; a product is (q, code of m, terms), terms
    # the (code, coefficient) pairs of g of degree <= top - |m|
    heads = [{} for _ in dims]
    rest = [[] for _ in dims]
    ideal = set()
    for g in gens:
        terms = {m: c for m, c in g.coeffs.items() if mdeg(m) <= top}
        if not field.char:
            terms = primitive(terms)
        terms = sorted((rindex[m], mdeg(m), c) for m, c in terms.items())
        lead, o, _ = terms[0]
        # x^m * g is the unit vector of x^m * lead(g) once |m| reaches
        # lone, past the degree of every other term; the first columns of
        # the products with |m| = lone seed the closure
        lone = top + 1 - terms[1][1] if len(terms) > 1 else 0
        multi = comb(r + lone - 1, r)
        first = [lead]
        for k in range(1, comb(r + lone, r) if lone <= top - o else multi):
            prev, i = divmod(steps[k], r)
            first.append(tabs[i][first[prev]])
        for s in range(lone):
            cut = [(code[t], c) for t, d, c in terms if d <= top - s]
            at, more = heads[o + s], rest[o + s]
            for k in range(comb(r + s - 1, r), comb(r + s, r)):
                q = first[k]
                if q in at:
                    more.append((q, code[k], cut))
                else:
                    at[q] = (q, code[k], cut)
        ideal.update(first[multi:])
    span = _Span(field, len(rindex))
    units = span.units
    while ideal:
        units |= ideal
        ideal = {tab[c] for c in ideal for tab in tabs if c in tab} - units
    below = sorted(units)
    for d in range(top, -1, -1):
        # the span's dimension once it holds J's elements of order >= d
        full = sum(dims[d:]) + bisect_left(below, comb(r + d - 1, r))
        if span.dim == full:
            continue
        for q, mc, terms in (sorted(heads[d].values(), reverse=True)
                             + sorted(rest[d], reverse=True)):
            if span.dim == full:
                break
            span.add({col[mc + t]: c for t, c in terms})
    return span.dim == sum(dims)


def verify_ideal_presentation(gens: list[PSElement],
                              f: DPPoly | PartialFiltration) -> bool:
    """True iff (gens) = Ann f modulo m^{j+2}: every g o f is zero, and the
    products x^m * g span dim R_{<j+2} - dim A.  f is the dual generator
    or its PartialFiltration."""
    ring = f.ring
    for g in gens:
        g.ring.check_same(ring)
    if any(g.order == 0 for g in gens):
        return False  # unit ideal never equals a proper annihilator
    P = filtration(f)
    # g o f = 0 iff g pairs to zero with R o f, which P.rows span: the
    # coefficient of X^[beta] in g o f is <g, x^beta o f>
    dindex = P.dindex
    if not _pair_to_zero(ring.field, [{dindex[m]: c for m, c in
                                       g.coeffs.items() if m in dindex}
                                      for g in gens], P.rows):
        return False
    return _products_reach(
        ring, [g for g in gens if not g.is_zero and g.order <= P.j + 1],
        [ring.dim_of_degree(d) - h
         for d, h in enumerate(P.hilbert() + (0,))])


def verify_graded_presentation(gens: list[PSElement],
                               f: DPPoly | PartialFiltration) -> bool:
    """True iff the homogeneous gens generate exactly the associated graded
    ideal I* = Gr(Ann f), checked degree by degree up to j+1: I*_d is the
    orthogonal of L(0, d), of dimension r_d - h_d.  f is the dual generator
    or its PartialFiltration."""
    P = filtration(f)
    ring = P.ring
    # contraction pairs x^a with X^[a] alone, so a generator and the rows
    # of L(0, d) are read in the same index, monomial_index(d)
    return _verify_graded(
        gens, ring, lambda d, vs: _pair_to_zero(ring.field, vs,
                                                P.lt_rows(0, d)),
        [ring.dim_of_degree(d) - h
         for d, h in enumerate(P.hilbert() + (0,))])


def _verify_graded(gens: list[PSElement], ring, lies_in,
                   dims: list) -> bool:
    """True iff the homogeneous gens generate exactly the graded ideal J of
    R with dim J_d = dims[d], in every degree d up to top = len(dims) - 1:
    lies_in(d, vectors) tells whether vectors over monomial_index(d) all
    lie in J_d, and as J is an ideal the degree-d products x^m * g lie in
    J_d, all of it once their rank reaches dims[d].  A generator of degree
    above top is not read."""
    for g in gens:
        g.ring.check_same(ring)
        if not g.is_homogeneous() or g.is_zero:
            raise DomainError("graded presentation requires nonzero homogeneous generators")
    top = len(dims) - 1
    gens = [g for g in gens if g.order <= top]
    if not all(lies_in(d, [g.vector(ring.monomial_index(d))
                           for g in gens if g.order == d])
               for d in {g.order for g in gens}):
        return False
    return _products_reach(ring, gens, dims)


def _pair_to_zero(field, vectors: list, rows: list) -> bool:
    """True iff <v, row> = sum_k v[k] row[k] is zero for every v and row.
    The rows are indexed by column once, so each v reads only the entries
    on its own columns."""
    on = {}
    for i, row in enumerate(rows):
        for k, b in row.items():
            on.setdefault(k, []).append((i, b))
    for v in vectors:
        acc = {}
        get = acc.get
        for k, a in v.items():
            for i, b in on.get(k, ()):
                acc[i] = get(i, 0) + a * b
        if field.canon(acc):
            return False
    return True
