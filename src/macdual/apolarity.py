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
tag t and pivot degree d, kept only where it is nonzero.  Such a row is
one dimension of Q^v(j-t-d)_d (macdual.decomposition), h_d sums
count[t][d] over t, and the Loewy series of (0 : m^b) counts, per tag,
the rows of pivot degree below b.

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
reads (RingSpec.dual_columns, a table per shape).  filtration(f) returns
the PartialFiltration built last again for an equal generator, and
annihilator keeps the LocalIdeal it builds on that filtration, so a
caller that filters f, asks for Ann f and checks a presentation of it
filters f once and reads Ann f once.

For a sparse f most partials are single monomials X^[a], each putting a
unit vector in R o f, and most of Ann f is monomial (x^beta o f = 0
whenever x^beta divides no term of f).  Such rows are handled as sets of
columns on both sides: orthogonal strikes the single-term partials'
columns from the other rows before any elimination, and every shift of
a monomial row of I is a unit vector.  The spans that are only read for
a rank (m*I, and the rank tests of the presentation checks) therefore
take unit vectors as coordinates U and project every other vector off U
into one echelon (_Span): the span is the direct sum <e_U> +
span(echelon), so every answer is exact.  The echelon grows by leading
column (Echelon.grow): a vector is reduced only until its first column
is not a pivot, and stored as it stands, as only the rank is read ("top
reduction", Becker-Weispfenning, Groebner Bases, 1993).  A _Span skips,
unreduced, a vector whose columns from its first column on are all
units or pivots: it already lies in the span.  _mi_span takes the shifts
of the monomial rows into U as one set update per multiplication table,
and feeds the other rows' shifts last row first, so its high columns
fill first and most of them are skipped; graded-lex is multiplicative,
so the first coordinate of x_i * row is the row of x_i * pivot, and a
shift whose first coordinate is covered is not even built.  Row k is a
minimal generator iff it is not in m*I + <rows before it>, so the
generator loop skips a k already in U.

Membership needs no span and no contraction.  I's rows are reduced with
pivot one, so g lies in I iff g = sum_k g[q_k] * row_k, q_k the pivot of
row k, and the pivot entries g[q_k] are g's coordinates in I
(linalg.coordinates).  A row's pivot is its initial monomial, so the
degree-d parts of the rows of pivot degree d are the canonical basis of
I*_d, I* = Gr(Ann f), the orthogonal of L(0, d) under contraction
(Iarrobino's Memoir; this is where H(A*) = H(A) comes from).

A listed presentation is checked in two steps.  Containment comes first:
each generator must have coordinates on the rows of I, or, homogeneous,
on the rows of I* (LocalIdeal.graded_rows).  Equality is then Nakayama's
lemma (Atiyah-Macdonald, Introduction to Commutative Algebra, Cor. 2.7):
R/m^{j+2} is local and m^{j+2} lies in mI, so J = (gens), known to lie in
I, is I modulo m^{j+2} iff the gens span I/mI.  That is one rank test in
the coordinates of I (_generates): the m*I span plus the gens'
coordinate vectors reaches dim I.  Its size is the number of minimal
generators, and a list that is not a presentation fails as fast as a true
one passes.  A graded ideal held as reduced pivot-one bases of its degree
d parts, d <= j+1, placed in the columns of rmon_index(j+1), is such a
basis of itself modulo m^{j+2}, so graded Nakayama is the same test on
those rows: I*'s for I*, and the bases of C(a) (macdual.decomposition)
for C(a).  Ranking every product x^m * g instead could not stop early on
a list that falls short.  annihilator keeps I on the filtration with its
m*I span, taken before the minimal generators are read, so no check runs
a second orthogonal or a second m*I after it: each grows a copy of the
span (_Span.copy), and the kept span never changes.  dim I is checked
against H(A), as C(r+j+1, r) - sum_d h_d.  I*'s rows and their m*I* span
are built on the first graded check and kept on the LocalIdeal the same
way (LocalIdeal.graded); verify_graded_ideal builds C(a)'s on each call.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .errors import DomainError, InternalCheckError
from .linalg import Echelon, coordinates, orthogonal, primitive
from .poly import DPPoly, PSElement, check_image_budget, mdeg


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
    rmons = ring.rmon_list(top)[0]
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
    degrees and tags, count[t] maps each pivot degree d of the rows tagged
    t to their number, nonzero entries only (a row of tag t has t + d <=
    j, so a dense table would be mostly zeros).  level(s) is a view of the
    rows tagged s or more, s = 0..j+1 (the last is empty); a negative s
    means 0 in every query.  The constant term of f is discarded at intake;
    a zero generator, or one whose image table exceeds poly.MAX_IMAGES, is
    rejected before any index is built.  Immutable after construction, but
    for ideal, which annihilator fills once with the LocalIdeal of f; every
    query is read-only, so filtration() may hand the same instance to every
    caller, and annihilator the same LocalIdeal.
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
        self.dmons, self.col_deg = f.ring.dmon_list(j)
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
        self.count = [{} for _ in range(j + 1)]
        for t, d in zip(self.tags, self.degs):
            row = self.count[t]
            row[d] = row.get(d, 0) + 1
        self._lt_cache: dict = {}
        self.ideal = None
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
        return sum(k for row in self.count[max(s, 0):]
                   for d, k in row.items() if d <= t)

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
        h = [0] * (self.j + 1)
        for row in self.count:
            for d, k in row.items():
                h[d] += k
        return tuple(h)

    def loewy_hilbert(self, b: int) -> tuple:
        """Hilbert function of the ideal (0 : m^b) of A in the m-adic grading:
        entry s counts the rows tagged s with pivot degree below b."""
        if b < 0 or b > self.j + 1:
            raise DomainError("Loewy index out of range")
        return tuple(sum(k for d, k in row.items() if d < b)
                     for row in self.count)


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
    ech.covers(q, q + free[n - q]).

    A stored echelon row is never changed in place: Echelon.store builds a
    new dict or keeps the one it was handed, and Echelon._walk changes only
    the vector being reduced.  So copy shares the row dicts and free, and
    copies only the containers that add changes; adding to the copy leaves
    this span as it is."""

    __slots__ = ("n", "units", "ech", "_free")

    def __init__(self, field, n: int):
        self.n = n
        self.units: set = set()
        self.ech = Echelon(field)
        self._free = None

    def copy(self) -> _Span:
        """The same span, grown apart from this one from now on."""
        new = _Span(self.ech.field, self.n)
        new.units = set(self.units)
        ech = new.ech
        ech.rows = self.ech.rows[:]
        ech.pivots = self.ech.pivots[:]
        ech._by_pivot = dict(self.ech._by_pivot)
        new._free = self._free
        return new

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


class _Held(NamedTuple):
    """A graded ideal J of R_{<top+1} held as reduced pivot-one rows over
    rmon_index(top), at mapping each pivot to its row, and mi the span of
    m*J in the coordinates of J (_mi_span), never grown: a check grows a
    copy of it."""

    rows: list
    at: dict
    mi: _Span


def _hold(ring, rows: list, top: int) -> _Held:
    """J held as _Held, rows its reduced pivot-one rows over
    rmon_index(top)."""
    pivots = list(map(min, rows))
    return _Held(rows, dict(zip(pivots, range(len(rows)))),
                 _mi_span(ring, rows, pivots, top - 1))


class LocalIdeal:
    """I = Ann f modulo m^N with N = j+2, f the dual generator: a canonical
    subspace of R_{<N} (rows, reduced with pivot one; pivots, and at
    mapping each to its row) over rmon_index(j+1) (rmons, with degrees
    degs), minimal generators adapted to the order filtration, and the
    graded data of the associated graded ideal I*.  mi is the span of m*I
    in the coordinates of I (_mi_span), built once by annihilator and
    never grown: a presentation check grows a copy of it, and graded()
    keeps I*'s the same way."""

    __slots__ = ("ring", "rmons", "degs", "rows", "pivots", "at",
                 "min_gens", "orders", "socle_degree", "mi", "_graded")

    def __init__(self, f: DPPoly, rows, pivots, min_gens, orders, mi):
        self.ring = f.ring
        self.rmons, self.degs = f.ring.rmon_list(f.degree + 1)
        self.rows = rows
        self.pivots = pivots
        self.at = dict(zip(pivots, range(len(pivots))))
        self.min_gens = min_gens
        self.orders = orders
        self.socle_degree = f.degree
        self.mi = mi
        self._graded = None

    @property
    def dim(self) -> int:
        return len(self.rows)

    def graded_dims(self) -> tuple:
        """dim I*_d for d = 0..j+1 (pivot degrees of the canonical basis)."""
        counts = [0] * (self.socle_degree + 2)
        degs = self.degs
        for p in self.pivots:
            counts[degs[p]] += 1
        return tuple(counts)

    def graded_rows(self) -> list:
        """The canonical basis of I* modulo m^{j+2} over rmon_index(j+1):
        each row cut to its initial form, the entries of its pivot's
        degree, so the rows stay reduced with pivot one."""
        end = list(accumulate(map(self.ring.dim_of_degree,
                                  range(self.socle_degree + 2))))
        degs = self.degs
        return [{c: v for c, v in row.items() if c < end[degs[q]]}
                for row, q in zip(self.rows, self.pivots)]

    def graded(self) -> _Held:
        """I* modulo m^{j+2}: graded_rows and their m*I* span, built on the
        first call and kept."""
        if self._graded is None:
            self._graded = _hold(self.ring, self.graded_rows(),
                                 self.socle_degree + 1)
        return self._graded

    def coordinates(self, phi: PSElement) -> dict | None:
        """phi's coordinates on rows, or None when phi is not in I; its
        terms of degree j+2 or more lie in m^{j+2}, inside I."""
        phi.ring.check_same(self.ring)
        index = self.ring.rmon_index(self.socle_degree + 1)
        return coordinates(self.ring.field, self.rows, self.at,
                           {index[m]: c for m, c in phi.coeffs.items()
                            if m in index})

    def contains(self, phi: PSElement) -> bool:
        """phi in Ann f, that is phi o f = 0."""
        return self.coordinates(phi) is not None


def _mi_span(ring, rows: list, pivots: list, j: int) -> _Span:
    """The span of m*I in the coordinates of I, I spanned by rows, the
    reduced pivot-one rows of an ideal of R_{<j+2}, with pivots pivots: a
    vector of I is the combination of the rows given by its pivot entries,
    so x_i * row is kept on pivot columns only, each relabelled by its row
    number, read through the multiplication table and then the pivot's
    row for just the columns the row holds.  Only the span of m*I is read.
    Every shift of a monomial row is a unit vector, a coordinate of the
    _Span: the monomial rows' pivots are shifted as a set, one update per
    table, while the echelon is empty.  The shifts of the other rows are
    projected off those, last row first (sparse high-order rows, less
    fill-in), over Q each row scaled once to a primitive integer row.
    x_i * lead is the leading monomial of x_i * row when it has degree j+1
    or less, so the pivot's row there is its first coordinate; a shift
    covered there is not built."""
    field = ring.field
    row_of = dict(zip(pivots, range(len(pivots)))).get
    tabs = ring.multiplication_tables(j + 1)
    mi = _Span(field, len(rows))
    units = mi.units
    monomial = [q for row, q in zip(rows, pivots) if len(row) == 1]
    for tab in tabs:
        units.update(map(row_of, map(tab.get, monomial)))
    # row_of(None), a shift past degree j+1, is None
    units.discard(None)
    for row, lead in zip(reversed(rows), reversed(pivots)):
        if len(row) == 1:
            continue
        shifts = [tab for tab in tabs
                  if (k := row_of(tab.get(lead))) is None
                  or not mi.covers(k)]
        if not shifts:
            continue
        row = row if field.char else primitive(row)
        for tab in shifts:
            # projected off the units here, as add would: most shifts of a
            # sparse f's rows land on units only, and need no add
            w = {k: v for c, v in row.items()
                 if (k := row_of(tab.get(c))) is not None and k not in units}
            if w:
                mi.add(w)
    return mi


def annihilator(f: DPPoly | PartialFiltration) -> LocalIdeal:
    """Kernel of contraction against f, with minimal generators I/mI; f is
    the dual generator or its PartialFiltration.  The LocalIdeal is built
    once per filtration and kept on it, with its m*I span: every later
    call for the same filtration returns that instance, shared read-only."""
    P = filtration(f)
    if P.ideal is not None:
        return P.ideal
    ring = P.ring
    one = ring.field.one
    j = P.j
    rmons, degs = ring.rmon_list(j + 1)
    # I is the orthogonal of R o f, x^beta paired with X^[beta]: each row of
    # P.rows is relabelled once, from D's columns straight into the
    # reversed R columns orthogonal reads, last row first (the sparsest rows
    # of each pivot degree lead there, and the others reduce by them)
    col = ring.dual_columns(j)
    rows = orthogonal(ring.field, [{col[c]: v for c, v in row.items()}
                                   for row in reversed(P.rows)], len(rmons))
    pivots = list(map(min, rows))
    mi = _mi_span(ring, rows, pivots, j)
    # row k is a minimal generator iff it is not in m*I + <rows before it>;
    # that depends on these spans only, not on which rows the echelon keeps.
    # A k among the span's units, read live as they grow while its echelon
    # is empty, lies there already: add would return False.
    span = mi.copy()
    units = span.units
    min_gens, orders = [], []
    for k, row in enumerate(rows):
        if k not in units and span.add({k: one}):
            min_gens.append(PSElement.from_vector(ring, row, rmons, j + 1))
            orders.append(degs[pivots[k]])
    P.ideal = LocalIdeal(P.f, rows, pivots, min_gens, orders, mi)
    return P.ideal


def verify_ideal_presentation(gens: list[PSElement],
                              f: DPPoly | PartialFiltration) -> bool:
    """True iff (gens) = Ann f modulo m^{j+2}: every g has coordinates on
    I = Ann f, and those coordinates span I/mI (Nakayama's lemma), tested
    on a copy of the m*I span annihilator keeps.  f is the dual generator
    or its PartialFiltration."""
    P = filtration(f)
    I = annihilator(P)
    dim = len(I.rmons) - sum(P.hilbert())
    if I.dim != dim:
        raise InternalCheckError("dim Ann f = %d, but H(A) gives %d"
                                 % (I.dim, dim))
    # every g's ring is checked; a unit, as I is proper, has no coordinates
    coords = [I.coordinates(g) for g in gens]
    return None not in coords and _generates(I.mi.copy(), coords)


def _generates(mi: _Span, coords: list) -> bool:
    """Nakayama's lemma for J, an ideal of R_{<j+2} held as reduced
    pivot-one rows, and generators of J with coordinates coords on those
    rows: mi is the m*J span in the same coordinates (_mi_span), grown
    here, and the generators span J/mJ, so generate J, iff mi plus their
    coordinates reaches dim J, the number of rows."""
    field = mi.ech.field
    for v in coords:
        if v:
            mi.add(v if field.char else primitive(v))
    return mi.dim == mi.n


def verify_graded_presentation(gens: list[PSElement],
                               f: DPPoly | PartialFiltration) -> bool:
    """True iff the homogeneous gens generate exactly the associated graded
    ideal I* = Gr(Ann f) up to degree j+1, checked on the canonical basis of
    I* that Ann f's rows give and a copy of its m*I* span, both kept on the
    LocalIdeal after the first check (LocalIdeal.graded).  f is the dual
    generator or its PartialFiltration."""
    P = filtration(f)
    return _verify_graded(gens, P.ring, annihilator(P).graded(), P.j + 1)


def _verify_graded(gens: list[PSElement], ring, J: _Held, top: int) -> bool:
    """True iff the homogeneous gens generate exactly the graded ideal J of
    R in every degree up to top: J's rows are homogeneous, reduced with
    pivot one over rmon_index(top), and span J modulo m^{top+1}, an ideal
    of R_{<top+1}.  Each generator must have coordinates on those rows,
    and then (gens)_d = J_d for every d <= top iff the gens span J/mJ
    (graded Nakayama), the rank test of verify_ideal_presentation, run on
    a copy of J's m*J span.  A generator of degree above top is not
    read."""
    index = ring.rmon_index(top)
    vs = []
    for g in gens:
        g.ring.check_same(ring)
        if not g.is_homogeneous() or g.is_zero:
            raise DomainError("graded presentation requires nonzero homogeneous generators")
        if g.order <= top:
            vs.append(g.vector(index))
    coords = [coordinates(ring.field, J.rows, J.at, v) for v in vs]
    return None not in coords and _generates(J.mi.copy(), coords)
