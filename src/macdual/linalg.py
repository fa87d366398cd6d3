"""Exact linear algebra over a Field: one sparse row-reduction engine and
small dense-matrix helpers.

Vectors are sparse dicts ``{column_index: scalar}``; a column order is fixed
by whoever builds the index (monomial orders live in :mod:`macdual.poly`).

:class:`Echelon` is the only row-reduction engine: a growing forward-echelon
basis of a span, rows sorted by pivot (their least column).  Over a prime
field rows have pivot one.  Over the rationals rows are integer vectors and
reduction is fraction-free (each step is v <- a*v - b*row with integers
a > 0 and b); a row is a positive multiple of the pivot-one row, so a
caller that needs a normalized value divides once where it leaves the
echelon, as :func:`rref_rows`, :func:`solve_linear` and
:meth:`Echelon.project` do.  ``Echelon(field, vectors)`` is seeded with
the span of vectors, inserted in order; ``insert`` neither stores nor
changes the dict it is given.  Callers that read only a span or a rank
scale each vector once, by :func:`primitive`, before it enters the
echelon, and add it by ``grow``, which reduces it only until its first
column is not a pivot ("top reduction"; Becker-Weispfenning, Groebner
Bases, 1993) and stores it as it stands: the rank, and whether a vector
lies in the span, need no more.  ``covers(q, n)`` tells in O(1) whether
every column in range(q, n) is a pivot, so that a vector supported there
need not be reduced.

A caller that needs the combination of inputs behind a vector appends it
as extra columns past the n real ones: input k, or the k-th monomial, at
column n + k.  Reduction carries those columns along with the same
arithmetic, so a remainder holds the combination it stands for, and one
whose first column is n or past is a linear relation among the inputs.  No
pivot may lie at or past n: the caller reduces, and stores the remainder
(:meth:`Echelon.store`) only when its first column is below n.  This is the
idea of :func:`matrix_inverse`, the right half of the reduced [M | I], and
:func:`solve_linear` is built the same way.

Built on it:

* :func:`same_span` - whether two families span the same subspace;
* :func:`rref_rows` - the canonical fully reduced, pivot-one basis of a
  span, used wherever a basis is reported;
* :func:`orthogonal` - the same canonical basis of the orthogonal of a
  span under the pairing <e_a, e_b> = delta_ab, read off its
  :func:`rref_rows` in the reversed columns the caller hands it rows in
  (:func:`reversed_columns`): every space the package gets as a kernel is
  read this way, as the orthogonal of a span it already holds;
* :func:`coordinates` - the one membership test: a vector's coordinates
  on such a canonical basis, or None off its span;
* :func:`solve_linear` - one solution of a linear system.

The dense :func:`det` and :func:`matrix_inverse` work on row-major lists of
lists.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import DomainError
from .fields import Field


# ---------------------------------------------------------------------------
# sparse vector helpers

def vec_axpy(field: Field, out: dict, c, v: dict):
    """out += c*v in place, each touched entry summed raw and made
    canonical (over Q an int whenever the denominator is one)."""
    if c == 0:
        return out
    if field.char:
        _axpy_mod(out, c, v, field.char)
        return out
    get = out.get
    for k, a in v.items():
        s = get(k, 0) + c * a
        if s:
            out[k] = s.numerator if s.denominator == 1 else s
        else:
            out.pop(k, None)
    return out


# The two elimination loops.  Each adds c*v into out in place and drops the
# entries that cancel; v holds no zeros.

def _axpy_mod(out: dict, c: int, v: dict, p: int):
    """Residues in range(p)."""
    get = out.get
    for k, a in v.items():
        s = (get(k, 0) + c * a) % p
        if s:
            out[k] = s
        else:
            out.pop(k, None)


def _axpy_int(out: dict, c: int, v: dict):
    """Plain ints: the rows of a fraction-free echelon."""
    get = out.get
    for k, a in v.items():
        s = get(k, 0) + c * a
        if s:
            out[k] = s
        else:
            out.pop(k, None)


def primitive(v: dict) -> dict:
    """The primitive integer vector on the line of a rational vector v: its
    denominators cleared with their lcm, then divided by the gcd of the
    entries.  The factor is positive, so signs are kept."""
    den = lcm(*(a.denominator for a in v.values()))
    w = {k: a.numerator * (den // a.denominator) for k, a in v.items()}
    g = gcd(*w.values())
    return {k: a // g for k, a in w.items()} if g > 1 else w


def _div(a: int, d: int):
    """a / d as a canonical rational: an int when d divides a."""
    return a // d if a % d == 0 else Fraction(a, d)


_SCALE = object()  # project's key for the factor reduce applied


class Echelon:
    """Growing forward-echelon span of sparse vectors, rows sorted by pivot.

    Over F_p rows have pivot one.  Over Q a row holds ints, has content one
    and a positive pivot: a positive multiple of the pivot-one row.  Extra
    columns past n (see the module docstring) are columns like any other."""

    __slots__ = ("field", "rows", "pivots", "_by_pivot")

    def __init__(self, field: Field, vectors=()):
        self.field = field
        self.rows: list[dict] = []
        self.pivots: list[int] = []
        self._by_pivot: dict = {}       # pivot -> row
        for v in vectors:
            self.insert(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Canonical remainder of vec modulo the span: every pivot
        coordinate is eliminated, so the result is the unique representative
        supported off the pivots - over Q up to a positive factor, in
        integers (:meth:`project` divides it out) - and zero iff vec lies in
        the span.  Over Q vec may hold Fractions: it is first scaled to
        integers by the lcm of their denominators, and then every step
        cancels exactly."""
        f = self.field
        p = f.char
        if p:
            v = {k: a for k, a in vec.items() if a != 0}
        else:  # one pass: drop zeros, take the lcm of the denominators
            v, den, frac = {}, 1, False
            for k, a in vec.items():
                if a:
                    if type(a) is Fraction:
                        den, frac = lcm(den, a.denominator), True
                    v[k] = a
            if frac:
                v = {k: a.numerator * (den // a.denominator)
                     for k, a in v.items()}
        return self._walk(v, None)

    def project(self, vec: dict) -> dict:
        """The remainder of vec modulo a pivot-one echelon of the span, a
        linear projection, in canonical elements.  Over Q reduce leaves it
        times the product of the factors it multiplied vec by: a key no row
        holds, entered with 1, picks that up, and the remainder is divided
        by it once."""
        if self.field.char:
            return self.reduce(vec)
        v = self.reduce({**vec, _SCALE: 1})
        d = v.pop(_SCALE)
        return {k: _div(a, d) for k, a in v.items()} if d != 1 else v

    def insert(self, vec: dict):
        """Add vec to the span.  Returns the stored row, or None when vec
        already lies in the span."""
        v = self.reduce(vec)
        return self.store(v) if v else None

    def store(self, v: dict) -> dict:
        """Store a nonzero remainder of reduce as a row: over F_p scaled to
        pivot one, over Q divided by its content and given a positive
        pivot."""
        q = min(v)
        p = self.field.char
        if p:
            c = pow(v[q], -1, p)
            v = {k: c * a % p for k, a in v.items()}
        else:
            g = gcd(*v.values())
            if v[q] < 0:
                g = -g
            if g != 1:
                v = {k: a // g for k, a in v.items()}
        pos = bisect_left(self.pivots, q)
        self.rows.insert(pos, v)
        self.pivots.insert(pos, q)
        self._by_pivot[q] = v
        return v

    def grow(self, vec: dict):
        """Add vec to a span that is read only for its rank: vec is reduced
        only until its first column is not a pivot, then stored as it
        stands.  A combination of rows with distinct pivots keeps the least
        of them, so this comes out zero iff vec lies in the span, and the
        rows keep distinct pivots.  A stored row may hold entries at later
        pivots; reduce, insert and covers read rows only from their pivot
        on, so they stay exact.  Returns the stored row, or None.  vec
        holds no zeros, over F_p residues in range(p); it may be stored or
        changed."""
        by_pivot = self._by_pivot
        v = vec
        if not self.field.char and {int} != set(map(type, v.values())):
            v = primitive(v)
        if min(v) in by_pivot:
            v = self._walk(v, [k for k in v if k not in by_pivot])
        return self.store(v) if v else None

    def _walk(self, v: dict, free) -> dict:
        """Eliminate the pivot entries of v, a dict it may change, and
        return what is left, canonical.

        Pivot hits are walked in increasing order from a min-heap, built
        once from the pivots among v's columns.  A row only touches columns
        at or past its pivot, so each step pushes just the pivots among the
        columns it adds to the working vector, the walk never goes back,
        and it terminates.  A popped column whose entry is gone (cancelled,
        or already cleared) is skipped.  Over F_p entries stay unreduced
        ints while the walk runs: an entry is taken mod p only when popped
        as a pivot, and dropped if that is 0.

        free, when not None, lists v's columns that are no pivot, and the
        walk keeps them in a second min-heap: a live one below the next
        pivot popped stays in v to the end, as no later row reaches it, so
        it is v's first column and the walk stops there (grow).  Over F_p
        such an entry is taken mod p when it reaches the top of its
        heap."""
        by_pivot = self._by_pivot
        p = self.field.char
        heap = [k for k in v if k in by_pivot]
        if not heap:
            return v
        heapify(heap)
        if free is not None:
            heapify(free)
        while heap:
            q = heappop(heap)
            a = v.get(q)
            if a is None:
                continue
            if p:
                a %= p
                if not a:
                    del v[q]
                    continue
            if free:
                while free:
                    k = free[0]
                    if k in v and not (p and v[k] % p == 0):
                        break
                    v.pop(k, None)
                    heappop(free)
                if free and free[0] < q:
                    break
            row = by_pivot[q]
            if p:
                c = p - a
                get = v.get
                for k, b in row.items():
                    x = get(k)
                    if x is None:
                        v[k] = c * b
                        if k in by_pivot:
                            heappush(heap, k)
                        elif free is not None:
                            heappush(free, k)
                    else:
                        v[k] = x + c * b
                del v[q]
                continue
            for k in row:
                if k not in v:
                    if k in by_pivot:
                        heappush(heap, k)
                    elif free is not None:
                        heappush(free, k)
            b = row[q]
            g = gcd(a, b)
            ca, cb = b // g, -(a // g)
            if ca != 1:
                v = {k: ca * x for k, x in v.items()}
            _axpy_int(v, cb, row)
        return self.field.canon(v) if p else v

    def covers(self, q: int, n: int) -> bool:
        """True iff the last n - q pivots start at q, pivots[-(n - q)] == q
        (vacuously when q >= n).  Pivots are sorted and distinct, so when
        none lies at or past n this holds iff every column in range(q, n)
        is a pivot, and then the span holds every vector supported there:
        reducing one can only come out zero."""
        k = n - q
        return k <= 0 or (k <= len(self.pivots) and self.pivots[-k] == q)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


def same_span(field: Field, a, b) -> bool:
    """True iff the two families of vectors span the same subspace."""
    ea, eb = Echelon(field, a), Echelon(field, b)
    return ea.dim == eb.dim and all(eb.contains(row) for row in ea.rows)


def rref_rows(field: Field, vectors) -> list[dict]:
    """Canonical fully-reduced pivot-one sparse basis of the span.  Over F_p
    the entries must already be residues in range(p).

    Over Q the echelon and the back-substitution run in integers: each row
    is made primitive before it clears its pivot from the rows above it,
    and is divided by its pivot once at the end (an int where that divides
    exactly, else a Fraction)."""
    ech = Echelon(field, vectors)
    rows = ech.rows  # the echelon is not used again
    p = field.char
    # back-substitute so every pivot column is cleared everywhere else
    for i in range(len(rows) - 1, -1, -1):
        q, row = ech.pivots[i], rows[i]
        if not p:
            g = gcd(*row.values())
            if g != 1:
                for k, a in row.items():
                    row[k] = a // g
        for above in rows[:i]:
            c = above.get(q)
            if c is None:
                continue
            if p:
                _axpy_mod(above, p - c, row, p)
            else:
                g = gcd(row[q], c)
                if row[q] != g:
                    s = row[q] // g
                    for k, a in above.items():
                        above[k] = s * a
                _axpy_int(above, -(c // g), row)
    if not p:
        for row, q in zip(rows, ech.pivots):
            d = row[q]
            if d != 1:
                for k, a in row.items():
                    row[k] = _div(a, d)
    return rows


def orthogonal(field: Field, rows, n: int) -> list[dict]:
    """The reduced pivot-one basis of S^perp = {v in F^n : <v, s> = 0 for
    s in S}, S the span of rows, in increasing pivot order.  The rows come
    in the reversed columns, entry c of a row being coordinate n-1-c of its
    vector (:func:`reversed_columns`), so that a caller relabelling a span
    anyway writes each entry once.

    In the reversed columns the reduced basis of S has one row per pivot q,
    and S^perp one vector per free column c: e_c - sum row[c] * e_q.  Its
    pivot is c, and no other free column is in its support.  Read
    backwards in the given columns, these are the reduced echelon basis of
    S^perp.  Over F_p the entries must already be residues in range(p).

    A row with one nonzero entry, at c, puts e_c in S, and the basis row
    e_c adds nothing to any free vector.  So the columns U of such rows
    are struck from the other rows before rref_rows runs: the basis of S
    is e_U plus the reduced basis of what is left, and the free vectors,
    their entries taken in pivot order, come out the same, key order and
    all.  A dense S has almost no such rows."""
    last = n - 1
    units = {c for row in rows if len(row) == 1
             for c, v in row.items() if v != 0}
    if units:
        rows = [{c: v for c, v in row.items() if c not in units}
                for row in rows if len(row) > 1]
    basis = rref_rows(field, rows)
    pivots = units.union(map(min, basis))
    one = field.one
    free = {c: {last - c: one} for c in range(last, -1, -1) if c not in pivots}
    for row in basis:
        q = min(row)
        at = last - q
        for c, v in row.items():
            if c != q:
                free[c][at] = field.neg(v)
    return list(free.values())


def coordinates(field: Field, rows: list, at: dict, v: dict):
    """The coordinates {k: v[q_k]} of v on rows, a reduced pivot-one basis
    as rref_rows and orthogonal return it (q_k the pivot of row k), or None
    off its span: the other rows are zero on q_k, so v is in the span iff
    v - sum_k v[q_k] * row_k = 0.  at maps each q_k to k.  v holds no
    zeros, over F_p residues."""
    coords = {at[c]: a for c, a in v.items() if c in at}
    rest = dict(v)
    for k, a in coords.items():
        vec_axpy(field, rest, field.neg(a), rows[k])
    return None if rest else coords


def reversed_columns(rows, n: int) -> list[dict]:
    """The rows with column c moved to n-1-c, as orthogonal takes them."""
    last = n - 1
    return [{last - c: v for c, v in row.items()} for row in rows]


def solve_linear(field: Field, columns: list[dict], target: dict):
    """Coefficients x with sum x_i * columns[i] == target, or None; a column
    that depends on earlier ones gets coefficient zero.  Over F_p the
    entries must already be residues in range(p).  Past every real column
    n, columns[i] carries 1 at n + i and the target 1 at t = n + len(columns),
    so a target reducing to d at t and c_i at n + i solves as -c_i / d."""
    n = 1 + max((k for v in (*columns, target) for k in v), default=-1)
    ech = Echelon(field)
    for i, col in enumerate(columns):
        v = ech.reduce({**col, n + i: field.one})
        if min(v) < n:
            ech.store(v)
    t = n + len(columns)
    rem = ech.reduce({**target, t: field.one})
    if min(rem) < n:
        return None
    d = rem[t]
    return [field.fraction(-rem.get(n + i, 0), d) for i in range(len(columns))]


# ---------------------------------------------------------------------------
# dense matrices (row-major lists of lists)

def det(matrix: list[list], field: Field):
    """Exact determinant by ordinary elimination.  The entries are made
    canonical first: over F_p a caller's 101 is zero."""
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise DomainError("determinant of a non-square matrix")
    m = [[field.from_int(x) for x in r] for r in matrix]
    out = field.one
    for c in range(n):
        sel = None
        for i in range(c, n):
            if not field.is_zero(m[i][c]):
                sel = i
                break
        if sel is None:
            return field.zero
        if sel != c:
            m[c], m[sel] = m[sel], m[c]
            out = field.neg(out)
        out = field.mul(out, m[c][c])
        inv = field.inv(m[c][c])
        for i in range(c + 1, n):
            if not field.is_zero(m[i][c]):
                ci = field.mul(inv, m[i][c])
                m[i] = [field.sub(x, field.mul(ci, y)) for x, y in zip(m[i], m[c])]
    return out


def matrix_inverse(matrix: list[list], field: Field):
    """The inverse of a square matrix: the right half of the reduced basis
    of the rows of [matrix | I], whose pivots are the first n columns
    exactly when the matrix is invertible.  The entries are made canonical
    first: over F_p a caller's 101 is zero, and the echelon expects
    residues."""
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise DomainError("inverse of a non-square matrix")
    rows = rref_rows(field, [
        field.canon({**dict(enumerate(r)), n + i: field.one})
        for i, r in enumerate(matrix)])
    if [min(r) for r in rows] != list(range(n)):
        raise DomainError("singular matrix")
    return [[r.get(n + k, field.zero) for k in range(n)] for r in rows]
