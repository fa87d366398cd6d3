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
the span of vectors, inserted in order without witnesses; ``insert``
neither stores nor changes the dict it is given.

``covers(q, n)`` tells in O(1) whether every column in range(q, n) is a
pivot: pivots are sorted and distinct, so that is pivots[-(n - q)] == q.
Every vector supported there lies in the span, so a caller that fills a
space lying on a suffix of its columns can skip such a vector unreduced:
its reduction could only come out zero, and leave the echelon as it was.

``reduce`` walks the pivot hits of the working vector in increasing order
from a min-heap: built once from the input's pivot columns, it gains only
the pivot columns a subtracted row adds, since a row touches no column
before its pivot.  Over F_p entries are unreduced ints while the walk runs
(delayed modular reduction): an entry is taken ``% p`` only when it is
popped as a pivot, and the remainder and witness are made canonical once
on return.  Over Q every step cancels exactly in plain ints.  A reduce over
Q scales its input to integers, jointly with the witness, in the pass that
drops its zeros.  Callers that read only a span or a rank scale each vector
once, by :func:`primitive`, before it enters the echelon.

A witness is a sparse dict over any keys (generator positions, monomials)
naming the combination of inputs a vector stands for:
``vec = sum(wit[k] * input_k)``.  ``reduce(vec, wit)`` applies every step
it takes on ``vec`` to ``wit`` in place: the witness of each row it
subtracts, with the same factor, and, over Q, every factor it multiplies
``vec`` by.  So if ``wit`` is the witness of ``vec`` on entry, it is the
witness of the remainder on return, and a zero remainder leaves a linear
relation among the inputs in ``wit``.  ``insert(vec, wit)`` does the same
and, when it stores a row, scales ``wit`` with it and keeps it as the row's
witness.

Built on it:

* :func:`same_span` - whether two families span the same subspace;
* :func:`rref_rows` - the canonical fully reduced, pivot-one basis of a
  span, used wherever a basis is reported;
* :func:`orthogonal` - the same canonical basis of the orthogonal of a
  span under the pairing <e_a, e_b> = delta_ab, read off its
  :func:`rref_rows`: every space the package gets as a kernel is read
  this way, as the orthogonal of a span it already holds;
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


def _scale_in_place(d: dict, c: int):
    for k, a in d.items():
        d[k] = c * a


def _div(a: int, d: int):
    """a / d as a canonical rational: an int when d divides a."""
    return a // d if a % d == 0 else Fraction(a, d)


_SCALE = object()  # project's witness key for the factor reduce applied


class Echelon:
    """Growing forward-echelon span of sparse vectors, rows sorted by pivot.

    Rows take witnesses: ``wits[i]`` is the witness of ``rows[i]``
    (``rows[i] == sum(wits[i][k] * input_k)``), or None for a row inserted
    without one.  Over F_p rows have pivot one.  Over Q a row and its
    witness hold ints, have content one taken jointly over both, and a
    positive pivot: a positive multiple of the pivot-one pair."""

    __slots__ = ("field", "rows", "wits", "pivots", "_by_pivot")

    def __init__(self, field: Field, vectors=()):
        self.field = field
        self.rows: list[dict] = []
        self.wits: list = []
        self.pivots: list[int] = []
        self._by_pivot: dict = {}       # pivot -> (row, witness)
        for v in vectors:
            self.insert(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict, wit: dict | None = None) -> dict:
        """Canonical remainder of vec modulo the span: every pivot
        coordinate is eliminated, so the result is the unique representative
        supported off the pivots - over Q up to a positive factor, in
        integers (:meth:`project` divides it out) - and zero iff vec lies in
        the span.

        Pivot hits are walked in increasing order from a min-heap, built
        once from the pivots among vec's columns.  A row only touches
        columns at or past its pivot, so each step pushes just the pivots
        among the columns it adds to the working vector, the walk never
        goes back, and it terminates.  A popped column whose entry is gone
        (cancelled, or already cleared) is skipped.  Over F_p entries stay
        unreduced ints while the walk runs: an entry is taken mod p only
        when popped as a pivot, and dropped if that is 0.  The remainder,
        and the witness, are made canonical once on return (residues in
        range(p), zeros dropped).  Over Q every step cancels exactly.

        Every step applied to vec is applied to wit in place: each row
        subtracted from vec is subtracted, with the same factor, and over Q
        wit is multiplied by every factor vec is.  Over Q vec and wit may
        hold Fractions; both are first scaled to integers by the lcm of all
        their denominators.  If wit is the witness of vec on entry, it is
        the witness of the remainder on return."""
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
            if wit is not None:
                for a in wit.values():
                    if type(a) is Fraction:
                        den, frac = lcm(den, a.denominator), True
            if frac:
                v = {k: a.numerator * (den // a.denominator)
                     for k, a in v.items()}
                if wit is not None:
                    for k, a in wit.items():
                        wit[k] = a.numerator * (den // a.denominator)
        by_pivot = self._by_pivot
        heap = [k for k in v if k in by_pivot]
        if not heap:
            return v
        heapify(heap)
        while heap:
            q = heappop(heap)
            a = v.get(q)
            if a is None:
                continue
            row, rwit = by_pivot[q]
            if p:
                a %= p
                if a:
                    c = p - a
                    get = v.get
                    for k, b in row.items():
                        x = get(k)
                        if x is None:
                            v[k] = c * b
                            if k in by_pivot:
                                heappush(heap, k)
                        else:
                            v[k] = x + c * b
                    if wit is not None:
                        get = wit.get
                        for k, b in rwit.items():
                            wit[k] = get(k, 0) + c * b
                del v[q]
                continue
            for k in row:
                if k not in v and k in by_pivot:
                    heappush(heap, k)
            b = row[q]
            g = gcd(a, b)
            ca, cb = b // g, -(a // g)
            if ca != 1:
                v = {k: ca * x for k, x in v.items()}
                if wit is not None:
                    _scale_in_place(wit, ca)
            _axpy_int(v, cb, row)
            if wit is not None:
                _axpy_int(wit, cb, rwit)
        if p:
            v = f.canon(v)
            if wit is not None:  # in place: the caller holds wit
                canon = f.canon(wit)
                wit.clear()
                wit.update(canon)
        return v

    def project(self, vec: dict, wit: dict | None = None) -> dict:
        """The remainder of vec modulo a pivot-one echelon of the span, a
        linear projection, in canonical elements; wit is reduced with it in
        place.  Over Q reduce leaves both times the product of the factors
        it multiplied vec by: a witness key entered with 1 picks that up,
        and both are divided by it once.  So every row needs a witness."""
        if self.field.char:
            return self.reduce(vec, wit)
        w = {} if wit is None else wit
        w[_SCALE] = 1
        v = self.reduce(vec, w)
        d = w.pop(_SCALE)
        if d != 1:
            v = {k: _div(a, d) for k, a in v.items()}
            for k, a in w.items():
                w[k] = _div(a, d)
        return v

    def insert(self, vec: dict, wit: dict | None = None):
        """Add vec to the span.  Returns the stored row, or None when vec
        already lies in the span; then wit, reduced along with vec, holds a
        linear relation between vec's witness and the row witnesses."""
        v = self.reduce(vec, wit)
        return self._store(v, wit) if v else None

    def _store(self, v: dict, wit: dict | None) -> dict:
        """Store a nonzero remainder of reduce; a witness is scaled in place
        along with the row and kept as the row's witness."""
        q = min(v)
        p = self.field.char
        if p:
            c = pow(v[q], -1, p)
            v = {k: c * a % p for k, a in v.items()}
            if wit is not None:
                for k, a in wit.items():
                    wit[k] = c * a % p
        else:
            g = 0
            for a in v.values():
                g = gcd(g, a)
            if wit is not None:
                for a in wit.values():
                    g = gcd(g, a)
            if v[q] < 0:
                g = -g
            if g != 1:
                v = {k: a // g for k, a in v.items()}
                if wit is not None:
                    for k, a in wit.items():
                        wit[k] = a // g
        pos = bisect_left(self.pivots, q)
        self.rows.insert(pos, v)
        self.wits.insert(pos, wit)
        self.pivots.insert(pos, q)
        self._by_pivot[q] = (v, wit)
        return v

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
                    _scale_in_place(above, row[q] // g)
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
    s in S}, S the span of rows, in increasing pivot order.

    In the reversed columns n-1-c the reduced basis of S has one row per
    pivot q, and S^perp one vector per free column c: e_c - sum row[c] *
    e_q.  Its pivot is c, and no other free column is in its support.  Read
    backwards in the given columns, these are the reduced echelon basis of
    S^perp.  Over F_p the entries must already be residues in range(p)."""
    last = n - 1
    basis = rref_rows(field, [{last - c: v for c, v in row.items()}
                              for row in rows])
    pivots = {min(row) for row in basis}
    free = {c: {last - c: field.one}
            for c in range(last, -1, -1) if c not in pivots}
    for row in basis:
        q = min(row)
        at = last - q
        for c, v in row.items():
            if c != q:
                free[c][at] = field.neg(v)
    return list(free.values())


def solve_linear(field: Field, columns: list[dict], target: dict):
    """Coefficients x with sum x_i * columns[i] == target, or None; a column
    that depends on earlier ones gets coefficient zero.  Over F_p the
    entries must already be residues in range(p)."""
    ech = Echelon(field)
    for i, col in enumerate(columns):
        ech.insert(col, {i: field.one})
    # a zero remainder leaves wit[-1] * target + sum wit[i] * columns[i] == 0
    wit = {-1: field.one}
    if ech.reduce(target, wit):
        return None
    d = wit[-1]
    return [field.fraction(-wit.get(i, 0), d) for i in range(len(columns))]


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
