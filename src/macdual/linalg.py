"""Exact dense/sparse linear algebra over a Field, and a subspace calculus.

Vectors are sparse dicts ``{column_index: scalar}``; a column order is fixed
by whoever builds the index (monomial orders live in :mod:`macdual.poly`).
Two row-reduction engines coexist:

* :class:`Echelon` - a forward echelon span used in hot loops.  Over a prime
  field rows are pivot-normalized; over the rationals rows are kept as
  integer vectors with content one and positive pivot, and reduction is
  fraction-free.  Dimensions, pivot sets and membership are canonical.
* :func:`rref_rows` / :class:`Subspace` - fully reduced, pivot-one bases,
  used wherever a basis is reported or compared.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DomainError
from .fields import Field


# ---------------------------------------------------------------------------
# sparse vector helpers

def vec_axpy(field: Field, out: dict, c, v: dict):
    """out += c*v in place."""
    if field.is_zero(c):
        return out
    add, mul = field.add, field.mul
    for k, a in v.items():
        s = add(out.get(k, 0), mul(c, a))
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def vec_scale(field: Field, v: dict, c) -> dict:
    if field.is_zero(c):
        return {}
    mul = field.mul
    return {k: mul(c, a) for k, a in v.items()}


def _clear_denominators(v: dict) -> dict:
    """Scale a rational vector to an integer one."""
    den = 1
    for a in v.values():
        if isinstance(a, Fraction):
            den = den * a.denominator // gcd(den, a.denominator)
    if den != 1:
        v = {k: int(a * den) for k, a in v.items()}
    return v


def _strip_content(v: dict) -> dict:
    """Divide an integer vector by its content; make the pivot entry positive."""
    v = _clear_denominators(v)
    g = 0
    for a in v.values():
        g = gcd(g, int(a))
    if g > 1:
        v = {k: a // g for k, a in v.items()}
    if v and v[min(v)] < 0:
        v = {k: -a for k, a in v.items()}
    return v


class Echelon:
    """Growing forward-echelon span of sparse vectors."""

    __slots__ = ("field", "rows", "pivots", "_by_pivot", "_ffree")

    def __init__(self, field: Field, normalized: bool = False):
        self.field = field
        self.rows: list[dict] = []      # sorted by pivot index
        self.pivots: list[int] = []
        self._by_pivot: dict[int, int] = {}
        # fraction-free integer rows over the rationals unless a caller needs
        # reduce() to be a linear map (pivot-one rows make it one)
        self._ffree = field.char == 0 and not normalized

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Canonical remainder of vec modulo the span: every pivot
        coordinate is eliminated (in increasing order, which terminates
        because a row only touches coordinates at or past its pivot), so the
        result is the unique representative supported off the pivots - in
        particular reduce is a linear projection, and zero iff vec lies in
        the span.  Over the rationals the remainder is scaled to integers."""
        f = self.field
        v = {k: a for k, a in vec.items() if not f.is_zero(a)}
        if self._ffree:
            v = _clear_denominators(v)
        while v:
            hits = [k for k in v if k in self._by_pivot]
            if not hits:
                return v
            p = min(hits)
            row = self.rows[self._by_pivot[p]]
            if self._ffree:
                a = row[p]
                b = v[p]
                g = gcd(int(a), int(b))
                ca, cb = a // g, b // g
                v = vec_axpy(f, {k: ca * x for k, x in v.items()}, -cb, row)
            else:
                v = vec_axpy(f, v, f.neg(v[p]), row)
        return v

    def insert(self, vec: dict) -> bool:
        """Add vec to the span; True iff the dimension grew."""
        return self.insert_ret(vec) is not None

    def insert_ret(self, vec: dict):
        """Like insert, but returns the stored (reduced) row, or None."""
        v = self.reduce(vec)
        if not v:
            return None
        p = min(v)
        if self._ffree:
            v = _strip_content(v)
        else:
            v = vec_scale(self.field, v, self.field.inv(v[p]))
        pos = len([q for q in self.pivots if q < p])
        self.rows.insert(pos, v)
        self.pivots.insert(pos, p)
        self._by_pivot = {q: i for i, q in enumerate(self.pivots)}
        return v

    def extend(self, vectors) -> int:
        added = 0
        for v in vectors:
            if self.insert(v):
                added += 1
        return added

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


class WitnessedEchelon:
    """Pivot-normalized echelon that tracks how each row was formed.

    Witnesses are sparse dicts over generator indexes; ``reduce`` reports the
    combination of inserted generators that was subtracted.
    """

    __slots__ = ("field", "rows", "wits", "pivots", "_by_pivot")

    def __init__(self, field: Field):
        self.field = field
        self.rows: list[dict] = []
        self.wits: list[dict] = []
        self.pivots: list[int] = []
        self._by_pivot: dict[int, int] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict):
        """Return (remainder, witness) with vec = remainder + witness-combo;
        like Echelon.reduce, every pivot coordinate is eliminated."""
        f = self.field
        v = {k: a for k, a in vec.items() if not f.is_zero(a)}
        w: dict = {}
        while v:
            hits = [k for k in v if k in self._by_pivot]
            if not hits:
                return v, w
            p = min(hits)
            i = self._by_pivot[p]
            c = v[p]
            vec_axpy(f, v, f.neg(c), self.rows[i])
            vec_axpy(f, w, c, self.wits[i])
        return v, w

    def insert(self, vec: dict, wit: dict) -> bool:
        return self.insert_ret(vec, wit) is not None

    def insert_ret(self, vec: dict, wit: dict):
        """Like insert, but returns the stored (row, witness) pair, or None."""
        f = self.field
        v, combo = self.reduce(vec)
        if not v:
            return None
        # residual = vec - combo, so its witness is wit - combo
        w = dict(wit)
        vec_axpy(f, w, f.neg(f.one), combo)
        p = min(v)
        c = f.inv(v[p])
        v = vec_scale(f, v, c)
        w = vec_scale(f, w, c)
        pos = len([q for q in self.pivots if q < p])
        self.rows.insert(pos, v)
        self.wits.insert(pos, w)
        self.pivots.insert(pos, p)
        self._by_pivot = {q: i for i, q in enumerate(self.pivots)}
        return v, w


def solve_linear(field: Field, columns: list[dict], target: dict):
    """Coefficients x with sum x_i * columns[i] == target, or None."""
    ech = WitnessedEchelon(field)
    for i, col in enumerate(columns):
        ech.insert(col, {i: field.one})
    rem, combo = ech.reduce(target)
    if rem:
        return None
    return [combo.get(i, 0) for i in range(len(columns))]


# ---------------------------------------------------------------------------
# dense matrices (row-major lists of lists)

def rref(matrix: list[list], field: Field):
    """Reduced row echelon form; returns (rref_rows, pivot_columns, rank)."""
    m = [list(r) for r in matrix]
    if m and any(len(r) != len(m[0]) for r in m):
        raise DomainError("matrix is not rectangular")
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    piv_cols = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if not field.is_zero(m[i][c]):
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(m[i][c]):
                ci = m[i][c]
                m[i] = [field.sub(x, field.mul(ci, y)) for x, y in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return m, piv_cols, r


def det(matrix: list[list], field: Field):
    """Exact determinant by ordinary elimination."""
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise DomainError("determinant of a non-square matrix")
    m = [list(r) for r in matrix]
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
    n = len(matrix)
    aug = [list(r) + [field.one if i == j else field.zero for j in range(n)]
           for i, r in enumerate(matrix)]
    red, piv, rank = rref(aug, field)
    if rank < n or piv[:n] != list(range(n)):
        raise DomainError("singular matrix")
    return [r[n:] for r in red[:n]]


def nullspace(matrix: list[list], field: Field) -> list[list]:
    """Canonical basis of {x : matrix @ x = 0} (RREF back-substitution)."""
    if not matrix:
        return []
    red, piv, rank = rref(matrix, field)
    ncols = len(matrix[0])
    pivset = set(piv)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for i, p in enumerate(piv):
            v[p] = field.neg(red[i][free])
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# subspaces

def rref_rows(field: Field, vectors) -> list[dict]:
    """Canonical fully-reduced pivot-one sparse basis of the span."""
    ech = WitnessedEchelon(field)
    for v in vectors:
        ech.insert(v, {})
    rows = [dict(r) for r in ech.rows]
    # back-substitute so every pivot column is cleared everywhere else
    for i in range(len(rows) - 1, -1, -1):
        p = ech.pivots[i]
        for k in range(i):
            c = rows[k].get(p)
            if c is not None and not field.is_zero(c):
                vec_axpy(field, rows[k], field.neg(c), rows[i])
    return rows


class Subspace:
    """A subspace of a fixed ambient coordinate space, held as a canonical
    reduced-row-echelon basis (leading coefficients one)."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field: Field, ambient, vectors=()):
        self.field = field
        self.ambient = ambient
        self.rows = rref_rows(field, vectors)
        self.pivots = [min(r) for r in self.rows]

    @classmethod
    def _wrap(cls, field, ambient, canonical_rows):
        s = cls.__new__(cls)
        s.field = field
        s.ambient = ambient
        s.rows = canonical_rows
        s.pivots = [min(r) for r in canonical_rows]
        return s

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _check(self, other: "Subspace"):
        if self.ambient != other.ambient or self.field != other.field:
            raise DomainError("subspace ambient mismatch: %r vs %r"
                              % (self.ambient, other.ambient))

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace(self.field, self.ambient, self.rows + other.rows)

    def member(self, vec: dict) -> bool:
        ech = Echelon(self.field)
        for r in self.rows:
            ech.insert(r)
        return ech.contains(vec)

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return self.sum(other).dim == self.dim

    def quotient_dim(self, other: "Subspace") -> int:
        """dim of self modulo other = dim(self + other) - dim(other)."""
        self._check(other)
        return self.sum(other).dim - other.dim

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonize rows [u|u] for u in self, [v|0] for v in
        other; fully reduced left-zero rows carry the intersection."""
        self._check(other)
        f = self.field
        all_keys = [k for r in self.rows + other.rows for k in r]
        shift = 1 + max(all_keys, default=0)
        stacked = [dict(list(r.items()) + [(k + shift, a) for k, a in r.items()])
                   for r in self.rows]
        stacked += [dict(r) for r in other.rows]
        ech = Echelon(f)
        for v in stacked:
            ech.insert(v)
        inter = []
        for row in ech.rows:
            if min(row) >= shift:
                inter.append({k - shift: a for k, a in row.items()})
        return Subspace(f, self.ambient, inter)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.rows == other.rows)

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%r)" % (self.dim, self.ambient)
