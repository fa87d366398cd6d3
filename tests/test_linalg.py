import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from kernel_reference import kernel
from macdual.errors import DomainError
from macdual.fields import Field
from macdual.linalg import (Echelon, coordinates, det, matrix_inverse,
                            orthogonal, primitive, reversed_columns,
                            rref_rows, same_span, solve_linear, vec_axpy)
from macdual.poly import DPPoly, RingSpec, linear_substitute

QQ = Field(0)
FIELDS = (QQ, Field(101))


def rref(matrix, field):
    """Dense reduced row echelon form by textbook Gauss-Jordan elimination,
    every scalar operation through the Field: an oracle for ranks that
    shares no code with Echelon.  Returns (rows, pivot_columns, rank)."""
    m = [list(r) for r in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    piv_cols = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows)
                    if not field.is_zero(m[i][c])), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(m[i][c]):
                ci = m[i][c]
                m[i] = [field.sub(x, field.mul(ci, y))
                        for x, y in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return m, piv_cols, r


def chardep_matrix(a, field):
    """The 3x3 coefficient matrix of (R o F)_2 for F = L^[6] + X^[2]Y^[2],
    L = X + aY; its determinant is 3a^2."""
    return [[field.from_int(1), field.from_int(-1), field.from_int(0)],
            [field.from_int(a), field.from_int(a), field.from_int(-1)],
            [field.power(field.from_int(a), 2), field.from_int(0), field.from_int(a)]]


def test_rref_identity():
    m = [[1, 0], [0, 1]]
    red, piv, rank = rref(m, QQ)
    assert red == [[1, 0], [0, 1]] and piv == [0, 1] and rank == 2


def test_rref_chardep_matrix_rank():
    _, _, rank0 = rref(chardep_matrix(1, QQ), QQ)
    assert rank0 == 3
    F3 = Field(3)
    for a in (1, 2):
        _, _, rank3 = rref(chardep_matrix(a, F3), F3)
        assert rank3 < 3


def test_rref_idempotent_and_shuffle_invariant_rank():
    rng = random.Random(7)
    for _ in range(25):
        m = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
        red, piv, rank = rref(m, QQ)
        red2, piv2, rank2 = rref(red, QQ)
        assert red2 == red and piv2 == piv and rank2 == rank
        rows = list(m)
        rng.shuffle(rows)
        assert rref(rows, QQ)[2] == rank


def test_det_examples():
    assert det(chardep_matrix(2, QQ), QQ) == 12  # 3a^2 at a = 2
    # matrix of (R o F)_n for F = X^[n]Y^[n] + L^[m], n = 3, a = 1: det (n+1)a^n
    n, a = 3, 1
    m = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        m[i][0] = a ** i
    for col in range(1, n + 1):
        m[col - 1][col] = -1
        m[col][col] = a
    assert det(m, QQ) == 4
    assert det([[1, 0], [0, 1]], QQ) == 1
    with pytest.raises(DomainError):
        det([[1, 2, 3], [4, 5, 6]], QQ)


def test_det_multiplicative_random():
    rng = random.Random(11)
    for _ in range(20):
        A = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        B = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        AB = [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
              for i in range(3)]
        assert det(AB, QQ) == QQ.mul(det(A, QQ), det(B, QQ))


@pytest.mark.parametrize("p", [101, 2**61 - 1], ids=["F101", "F2^61-1"])
def test_det_canonicalises_entries_mod_p(p):
    """Entries outside range(p) are read mod p, as matrix_inverse reads
    them: diag(p, 1) has determinant zero, and a leading p + 1 is one."""
    field = Field(p)
    assert det([[p, 0], [0, 1]], field) == 0
    assert det([[p + 1, 1], [0, 1]], field) == 1
    assert det([[-1, 0], [0, 1]], field) == p - 1


def test_matrix_inverse():
    A = [[2, 1], [1, 1]]
    Ainv = matrix_inverse(A, QQ)
    assert Ainv == [[1, -1], [-1, 2]]
    with pytest.raises(DomainError):
        matrix_inverse([[1, 2], [2, 4]], QQ)


@pytest.mark.parametrize("p", [101, 2**61 - 1], ids=["F101", "F2^61-1"])
def test_matrix_inverse_canonicalises_entries_mod_p(p):
    """Entries outside range(p) are read mod p: a multiple of p is zero, so
    diag(p, 1) is singular and diag(p + 1, 1) is the identity."""
    field = Field(p)
    with pytest.raises(DomainError, match="singular matrix"):
        matrix_inverse([[p, 0], [0, 1]], field)
    assert matrix_inverse([[p + 1, 0], [0, 1]], field) == [[1, 0], [0, 1]]
    assert matrix_inverse([[-1, 0], [0, 1]], field) == [[p - 1, 0], [0, 1]]
    ring = RingSpec(("X", "Y"), field)
    g = DPPoly(ring, {(2, 0): 1, (0, 1): 1})
    with pytest.raises(DomainError, match="singular matrix"):
        linear_substitute(g, [[p, 0], [0, 1]])


def test_echelon_fraction_free_matches_normalized():
    rng = random.Random(5)
    for _ in range(30):
        vecs = [{i: rng.randint(-5, 5) for i in range(7) if rng.random() < .6}
                for _ in range(6)]
        e0 = Echelon(Field(0))
        ep = Echelon(Field(10007))
        for v in vecs:
            e0.insert(dict(v))
            ep.insert({k: c % 10007 for k, c in v.items()})
        assert e0.dim == ep.dim and e0.pivots == ep.pivots


def test_solve_linear():
    cols = [{0: 1, 1: 1}, {1: 1}]
    x = solve_linear(QQ, cols, {0: 2, 1: 5})
    assert x == [2, 3]
    assert solve_linear(QQ, cols, {2: 1}) is None


def test_matrix_inverse_rejects_non_square():
    for M in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]],
              [[1, 0], [0]], [[1], [0, 1]]):
        with pytest.raises(DomainError):
            matrix_inverse(M, QQ)


def ref_matrix_inverse(matrix, field):
    """The inverse read off the dense rref of [matrix | I], or None when
    the matrix is singular."""
    n = len(matrix)
    aug = [list(r) + [field.one if i == k else field.zero for k in range(n)]
           for i, r in enumerate(matrix)]
    red, piv, rank = rref(aug, field)
    if piv[:n] != list(range(n)):
        return None
    return [r[n:] for r in red[:n]]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
def test_matrix_inverse_matches_dense_reference(field):
    """Int and Fraction entries: A * A^-1 = I, and the entries with their
    types equal the dense reference's; a singular A raises."""
    rng = random.Random(71)
    inverted = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        A = [[_rand_scalar(rng, field) if rng.random() < .7 else field.zero
              for _ in range(n)] for _ in range(n)]
        want = ref_matrix_inverse(A, field)
        if want is None:
            with pytest.raises(DomainError):
                matrix_inverse(A, field)
            continue
        inverted += 1
        got = matrix_inverse(A, field)
        assert [[(type(a), a) for a in r] for r in got] == \
            [[(type(a), a) for a in r] for r in want]
        for i in range(n):
            for k in range(n):
                s = field.zero
                for t in range(n):
                    s = field.add(s, field.mul(A[i][t], got[t][k]))
                assert s == (field.one if i == k else field.zero)
    assert inverted > 40


def solve_linear_normalized(field, columns, target):
    """solve_linear as it ran on a normalized echelon: the reference."""
    ech = RefEchelon(field, True)
    for i, col in enumerate(columns):
        ech.insert(col, {i: field.one})
    wit = {}
    if ech.reduce(target, wit):
        return None
    return [field.neg(wit.get(i, 0)) for i in range(len(columns))]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
def test_solve_linear_matches_normalized_reference(field):
    """Int and Fraction columns with dependent ones mixed in, solvable and
    unsolvable targets: the same solution, values with their types."""
    rng = random.Random(67)
    solved = 0
    for _ in range(150):
        ncols = rng.randint(1, 8)
        cols = [_rand_sparse(rng, field, ncols, rng.choice([.3, .6, .9]))
                for _ in range(rng.randint(0, 7))]
        for _ in range(rng.randint(0, 3) if cols else 0):
            a, b = rng.choice(cols), rng.choice(cols)
            cols.insert(rng.randrange(len(cols) + 1),
                        ref_axpy(field, dict(a), _rand_scalar(rng, field), b))
        target = {}
        for c in cols:
            ref_axpy(field, target, _rand_scalar(rng, field), c)
        if rng.random() < .25:
            ref_axpy(field, target, field.one,
                     _rand_sparse(rng, field, ncols, .3))
        want = solve_linear_normalized(field, cols, target)
        got = solve_linear(field, cols, target)
        assert (got is None) == (want is None)
        if want is None:
            continue
        solved += 1
        assert [(type(a), a) for a in got] == [(type(a), a) for a in want]
        total = {}
        for x, c in zip(got, cols):
            ref_axpy(field, total, x, c)
        assert total == target
    assert solved > 50


# ---------------------------------------------------------------------------
# witnesses as columns past n, and the helpers built on the echelon

NCOLS = 7


def _rand_family(rng, field, n):
    """Sparse vectors, with zero vectors and repeated (over Q possibly
    fractional) multiples mixed in."""
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < .15:
            out.append({})
        elif roll < .3 and out:
            c = field.fraction(rng.randint(1, 3), rng.randint(1, 2))
            twin = rng.choice(out)
            out.append({k: field.mul(c, a) for k, a in twin.items()})
        else:
            out.append({k: field.from_int(rng.randint(-3, 3))
                        for k in range(NCOLS) if rng.random() < .4})
            out[-1] = {k: a for k, a in out[-1].items() if a != 0}
    return out


def _combine(field, vecs, wit):
    """sum wit[i] * vecs[i] as a sparse vector."""
    out = {}
    for i, c in wit.items():
        for k, a in vecs[i].items():
            out[k] = field.add(out.get(k, 0), field.mul(c, a))
    return {k: a for k, a in out.items() if a != 0}


def _augment(vec, wit, n=NCOLS):
    """vec carrying its witness: wit[k] at column n + k."""
    return {**vec, **{n + k: a for k, a in wit.items()}}


def _split(d, n=NCOLS):
    """An augmented vector's real part, below column n, and its witness."""
    return ({k: a for k, a in d.items() if k < n},
            {k - n: a for k, a in d.items() if k >= n})


def _insert_augmented(ech, vec, n=NCOLS):
    """Reduce vec by ech and store the remainder when its first column is
    below n; returns the remainder or the stored row."""
    rem = ech.reduce(vec)
    return ech.store(rem) if rem and min(rem) < n else rem


def _rank(field, vecs, ncols):
    if not vecs:
        return 0
    return rref([[v.get(k, 0) for k in range(ncols)] for v in vecs], field)[2]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
def test_kernel_random(field):
    rng = random.Random(17)
    for _ in range(60):
        images = _rand_family(rng, field, rng.randint(0, 9))
        ker = kernel(field, images)
        for w in ker:
            assert w and _combine(field, images, w) == {}
        assert len(ker) == len(images) - _rank(field, images, NCOLS)
        assert _rank(field, ker, len(images)) == len(ker)


def _content(d):
    g = 0
    for a in d.values():
        g = gcd(g, a)
    return g


@pytest.mark.parametrize("field,normalized",
                         [(QQ, True), (QQ, False), (Field(101), True)],
                         ids=["Q", "Q-fraction-free", "F101"])
def test_witness_invariant_random(field, normalized):
    """row = sum wit_k * input_k for every stored row, in the normalized
    reference over Q, which keeps each witness apart, and in Echelon, where
    it rides as the row's entries at NCOLS + k; fraction-free rows have
    content one, witness columns included, and a positive pivot."""
    rng = random.Random(23)
    ffree = field.char == 0 and not normalized
    reference = field.char == 0 and normalized
    for _ in range(60):
        inputs = _rand_family(rng, field, rng.randint(1, 9))
        ech = RefEchelon(field, True) if reference else Echelon(field)
        for i, vec in enumerate(inputs):
            if reference:
                wit = {i: field.one}
                row = ech.insert(vec, wit)
                if row is not None:
                    assert ech.wits[ech.pivots.index(min(row))] is wit
            else:
                got = _insert_augmented(ech, _augment(vec, {i: field.one}))
                row, wit = _split(got)
                if row:
                    assert ech.rows[ech.pivots.index(min(row))] is got
                row = row or None
            if row is None:
                # a relation among the inputs in which input i occurs
                assert wit[i] == field.one if not ffree else wit[i] > 0
                assert _combine(field, inputs, wit) == {}
        assert ech.pivots == sorted(ech.pivots)
        pairs = zip(ech.rows, ech.wits) if reference else map(_split,
                                                              ech.rows)
        for row, wit in pairs:
            assert _combine(field, inputs, wit) == row
            if ffree:
                assert row[min(row)] > 0
                assert gcd(_content(row), _content(wit)) == 1
                assert all(type(a) is int for a in (*row.values(),
                                                    *wit.values()))
            else:
                assert row[min(row)] == 1
        # reducing a new input with its own witness: rem = sum wit_k * input_k
        vec = _rand_family(rng, field, 1)[0]
        n = len(inputs)
        if reference:
            wit = {n: field.one}
            rem = ech.reduce(vec, wit)
        else:
            rem, wit = _split(ech.reduce(_augment(vec, {n: field.one})))
        assert _combine(field, inputs + [vec], wit) == rem
        assert wit[n] != 0


def test_fraction_free_witnesses():
    """A fraction-free echelon scales the witness columns along with the
    rest of a vector: a row has content one over all its columns, not over
    the real ones alone."""
    a, b = {0: 2, 1: 4}, {0: -3, 2: 3}
    c = {1: 1, 2: Fraction(1, 2)}                   # (3a + 2b) / 12
    ech = Echelon(QQ)                               # witness k at 3 + k
    assert ech.insert({**a, 3: 1}) == {0: 2, 1: 4, 3: 1}
    assert ech.insert({**b, 4: 1}) == {2: 6, 1: 12, 4: 2, 3: 3}  # 3a + 2b
    # c is cleared of its denominator 2, then multiplied by 6
    assert ech.reduce({**c, 5: 1}) == {5: 12, 4: -2, 3: -3}
    assert kernel(QQ, [a, b, c]) == \
        [{2: 1, 1: Fraction(-1, 6), 0: Fraction(-1, 4)}]
    # the joint content is divided out and the pivot made positive
    assert Echelon(QQ).insert({0: -4, 3: 6, 4: 2}) == {0: 2, 3: -3, 4: -1}


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
def test_same_span_random(field):
    rng = random.Random(31)
    for _ in range(60):
        gens = _rand_family(rng, field, rng.randint(1, 5))
        dim = _rank(field, gens, NCOLS)
        # the same span from other generators: invertible recombination
        # (unit upper triangular) plus zero and repeated vectors
        other = []
        for i in range(len(gens)):
            w = {i: field.one}
            w.update({k: field.from_int(rng.randint(-2, 2))
                      for k in range(i + 1, len(gens))})
            other.append(_combine(field, gens, w))
        other += [{}, other[0]]
        rng.shuffle(other)
        assert same_span(field, gens, other)
        assert same_span(field, other, gens)
        if dim == 0:
            continue
        # a proper subspace: drop a direction
        basis = RefEchelon(field, True)
        for g in gens:
            basis.insert(g)
        assert not same_span(field, basis.rows[1:], gens)
        assert not same_span(field, gens, basis.rows[1:])
        # equal dimension, different span: move one row off the span
        free = next(k for k in range(NCOLS)
                    if basis.reduce({k: field.one}))
        moved = basis.rows[1:] + [{free: field.one}]
        assert _rank(field, moved, NCOLS) == dim
        assert not same_span(field, moved, gens)


# ---------------------------------------------------------------------------
# orthogonal: the reduced basis of S^perp, against the kernel of S's columns

@pytest.mark.parametrize("field", [QQ, Field(2), Field(101)],
                         ids=["Q", "F2", "F101"])
def test_orthogonal_random(field):
    """S^perp is the kernel of the map e_i -> (row_k[i])_k, so its reduced
    basis is rref_rows of that kernel.  The output is that basis: pivot
    one, pivots increasing and cleared from every other row, canonical
    entries; each output row pairs to zero with each input row, and there
    are n - rank of them."""
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randint(1, 9)
        rows = [_rand_sparse(rng, field, n, rng.choice([.2, .5, .9]))
                for _ in range(rng.randint(0, 8))]
        for _ in range(rng.randint(0, 3)):      # dependent rows and zeros
            if rows and rng.random() < .6:
                a, b = rng.choice(rows), rng.choice(rows)
                rows.append(ref_axpy(field, dict(a),
                                     _rand_scalar(rng, field), b))
            else:
                rows.append({})
        got = orthogonal(field, reversed_columns(rows, n), n)
        columns = [field.canon({k: row[i] for k, row in enumerate(rows)
                                if i in row}) for i in range(n)]
        assert [_typed(w) for w in got] == \
            [_typed(w) for w in rref_rows(field, kernel(field, columns))]
        pivots = [min(w) for w in got]
        assert pivots == sorted(set(pivots))
        for w, q in zip(got, pivots):
            assert w[q] == 1 and set(w) <= set(range(n))
            assert not any(q in v for v in got if v is not w)
            assert w == field.canon(w)
            for row in rows:
                assert field.canon({0: sum(a * row[k] for k, a in w.items()
                                           if k in row)}) == {}
        assert len(got) == n - _rank(field, rows, n)


@pytest.mark.parametrize("field", [QQ, Field(2), Field(101)],
                         ids=["Q", "F2", "F101"])
def test_coordinates_random(field):
    """On a reduced pivot-one basis (rref_rows), coordinates gives None
    exactly for the vectors a plain Echelon of the basis does not reduce
    to zero, and otherwise the combination that rebuilds the vector, entry
    by entry through the Field."""
    rng = random.Random(47)
    seen = Counter()
    for _ in range(120):
        n = rng.randint(1, 9)
        basis = rref_rows(field, [_rand_sparse(rng, field, n, .5)
                                  for _ in range(rng.randint(0, 6))])
        at = {min(row): k for k, row in enumerate(basis)}
        ech = Echelon(field, basis)
        for _ in range(6):
            v = {}
            for row in basis:
                if rng.random() < .6:
                    ref_axpy(field, v, _rand_scalar(rng, field), row)
            if rng.random() < .4:
                ref_axpy(field, v, _rand_scalar(rng, field),
                         _rand_sparse(rng, field, n, .3))
            got = coordinates(field, basis, at, v)
            assert (got is None) == bool(ech.reduce(v))
            seen[got is None] += 1
            if got is not None:
                back = {}
                for k, c in got.items():
                    assert basis[k][min(basis[k])] == 1
                    ref_axpy(field, back, c, basis[k])
                assert back == v
    assert seen[True] > 50 and seen[False] > 50


@pytest.mark.parametrize("field", [QQ, Field(2), Field(101)],
                         ids=["Q", "F2", "F101"])
def test_covers_matches_brute_force(field):
    """covers(q, n) is True iff every vector over range(q, n) reduces to
    zero.  Over F_2 every such vector is reduced; over Q and F_101 the
    unit vectors e_c, which span them, and one random combination."""
    rng = random.Random(47)
    seen = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(1, 7)
        ech = Echelon(field)
        for _ in range(rng.randint(0, n + 2)):
            start = rng.randrange(n)
            ech.insert({k: _rand_scalar(rng, field) for k in range(start, n)
                        if rng.random() < .6})
        for q in range(n + 1):
            cols = range(q, n)
            if field.char == 2:
                vectors = [{c: 1 for c, bit in zip(cols, bits) if bit}
                           for bits in itertools.product((0, 1),
                                                         repeat=len(cols))]
            else:
                vectors = [{c: field.one} for c in cols] + [field.canon(
                    {c: _rand_scalar(rng, field) for c in cols})]
            want = all(not ech.reduce(v) for v in vectors)
            assert ech.covers(q, n) == want, (ech.pivots, q, n)
            seen[want] += 1
    assert min(seen.values()) > 100


def _orthogonal_unsplit(field, rows, n):
    """orthogonal as it read S^perp before single-entry rows were taken
    apart: every row through rref_rows, then one free vector per free
    column, its entries taken from the basis rows in pivot order."""
    last = n - 1
    basis = rref_rows(field, rows)
    pivots = {min(row) for row in basis}
    free = {c: {last - c: field.one}
            for c in range(last, -1, -1) if c not in pivots}
    for row in basis:
        q = min(row)
        for c, v in row.items():
            if c != q:
                free[c][last - q] = field.neg(v)
    return list(free.values())


@pytest.mark.parametrize("field", [QQ, Field(2), Field(101)],
                         ids=["Q", "F2", "F101"])
def test_orthogonal_single_entry_rows_match_the_kernel_route(field):
    """orthogonal strikes the columns of single-entry rows from the other
    rows before rref_rows.  On unit-rich inputs its output equals the
    reduced basis of the kernel, entries and value types, and the
    unsplit route's output, key order too: single entries other than 1
    (F_101 residues, Q Fractions), a unit column other rows also hold,
    repeated unit rows, a row that is single-entry only once struck, an
    all-unit input, and single entries that are zero, which are zero
    rows and put no pivot in."""
    n = 7
    one = field.one
    a = Fraction(-3, 4) if not field.char else field.char - 1
    b = Fraction(5, 2) if not field.char else 1
    fixed = [
        [{2: a}, {0: b, 2: one, 5: a}, {2: one, 4: b}],
        [{1: a}, {1: a}, {1: one}, {0: one, 1: b, 3: one}],
        # {3: a, 6: one} is single-entry at column 3 once 6 is struck
        [{6: b}, {3: a, 6: one}, {0: one, 3: one, 5: b}],
        [{k: a if k % 2 else b} for k in range(n)],
        [{k: one} for k in (0, 3, 4)],
        [{2: 0}, {0: one, 2: one}, {5: 0}, {4: b}],
        [{2: 0}],
    ]
    rng = random.Random(71)
    randomized = []
    for _ in range(80):
        rows = [{rng.randrange(n): _rand_scalar(rng, field) or one}
                for _ in range(rng.randint(0, 6))]
        rows += [_rand_sparse(rng, field, n, rng.choice([.3, .6]))
                 for _ in range(rng.randint(0, 3))]
        rng.shuffle(rows)
        randomized.append([field.canon(row) if len(row) > 1 else row
                           for row in rows])
    for rows in fixed + randomized:
        reversed_rows = reversed_columns(rows, n)
        got = orthogonal(field, reversed_rows, n)
        columns = [field.canon({k: row[i] for k, row in enumerate(rows)
                                if i in row}) for i in range(n)]
        assert [_typed(w) for w in got] == \
            [_typed(w) for w in rref_rows(field, kernel(field, columns))]
        assert [list(_typed(w).items()) for w in got] == \
            [list(_typed(w).items())
             for w in _orthogonal_unsplit(field, reversed_rows, n)]
    # zero single entries are no units: {2: 0} alone leaves all of F^n
    assert orthogonal(field, [{2: 0}], 3) == [{k: one} for k in range(3)]


def test_orthogonal_edge_cases():
    def perp(field, rows, n):
        return orthogonal(field, reversed_columns(rows, n), n)

    # the rows come in reversed columns: column 2 of 3 is coordinate 0
    assert orthogonal(Field(2), [{2: 1}], 3) == [{1: 1}, {2: 1}]
    assert reversed_columns([{0: 5, 2: 7}, {}], 3) == [{2: 5, 0: 7}, {}]
    for field in (QQ, Field(2), Field(101)):
        units = [{k: 1} for k in range(4)]
        # no rows, or zero rows only: all of F^n
        assert perp(field, [], 4) == units
        assert perp(field, [{}, {}], 4) == units
        assert perp(field, [], 0) == []
        # full rank: nothing
        assert perp(field, units, 4) == []
        assert perp(field, [{0: 1, 1: 1}, {1: 1}, {2: 1, 3: 1},
                            {3: 1}], 4) == []
    # over F_2, (1, 1, 0)^perp is spanned by (1, 1, 0) itself and e_2
    assert perp(Field(2), [{0: 1, 1: 1}], 3) == [{0: 1, 1: 1}, {2: 1}]
    # rows holding Fractions: (1/2, 1/3)^perp is the line of (1, -3/2)
    got = perp(QQ, [{0: Fraction(1, 2), 1: Fraction(1, 3)}], 2)
    assert got == [{0: 1, 1: Fraction(-3, 2)}]
    assert [_typed(w) for w in got] == [{0: (int, 1),
                                         1: (Fraction, Fraction(-3, 2))}]
    got = perp(QQ, [{1: Fraction(2, 3), 2: 4}, {0: Fraction(1, 5)}], 3)
    assert got == [{1: 1, 2: Fraction(-1, 6)}]
    assert type(got[0][1]) is int


def test_every_kernel_is_read_as_an_orthogonal():
    """kernel() lives in the tests only, as the reference, the graded
    verifiers share one check, and one membership test serves every
    verifier: is_a_modification is left as the one caller of same_span in
    the package.  All three presentation checks share one rank test,
    apolarity._Held.generated_by: no graded verifier builds a _Span or
    reads a multiplication table itself."""
    import macdual.apolarity as apolarity
    import macdual.constructions as constructions
    import macdual.decomposition as decomposition
    import macdual.linalg as linalg
    for module in (linalg, apolarity, decomposition, constructions):
        assert not hasattr(module, "kernel")
    assert not hasattr(apolarity, "same_span")
    assert not hasattr(decomposition, "same_span")
    assert decomposition._verify_graded is apolarity._verify_graded
    assert not hasattr(apolarity, "_graded_dims")
    for fn in (apolarity.verify_ideal_presentation, apolarity._verify_graded):
        assert "generated_by" in fn.__code__.co_names
    for fn in (apolarity.verify_graded_presentation, apolarity._verify_graded,
               decomposition.verify_graded_ideal):
        names = fn.__code__.co_names
        assert "_Span" not in names and "multiplication_tables" not in names
    # membership has one route, linalg.coordinates: no pairing against
    # R o f and no contraction g o f
    assert not hasattr(apolarity, "_pair_to_zero")
    assert not hasattr(apolarity, "contract")
    assert apolarity.coordinates is linalg.coordinates


# ---------------------------------------------------------------------------
# the per-format elimination loops against element-by-element arithmetic

def ref_axpy(field, out, c, v):
    """out += c*v entry by entry through Field.add/mul, zeros popped."""
    if field.is_zero(c):
        return out
    for k, a in v.items():
        s = field.add(out.get(k, 0), field.mul(c, a))
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


class RefEchelon:
    """Forward echelon with every scalar operation through the Field: the
    rows, pivots, witnesses and remainders the fast loops must reproduce."""

    def __init__(self, field, normalized=False):
        self.field = field
        self.rows, self.wits, self.pivots = [], [], []
        self.ffree = field.char == 0 and not normalized

    def reduce(self, vec, wit=None):
        f = self.field
        v = {k: a for k, a in vec.items() if not f.is_zero(a)}
        if self.ffree:
            den = lcm(1, *(Fraction(a).denominator for a in v.values()))
            v = {k: int(a * den) for k, a in v.items()}
        while True:
            hits = [k for k in v if k in self.pivots]
            if not hits:
                return v
            p = min(hits)
            i = self.pivots.index(p)
            row = self.rows[i]
            if self.ffree:
                g = gcd(row[p], v[p])
                v = ref_axpy(f, {k: row[p] // g * x for k, x in v.items()},
                             -(v[p] // g), row)
            else:
                c = f.neg(v[p])
                ref_axpy(f, v, c, row)
                if wit is not None:
                    ref_axpy(f, wit, c, self.wits[i])

    def insert(self, vec, wit=None):
        f = self.field
        v = self.reduce(vec, wit)
        if not v:
            return None
        p = min(v)
        if self.ffree:
            g = 0
            for a in v.values():
                g = gcd(g, a)
            v = {k: a // g * (1 if v[p] > 0 else -1) for k, a in v.items()}
        else:
            c = f.inv(v[p])
            v = {k: f.mul(c, a) for k, a in v.items()}
            if wit is not None:
                for k in wit:
                    wit[k] = f.mul(c, wit[k])
        i = sum(q < p for q in self.pivots)
        self.rows.insert(i, v)
        self.wits.insert(i, wit)
        self.pivots.insert(i, p)
        return v


def _rand_scalar(rng, field, ints=False):
    if field.char:
        return rng.choice([1, field.char - 1, rng.randrange(field.char)])
    if ints or rng.random() < .7:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _rand_sparse(rng, field, ncols, density, ints=False):
    """Canonical sparse vector; ints only for fraction-free rows."""
    return field.canon({k: _rand_scalar(rng, field, ints)
                        for k in range(ncols) if rng.random() < density})


def _typed(d):
    """Values with their types, so 2 and Fraction(2) differ."""
    return {k: (type(a), a) for k, a in d.items()}


LOOP_FIELDS = [(Field(2), True), (Field(101), True), (Field(2**61 - 1), True),
               (QQ, False), (QQ, True)]
LOOP_IDS = ["F2", "F101", "F61", "Q-fraction-free", "Q-normalized"]


@pytest.mark.parametrize("field,normalized", LOOP_FIELDS, ids=LOOP_IDS)
def test_vec_axpy_matches_reference(field, normalized):
    rng = random.Random(field.char % 997 + normalized)
    ints = not normalized  # the rows of a fraction-free echelon
    for _ in range(300):
        v = _rand_sparse(rng, field, 12, .5, ints)
        out = _rand_sparse(rng, field, 12, .5, ints)
        c = _rand_scalar(rng, field, ints)
        if rng.random() < .3 and v and c != 0:
            # out = -c*v on some columns, so those entries cancel
            for k in rng.sample(sorted(v), rng.randint(1, len(v))):
                out[k] = field.neg(field.mul(c, v[k]))
        want = ref_axpy(field, dict(out), c, v)
        got = vec_axpy(field, dict(out), c, v)
        assert _typed(got) == _typed(want)
        assert 0 not in got.values()


def _pivot_one(field, row, d):
    """d divided by the pivot entry of row, in canonical elements."""
    c = row[min(row)]
    return {k: field.fraction(a, c) for k, a in d.items()}


@pytest.mark.parametrize("field,normalized", LOOP_FIELDS, ids=LOOP_IDS)
def test_echelon_matches_reference(field, normalized):
    """Rows, pivots and remainders equal the reference's.  With witnesses
    ("normalized"), at columns ncols + i in Echelon and apart in the
    reference, a stored row divided by its pivot entry equals the
    normalized reference's row and witness, and project() its remainder;
    over F_p the division is by one and project() is reduce()."""
    rng = random.Random(field.char % 991 + 7 * normalized)
    one = field.one
    for _ in range(40):
        ncols = rng.randint(1, 10)
        ech, ref = Echelon(field), RefEchelon(field, normalized)
        vecs = [_rand_sparse(rng, field, ncols, rng.choice([.2, .5, .9]))
                for _ in range(rng.randint(2, 14))]
        # dependent inputs, so reductions cancel down to zero
        for _ in range(len(vecs) // 3):
            a, b = rng.sample(range(len(vecs)), 2)
            vecs.append(ref_axpy(field, dict(vecs[a]),
                                 _rand_scalar(rng, field), vecs[b]))
        rng.shuffle(vecs)
        for i, v in enumerate(vecs):
            if normalized:
                wb = {i: one}
                got = ech.project(_augment(v, {i: one}, ncols))
                assert _typed(got) == \
                    _typed(_augment(ref.reduce(v, wb), wb, ncols))
                _insert_augmented(ech, _augment(v, {i: one}, ncols), ncols)
                ref.insert(v, {i: one})
            else:
                assert _typed(ech.reduce(v)) == _typed(ref.reduce(v))
                ech.insert(v)
                ref.insert(v)
            assert ech.pivots == ref.pivots
            if normalized:
                assert [_typed(_pivot_one(field, r, r)) for r in ech.rows] \
                    == [_typed(_augment(r, w, ncols))
                        for r, w in zip(ref.rows, ref.wits)]
            else:
                assert list(map(_typed, ech.rows)) == \
                    list(map(_typed, ref.rows))
        for d in ech.rows:
            assert 0 not in d.values()


@pytest.mark.parametrize("field", [QQ, Field(2), Field(101)],
                         ids=["Q", "F2", "F101"])
def test_seeded_echelon_matches_inserting_one_by_one(field):
    """Echelon(field, vectors), from a list or a generator, holds the rows
    and pivots that inserting the vectors one by one gives, and no column
    past the vectors' own.  insert neither changes nor stores the dict it
    is given, so callers pass rows they keep (a filtration's) without
    copying."""
    rng = random.Random(field.char + 29)
    for empty in ([], iter(())):
        ech = Echelon(field, empty)
        assert (ech.rows, ech.pivots) == ([], [])
    for _ in range(60):
        ncols = rng.randint(1, 10)
        vecs = [_rand_sparse(rng, field, ncols, rng.choice([.2, .5, .9]))
                for _ in range(rng.randint(1, 12))]
        for _ in range(len(vecs) // 2):     # dependent inputs
            a, b = rng.choice(vecs), rng.choice(vecs)
            vecs.append(vec_axpy(field, dict(a), _rand_scalar(rng, field), b))
        rng.shuffle(vecs)
        before = list(map(_typed, vecs))
        one_by_one = Echelon(field)
        for v in vecs:
            one_by_one.insert(v)
        for seeded in (Echelon(field, vecs), Echelon(field, iter(vecs))):
            assert list(map(_typed, seeded.rows)) == \
                list(map(_typed, one_by_one.rows))
            assert seeded.pivots == one_by_one.pivots
            assert all(max(row) < ncols for row in seeded.rows)
            assert not any(row is v for row in seeded.rows for v in vecs)
        assert list(map(_typed, vecs)) == before


@pytest.mark.parametrize("field", [QQ, Field(2), Field(101)],
                         ids=["Q", "F2", "F101"])
def test_project_matches_normalized_reference(field):
    """project() is the normalized reference's reduce(): the remainder and
    the witness, values with their types, for int and Fraction inputs and
    witnesses, with and without a witness of the projected vector.  Echelon
    carries each witness at columns ncols + k, the reference apart.  The
    echelon is left as it was."""
    rng = random.Random(59 + field.char)
    for _ in range(60):
        ncols = rng.randint(1, 10)
        ech, ref = Echelon(field), RefEchelon(field, True)
        for i in range(rng.randint(0, 9)):
            v = _rand_sparse(rng, field, ncols, rng.choice([.2, .5, .9]))
            if i and rng.random() < .3:     # a dependent input
                v = ref_axpy(field, dict(v), _rand_scalar(rng, field),
                             _split(ech.rows[-1], ncols)[0]
                             if ech.rows else {})
            _insert_augmented(ech, _augment(v, {i: field.one}, ncols), ncols)
            ref.insert(v, {i: field.one})
        rows = [dict(r) for r in ech.rows]
        for _ in range(8):
            v = _rand_sparse(rng, field, ncols, rng.choice([.3, .7]))
            if rng.random() < .3 and ref.rows:   # lies in the span
                v = ref_axpy(field, {}, _rand_scalar(rng, field),
                             rng.choice(ref.rows))
            wb = {}
            got = ech.project(v)
            assert _typed(got) == \
                _typed(_augment(ref.reduce(v, wb), wb, ncols))
            # the projected vector's own witness, on keys 10.. no input has
            wa = _rand_sparse(rng, field, 3, .8)
            wa = {10 + k: a for k, a in wa.items()}
            wb = dict(wa)
            got = ech.project(_augment(v, wa, ncols))
            assert _typed(got) == \
                _typed(_augment(ref.reduce(v, wb), wb, ncols))
            assert 0 not in got.values()
        assert ech.rows == rows


# ---------------------------------------------------------------------------
# kernel() against the loop it replaced

def _entries(field, d):
    """d's entries with their types, in key order over Q.  Over F_p reduce
    drops cancelled entries only on return, so a key that cancels and
    comes back keeps its place, where the reference moves it to the end."""
    out = [(k, type(a), a) for k, a in d.items()]
    return out if field.char == 0 else sorted(out)


def kernel_normalized(field, images):
    """kernel() as it ran on a normalized echelon, one division per step:
    the reference for entries, key order and value types."""
    ech = RefEchelon(field, True)
    out = []
    for i, img in enumerate(images):
        wit = {i: field.one}
        if ech.insert(img, wit) is None:
            out.append(wit)
    return out


@pytest.fixture
def int_rows_only(monkeypatch):
    """Fails a test in which an Echelon over Q stores a row, witness
    columns included, holding anything but ints: Fraction arithmetic stays
    out of the echelon, confined to the divisions where values leave it."""
    store = Echelon.store
    count = []

    def checked(self, v):
        row = store(self, v)
        if self.field.char == 0:
            assert all(type(a) is int for a in row.values()), row
            count.append(1)
        return row
    monkeypatch.setattr(Echelon, "store", checked)
    return count


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
def test_kernel_matches_normalized_reference(field, int_rows_only):
    rng = random.Random(41)
    cases = []
    for _ in range(80):
        ncols = rng.randint(1, 9)
        images = [_rand_sparse(rng, field, ncols, rng.choice([.2, .5, .9]))
                  for _ in range(rng.randint(0, 12))]
        # zero images, repeated images and dependent combinations
        for _ in range(rng.randint(0, 5)):
            roll = rng.random()
            if roll < .3 or len(images) < 2:
                images.append({})
            elif roll < .6:
                images.append(dict(rng.choice(images)))
            else:
                a, b = rng.sample(images, 2)
                images.append(ref_axpy(field, dict(a),
                                       _rand_scalar(rng, field), b))
        rng.shuffle(images)
        cases.append((images, kernel_normalized(field, images)))

    for images, want in cases:
        got = kernel(field, images)
        assert [_entries(field, w) for w in got] == \
            [_entries(field, w) for w in want]
    assert int_rows_only or field.char


# ---------------------------------------------------------------------------
# lazy residues over F_p: long reductions against the reference

@pytest.mark.parametrize("p", [2, 3, 2**61 - 1], ids=["F2", "F3", "F61"])
def test_lazy_residues_match_reference(p):
    """Dense rows over 40+ columns and chains of dependent combinations,
    so one reduce walks many pivots and its unreduced entries pass p long
    before they are read; remainders, rows and witnesses (at columns
    ncols + i) still match the element-by-element reference exactly and
    come out canonical."""
    field = Field(p)
    rng = random.Random(p % 1009)
    for _ in range(6):
        ncols = rng.randint(40, 60)
        vecs = [_rand_sparse(rng, field, ncols, .9)
                for _ in range(rng.randint(20, 30))]
        # each link combines the previous one with an earlier input
        link = vecs[0]
        for _ in range(15):
            link = ref_axpy(field, ref_axpy(field, {}, rng.randrange(1, p),
                                            link),
                            _rand_scalar(rng, field), rng.choice(vecs))
            vecs.append(link)
        rng.shuffle(vecs)
        ech, ref = Echelon(field), RefEchelon(field, True)
        for i, v in enumerate(vecs):
            wb = {i: 1}
            got = ech.reduce(_augment(v, {i: 1}, ncols))
            assert _typed(got) == _typed(_augment(ref.reduce(v, wb), wb,
                                                  ncols))
            assert all(0 < a < p for a in got.values())
            _insert_augmented(ech, _augment(v, {i: 1}, ncols), ncols)
            ref.insert(v, {i: 1})
        assert ech.dim >= 20 and ech.dim < len(vecs)
        assert ech.pivots == ref.pivots
        assert list(map(_typed, ech.rows)) == \
            [_typed(_augment(r, w, ncols)) for r, w in zip(ref.rows, ref.wits)]
        for d in ech.rows:
            assert all(0 < a < p for a in d.values())


# ---------------------------------------------------------------------------
# rref_rows against the normalized loop it replaced

def rref_rows_normalized(field, vectors):
    """rref_rows as it ran on a normalized echelon, back-substituting in
    field arithmetic: the reference for entries, key order and value
    types."""
    ech = RefEchelon(field, True)
    for v in vectors:
        ech.insert(v)
    rows = [dict(r) for r in ech.rows]
    for i in range(len(rows) - 1, -1, -1):
        p = ech.pivots[i]
        for k in range(i):
            c = rows[k].get(p)
            if c is not None and not field.is_zero(c):
                vec_axpy(field, rows[k], field.neg(c), rows[i])
    return rows


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F101"])
def test_rref_rows_matches_normalized_reference(field, int_rows_only):
    rng = random.Random(43)
    cases = []
    for _ in range(80):
        ncols = rng.randint(1, 12)
        vecs = [_rand_sparse(rng, field, ncols, rng.choice([.2, .5, .9]))
                for _ in range(rng.randint(0, 12))]
        # zero vectors, repeats and dependent combinations
        for _ in range(rng.randint(0, 5)):
            roll = rng.random()
            if roll < .3 or len(vecs) < 2:
                vecs.append({})
            elif roll < .6:
                vecs.append(dict(rng.choice(vecs)))
            else:
                a, b = rng.sample(vecs, 2)
                vecs.append(ref_axpy(field, dict(a),
                                     _rand_scalar(rng, field), b))
        rng.shuffle(vecs)
        cases.append((vecs, rref_rows_normalized(field, vecs)))

    for vecs, want in cases:
        got = rref_rows(field, vecs)
        assert [_entries(field, r) for r in got] == \
            [_entries(field, r) for r in want]
    assert int_rows_only or field.char


def test_echelon_rows_hold_ints_over_q_end_to_end(int_rows_only, capsys):
    """The int-rows guard over the README examples over Q, the paper corpus,
    and normalize, detect_exotic and restricted_components on random forms
    over Q: every Echelon these build keeps ints only."""
    import test_golden
    from macdual.cli import main
    from macdual.constructions import (ExtensionSpec, random_form,
                                       random_poly, restricted_components)
    from macdual.normalform import detect_exotic, normalize

    for argv, expected in test_golden.CASES:
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == expected
    corpus = Path(__file__).resolve().parent.parent / "corpus" / "paper.corpus"
    assert main(["verify", str(corpus), "--jobs", "1"]) == 0
    capsys.readouterr()
    rng = random.Random(61)
    for r in (2, 3):
        ring = RingSpec(("X", "Y", "Z")[:r], QQ)
        for _ in range(4):
            f = random_poly(ring, rng.randint(3, 5), rng)
            normalize(f)
            detect_exotic(f)
        j = 5
        hs = [random_form(ring, 3, rng, 5), random_form(ring, 2, rng, 5)]
        restricted_components(ExtensionSpec(random_form(ring, j, rng, 5),
                                            hs, ("U1", "U2")))
    assert len(int_rows_only) > 1000


# ---------------------------------------------------------------------------
# integer intake over Q: primitive() and the one-pass scaling in reduce

def test_primitive_random():
    """Integer entries with content one, on the same line as v by a
    positive factor, so the span and the signs are kept."""
    rng = random.Random(47)
    for _ in range(300):
        v = _rand_sparse(rng, QQ, 10, rng.choice([.2, .5, .9]))
        if rng.random() < .3:  # a common factor for the gcd to take out
            c = rng.randint(2, 30)
            v = {k: c * a for k, a in v.items()}
        w = primitive(v)
        assert w.keys() == v.keys()
        assert all(type(a) is int for a in w.values())
        if not v:
            continue
        assert _content(w) == 1
        k0 = min(v)
        c = Fraction(w[k0]) / v[k0]
        assert c > 0 and all(w[k] == c * a for k, a in v.items())
        assert same_span(QQ, [v], [w])
    assert primitive({0: 4, 3: -6}) == {0: 2, 3: -3}
    assert primitive({1: Fraction(1, 2), 2: Fraction(-1, 3), 5: 2}) == \
        {1: 3, 2: -2, 5: 12}
    assert primitive({0: Fraction(3), 4: -7}) == {0: 3, 4: -7}


def clear_denominators_reference(v):
    """reduce()'s intake as it ran in two passes: zeros dropped by one,
    then every entry tested for a Fraction and the vector scaled by the lcm
    of the denominators.  Returns the scaled vector and the lcm."""
    v = {k: a for k, a in v.items() if a != 0}
    den, frac = 1, False
    for a in v.values():
        if isinstance(a, Fraction):
            den, frac = lcm(den, a.denominator), True
    if frac:
        v = {k: int(a * den) for k, a in v.items()}
    return v, den


def test_one_pass_intake_matches_reference():
    """Mixed int and Fraction input with zeros of both types, carrying a
    witness at columns 100 and 101: the remainder, witness columns
    included, equals that of the two-pass intake, and holds ints only."""
    rng = random.Random(53)
    for _ in range(150):
        ncols = rng.randint(1, 10)
        ech = Echelon(QQ)
        for i in range(rng.randint(0, 6)):
            ech.insert(_rand_sparse(rng, QQ, ncols, .6))
        vec = {k: _rand_scalar(rng, QQ) for k in range(ncols)
               if rng.random() < .7}
        for k in rng.sample(range(ncols), rng.randint(0, min(2, ncols))):
            vec[k] = rng.choice([0, Fraction(0)])
        vec.update({100: 1, 101: 3})
        v0, den = clear_denominators_reference(vec)
        assert v0[100] == den and v0[101] == 3 * den
        want = ech.reduce(v0)
        got = ech.reduce(vec)
        assert _typed(got) == _typed(want)
        assert all(type(a) is int for a in got.values())
    # alone, the intake is the scaling by the lcm, zeros dropped
    assert Echelon(QQ).reduce(
        {0: Fraction(1, 2), 1: 0, 2: 3, 3: Fraction(0), 4: Fraction(-5, 3),
         10: 1, 11: -2}) == {0: 3, 2: 18, 4: -10, 10: 6, 11: -12}
