"""Coordinate changes of R and their adjoint action on D: adapted local
parameters, removal of exotic summands from a dual generator, and splitting
off quadric connected summands.

For an automorphism sigma of R the adjoint xi on D is the linear map with

    <h, xi(F)>  =  <sigma^{-1}(h), F>      (the apolarity pairing),

so concretely the coefficient of xi(F) on X^[alpha] is the constant term of
sigma^{-1}(x^alpha) o F, and xi never raises degree.  With adapted local
parameters w_i (so sigma(w_i) = x_i, i.e. sigma^{-1}(x_i) = w_i) chosen so
that the classes of w_{n_{a-1}+1..n_a} span the degree-one piece of Q(a),
the image g = xi(f) has g_{j-a} in the first n_a variables for every a: no
exotic summands remain.  A split works in f's ring, and its change xi
reproduces the split generator embedded there.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import sub
from typing import NamedTuple

from .apolarity import PartialFiltration, filtration
from .decomposition import symmetric_decomposition
from .errors import DomainError, InternalCheckError
from .linalg import Echelon, matrix_inverse, rref_rows, vec_axpy
from .poly import (DPPoly, PSElement, RingSpec, check_image_budget,
                   linear_part_inverse, linear_substitute, pairing,
                   ps_compose_all, ps_compose_inverse, variable_series)


# ---------------------------------------------------------------------------
# coordinate changes and the adjoint action

class CoordChange:
    """An automorphism sigma of R, defined by its inverse images
    w_i = sigma^{-1}(x_i) truncated to degree N: these alone give the adjoint
    action on D_{<= N-1}.  The w_i lie in m with independent linear parts
    (checked on construction), so sigma exists.

    The forward images sigma(x_i) are derived: pass them as ``images`` and
    the pair is checked against sigma o sigma^{-1} = id at once; pass None
    and ``images`` is computed on first read by inverting the series, then
    checked the same way."""

    __slots__ = ("ring", "trunc", "inv_images", "_images")

    def __init__(self, ring: RingSpec, images, inv_images, trunc: int):
        self.ring = ring
        self.trunc = trunc
        self.inv_images = list(inv_images)
        if images is None:
            linear_part_inverse(self.inv_images)
            self._images = None
        else:
            self._images = list(images)
            self._check_inverse(self._images)

    def _check_inverse(self, images):
        got = ps_compose_all(self.inv_images, images, self.trunc)
        for i in range(self.ring.r):
            if got[i] != variable_series(self.ring, i, self.trunc):
                raise InternalCheckError("sigma o sigma^{-1} is not the "
                                         "identity modulo truncation")

    @property
    def images(self) -> list:
        """sigma(x_i), truncated to degree N."""
        if self._images is None:
            images = ps_compose_inverse(self.inv_images, self.trunc)
            self._check_inverse(images)
            self._images = images
        return self._images

    # -- constructors -----------------------------------------------------------

    @classmethod
    def identity(cls, ring: RingSpec, trunc: int) -> "CoordChange":
        xs = [variable_series(ring, i, trunc) for i in range(ring.r)]
        return cls(ring, xs, list(xs), trunc)

    @classmethod
    def from_images(cls, images, trunc: int) -> "CoordChange":
        ring = images[0].ring
        inv = ps_compose_inverse(images, trunc)
        return cls(ring, images, inv, trunc)

    @classmethod
    def from_inverse_images(cls, inv_images, trunc: int) -> "CoordChange":
        """Build sigma from the adapted parameters w_i = sigma^{-1}(x_i)."""
        return cls(inv_images[0].ring, None, inv_images, trunc)

    @classmethod
    def from_dual_linear(cls, ring: RingSpec, A, trunc: int) -> "CoordChange":
        """The change whose adjoint is the linear substitution X_i -> column
        i of A on D; A must be an invertible r x r matrix."""
        if len(A) != ring.r:
            raise DomainError("substitution matrix is not r x r")
        Ainv = matrix_inverse(A, ring.field)
        units = ring.monomials(1)

        def lin(mat, i):
            return PSElement(ring, dict(zip(units, mat[i])), trunc)

        # adjoint = subst_A exactly when sigma^{-1}(x_i) = sum_k A[i][k] x_k
        inv_images = [lin(A, i) for i in range(ring.r)]
        images = [lin(Ainv, i) for i in range(ring.r)]
        return cls(ring, images, inv_images, trunc)

    def compose(self, other: "CoordChange") -> "CoordChange":
        """self o other (so the adjoints compose the same way), a lazy
        change with inverse images w_i(other.inv_images) for self's w_i."""
        self.ring.check_same(other.ring)
        N = min(self.trunc, other.trunc)
        inv = ps_compose_all(self.inv_images, other.inv_images, N)
        return CoordChange(self.ring, None, inv, N)

    # -- the adjoint --------------------------------------------------------------

    def adjoint_apply(self, F: DPPoly) -> DPPoly:
        """xi(F): coefficient on X^[alpha] is (w^alpha o F)(0) for the
        inverse images w; never raises degree.  The contractions
        w_0^{a_0} ... w_i^{a_i} o F form a tree over i, each node one more
        w_i o g.  A term X^[m] of g meets w_i only at the divisors b of m,
        giving w_i[b] X^[m-b], so each contraction walks g's terms through
        the ring's divisor table; w_i is dense, and g often sparse.  A
        one-term w_i = c x^b needs no table: it shifts each X^[m] with
        b <= m to c X^[m-b]."""
        F.ring.check_same(self.ring)
        if F.is_zero:
            return F
        j = F.degree
        if j > self.trunc - 1:
            raise DomainError("truncation too small for this degree")
        ring = self.ring
        canon = ring.field.canon
        divisors = ring.divisor_table(j)
        ws = [w.coeffs for w in self.inv_images]
        zero_mon = ring.r * (0,)
        out: dict = {}

        def rec(i, g, alpha, used):
            # g: canonical coefficients of w_0^{a_0}...w_{i-1}^{a_{i-1}} o F
            if i == ring.r:
                c = g.get(zero_mon)
                if c is not None:
                    out[alpha] = c
                return
            shift = next(iter(ws[i].items())) if len(ws[i]) == 1 else None
            w = ws[i].get
            e = 0
            while True:
                rec(i + 1, g, alpha + (e,), used + e)
                e += 1
                if used + e > j:
                    return
                acc: dict = {}
                if shift is not None:
                    s, k = shift
                    for m, a in g.items():
                        q = tuple(map(sub, m, s))
                        if min(q) >= 0:
                            acc[q] = k * a
                else:
                    get = acc.get
                    for m, a in g.items():
                        pairs = iter(divisors[m])
                        for b, q in zip(pairs, pairs):
                            c = w(b)
                            if c is not None:
                                acc[q] = get(q, 0) + c * a
                g = canon(acc)
                if not g:
                    return

        rec(0, F.coeffs, (), 0)
        return DPPoly(ring, out)


def adjoint_apply(sigma: CoordChange, F: DPPoly) -> DPPoly:
    return sigma.adjoint_apply(F)


# ---------------------------------------------------------------------------
# adapted coordinates

class AdaptedFrame(NamedTuple):
    """Local parameters w_1..w_r arranged so the block at level a spans the
    degree-one piece of Q(a); padding rows (annihilator directions) carry
    level None."""

    parameters: list
    levels: list
    n_seq: tuple
    change: CoordChange


def _store_below(ech: Echelon, vec: dict, n: int):
    """Reduce vec by ech and store the remainder when its first column is
    below n, the first witness column; returns the row or None."""
    rem = ech.reduce(vec)
    return ech.store(rem) if rem and min(rem) < n else None


def _witnessed_square_space(P: PartialFiltration, xs: list, widx: dict):
    """m^2 o f, each row carrying an element of m^2 contracting f to it:
    x^m at column n + widx[m], past the n columns of P.dindex.  xs holds
    the vectors of x_i o f; a row shifts by x_i by contraction on its real
    columns and by multiplication, truncated, on the others."""
    ring = P.ring
    n = len(P.dindex)
    downs = ring.contraction_tables(P.j)
    tabs = [{**down, **{n + a: n + b for a, b in up.items()}} for down, up
            in zip(downs, ring.multiplication_tables(P.j + 2))]
    ech = Echelon(ring.field)
    pending = []
    for m in ring.monomials(2):
        i, k = (v for v, e in enumerate(m) for _ in range(e))
        vec = {downs[i][c]: a for c, a in xs[k].items() if c in downs[i]}
        vec[n + widx[m]] = ring.field.one
        row = _store_below(ech, vec, n)
        if row is not None:
            pending.append(row)
    while pending:
        row = pending.pop()
        for tab in tabs:
            row_up = _store_below(ech, {tab[c]: a for c, a in row.items()
                                        if c in tab}, n)
            if row_up is not None:
                pending.append(row_up)
    return ech


def adapted_coordinates(f: DPPoly | PartialFiltration) -> AdaptedFrame:
    """Find w_1..w_r in m with independent linear parts such that w o f has
    degree at most j-a-1 for the level-a parameters (and at most 0 for the
    padding), then the constant of every w o f is cleared so the adjoint
    image of f carries no degree-one debris.  f is the dual generator or
    its PartialFiltration."""
    P = filtration(f)
    return _adapted_frame(P, symmetric_decomposition(P).n_seq)


def _adapted_frame(P: PartialFiltration, n_seq: tuple) -> AdaptedFrame:
    """adapted_coordinates of P.f, its levels checked against the
    codimension sequence n_seq of P's symmetric decomposition.  Each vector
    carries its element of R, x^m at column n + widx[m] past the n columns
    of P.dindex (so x_i at n + 1 + i), truncated at degree j + 2 as the
    parameters are; every value read off is scale-free."""
    f = P.f
    ring = P.ring
    field = ring.field
    j = P.j
    n = len(P.dindex)
    # refused here, before C(r+j+2, r) columns past the budget are listed
    check_image_budget(ring.r, j + 1)
    widx = ring.rmon_index(j + 2)
    mon_at = {n + c: m for m, c in widx.items()}
    fvec = f.vector(P.dindex)
    xs_contr = [{tab[c]: a for c, a in fvec.items() if c in tab}
                for tab in ring.contraction_tables(j)]
    sq = _witnessed_square_space(P, xs_contr, widx)
    # an element of m^2 contracting f to the constant 1 (exists once j >= 2):
    # reducing the constant -1 into the witness columns leaves it there
    const_killer = sq.project({P.dindex[ring.r * (0,)]: field.neg(field.one)})
    if min(const_killer) < n:
        const_killer = None

    # the padding cut: 0, or -1 (w o f = 0) at j = 1, where level 0 cuts at 0
    cuts = [j - a - 1 for a in range(max(j - 1, 1))] + [min(j - 2, 0)]
    # At a cut, a variable whose x_i o f cut to its degrees above the cut
    # (the columns below top: P.dindex runs from degree j down) lies in the
    # span of the cut m^2 o f and the accepted x_k o f gives a kernel
    # direction w = x_i - psi.  top only rises, so S grows by the rows of sq
    # whose pivot falls below it, stored whole.  Cutting [top, n) away is
    # linear and no pivot of S lies there, so it takes the remainder modulo
    # S to the unique one modulo the cut rows.  A holds the accepted rows.
    S = Echelon(field)
    stages = []              # per cut: the parameters, pivots on x_1..x_r
    for cut in cuts:
        top = n - comb(ring.r + cut, ring.r)
        while S.dim < sq.dim and sq.pivots[S.dim] < top:
            S.store(sq.rows[S.dim])
        A = Echelon(field)
        stage = Echelon(field)
        for i in range(ring.r):
            w = A.project({c: x for c, x in S.project(
                {**xs_contr[i], n + 1 + i: field.one}).items()
                if c < top or c >= n})
            if min(w) < n:
                A.insert(w)
                continue
            if const_killer is not None:
                ct = pairing(PSElement(ring, {mon_at[k]: c for k, c
                                              in w.items()}, j + 2), f)
                if ct:
                    vec_axpy(field, w, field.neg(ct), const_killer)
            _store_below(stage, w, n + 1 + ring.r)
        stages.append(stage)

    # a cut's rows whose pivots the next cut lacks are its level's
    # parameters, scaled to pivot one; the last cut is the padding
    parameters, levels = [], []
    for lev, (cur, nxt) in enumerate(zip(stages,
                                         stages[1:] + [Echelon(field)])):
        for p, row in zip(cur.pivots, cur.rows):
            if p not in nxt.pivots:
                parameters.append(PSElement(
                    ring, {mon_at[k]: field.fraction(c, row[p])
                           for k, c in row.items()}, j + 2))
                levels.append(lev if lev + 1 < len(cuts) else None)
    if len(parameters) != ring.r:
        raise InternalCheckError("adapted parameters do not span")
    if tuple(accumulate(map(levels.count, range(len(cuts) - 1)))) != n_seq:
        raise InternalCheckError("adapted levels disagree with the "
                                 "decomposition codimension sequence")
    change = CoordChange.from_inverse_images(parameters, j + 2)
    return AdaptedFrame(parameters, levels, n_seq, change)


# ---------------------------------------------------------------------------
# exotic summands

class ExoticReport:
    __slots__ = ("n_seq", "adapted_basis", "witness_levels", "exotic_terms",
                 "exotic_adapted")

    def __init__(self, n_seq: tuple, adapted_basis: list,
                 witness_levels: list, exotic_terms: list,
                 exotic_adapted: dict | None = None):
        self.n_seq = n_seq
        # linear DPPolys spanning D_1, and the level a of each (or None)
        self.adapted_basis = adapted_basis
        self.witness_levels = witness_levels
        # [(degree, DPPoly in original coords)]
        self.exotic_terms = exotic_terms
        self.exotic_adapted = {} if exotic_adapted is None else exotic_adapted

    @property
    def has_exotic(self) -> bool:
        return bool(self.exotic_terms)


def detect_exotic(f: DPPoly | PartialFiltration) -> ExoticReport:
    """Split each graded piece f_{j-a} into its part in the first n_a
    adapted dual variables and the exotic remainder; f is the dual
    generator or its PartialFiltration.

    The adapted basis of D_1 lists, level by level, leading terms of
    degree-one partials of order j-a-1 (padded to a full basis); a term of
    f_{j-a} is exotic when it involves a basis vector past the first n_a.
    """
    P = filtration(f)
    f = P.f
    ring = P.ring
    field = ring.field
    j = P.j
    mons1 = ring.monomials(1)
    ech = Echelon(field)
    basis_vecs = []
    levels = []
    for a in range(max(j - 1, 1)):
        for row in rref_rows(field, P.lt_rows(j - a - 1, 1)):
            if ech.insert(dict(row)):
                basis_vecs.append(row)
                levels.append(a)
    for i in range(ring.r):       # pad to a full basis
        if ech.insert({i: field.one}):
            basis_vecs.append({i: field.one})
            levels.append(None)
    n_seq = tuple(accumulate(levels.count(a) for a in range(max(j - 1, 1))))
    M = [[basis_vecs[i].get(k, field.zero) for i in range(ring.r)]
         for k in range(ring.r)]
    Minv = matrix_inverse(M, field)
    g = linear_substitute(f, Minv)
    exotic = []
    exotic_adapted = {}
    for a in range(max(j - 1, 1)):
        d = j - a
        allowed = n_seq[a]
        piece = g.homogeneous_component(d)
        bad = DPPoly(ring, {m: c for m, c in piece.coeffs.items()
                            if any(e and i >= allowed
                                   for i, e in enumerate(m))})
        if not bad.is_zero:
            exotic_adapted[d] = bad
            exotic.append((d, linear_substitute(bad, M)))
    adapted = [DPPoly.from_vector(ring, v, mons1) for v in basis_vecs]
    return ExoticReport(n_seq, adapted, levels, exotic, exotic_adapted)


def normalize(f: DPPoly | PartialFiltration):
    """The adjoint image g = xi(f) for the adapted coordinate change: the
    degree-(j-a) part of g lives in the first n_a variables for every a, so
    g has no exotic summands.  f is the dual generator or its
    PartialFiltration.  Returns (g, change)."""
    P = filtration(f)
    return _normal_form(P, symmetric_decomposition(P).n_seq)


def _normal_form(P: PartialFiltration, n_seq: tuple):
    """normalize(P), the frame checked against n_seq (see _adapted_frame)."""
    f = P.f
    frame = _adapted_frame(P, n_seq)
    g = frame.change.adjoint_apply(f).drop_constant()
    j = g.degree
    if j != f.degree:
        raise InternalCheckError("adjoint changed the socle degree")
    for a in range(max(j - 1, 1)):
        allowed = frame.n_seq[a]
        for m in g.homogeneous_component(j - a).coeffs:
            if any(e and i >= allowed for i, e in enumerate(m)):
                raise InternalCheckError(
                    "normal form keeps an exotic term in degree %d" % (j - a))
    return g, frame.change


# ---------------------------------------------------------------------------
# splitting off a quadric connected summand

class SplitResult(NamedTuple):
    summand_main: DPPoly       # over the leading block of variables
    summand_quadric: DPPoly    # over the trailing block
    ring: RingSpec             # f's ring cut to its first n_{j-2} variables
    change: CoordChange        # in f's ring: xi(f) = the split generator
    generator: DPPoly          # the split generator over `ring`


def _identity(n, field):
    return [[field.one if i == k else field.zero for k in range(n)]
            for i in range(n)]


def _congruent_diagonal(S, field):
    """P with P^T S P diagonal (symmetric Gaussian congruence, char != 2);
    returns (P, diagonal entries)."""
    n = len(S)
    S = [list(r) for r in S]
    P = _identity(n, field)

    def add_col(dst, src, c):
        for i in range(n):
            S[i][dst] = field.add(S[i][dst], field.mul(c, S[i][src]))
        for i in range(n):
            S[dst][i] = field.add(S[dst][i], field.mul(c, S[src][i]))
        for i in range(n):
            P[i][dst] = field.add(P[i][dst], field.mul(c, P[i][src]))

    def swap_col(a, b):
        for i in range(n):
            S[i][a], S[i][b] = S[i][b], S[i][a]
        for i in range(n):
            S[a][i], S[b][i] = S[b][i], S[a][i]
        for i in range(n):
            P[i][a], P[i][b] = P[i][b], P[i][a]

    for pos in range(n):
        if field.is_zero(S[pos][pos]):
            sel = next((l for l in range(pos + 1, n)
                        if not field.is_zero(S[l][l])), None)
            if sel is not None:
                swap_col(pos, sel)
            else:
                sel = next((l for l in range(pos + 1, n)
                            if not field.is_zero(S[pos][l])), None)
                if sel is not None:
                    add_col(pos, sel, field.one)  # needs char != 2
        if field.is_zero(S[pos][pos]):
            continue
        inv = field.inv(S[pos][pos])
        for l in range(pos + 1, n):
            if not field.is_zero(S[pos][l]):
                add_col(l, pos, field.neg(field.mul(inv, S[pos][l])))
    return P, [S[i][i] for i in range(n)]


def split_connected_summand(f: DPPoly | PartialFiltration) -> SplitResult:
    """When H(j-2) = (0, s, 0) and the characteristic is not two, rewrite f
    (up to isomorphism) as a sum of a generator in the leading variables and
    a rank-s quadric in the trailing s variables; f is the dual generator
    or its PartialFiltration.  The summands and the generator are returned
    over the first n_{j-2} variables, the embedding dimension."""
    field = f.ring.field
    if field.char == 2:
        raise DomainError("splitting needs characteristic not two")
    P = filtration(f)
    f = P.f
    ring = f.ring
    D = symmetric_decomposition(P)
    j = D.socle_degree
    if j < 3:
        raise DomainError("socle degree at least three is required")
    top = D.components[j - 2]
    s = top[1]
    if s < 1 or top != (0, s, 0):
        raise DomainError("H(j-2) must have the shape (0, s, 0)")
    g, sigma = _normal_form(P, D.n_seq)
    n = D.n_seq[j - 2]
    if any(i >= n for i in g.variables_used()):
        raise InternalCheckError("normal form uses a variable beyond the "
                                 "embedding dimension")
    first = n - s

    def decompose_quadric(gg):
        q = [[field.zero] * s for _ in range(s)]
        cross = [DPPoly(ring) for _ in range(s)]
        for m, c in gg.homogeneous_component(2).coeffs.items():
            tail_support = [i for i in range(first, n) if m[i]]
            if not tail_support:
                continue
            if len(tail_support) == 1 and m[tail_support[0]] == 2:
                i = tail_support[0] - first
                q[i][i] = c
            elif len(tail_support) == 1 and sum(m) == 2:
                i = tail_support[0] - first
                head = tuple(e if k < first else 0 for k, e in enumerate(m))
                cross[i] = cross[i] + DPPoly(ring, {head: c})
            elif len(tail_support) == 2:
                i, k = (t - first for t in tail_support)
                q[i][k] = c
                q[k][i] = c
            else:
                raise InternalCheckError("degree-two part has an impossible "
                                         "monomial after normalization")
        return q, cross

    q, cross = decompose_quadric(g)
    Pmat, diag = _congruent_diagonal(q, field)
    # substitution by A transforms the quadric matrix S to A S A^T, so the
    # congruence transform P (P^T S P diagonal) embeds transposed
    A1 = _identity(ring.r, field)
    for i in range(s):
        for k in range(s):
            A1[first + i][first + k] = Pmat[k][i]
    g = linear_substitute(g, A1)
    q, cross = decompose_quadric(g)
    for i in range(s):
        if field.is_zero(q[i][i]):
            raise InternalCheckError("degenerate quadric block after "
                                     "diagonalization")
        for k in range(s):
            if i != k and not field.is_zero(q[i][k]):
                raise InternalCheckError("diagonalization left a cross term")
    A2 = _identity(ring.r, field)
    for i in range(s):
        if cross[i].is_zero:
            continue
        c = field.neg(field.inv(q[i][i]))
        for m, coef in cross[i].coeffs.items():
            head_idx = next(k for k, e in enumerate(m) if e)
            A2[head_idx][first + i] = field.mul(c, coef)
    g = linear_substitute(g, A2)
    q, cross = decompose_quadric(g)
    if any(not c.is_zero for c in cross):
        raise InternalCheckError("cross terms survived completion")
    main = DPPoly(ring, {m: c for m, c in g.coeffs.items()
                         if not any(m[i] for i in range(first, n))})
    quad = DPPoly(ring, {m: c for m, c in g.coeffs.items()
                         if not any(m[i] for i in range(first))})
    if main + quad != g:
        raise InternalCheckError("split generator still mixes the blocks")
    lin1 = CoordChange.from_dual_linear(ring, A1, j + 2)
    lin2 = CoordChange.from_dual_linear(ring, A2, j + 2)
    total = lin2.compose(lin1).compose(sigma)
    if total.adjoint_apply(f).drop_constant() != g:
        raise InternalCheckError("witness change does not reproduce the "
                                 "split generator")
    sub = ring.subring(range(n))
    main, quad, g = (h.restrict(sub, range(n)) for h in (main, quad, g))
    return SplitResult(main, quad, sub, total, g)
