"""Independent ground-truth factorization over the rationals.

A polynomial in one variable is factored by Kronecker's search: rational
roots first, then factors of degree r = 2, 3, ... interpolated through
divisors of its values (_has_degree_factor).  A bivariate f is
specialised to f(v, t) at a few integers t, and one irreducible f(v, t)
proves f irreducible; otherwise the factors of a squarefree f(v, t) are
lifted (w - t)-adically modulo a prime power above twice Mignotte's
bound and recombined (P. S. Wang, Math. Comp. 32, 1978; von zur Gathen
and Gerhard, Modern Computer Algebra, ch. 15-16).  Every factor is
checked by exact division, and three guards bound the work: divisor
trials per value, divisor-tuple candidates per univariate
factorization, and recombination subsets per lift.

Exponential but exact, and deliberately independent of every
valuation-theoretic code path in this package: this is the oracle the
certificates are cross-checked against, at desk scale only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_CANDIDATE_LIMIT, ResourceLimitExceeded
from .exactnum import rational
from .multipoly import MultiPoly, grlex_key

WINDOW_EXTRA = 6  # points evaluated beyond the r+1 a degree-r search needs
SPECIALISATION_POINTS = 3  # points t tried per main variable
MAX_VARS = 2
MAX_TOTAL_DEGREE = 8


@dataclass
class FactorizationResult:
    """scalar * prod factors^multiplicities equals the input exactly."""

    scalar: Fraction  # an int when integral, as `rational` stores it
    factors: list  # (primitive MultiPoly with positive grlex lead, mult)

    @property
    def irreducible(self) -> bool:
        return (
            len(self.factors) == 1
            and self.factors[0][1] == 1
            and self.factors[0][0].degree() >= 1
        )

    def reconstruct(self, nvars: int) -> MultiPoly:
        f = MultiPoly.constant(nvars, self.scalar)
        for g, mult in self.factors:
            f = f * g ** mult
        return f


def brute_factor(f: MultiPoly,
                 guard: int = DEFAULT_CANDIDATE_LIMIT) -> FactorizationResult:
    """Exact factorization into rational irreducibles (desk scale)."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.nvars > MAX_VARS:
        raise ResourceLimitExceeded("oracle variable count", MAX_VARS, f.nvars)
    if f.degree() > MAX_TOTAL_DEGREE:
        raise ResourceLimitExceeded(
            "oracle total degree", MAX_TOTAL_DEGREE, f.degree()
        )

    primitive, scalar = _primitive_part(f)
    if primitive.degree() == 0:
        return FactorizationResult(scalar * primitive.constant_value(), [])

    raw = _factor_primitive(primitive, guard)
    raw.sort(key=_factor_key)
    grouped = []
    for g in raw:
        if grouped and grouped[-1][0] == g:
            grouped[-1][1] += 1
        else:
            grouped.append([g, 1])
    result = FactorizationResult(scalar, [(g, m) for g, m in grouped])
    assert result.reconstruct(f.nvars) == f
    return result


def _factor_key(g):
    """Degree, exponents in graded-lex order, then their coefficients: a
    total order, so the output does not depend on the search order and
    equal factors sit side by side."""
    exps = sorted(g.terms, key=grlex_key)
    return g.degree(), exps, [g.terms[e] for e in exps]


# ---------------------------------------------------------------------
# primitive parts and exact multivariate division


def _primitive_part(f: MultiPoly):
    """Integer-primitive form with positive graded-lex leading
    coefficient; returns (primitive, scalar) with f = scalar * primitive."""
    denom = math.lcm(*(c.denominator for c in f.terms.values()))
    content = math.gcd(*(c.numerator * (denom // c.denominator)
                         for c in f.terms.values()))
    lead_exps = max(f.terms, key=grlex_key)
    sign = -1 if f.terms[lead_exps] < 0 else 1
    scalar = rational(sign * content, denom)
    return f.scale(rational(denom, sign * content)), scalar


def exact_divide(f: MultiPoly, g: MultiPoly):
    """Quotient f/g if g divides f exactly over the rationals, else None."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    g_lead = max(g.terms)
    g_c = g.terms[g_lead]
    r = f
    q = MultiPoly.zero(f.nvars)
    while not r.is_zero:
        r_lead = max(r.terms)
        if any(a < b for a, b in zip(r_lead, g_lead)):
            return None
        shift = tuple(a - b for a, b in zip(r_lead, g_lead))
        term = MultiPoly(f.nvars, {shift: rational(r.terms[r_lead], g_c)})
        q = q + term
        r = r - term * g
    return q


# ---------------------------------------------------------------------
# bivariate factorization: specialise, lift modulo p^k, recombine


def _factor_primitive(f: MultiPoly, guard: int):
    """Irreducible primitive factors (with repetition) of a primitive
    polynomial with positive graded-lex leading coefficient."""
    used = [v for v in range(f.nvars) if f.degree_in(v) > 0]
    if len(used) == 2:
        return _factor_bivariate(f, guard)
    coeffs = [0] * (1 + f.degree())
    for exps, c in f.terms.items():
        coeffs[exps[used[0]]] = int(c)
    return [MultiPoly.from_univariate(f.nvars, used[0], g)
            for g in _factor_univariate_int(coeffs, guard)]


def _rows(f: MultiPoly, v: int):
    """rows[i][j] is f's coefficient of v^i w^j, w the other variable."""
    rows = [[0] * (1 + f.degree_in(1 - v))
            for _ in range(1 + f.degree_in(v))]
    for exps, c in f.terms.items():
        rows[exps[v]][exps[1 - v]] = int(c)
    return rows


def _from_rows(rows, v: int) -> MultiPoly:
    """The primitive polynomial with positive graded-lex lead that rows
    is a multiple of over Z[w]."""
    f, _ = _primitive_part(MultiPoly(2, {
        (i, j) if v == 0 else (j, i): c
        for i, row in enumerate(_primitive_rows(rows))
        for j, c in enumerate(row)}))
    return f


def _factor_bivariate(f: MultiPoly, guard: int):
    """_factor_primitive for f with positive degree in both variables.

    For each main variable v, the one of lower degree first: f's content
    in v over Z[w], w the other variable, is split off when it is not
    1, and f(v, t) is factored at the first SPECIALISATION_POINTS points
    t with lc_v(f)(t) != 0.  With no squarefree f(v, t) in either
    variable, a repeated factor shows in gcd(f, df/dv); when that is 1,
    the walk goes on to a squarefree f(v, t).  The squarefree f(v, t)
    with the fewest factors goes to _lift_and_recombine.

    Sound: with content 1 in v, both factors of a split f = g*h have
    positive v-degree (neither is an integer, as f is primitive, nor in
    Z[w]), and at a t with lc_v(f)(t) != 0 both keep it, so f(v, t)
    splits too: one factor of f(v, t) proves f irreducible.  Once
    gcd(f, df/dv) = 1, lc_v(f) has at most m = deg_w f roots and the
    discriminant of f in v, of w-degree at most (2n - 1)*m with
    n = deg_v f, has no more, so the walk needs at most 2*n*m + 1
    points."""
    best = None  # (v, t, factors of f(v, t)): squarefree, fewest factors
    for v in sorted((0, 1), key=f.degree_in):
        rows = _rows(f, v)
        content = []
        for row in rows:
            content = _int_gcd(content, row)
            if len(content) == 1:
                break
        if len(content) > 1:
            split = MultiPoly.from_univariate(2, 1 - v, content)
            return ([MultiPoly.from_univariate(2, 1 - v, g)
                     for g in _factor_univariate_int(content, guard)]
                    + _factor_primitive(exact_divide(f, split), guard))
        points = (t for t in _eval_points() if _int_eval(rows[-1], t))
        for t in itertools.islice(points, SPECIALISATION_POINTS):
            factors = _factor_univariate_int(
                [_int_eval(row, t) for row in rows], guard)
            if len(factors) == 1:
                return [f]
            if (len(set(map(tuple, factors))) == len(factors)
                    and (best is None or len(factors) < len(best[2]))):
                best = v, t, factors
    if best is None:
        square = _prs_gcd(rows, [[i * c for c in row]
                                 for i, row in enumerate(rows)][1:])
        if len(square) > 1:
            g = _from_rows(square, v)
            return (_factor_primitive(g, guard)
                    + _factor_primitive(exact_divide(f, g), guard))
        n, m = len(rows) - 1, len(rows[0]) - 1
        for t in itertools.islice(points, 2 * n * m + 1):
            at_t = [_int_eval(row, t) for row in rows]
            if len(_int_gcd(at_t, _int_derivative(at_t))) == 1:
                best = v, t, _factor_univariate_int(at_t, guard)
                break
        else:
            raise AssertionError("a squarefree f has a squarefree point")
        if len(best[2]) == 1:
            return [f]
    return _lift_and_recombine(f, *best, guard)


def _lift_and_recombine(f: MultiPoly, v: int, t: int, factors, guard: int):
    """The irreducible factors of a squarefree f of content 1 in v, from
    the factors g_i over Z of a squarefree f(v, t) with l(t) != 0,
    l = lc_v(f).

    With w = z + t, the g_i are made monic modulo p^k and lifted
    z-adically to monic G_i with f/l = prod G_i modulo (z^prec, p^k),
    prec = deg_w f + deg l + 1.  p is the first prime with p not
    dividing l(t) and f(v, t) squarefree modulo p, and p^k > 2B with
    B = 2^N * ||l*f||_2, N the degree of l*f's image under v -> x,
    w -> x^(1 + deg_v f).  Subsets S of the G_i are tried by size: the
    candidate l * prod_S G_i, shifted back to w, read in the symmetric
    range and stripped of its content over Z[w], is kept when
    exact_divide finds that it divides the rest.  When no subset of at
    most half the rest divides, the rest is irreducible.

    Sound: let G be a true factor of f.  G(v, t) = c * prod_S g_i for
    some S, and G keeps its v-degree because l(t) != 0.  The g_i are
    pairwise coprime modulo p, so the lift is unique and prod_S G_i =
    G/lc_v(G).  So the candidate is l/lc_v(G) * G = lc_v(f/G) * G up to
    its content, which has w-degree below prec and divides l*f: by
    Mignotte's bound, read through the substitution (one-to-one on
    v-degrees up to deg_v f), its coefficients are below B < p^k/2.
    Conversely a candidate that divides is a factor whose lift is
    prod_S G_i, so its subset is S; its proper factors have smaller
    subsets, tried first, so it is irreducible."""
    rows = _rows(f, v)
    lf = [_int_mul(rows[-1], row) for row in rows]
    bound = 2 ** max(i + len(rows) * j for i, row in enumerate(lf)
                     for j, c in enumerate(row) if c)
    bound *= math.isqrt(sum(c * c for row in lf for c in row)) + 1
    at_t = [_int_eval(row, t) for row in rows]
    p = next(p for p in itertools.count(2)
             if all(p % d for d in range(2, math.isqrt(p) + 1))
             and at_t[-1] % p
             and len(_mod_gcdex(at_t, _int_derivative(at_t), p)[0]) == 1)
    modulus = p
    while modulus <= 2 * bound:
        modulus *= p

    shifted = [_int_shift(row, t) for row in rows]
    lead = [c % modulus for c in _int_normalize(shifted[-1])]
    unit = pow(lead[0], -1, modulus)
    target = []  # z^j coefficients of f/l, by division of series
    for j in range(len(rows[0]) + len(lead) - 1):
        terms = [_column(shifted, j)] + [
            [-lead[b] * c for c in target[j - b]]
            for b in range(1, min(j + 1, len(lead)))]
        target.append([c * unit % modulus for c in _mod_sum(terms, modulus)])
    prec = len(target)

    local = [[c * pow(g[-1], -1, modulus) % modulus for c in g]
             for g in factors]
    cofactors = _cofactors(local, p, modulus)
    lifted = [[a] for a in local]  # lifted[i][j]: z^j coefficient of G_i
    partial = [lifted[0]]  # partial[k][j]: z^j coefficient of G_0...G_k
    for a in local[1:-1]:
        partial.append([_mod_mul(partial[-1][0], a, modulus)])

    def coefficient(j):
        """The z^j coefficient of prod G_i, after setting partial[k][j]."""
        for k in range(1, len(local)):
            c = _mod_sum([_mod_mul(partial[k - 1][j - b], lifted[k][b],
                                   modulus) for b in range(j + 1)], modulus)
            if k < len(partial):
                partial[k][j:] = [c]
        return c

    for j in range(1, prec):
        for g in lifted:
            g.append([])
        error = _mod_sum([target[j], [-c for c in coefficient(j)]], modulus)
        for g, s, a in zip(lifted, cofactors, local):
            g[j] = _mod_divmod(_mod_mul(s, error, modulus), a, modulus)[1]
        if len(partial) > 1:
            coefficient(j)

    found, rest, pool = [], f, list(range(len(local)))
    size, tried = 1, 0
    while 2 * size <= len(pool):
        for subset in itertools.combinations(pool, size):
            tried += 1
            if tried > guard:
                raise ResourceLimitExceeded(
                    "recombination subsets", guard, tried)
            product = [[c] for c in lead]
            for i in subset:
                product = [_mod_sum([_mod_mul(product[b], lifted[i][j - b],
                                              modulus)
                                     for b in range(min(j + 1, len(product)))],
                                    modulus) for j in range(prec)]
            candidate = []
            for i in range(len(product[0])):
                row = [c % modulus for c in _int_shift(_column(product, i),
                                                       -t)]
                candidate.append([c - modulus if 2 * c > modulus else c
                                  for c in row])
            candidate = _from_rows(candidate, v)
            quotient = exact_divide(rest, candidate)
            if quotient is not None:
                found.append(candidate)
                rest = quotient
                pool = [i for i in pool if i not in subset]
                break
        else:
            size += 1
    return found + [rest]


def _column(polys, i):
    """The coefficients of v^i in a list of polynomials in v."""
    return [a[i] if i < len(a) else 0 for a in polys]


def _cofactors(local, p: int, modulus: int):
    """s_i with sum_i s_i * prod_(j != i) a_j = 1 and deg s_i < deg a_i,
    modulo the modulus, for monic a_i pairwise coprime modulo p.  Modulo
    p, s_i is the inverse of prod_(j != i) a_j modulo a_i; an error e of
    the sum divisible by p^c becomes one divisible by p^(2c) under
    s_i <- s_i*(1 + e) mod a_i."""
    others = []
    for i in range(len(local)):
        product = [1]
        for a in local[:i] + local[i + 1:]:
            product = _mod_mul(product, a, modulus)
        others.append(product)
    cofactors = []
    for a, b in zip(local, others):
        unit, s = _mod_gcdex(a, b, p)
        cofactors.append([c * pow(unit[0], -1, p) % p for c in s])
    while True:
        error = _mod_sum([[1]] + [[-c for c in _mod_mul(s, b, modulus)]
                                  for s, b in zip(cofactors, others)],
                         modulus)
        if not error:
            return cofactors
        error[0] += 1
        cofactors = [_mod_divmod(_mod_mul(s, error, modulus), a, modulus)[1]
                     for s, a in zip(cofactors, local)]


# ---------------------------------------------------------------------
# polynomials over Z[w] and over Z/M


def _prs_gcd(a, b):
    """A gcd of two polynomials over Z[w], lists of rows, by the
    primitive polynomial remainder sequence."""
    a, b = _primitive_rows(a), _primitive_rows(b)
    while b:
        r = a
        while len(r) >= len(b):
            shift, lead = len(r) - len(b), r[-1]
            r = [_int_mul(row, b[-1]) for row in r]
            for i, row in enumerate(b):
                r[i + shift] = _int_normalize([
                    x - y for x, y in itertools.zip_longest(
                        r[i + shift], _int_mul(lead, row), fillvalue=0)])
            r = _int_normalize(r)
        a, b = b, _primitive_rows(r)
    return a


def _primitive_rows(rows):
    """rows over their content in Z[w], up to sign."""
    rows = _int_normalize([_int_normalize(row) for row in rows])
    content = []
    for row in rows:
        content = _int_gcd(content, row)
    rows = [_int_exact_divide(row, content) for row in rows]
    c = math.gcd(*(c for row in rows for c in row)) or 1
    return [[x // c for x in row] for row in rows]


def _mod_sum(polys, modulus: int):
    out = []
    for a in polys:
        out += [0] * (len(a) - len(out))
        for i, c in enumerate(a):
            out[i] += c
    return _int_normalize([c % modulus for c in out])


def _mod_mul(a, b, modulus: int):
    return _int_normalize([c % modulus for c in _int_mul(a, b)])


def _mod_divmod(a, b, modulus: int):
    """Quotient and remainder of a by b, whose leading coefficient is a
    unit modulo the modulus."""
    a = [c % modulus for c in a]
    inverse = pow(b[-1], -1, modulus)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a.pop() * inverse % modulus
        d = len(a) - len(b) + 1
        q[d] = c
        for i in range(len(b) - 1):
            a[i + d] = (a[i + d] - c * b[i]) % modulus
    return q, _int_normalize(a)


def _mod_gcdex(a, b, p: int):
    """(g, s) with g a gcd of a and b modulo the prime p and s*b = g
    modulo a and p; p does not divide a's leading coefficient."""
    r0, r1 = _int_normalize([c % p for c in a]), _mod_divmod(b, a, p)[1]
    s0, s1 = [], [1]
    while r1:
        q, r = _mod_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod_sum([s0, [-c for c in _mod_mul(q, s1, p)]], p)
    return r0, s0


# ---------------------------------------------------------------------
# univariate factorization over the integers (Kronecker search)


def _int_normalize(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _int_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _int_derivative(a):
    return [i * c for i, c in enumerate(a)][1:]


def _int_shift(a, t):
    """a(z + t), by Horner's scheme repeated."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += t * a[j + 1]
    return a


def _int_eval(a, x):
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _int_eval_homogeneous(a, num, den):
    """den^deg(a) * a(num/den), on integers."""
    v = 0
    scale = 1
    for c in reversed(a):
        v = v * num + c * scale
        scale *= den
    return v


def _int_primitive(a):
    a = _int_normalize(a)
    c = math.gcd(*a) or 1
    a = [k // c for k in a]
    if a and a[-1] < 0:
        a = [-k for k in a]
    return a


def _int_exact_divide(a, b):
    """a / b over the integers if exact, else None."""
    a = _int_normalize(a)
    b = _int_normalize(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b):
        if r[-1] % b[-1] != 0:
            return None
        c = r[-1] // b[-1]
        d = len(r) - len(b)
        q[d] = c
        for i, cb in enumerate(b):
            r[i + d] -= c * cb
        r = _int_normalize(r)
    if r:
        return None
    return _int_normalize(q)


def _int_gcd(a, b):
    """A primitive gcd of two integer polynomials, by the primitive
    polynomial remainder sequence; [] is the zero polynomial."""
    a, b = _int_primitive(a), _int_primitive(b)
    while b:
        r = a
        while len(r) >= len(b):
            shift, lead = len(r) - len(b), r[-1]
            r = [c * b[-1] for c in r]
            for i, cb in enumerate(b):
                r[i + shift] -= lead * cb
            r = _int_normalize(r)
        a, b = b, _int_primitive(r)
    return a


def _divisors(n, guard, memo):
    """Positive divisors of n, ascending, by trial division up to
    isqrt(|n|), which must not exceed guard.  memo maps |n| to its list
    for the duration of one univariate factorization."""
    n = abs(n)
    if n in memo:
        return memo[n]
    trials = math.isqrt(n)
    if trials > guard:
        raise ResourceLimitExceeded("divisor trials", guard, trials)
    small, large = [], []
    for d in range(1, trials + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    memo[n] = small + large[::-1]
    return memo[n]


def _eval_points():
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def _factor_univariate_int(u, guard: int):
    """Full factorization of a primitive integer polynomial with
    positive leading coefficient into primitive irreducibles."""
    u = _int_primitive(u)
    factors = []
    memo = {}  # |n| -> divisors, shared by every search below

    # monomial part
    while len(u) > 1 and u[0] == 0:
        factors.append([0, 1])
        u = u[1:]

    # all rational roots a/b -> primitive linear factors (b x - a)
    changed = True
    while changed and len(u) > 2:
        changed = False
        for b in _divisors(u[-1], guard, memo):
            for a0 in _divisors(u[0], guard, memo):
                for a in (a0, -a0):
                    if math.gcd(a, b) != 1:
                        continue
                    if _int_eval_homogeneous(u, a, b) == 0:
                        lin = _int_primitive([-a, b])
                        quotient = _int_exact_divide(u, lin)
                        assert quotient is not None
                        factors.append(lin)
                        u = quotient
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
    if len(u) == 2:
        factors.append(_int_primitive(u))
        return factors
    if len(u) <= 1:
        assert u == [] or u == [1]
        return factors

    # Kronecker search for factors of degree 2 .. deg/2.  A quotient's
    # factors are u's, so it has no rational roots and no factor of a
    # degree already searched: the search resumes at the degree r of the
    # factor just found and stops once the quotient's degree is below 2r
    nodes = [0]
    r = 2
    while 2 * r <= len(u) - 1:
        found = _has_degree_factor(u, r, guard, nodes, memo)
        if found:
            factors.append(found)
            u = _int_exact_divide(u, found)
        else:
            r += 1
    if len(u) > 1:
        factors.append(_int_primitive(u))
    return factors


def _has_degree_factor(u, r, guard, nodes, memo):
    """First primitive degree-r factor of u in canonical search order,
    or None.

    A factor g takes at each point m a divisor of u(m), so the search
    interpolates g through one divisor tuple of r+1 values.  It searches
    on the r+1 points of the window (the first r+1+WINDOW_EXTRA nonzero
    values of u) whose values have the fewest divisors, ties going to
    the earlier point; a value too large to list its divisors within the
    guard is left out of the ranking, and with fewer than r+1 points
    left the search takes the first r+1 of the window.  Newton divided
    differences prune the tuples: for an integer g they are integers at
    any distinct integer points.

    The top divided difference of g is lc(g), which divides lc(u).  So
    the last level enumerates the shorter of two lists: the divisors of
    lc(u), solving each column backwards down to the value it gives at
    the last point, or the divisors of that value, checked forwards.
    Both accept the same columns, which are tried in the value list's
    order either way.  Each interpolant is then screened on the window
    points the search did not choose: a factor of u is nonzero there and
    divides u's value.  An interpolant with a content c may fail the
    screen although its primitive part divides u, but that primitive
    part has a tuple of its own.  The guard counts the candidates
    enumerated at every level: at the last level, each one of the lead
    list, or each value up to the one that gives a factor."""
    window = []
    for m in _eval_points():
        v = _int_eval(u, m)
        if v == 0:
            continue  # roots were extracted already; be safe anyway
        window.append((m, v))
        if len(window) == r + 1 + WINDOW_EXTRA:
            break
    ranked = sorted(
        (len(_divisors(v, guard, memo)), pos)
        for pos, (_, v) in enumerate(window)
        if math.isqrt(abs(v)) <= guard
    )
    if len(ranked) >= r + 1:
        chosen = [window[pos] for _, pos in ranked[:r + 1]]
    else:
        chosen = window[:r + 1]
    pts = [m for m, _ in chosen]
    steps = [[pts[j] - pts[j - i] for i in range(j + 1)]  # [0] unused
             for j in range(r + 1)]
    spare = [(m, v) for m, v in window if m not in pts]
    signed = [None] * (r + 1)  # listed when the search first reaches j
    leads = []  # ±divisors(lc u) if shorter than the last value's list
    columns = []  # columns[j] = divided differences ending at point j

    def candidates(j):
        if signed[j] is None:
            base = _divisors(chosen[j][1], guard, memo)
            # fix the sign at the first point
            signed[j] = base if j == 0 else [
                s * d for d in base for s in (1, -1)]
            if j == r:
                lead_base = _divisors(u[-1], guard, memo)
                if len(lead_base) < len(base):
                    leads.extend(s * d for d in lead_base for s in (1, -1))
        return signed[j]

    def over_guard():
        return ResourceLimitExceeded(
            "divisor-tuple candidates", guard, nodes[0])

    def factor_through(col):
        """The interpolant ending in col, primitive, if it survives the
        spare points and divides u."""
        top = [c[j] for j, c in enumerate(columns)] + [col[r]]
        for m, v in spare:
            g_m = top[r]
            for j in range(r - 1, -1, -1):
                g_m = g_m * (m - pts[j]) + top[j]
            if g_m == 0 or v % g_m != 0:
                return None
        g = _int_primitive(_newton_to_coeffs(top, pts))
        if _int_exact_divide(u, g) is None:
            return None
        return g

    def by_leads():
        """The last level from lc(g) down: col[r] runs over ±divisors(lc u)
        and the column is solved backwards to d = col[0]."""
        prev, step, value = columns[r - 1], steps[r], chosen[r][1]
        accepted = []
        for lead in leads:
            nodes[0] += 1
            if nodes[0] > guard:
                raise over_guard()
            col = [0] * r + [lead]
            for i in range(r, 0, -1):
                col[i - 1] = col[i] * step[i] + prev[i - 1]
            if col[0] != 0 and value % col[0] == 0:
                accepted.append(col)
        accepted.sort(key=lambda col: (abs(col[0]), col[0] < 0))
        for col in accepted:
            g = factor_through(col)
            if g is not None:
                return g
        return None

    def rec(j):
        values = candidates(j)
        if leads and j == r:
            return by_leads()
        prev, step = columns[j - 1] if j else None, steps[j]
        for d in values:
            nodes[0] += 1
            if nodes[0] > guard:
                raise over_guard()
            col = [d]
            for i in range(1, j + 1):
                num = col[i - 1] - prev[i - 1]
                if num % step[i] != 0:
                    break
                col.append(num // step[i])
            else:
                if j < r:
                    columns.append(col)
                    g = rec(j + 1)
                    columns.pop()
                elif col[r] != 0 and u[-1] % col[r] == 0:
                    g = factor_through(col)
                else:
                    g = None
                if g is not None:
                    return g
        return None

    return rec(0)


def _newton_to_coeffs(top, pts):
    """Expand Newton-form coefficients top[j] (of prod_{k<j} (x - pts[k]))
    into a dense coefficient list."""
    coeffs = [0]
    basis = [1]  # prod_{k<j} (x - pts[k])
    for j, c in enumerate(top):
        if len(coeffs) < len(basis):
            coeffs += [0] * (len(basis) - len(coeffs))
        for i, b in enumerate(basis):
            coeffs[i] += c * b
        new_basis = [0] * (len(basis) + 1)
        for i, b in enumerate(basis):
            new_basis[i + 1] += b
            new_basis[i] -= pts[j] * b
        basis = new_basis
    return _int_normalize(coeffs)
