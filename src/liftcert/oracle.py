"""Independent ground-truth factorization over the rationals.

Kronecker's method, end to end: a bivariate input f is mapped to a
univariate integer polynomial by the substitution y -> x^D with
D = 1 + deg_x f, which every factor g of f survives, since
deg_x g < D; the univariate polynomial is factored by the classical
evaluation / divisor-tuple / interpolation search; products of its
factors are mapped back through the substitution and verified by exact
division, and what is left when no proper product divides is
irreducible.

The univariate search uses the standard Kronecker heuristics.  Rational
roots a/b are found first, by the integer test b^d * u(a/b) = 0.  A
degree-r factor is then sought on the r+1 points, out of a window of
r+1+WINDOW_EXTRA, whose values have the fewest divisors, which keeps the
divisor tuples few.  At the last point the search runs over the shorter
of two lists: the divisors of the value there, or the divisors of
lc(u), which the top Newton divided difference lc(g) must divide, each
solved backwards to the value it implies.  Each interpolant is screened
on the window points the search did not choose before it is expanded
and divided into u.  Each factorization lists the divisors of a value
once, in a dict that lives for that call only.  Every candidate is
checked by exact division, and two guards bound the work: divisor
trials per value, and divisor-tuple candidates per factorization, which
counts every divisor tried at every level, the last level's lead list
included.

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
# Kronecker substitution


def _kron_to_univariate(f: MultiPoly, d_base: int):
    coeffs = {}
    for exps, c in f.terms.items():
        k = exps[0] if f.nvars >= 1 else 0
        if f.nvars == 2:
            k = exps[0] + d_base * exps[1]
        assert c.denominator == 1
        coeffs[k] = c.numerator
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return out


def _kron_from_univariate(coeffs, d_base: int, nvars: int) -> MultiPoly:
    return MultiPoly(nvars, {
        (k,) if nvars == 1 else (k % d_base, k // d_base): c
        for k, c in enumerate(coeffs)})


def _factor_primitive(f: MultiPoly, guard: int):
    """Irreducible primitive factors (with repetition) of a primitive
    polynomial with positive graded-lex leading coefficient.

    The image of what is left of f is, up to sign, the product of the
    univariate factors left in the pool.  A factor g of f has
    deg_x g < D, so its image maps back to g itself: a split of what is
    left shows up as a proper subset of the pool whose product divides
    it.  When no proper subset does, which a lone factor decides at once,
    what is left is irreducible and is appended as it stands."""
    n = f.nvars
    d_base = 1 + f.degree_in(0)
    uni = _kron_to_univariate(f, d_base)
    uni_factors = _factor_univariate_int(uni, guard)
    if n == 1:
        return [MultiPoly.from_univariate(1, 0, g) for g in uni_factors]

    factors = []
    remaining = f
    pool = list(uni_factors)
    found = True
    while found and len(pool) > 1:
        found = False
        for size in range(1, len(pool)):
            for subset in itertools.combinations(range(len(pool)), size):
                prod = [1]
                for idx in subset:
                    prod = _int_mul(prod, pool[idx])
                candidate = _kron_from_univariate(prod, d_base, n)
                candidate, _ = _primitive_part(candidate)
                if candidate.degree() < 1:
                    continue
                quotient = exact_divide(remaining, candidate)
                if quotient is not None:
                    factors.append(candidate)
                    remaining = quotient
                    pool = [g for i, g in enumerate(pool) if i not in subset]
                    found = True
                    break
            if found:
                break
    factors.append(remaining)
    return factors


# ---------------------------------------------------------------------
# univariate factorization over the integers (Kronecker search)


def _int_normalize(a):
    a = list(a)
    while a and a[-1] == 0:
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


def _int_content(a):
    return math.gcd(*a) or 1


def _int_primitive(a):
    a = _int_normalize(a)
    c = _int_content(a)
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

    # Kronecker search for factors of degree 2 .. deg/2; a quotient has
    # no rational roots either, so the search simply continues
    nodes = [0]
    while len(u) - 1 >= 4:
        d = len(u) - 1
        found = None
        for r in range(2, d // 2 + 1):
            found = _has_degree_factor(u, r, guard, nodes, memo)
            if found:
                break
        if not found:
            break
        factors.append(found)
        u = _int_exact_divide(u, found)
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
