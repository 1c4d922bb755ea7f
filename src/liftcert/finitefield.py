"""Arithmetic in F_p and its composite residue fields, plus
irreducibility tests and factorisation for residue polynomials.

The residue field is F_p[y_1..y_k]/(g_1..g_k) where the g_i are monic
irreducible univariate polynomials over F_p of pairwise coprime degrees;
coprimality is what makes the quotient a field, and it is enforced
loudly at construction.  Univariate F_p polynomials are coefficient
tuples, low-to-high, with no trailing zeros; the routines behind Ben-Or's
test and the factoriser take lists in the same order over F_q.

Univariate irreducibility over F_q is Ben-Or's test (M. Ben-Or,
"Probabilistic algorithms in finite fields", FOCS 1981): a monic f of
degree d is irreducible if and only if gcd(Z^(q^k) - Z, f) = 1 for
k = 1..floor(d/2), because a reducible f has a factor of degree at most
d/2; the loop stops at the first k whose gcd is not 1.  It answers every
univariate question (generators, residues with positive degree in one
variable) behind one guard, "univariate Rabin work": d^3 * bitlen(q),
the field operations of Rabin's test (M. O. Rabin, SIAM J. Comput. 9,
1980) up to a constant factor, against the limit.  Ben-Or's loop
computes no more Frobenius powers than Rabin's test, so the same count
bounds it.  Run to the end, the same loop is the distinct-degree
factorisation of a squarefree f, and Cantor-Zassenhaus splitting with a
fixed seed, by the trace map when q is even, takes each part to its
irreducible factors (von zur Gathen and Gerhard, Modern Computer
Algebra, ch. 14).

A residue polynomial T(Z_1..Z_n) of positive degree in two or more
variables is decided by these routes, in this order:
1. Reducibility witnesses, each a factor checked by exact division:
   a variable Z_i dividing every term of a T other than c*Z_i; a p-th
   root, when every exponent is divisible by p (T = S^p, with S's
   coefficients c^(q/p)); and, for a T in two variables, a content of
   positive degree, the gcd over F_q[Z_j] of T's Z_i-coefficients.
   They run on every such T and cost a few gcds.
2. The candidate divisors of an exhaustive search are counted, lead by
   lead, until the count passes the limit.
3. A T in exactly two variables goes, at every size, to one route,
   factor-by-lifting (`lifting_route`, with a budget of the limit):
   specialise one variable at points where T keeps its degree in the
   other and T(c) is squarefree, and factor T(c).  A T(c) with one
   factor proves T irreducible, as T is primitive.  While a
   factorisation costs no more than a lifting, it looks for such a
   point among a few good points; otherwise it Hensel-lifts the factors
   at the first good point, with T's leading coefficient imposed, and
   tries the subsets of them as factors of T.  The lifts of a
   factorisation's parts are unique, so when no subset divides T, T is
   irreducible.  Its docstring gives the argument, the scan and what
   the budget counts.
4. A T in three or more variables, at or below the limit, is tried for
   a specialisation witness: if T is primitive in a main variable Z_i
   and a point c for the other variables keeps T's Z_i-degree and makes
   T(c) irreducible by Ben-Or's test, then T is irreducible, because a
   factorisation of T would specialise to one of T(c) or put a non-unit
   in T's content.  The points tried, over all main variables, are at
   most the count.
5. What steps 3 and 4 leave undecided goes, at or below the limit, to
   the exhaustive divisor search, which decides every T.  It tries only
   candidates g that fit T's degrees, which leaves every answer as it
   is:
   - a g with lex-leading monomial L has only monomials e with e_i <=
     deg_i T - H_i and |e| <= deg T - |H|, where H = lead(T) - L,
     because the cofactor T/g leads with H and degrees add under
     multiplication;
   - the division of T by g stops at the first quotient monomial s
     with s_i > deg_i T - deg_i g, |s| > deg T - deg g or s <lex
     trail(T) - trail(g), because every quotient monomial is one of
     the cofactor's, whose degrees and lex-trailing monomial are those
     differences.
   Above the limit, T raises ResourceLimitExceeded("multivariate
   divisor candidates") with the count of step 2.
No verdict comes from a truncated search.

One field arithmetic, `_Arith`, serves every route: plain residues mod
p for a prime field, ResidueElements for an extension field.  Points
and candidate coefficients are drawn from its elements in the order of
`ResidueField.elements()`, the base-p digits of an index; a prime
field's are range(p).  Above the limit q itself is unbounded (x^2 + 1
is inert at p = 10^9 + 7, so q is about 10^18), so there elements are
only drawn lazily, and Cantor-Zassenhaus draws a random one by its
index.  Below it q is at most the count, and the specialisation witness
and the divisor search list the elements they draw from.
"""

from __future__ import annotations

import itertools
import math
import operator
import random

from .errors import DEFAULT_CANDIDATE_LIMIT, ConfigError, ResourceLimitExceeded
from .exactnum import check_prime
from .multipoly import grlex_key, monomial_factors, terms_to_str


class GeneratorReducible(ConfigError):
    """A residue-field generator is reducible over F_p."""


class DegreesNotCoprime(ConfigError):
    """Two residue-field generators have non-coprime degrees."""


# ---------------------------------------------------------------------
# univariate polynomials over F_p, as normalized coefficient tuples


def fp_normalize(coeffs, p):
    coeffs = [c % p for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def is_irreducible_univariate(g, p, limit=DEFAULT_CANDIDATE_LIMIT):
    """Ben-Or's test over F_p behind its work guard d^3 * bitlen(p); g is
    monic of degree >= 1, and degree-1 polynomials are irreducible."""
    check_prime(p)
    g = fp_normalize(g, p)
    if len(g) < 2 or g[-1] != 1:
        raise ValueError("g must be monic of degree >= 1")
    return _irreducible_univariate(list(g), _Arith(p), limit)


# ---------------------------------------------------------------------
# univariate polynomials over F_q, as coefficient lists (low to high,
# no trailing zeros), and Ben-Or's irreducibility test


class _Arith:
    """Field operations for every route: plain residues mod p for a
    prime field, ResidueElements for an extension field.  Zero is falsy
    in both.  `element` converts a ResidueElement to this
    representation, `from_int` an integer; `elements` iterates lazily
    over the q elements in the order of `ResidueField.elements()`, and
    `random` draws one.
    """

    def __init__(self, p, field=None):
        if field is None or not field.generators:
            self.field = None
            self.q, self.zero, self.one = p, 0, 1
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.mul = lambda a, b: a * b % p
            self.inv = lambda a: pow(a, -1, p)
            self.from_int = lambda k: k % p
            self.element = lambda a: a.coeffs.get((), 0)
        else:
            self.field = field
            self.q, self.zero, self.one = field.q, field.zero, field.one
            self.add, self.sub = operator.add, operator.sub
            self.mul, self.inv = operator.mul, ResidueElement.inverse
            self.from_int = field.from_int
            self.element = lambda a: a

    def elements(self):
        if self.field is None:
            return range(self.q)
        return self.field.elements()

    def random(self, rng):
        k = rng.randrange(self.q)
        return k if self.field is None else self.field.element_at(k)


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _monic(a, ar):
    if a[-1] == ar.one:
        return a
    inv = ar.inv(a[-1])
    return [ar.mul(inv, c) for c in a]


def _add(a, b, ar):
    return _trim([ar.add(x, y) for x, y in itertools.zip_longest(
        a, b, fillvalue=ar.zero)])


def _sub(a, b, ar):
    return _trim([ar.sub(x, y) for x, y in itertools.zip_longest(
        a, b, fillvalue=ar.zero)])


def _mul(a, b, ar):
    if not a or not b:
        return []
    prod = [ar.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = ar.add(prod[i + j], ar.mul(x, y))
    return _trim(prod)


def _divmod(a, f, ar):
    """Quotient and remainder of a by a monic f."""
    r = list(a)
    n = len(f) - 1
    quo = []
    for k in range(len(r) - 1, n - 1, -1):
        c = r[k]
        quo.append(c)
        if c:
            for j in range(n):
                r[k - n + j] = ar.sub(r[k - n + j], ar.mul(c, f[j]))
    return _trim(quo[::-1]), _trim(r[:n])


def _rem(a, f, ar):
    """a mod f, for monic f."""
    return _divmod(a, f, ar)[1]


def _mulmod(a, b, f, ar):
    return _rem(_mul(a, b, ar), f, ar)


def _powmod(a, e, f, ar):
    result = [ar.one]
    while e:
        if e & 1:
            result = _mulmod(result, a, f, ar)
        e >>= 1
        if e:
            a = _mulmod(a, a, f, ar)
    return result


def _gcd(a, b, ar):
    """The monic gcd of a and b ([] when both are zero)."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        if len(b) == 1:  # a nonzero constant
            return [ar.one]
        b = _monic(b, ar)
        a, b = b, _rem(a, b, ar)
    return _monic(a, ar) if a else a


def _inverse_mod(a, f, ar):
    """a^-1 mod a monic f, for a coprime to f, by the extended Euclidean
    algorithm with monic remainders: s*a = r mod f for each pair (r, s)."""
    r0, s0 = f, []
    r1, s1 = _rem(a, f, ar), [ar.one]
    while len(r1) > 1:
        inv = ar.inv(r1[-1])
        r1, s1 = [ar.mul(inv, c) for c in r1], [ar.mul(inv, c) for c in s1]
        quo, rem = _divmod(r0, r1, ar)
        r0, s0, r1, s1 = r1, s1, rem, _sub(s0, _mul(quo, s1, ar), ar)
    inv = ar.inv(r1[0])
    return _rem([ar.mul(inv, c) for c in s1], f, ar)


def _distinct_degree(f, ar):
    """Distinct-degree factorisation, Ben-Or's loop run to the end: for a
    monic f it yields pairs (k, g), k increasing, where g != 1 is the
    monic gcd of Z^(q^k) - Z and what is left of f.  For a squarefree f,
    g is the product of f's irreducible factors of degree k.  What is
    left once k passes half its degree is yielded last, with its own
    degree."""
    h = z = [ar.zero, ar.one]  # Z mod f, since the loop runs only for d >= 2
    k = 0
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        h = _powmod(h, ar.q, f, ar)  # Z^(q^k) mod f
        g = _gcd(f, _sub(h, z, ar), ar)
        if len(g) > 1:
            yield k, g
            f = _divmod(f, g, ar)[0]
            h = _rem(h, f, ar)
    if len(f) > 1:
        yield len(f) - 1, f


def _ben_or(f, ar):
    """Ben-Or's test: a monic f of degree d >= 1 over F_q is irreducible
    if and only if gcd(Z^(q^k) - Z, f) = 1 for k = 1..d/2, since a
    reducible f has a factor of degree at most d/2.  It is the first
    step of the distinct-degree factorisation, which stops there."""
    return next(_distinct_degree(f, ar))[0] == len(f) - 1


def _equal_degree(g, k, ar, rng):
    """Cantor-Zassenhaus splitting: the monic irreducible factors of a
    monic squarefree g whose irreducible factors all have degree k.  For
    a random a of degree below deg g, gcd(g, b) splits g with
    probability at least 1/2, where b = a^((q^k - 1)/2) - 1 for odd q
    and b is the trace a + a^2 + a^4 + ... + a^(2^(mk - 1)) of a from
    F_(q^k) to F_2 for q = 2^m."""
    if len(g) - 1 == k:
        return [g]
    while True:
        a = _trim([ar.random(rng) for _ in range(len(g) - 1)])
        if ar.q % 2:
            b = _sub(_powmod(a, (ar.q ** k - 1) // 2, g, ar), [ar.one], ar)
        else:
            b = power = a
            for _ in range(k * (ar.q.bit_length() - 1) - 1):
                power = _mulmod(power, power, g, ar)
                b = _add(b, power, ar)
        d = _gcd(g, b, ar)
        if 1 < len(d) < len(g):
            return (_equal_degree(d, k, ar, rng)
                    + _equal_degree(_divmod(g, d, ar)[0], k, ar, rng))


def _factor_squarefree(f, ar):
    """The monic irreducible factors of a monic squarefree f over F_q:
    distinct-degree factorisation, then equal-degree splitting with a
    fixed seed, so the same f always gives the same list."""
    rng = random.Random(0)
    return [h for k, g in _distinct_degree(f, ar)
            for h in _equal_degree(g, k, ar, rng)]


def _irreducible_univariate(f, ar, limit):
    """Whether a monic f of degree d >= 1 over F_q is irreducible: Ben-Or's
    test once d^3 * bitlen(q), the work of Rabin's test up to a constant
    factor and a bound on Ben-Or's, is within limit."""
    d = len(f) - 1
    if d == 1:
        return True
    needed = d ** 3 * ar.q.bit_length()
    if needed > limit:
        raise ResourceLimitExceeded("univariate Rabin work", limit, needed)
    return _ben_or(f, ar)


# ---------------------------------------------------------------------
# the composite residue field


class ResidueField:
    """F_p[y_1..y_k]/(g_1..g_k) with pairwise coprime generator degrees.

    Elements are canonical representatives: dicts from exponent tuples
    (componentwise below the generator degrees) to integers in 1..p-1.
    `basis` lists those exponent tuples in lexicographic order.
    """

    def __init__(self, p, generators, limit=DEFAULT_CANDIDATE_LIMIT):
        check_prime(p)
        self.p = p
        self.generators = [fp_normalize(g, p) for g in generators]
        self.degrees = []
        for g in self.generators:
            d = len(g) - 1
            if d < 2 or g[-1] != 1:
                raise ConfigError(
                    "residue-field generators must be monic of degree >= 2"
                )
            if not _irreducible_univariate(list(g), _Arith(p), limit):
                raise GeneratorReducible(
                    f"generator {list(g)} is reducible over F_{p}"
                )
            self.degrees.append(d)
        for a, b in itertools.combinations(self.degrees, 2):
            if math.gcd(a, b) != 1:
                raise DegreesNotCoprime(
                    f"generator degrees {a} and {b} share a factor")
        self.extension_degree = math.prod(self.degrees)
        self.q = p ** self.extension_degree
        self.nyvars = len(self.generators)
        self.basis = list(itertools.product(*map(range, self.degrees)))

    # zero and one are built on each access: a stored element would point
    # back at the field, and the cycle would keep a dropped field alive
    # until the cyclic collector runs
    @property
    def zero(self):
        return ResidueElement(self, {})

    @property
    def one(self):
        return ResidueElement(self, {(0,) * self.nyvars: 1})

    def __eq__(self, other):
        return (
            isinstance(other, ResidueField)
            and self.p == other.p
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.p, tuple(self.generators)))

    def __repr__(self):
        if not self.generators:
            return f"F_{self.p}"
        return f"F_{self.q} = F_{self.p}{[list(g) for g in self.generators]}"

    def from_int(self, c) -> "ResidueElement":
        c %= self.p
        if c == 0:
            return self.zero
        return ResidueElement(self, {(0,) * self.nyvars: c})

    def element(self, coeffs) -> "ResidueElement":
        """Build an element from {exponent tuple: int}, reducing fully."""
        reduced = self._reduce(
            {tuple(e): c % self.p for e, c in coeffs.items() if c % self.p}
        )
        return ResidueElement(self, reduced)

    def _reduce(self, coeffs):
        # rewrite y_j^{m_j} using g_j until all exponents are in range;
        # coefficients arrive reduced mod p
        if all(a < m for e in coeffs for a, m in zip(e, self.degrees)):
            return {e: c for e, c in coeffs.items() if c}
        p = self.p
        pending = dict(coeffs)
        done = {}
        while pending:
            e, c = pending.popitem()
            if c == 0:
                continue
            for j, m in enumerate(self.degrees):
                if e[j] >= m:
                    g = self.generators[j]
                    # y_j^m = -(g_0 + ... + g_{m-1} y_j^{m-1})
                    for k in range(m):
                        if g[k]:
                            e2 = list(e)
                            e2[j] = e[j] - m + k
                            e2 = tuple(e2)
                            add = (-c * g[k]) % p
                            pending[e2] = (pending.get(e2, 0) + add) % p
                    break
            else:
                done[e] = (done.get(e, 0) + c) % p
        return {e: c for e, c in done.items() if c}

    def elements(self):
        """Iterate lazily over the q field elements: the coefficient
        vectors on the monomials below the generator degrees, in
        lexicographic order."""
        return map(self.element_at, range(self.q))

    def element_at(self, k):
        """The element at index k, 0 <= k < q, of `elements()`: its
        coefficients on the monomials below the generator degrees, in
        lexicographic order, are the base-p digits of k, most significant
        first."""
        coeffs = {}
        for e in reversed(self.basis):
            k, coeffs[e] = divmod(k, self.p)
        return ResidueElement(self, {e: d for e, d in coeffs.items() if d})


class ResidueElement:
    """Canonical representative of a residue-field element."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = dict(coeffs)

    @property
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _key(self):
        return tuple(sorted(self.coeffs.items()))

    def __eq__(self, other):
        return (
            isinstance(other, ResidueElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self._key()))

    def __add__(self, other, sign=1):
        out = dict(self.coeffs)
        p = self.field.p
        for e, c in other.coeffs.items():
            s = (out.get(e, 0) + sign * c) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return ResidueElement(self.field, out)

    def __sub__(self, other):
        return self.__add__(other, -1)  # one walk, one construction

    def __neg__(self):
        p = self.field.p
        return ResidueElement(self.field, {e: (-c) % p for e, c in self.coeffs.items()})

    def __mul__(self, other):
        raw = {}
        p = self.field.p
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                raw[e] = (raw.get(e, 0) + c1 * c2) % p
        return ResidueElement(self.field, self.field._reduce(raw))

    def inverse(self):
        """Multiplicative inverse via a^(q-2) (the field is tiny)."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in residue field")
        result = self.field.one
        base = self
        k = self.field.q - 2
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def to_str(self) -> str:
        """Polynomial in y_i with integer coefficients in 0..p-1."""
        return terms_to_str(
            self.coeffs, [f"y{i + 1}" for i in range(self.field.nyvars)])

    def __repr__(self):
        return f"ResidueElement({self.to_str()})"


# ---------------------------------------------------------------------
# residue polynomials in Z_1..Z_n over a residue field


class ResiduePoly:
    """Sparse polynomial in Z_1..Z_n with residue-field coefficients."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            for e, c in terms.items():
                if not c.is_zero:
                    clean[tuple(e)] = c
        self.terms = clean

    @property
    def is_zero(self):
        return not self.terms

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.field.zero)

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, ResiduePoly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, tuple(sorted(
            (e, c._key()) for e, c in self.terms.items()
        ))))

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, self.field.zero) + c1 * c2
                if s.is_zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return ResiduePoly(self.field, self.nvars, out)

    def lex_leading(self):
        return max(self.terms)

    def is_single_variable(self, i):
        """True iff the polynomial is exactly Z_i."""
        unit = tuple(1 if j == i else 0 for j in range(self.nvars))
        return set(self.terms) == {unit} and self.terms[unit] == self.field.one

    def coefficient_texts(self):
        """{exponents: coefficient text}, in descending graded-lex order."""
        return {e: self.terms[e].to_str()
                for e in sorted(self.terms, key=grlex_key, reverse=True)}

    def to_str(self):
        return residue_text(self.nvars, self.coefficient_texts())

    def __repr__(self):
        return f"ResiduePoly({self.to_str()})"


def residue_text(nvars, texts):
    """The printed form of a residue polynomial in Z_1..Z_nvars from its
    coefficient_texts(): a coefficient that is a sum is parenthesised."""
    names = [f"Z{i + 1}" for i in range(nvars)]
    parts = []
    for e, cs in texts.items():
        factors = monomial_factors(names, e)
        if not factors:
            parts.append(f"({cs})" if ("+" in cs or "*" in cs) else cs)
        elif cs == "1":
            parts.append("*".join(factors))
        else:
            coef = f"({cs})" if ("+" in cs) else cs
            parts.append("*".join([coef] + factors))
    return " + ".join(parts) if parts else "0"


def _evaluate(terms, values, keep, ar):
    """Substitute values[j] for Z_j in every variable j not in keep: the
    result maps the exponents of the kept variables, in keep's order, to
    coefficients (some possibly zero)."""
    out = {}
    for e, c in terms.items():
        for j, x in enumerate(values):
            if j not in keep:
                for _ in range(e[j]):
                    c = ar.mul(c, x)
        key = tuple(e[j] for j in keep)
        out[key] = ar.add(out[key], c) if key in out else c
    return out


def specialisation_witness(t: ResiduePoly, budget):
    """A pair (i, c) that proves T irreducible, or None.

    T is primitive in Z_i, and the point c (one element for each other
    variable, in index order) keeps T's Z_i-degree and makes T(c)
    irreducible over F_q by Ben-Or's test.  A factorisation T = A*B then
    cannot exist: if A and B both have positive Z_i-degree, T(c) =
    A(c)*B(c) is a product of two polynomials of positive degree; if A
    has Z_i-degree 0, it divides the content of T in Z_i and is a unit.

    Main variables are tried in ascending order and, for each, the
    points in lexicographic order of `ResidueField.elements()`.  Every
    point tried, for the primitivity check or for the specialisation,
    counts against budget.
    """
    field = t.field
    ar = _Arith(field.p, field)
    n = t.nvars
    terms = {e: ar.element(c) for e, c in t.terms.items()}
    # no point draws an element past the first budget of them
    elements = tuple(itertools.islice(ar.elements(), budget))
    left = budget

    def points(k, holes):
        # the points of F_q^k, spread over the variables with None at the
        # holes
        nonlocal left
        for point in itertools.product(elements, repeat=k):
            if left <= 0:
                return
            left -= 1
            it = iter(point)
            yield point, [None if j in holes else next(it) for j in range(n)]

    def primitive(i):
        # The content C of T in Z_i divides every Z_i-coefficient a_k.
        # For each other variable Y_j, take the a_s of least Y_j-degree:
        # C has Y_j-degree 0 if that degree is 0, or if at some point b
        # of the remaining variables a_s(b) keeps its Y_j-degree and the
        # a_k(b) have gcd 1.  Otherwise C(b) would divide that gcd and
        # keep a positive Y_j-degree, since C's Y_j-leading coefficient
        # divides a_s's.
        for j in range(n):
            if j == i:
                continue
            degs = {}  # k -> Y_j-degree of a_k
            for e in terms:
                degs[e[i]] = max(degs.get(e[i], 0), e[j])
            s = min(degs, key=degs.get)
            if degs[s] == 0:
                continue
            for _, values in points(n - 2, (i, j)):
                ev = _evaluate(terms, values, (i, j), ar)
                if not ev.get((s, degs[s])):
                    continue
                g = []
                for k, top in degs.items():
                    g = _gcd(g, [ev.get((k, m), ar.zero)
                                 for m in range(top + 1)], ar)
                if len(g) == 1:
                    break
            else:
                return False
        return True

    for i in range(n):
        d = t.degree_in(i)
        if d < 1 or not primitive(i):
            continue
        for point, values in points(n - 1, (i,)):
            ev = _evaluate(terms, values, (i,), ar)
            f = [ev.get((k,), ar.zero) for k in range(d + 1)]
            if f[d] and _ben_or(_monic(f, ar), ar):
                return i, tuple(x if ar.field else field.from_int(x)
                                for x in point)
    return None


# ---------------------------------------------------------------------
# reducibility witnesses and the factor-by-lifting route


def _exact_quotient(num, den, ar):
    """num / den for polynomials as {exponents: coefficient} in ar's
    representation, den with lex-leading coefficient 1, or None when den
    does not divide num: lex leading-term reduction.  Each monomial s it
    adds to the quotient is one of the quotient's, whose degrees and
    lex-trailing monomial are num's less den's, since they add under
    multiplication; so it stops at the first s with s_i > deg_i num -
    deg_i den, |s| > deg num - deg den or s <lex trail(num) -
    trail(den)."""
    lead = max(den)
    caps = list(map(operator.sub, map(max, zip(*num)), map(max, zip(*den))))
    room = max(map(sum, num)) - max(map(sum, den))
    floor = tuple(map(operator.sub, min(num), min(den)))
    r, quo = dict(num), {}
    while r:
        top = max(r)
        s = tuple(map(operator.sub, top, lead))
        if (s < floor or sum(s) > room
                or any(not 0 <= a <= cap for a, cap in zip(s, caps))):
            return None
        c = quo[s] = r[top]
        for e, dc in den.items():
            k = tuple(map(operator.add, s, e))
            v = ar.sub(r.get(k, ar.zero), ar.mul(c, dc))
            if v:
                r[k] = v
            else:
                r.pop(k, None)
    return quo


def _proper_factor(t, terms, a, ar):
    """a, scaled to lex-leading coefficient 1, as a ResiduePoly beside T
    when it divides T's terms exactly and neither it nor the quotient is
    constant, else None: every reducible answer of a fast path passes
    through this check."""
    inv = ar.inv(a[max(a)])
    a = {e: ar.mul(inv, c) for e, c in a.items()}
    quo = _exact_quotient(terms, a, ar)
    if quo is None or not any(map(any, a)) or not any(map(any, quo)):
        return None
    field = t.field
    return ResiduePoly(field, t.nvars, a if ar.field else {
        e: field.from_int(c) for e, c in a.items()})


def _setup(t):
    """T's field arithmetic, its terms in that representation, and the
    variables in which it has positive degree."""
    ar = _Arith(t.field.p, t.field)
    terms = {e: ar.element(c) for e, c in t.terms.items()}
    return ar, terms, [i for i in range(t.nvars) if t.degree_in(i) > 0]


def _exps(n, x, a, y, b):
    """The exponent vector with a at position x, b at y, 0 elsewhere."""
    return tuple(a if j == x else b if j == y else 0 for j in range(n))


def _rows(terms, x, y, ar):
    """T as a polynomial in Z_x over F_q[Z_y], for a T in Z_x and Z_y
    only: rows[a] is the coefficient list, in Z_y, of Z_x^a."""
    rows = [[] for _ in range(max(e[x] for e in terms) + 1)]
    for e, c in terms.items():
        row = rows[e[x]]
        row.extend([ar.zero] * (e[y] + 1 - len(row)))
        row[e[y]] = c
    return rows


def _content(rows, ar):
    """The monic gcd, in F_q[Z_y], of the rows, shortest first, so that
    a nonzero constant row ends it at once."""
    g = []
    for row in sorted(rows, key=len):
        g = _gcd(g, row, ar) if g else row
        if len(g) == 1:
            return [ar.one]
    return _monic(g, ar) if g else g


def monomial_factor(t: ResiduePoly):
    """A variable Z_i that divides every term of T, when T is not c*Z_i,
    as a checked factor of T; otherwise None."""
    ar, terms, _ = _setup(t)
    for i in range(t.nvars):
        if all(e[i] for e in terms):
            a = _proper_factor(t, terms, {_exps(t.nvars, i, 1, i, 1): ar.one},
                               ar)
            if a is not None:
                return a
    return None


def pth_power_factor(t: ResiduePoly):
    """S with T = S^p, when every exponent of T is divisible by p, as a
    checked factor of T; otherwise None.  S has exponents e/p and
    coefficients c^(q/p): Frobenius c -> c^p is a bijection of F_q,
    and this is its inverse."""
    p = t.field.p
    if any(a % p for e in t.terms for a in e):
        return None
    ar, terms, _ = _setup(t)
    root = {}
    for e, c in terms.items():
        r, k = ar.one, ar.q // p
        while k:
            if k & 1:
                r = ar.mul(r, c)
            c, k = ar.mul(c, c), k >> 1
        root[tuple(a // p for a in e)] = r
    return _proper_factor(t, terms, root, ar)


def content_factor(t: ResiduePoly):
    """For a T in exactly two variables, a content of positive degree:
    the gcd over F_q[Z_j] of T's Z_i-coefficients, for i the first and
    then the second variable, as a checked factor of T; otherwise None."""
    ar, terms, pair = _setup(t)
    if len(pair) != 2:
        return None
    for x, y in (pair, pair[::-1]):
        g = _content(_rows(terms, x, y, ar), ar)
        if len(g) > 1:
            return _proper_factor(t, terms, {
                _exps(t.nvars, x, 0, y, k): c for k, c in enumerate(g) if c},
                ar)
    return None


def factor_witness(t: ResiduePoly):
    """The first checked factor of T that the cheap witnesses find, a
    monomial factor, a p-th root or a content, or None."""
    for route in (monomial_factor, pth_power_factor, content_factor):
        a = route(t)
        if a is not None:
            return a
    return None


def _taylor(a, c, ar):
    """The coefficients of a(Y + c), by Horner's rule."""
    out = []
    for coef in reversed(a):
        out = _add(_mul(out, [c, ar.one], ar), [coef], ar)
    return out


def _series_mul(a, b, k, ar):
    """a*b mod Y^k for lists of Y-coefficients that are polynomials in X."""
    out = []
    for m in range(min(k, len(a) + len(b) - 1)):
        c = []
        for i in range(max(0, m - len(b) + 1), min(m + 1, len(a))):
            c = _add(c, _mul(a[i], b[m - i], ar), ar)
        out.append(c)
    return out


def _hensel(rows, c, k, factors, ar):
    """Lift the monic factors g_i of T(X, c)/lc(c) to monic G_i, as lists
    of Y-coefficients that are polynomials in X, with T(X, Y + c) =
    lc(Y + c) * prod G_i mod Y^k, where lc is T's X-leading coefficient.

    Linear lifting, one power of Y at a time: with s_i = (prod_{j != i}
    g_j)^-1 mod g_i, the error E of degree below deg T in X at Y^m is
    E = sum_i (s_i E mod g_i) prod_{j != i} g_j, so G_i gains the term
    (s_i E mod g_i) Y^m.  The Y^m coefficients of the partial products
    G_1...G_j are kept, so each step costs one pass over them."""
    shifted = [_taylor(row, c, ar) for row in rows]
    lc = shifted[-1]
    inv = [ar.inv(lc[0])]  # 1/lc(Y + c) mod Y^k
    for m in range(1, k):
        acc = ar.zero
        for i in range(1, min(m, len(lc) - 1) + 1):
            acc = ar.add(acc, ar.mul(lc[i], inv[m - i]))
        inv.append(ar.mul(ar.sub(ar.zero, acc), inv[0]))
    monic = [_mul(row, inv, ar)[:k] for row in shifted]
    # T(X, Y + c)/lc(Y + c) mod Y^k, by powers of Y
    target = [_trim([row[m] if m < len(row) else ar.zero for row in monic])
              for m in range(k)]
    f0 = target[0]
    cofactors = [_inverse_mod(_divmod(f0, g, ar)[0], g, ar) for g in factors]
    lifted = [[g] for g in factors]
    partial = [[g] for g in itertools.accumulate(
        factors, lambda a, b: _mul(a, b, ar))]

    def coefficient(m):
        # Y^m coefficient of each partial product, from the terms of the
        # G_i known so far
        first = lifted[0]
        out = [first[m] if m < len(first) else []]
        for j, g in enumerate(lifted[1:], 1):
            cur = []
            for a in range(m + 1):
                if m - a < len(g):
                    low = out[-1] if a == m else partial[j - 1][a]
                    cur = _add(cur, _mul(low, g[m - a], ar), ar)
            out.append(cur)
        return out

    for m in range(1, k):
        error = _sub(target[m], coefficient(m)[-1], ar)
        for g, s, big in zip(factors, cofactors, lifted):
            big.append(_rem(_mul(s, error, ar), g, ar))
        for p, coef in zip(partial, coefficient(m)):
            p.append(coef)
    return lc, lifted


# lifting_route's answer when it cannot decide T within its budget
UNDECIDED = object()


def lifting_route(t: ResiduePoly, budget):
    """Decide a T in exactly two variables by specialising one of them,
    factoring and Hensel lifting: a checked factor of T, None when T is
    irreducible, or UNDECIDED when budget runs out first or T is not in
    exactly two variables.

    For X the first and then the second variable, with Y the other, d =
    deg_X T and e = deg_Y T, and only when T is primitive in X:
    - the points c for Y are drawn lazily in the order of
      `ResidueField.elements()`.  A point is good when T's X-leading
      coefficient lc(c) != 0 and T(X, c) is squarefree.  The points
      where either fails are roots of lc or of the resultant of T and
      dT/dX, at most 2*d*e of them unless that resultant is 0, so the
      walk stops after 2*d*e + 1 such points;
    - T(X, c) is factored over F_q at each good point.  If it has one
      factor, T is irreducible and no lifting runs: a factorisation T =
      A*B would have both parts of positive X-degree, since T is
      primitive in X, and A(X, c)*B(X, c) would then factor T(X, c),
      whose X-degree is d since lc(c) != 0.  The walk factors up to d +
      1 good points when a factorisation is charged no more than the
      lifting it may save (see the charges below), as over a small
      field, and only the first otherwise, as when q is large;
    - when none of them has one factor, the factors at the first good
      point are lifted (Y - c)-adically to precision k = e + 1, with
      T's leading coefficient imposed (P. S. Wang, Math. Comp. 32,
      1978);
    - for each subset S of the lifted factors, of size at most half
      their number r, the primitive part in X of lc * prod_S G_i, with
      Y's powers below k, is tried as a divisor of T.  A subset of size
      r/2 is tried only if it holds the first lifted factor, because
      its complement gives the same split.

    If T = A*B, both have positive X-degree, and A(X, c) is the product
    of some subset of T(X, c)'s factors, whose lifts are unique; lc *
    prod_S G_i = lc(B) * A mod (Y - c)^k, and lc(B) * A has Y-degree at
    most e, so it is that polynomial, whose primitive part is A.  One
    of A and B has at most half the factors.  So when no subset gives a
    divisor, T is irreducible.

    The budget counts, each when it runs: one per point drawn; d^3 *
    bitlen(q) per factorisation, the field operations of Rabin's test
    up to a constant factor; and d^2 * (e + 1)^2 for the lifting and
    for each subset, the field operations of the lifting, and of a
    subset's product and trial division, up to a constant factor.  A
    factorisation the budget cannot pay ends the walk in X, and a
    lifting it cannot pay, or a walk that factored no point, sends the
    route on to the other variable, whose charges may be lower.  A
    subset it cannot pay leaves T undecided.  `is_irreducible_multivariate`
    sends T here only once `content_factor` has found no content, so
    there the primitivity check is repeated work; it stays because the
    argument needs it on a direct call.
    """
    ar, terms, pair = _setup(t)
    if len(pair) != 2:
        return UNDECIDED
    left = budget
    for x, y in (pair, pair[::-1]):
        rows = _rows(terms, x, y, ar)
        d, e = len(rows) - 1, max(map(len, rows)) - 1
        if len(_content(rows, ar)) > 1:
            continue
        factoring = d ** 3 * ar.q.bit_length()
        lift = d * d * (e + 1) ** 2
        scan = d + 1 if factoring <= lift else 1
        first = None
        bad = good = 0
        for c in ar.elements():
            if left <= 0 or bad > 2 * d * e or good == scan:
                break
            left -= 1
            ev = _evaluate(terms, [c] * t.nvars, (x,), ar)
            f = [ev.get((a,), ar.zero) for a in range(d + 1)]
            slope = [ar.mul(ar.from_int(a), f[a]) for a in range(1, d + 1)]
            if not f[d] or len(_gcd(f, slope, ar)) > 1:
                bad += 1
                continue
            if left < factoring:
                break
            left -= factoring
            good += 1
            factors = _factor_squarefree(_monic(f, ar), ar)
            if len(factors) == 1:
                return None
            if first is None:
                first = factors, c
        if first is None:
            continue
        factors, c = first
        if left < lift:
            continue
        left -= lift
        lc, lifted = _hensel(rows, c, e + 1, factors, ar)
        back = ar.sub(ar.zero, c)
        r = len(lifted)
        for size in range(1, r // 2 + 1):
            subsets = itertools.combinations(lifted, size)
            if 2 * size == r:
                subsets = ((lifted[0],) + rest for rest in
                           itertools.combinations(lifted[1:], size - 1))
            for subset in subsets:
                if left < lift:
                    return UNDECIDED
                left -= lift
                prod = [_trim([v]) for v in lc]
                for big in subset:
                    prod = _series_mul(prod, big, e + 1, ar)
                cols = [_taylor(_trim([m[a] if a < len(m) else ar.zero
                                       for m in prod]), back, ar)
                        for a in range(max(map(len, prod)))]
                g = _content(cols, ar)
                a = _proper_factor(t, terms, {
                    _exps(t.nvars, x, i, y, j): v
                    for i, col in enumerate(cols)
                    for j, v in enumerate(_divmod(col, g, ar)[0]) if v},
                    ar)
                if a is not None:
                    return a
        return None
    return UNDECIDED


def is_irreducible_multivariate(t: ResiduePoly, limit=DEFAULT_CANDIDATE_LIMIT):
    """Whether T is irreducible over its residue field F_q, by the
    routes of the module docstring.  A T with positive degree in one
    variable is univariate: its factors cannot involve the others."""
    if t.is_zero or t.degree() < 1:
        raise ValueError("T must be nonzero of total degree >= 1")
    field = t.field
    used = sum(t.degree_in(i) > 0 for i in range(t.nvars))
    if used == 1:
        ar = _Arith(field.p, field)
        f = [ar.zero] * (t.degree() + 1)
        for e, c in t.terms.items():
            f[sum(e)] = ar.element(c)
        return _irreducible_univariate(_monic(f, ar), ar, limit)
    if factor_witness(t) is not None:
        return False
    slots, leads = _divisor_slots(t)
    if not slots:
        return True
    total = 0  # the unpruned search's candidates, until they pass limit
    for lead in leads:
        below = sum(1 for e in slots if e < lead) + 1  # + constant slot
        total += field.q ** below
        if total > limit:
            break
    if used == 2:
        factor = lifting_route(t, limit)
        if factor is not UNDECIDED:
            return factor is None
    elif total <= limit and specialisation_witness(t, total) is not None:
        return True
    if total > limit:
        raise ResourceLimitExceeded(
            "multivariate divisor candidates", limit, total)
    return _divisor_search(t)


def _divisor_slots(t: ResiduePoly):
    """The monomials a candidate divisor of T may have, in ascending lex
    order, and those of them that may lead it: non-constant, within T's
    degree box, of total degree at most deg(T)/2, and, for a lead,
    dividing T's lex-leading monomial."""
    box = [t.degree_in(i) for i in range(t.nvars)]
    half = t.degree() // 2
    slots = sorted(
        e
        for e in itertools.product(*(range(b + 1) for b in box))
        if 0 < sum(e) <= half
    )
    t_lead = t.lex_leading()
    leads = [e for e in slots if all(a <= b for a, b in zip(e, t_lead))]
    return slots, leads


def _divisor_search(t: ResiduePoly):
    """Whether T is irreducible, by an unguarded exhaustive search for a
    divisor g on _divisor_slots plus the constant, with lex-leading
    coefficient 1 (removing unit ambiguity).  Both the lex-leading and
    the lex-trailing monomial of g must divide those of T.

    Only candidates that fit T's degrees are tried.  Lex-leading
    monomials and degrees add under multiplication, so for g with
    lex-leading monomial L the cofactor h = T/g leads with H = lead(T)
    - L, and:
    - every monomial e of g has e_i <= deg_i T - H_i and |e| <= deg T -
      |H|, since deg_i g = deg_i T - deg_i h and deg_i h >= H_i, and
      likewise for the total degree; each lead's candidates use only
      the slots within both bounds;
    - every quotient monomial of the lex division is a monomial of h,
      and `_exact_quotient` stops at the first that does not fit h's
      degrees or lex-trailing monomial.
    """
    slots, leads = _divisor_slots(t)
    box = [t.degree_in(i) for i in range(t.nvars)]
    deg = t.degree()
    t_lead, t_trail = t.lex_leading(), min(t.terms)
    ar = _Arith(t.field.p, t.field)
    tt = {e: ar.element(c) for e, c in t.terms.items()}
    elements = tuple(ar.elements())
    zero_exp = (0,) * t.nvars
    for lead in leads:
        h_lead = [a - b for a, b in zip(t_lead, lead)]
        fits = [b - a for a, b in zip(h_lead, box)]
        top = deg - sum(h_lead)
        lower = [zero_exp] + [
            e for e in slots
            if e < lead and sum(e) <= top
            and all(a <= b for a, b in zip(e, fits))
        ]
        for combo in itertools.product(elements, repeat=len(lower)):
            g = {lead: ar.one}
            g.update((e, c) for e, c in zip(lower, combo) if c)
            if any(a > b for a, b in zip(min(g), t_trail)):
                continue
            if _exact_quotient(tt, g, ar) is not None:
                return False
    return True
