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
irreducible factors.  Any monic f is factored with multiplicities by
splitting its squarefree part f / gcd(f, f') and dividing the factors
out; what is left has f' = 0 and is a p-th power (von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 14).

A residue polynomial T(Z_1..Z_n) of positive degree in two or more
variables is decided by these routes, in this order:
1. Reducibility witnesses, each a factor checked by exact division:
   a variable Z_i dividing every term of a T other than c*Z_i; a p-th
   root, when every exponent is divisible by p (T = S^p, with S's
   coefficients c^(q/p)); and, for a T in two variables, a content of
   positive degree, the gcd over F_q[Z_j] of T's Z_i-coefficients.
   They run on every such T and cost a few gcds.
2. One specialisation route (`lifting_route`, with a budget of the
   limit) maps, for a main variable X, the other variables to one Y by
   Kronecker's substitution, the identity in two variables.  T, if that
   image is primitive in X, is irreducible when the image at a point Y
   = c keeps its X-degree and is irreducible; otherwise the route
   Hensel-lifts the factors there and tries their products, read back,
   as factors of T.  Its docstring gives the argument and the budget.
3. What step 2 leaves undecided, Kronecker's substitution
   (`kronecker_route`) decides: it factors T's univariate image once
   and tries products of the factors, read back, as divisors of T.
   Its docstring gives the argument and its two guards.
No verdict comes from a truncated search.

One field arithmetic, `_Arith`, serves every route: plain residues mod
p for a prime field, ResidueElements for an extension field.  Points
are drawn from its elements in the order of `ResidueField.elements()`,
the base-p digits of an index; a prime field's are range(p).  q itself
is unbounded (x^2 + 1 is inert at p = 10^9 + 7, so q is about 10^18),
so elements are only drawn lazily, and Cantor-Zassenhaus draws a random
one by its index.
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
    return tuple(_trim([c % p for c in coeffs]))


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
    representation, `from_int` an integer; `root` is the p-th root c^(q/p),
    the inverse of Frobenius c -> c^p, and the identity on a prime field;
    `elements` iterates lazily over the q elements in the order of
    `ResidueField.elements()`, and `random` draws one.
    """

    def __init__(self, p, field=None):
        self.p = p
        if field is None or not field.generators:
            self.field = None
            self.q, self.zero, self.one = p, 0, 1
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.mul = lambda a, b: a * b % p
            self.inv = lambda a: pow(a, -1, p)
            self.root = lambda a: a
            self.from_int = lambda k: k % p
            self.element = lambda a: a.coeffs.get((), 0)
        else:
            self.field = field
            self.q, self.zero, self.one = field.q, field.zero, field.one
            self.add, self.sub = operator.add, operator.sub
            self.mul, self.inv = operator.mul, ResidueElement.inverse
            k = field.q // p
            self.root = lambda a: a ** k
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


def _derivative(f, ar):
    return _trim([ar.mul(ar.from_int(k), c) for k, c in enumerate(f)][1:])


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


def _factor_squarefree(parts, ar):
    """The monic irreducible factors of a monic squarefree f over F_q,
    from the pairs (k, g) of its distinct-degree factorisation, by
    equal-degree splitting with a fixed seed, so the same f always gives
    the same list."""
    rng = random.Random(0)
    return [h for k, g in parts for h in _equal_degree(g, k, ar, rng)]


def _factor(f, ar):
    """The monic irreducible factors of a monic f over F_q, each with its
    multiplicity: those of f / gcd(f, f') are split and divided out as
    often as they go, and what is left, with f' = 0, is g^p for the g
    of the p-th roots of f's coefficients at exponents divisible by p."""
    factors, times = [], 1
    while len(f) > 1:
        slope = _derivative(f, ar)
        if not slope:
            f, times = [ar.root(c) for c in f[::ar.p]], times * ar.p
            continue
        part = _divmod(f, _gcd(f, slope, ar), ar)[0]
        for h in _factor_squarefree(_distinct_degree(part, ar), ar):
            k = 0
            quo, rem = _divmod(f, h, ar)
            while not rem:
                f, k = quo, k + 1
                quo, rem = _divmod(f, h, ar)
            factors.append((h, k * times))
    return factors


def _rabin_work(d, ar, limit):
    """Charge d^3 * bitlen(q), the field operations of Rabin's test up
    to a constant factor, which bound Ben-Or's and the factoriser's."""
    needed = d ** 3 * ar.q.bit_length()
    if needed > limit:
        raise ResourceLimitExceeded("univariate Rabin work", limit, needed)


def _irreducible_univariate(f, ar, limit):
    """Whether a monic f of degree d >= 1 over F_q is irreducible: Ben-Or's
    test behind `_rabin_work`."""
    d = len(f) - 1
    if d == 1:
        return True
    _rabin_work(d, ar, limit)
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

    def __eq__(self, other):
        return (
            isinstance(other, ResidueElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.coeffs.items())))

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

    def __pow__(self, k):
        """self^k for k >= 0, by repeated squaring."""
        result, base = self.field.one, self
        while k:
            if k & 1:
                result = result * base
            base, k = base * base, k >> 1
        return result

    def inverse(self):
        """Multiplicative inverse, a^(q-2)."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in residue field")
        return self ** (self.field.q - 2)

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

    # nothing changes terms after construction, so the hash, which the
    # residue cache takes on every certify, is computed once
    __slots__ = ("field", "nvars", "terms", "_hash")

    def __init__(self, field, nvars, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            for e, c in terms.items():
                if not c.is_zero:
                    clean[tuple(e)] = c
        self.terms = clean
        self._hash = None

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
        if self._hash is None:
            self._hash = hash((self.field, self.nvars, frozenset(
                [(e, frozenset(c.coeffs.items()))
                 for e, c in self.terms.items()])))
        return self._hash

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


# ---------------------------------------------------------------------
# reducibility witnesses and the specialisation and lifting route


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


def _substitution(t, variables):
    """Kronecker's substitution of one variable Y for the given variables
    of T: Z_j -> Y^(w_j), w_j the product of deg_i T + 1 over the
    variables i before j, maps the monomials of T's degree box in them
    one-to-one, as mixed-radix digits, and products to products.
    Returns image(e), an exponent vector's power of Y, and read(k, e),
    which writes the digits of Y^k into e, the last one unbounded."""
    weights = dict(zip(variables, itertools.accumulate(
        [t.degree_in(j) + 1 for j in variables[:-1]], operator.mul,
        initial=1)))

    def image(e):
        return sum(e[j] * w for j, w in weights.items())

    def read(k, e):
        e = list(e)
        for j, w in reversed(weights.items()):
            e[j], k = divmod(k, w)
        return tuple(e)

    return image, read


def _rows(terms, x, image, ar):
    """T as a polynomial in Z_x over F_q[Y], where image gives each
    exponent vector's power of Y, one-to-one on the terms that share a
    power of Z_x: rows[a] is the coefficient list, in Y, of Z_x^a."""
    rows = [[] for _ in range(max(e[x] for e in terms) + 1)]
    for e, c in terms.items():
        row, k = rows[e[x]], image(e)
        row.extend([ar.zero] * (k + 1 - len(row)))
        row[k] = c
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
    return _proper_factor(t, terms, {
        tuple(a // p for a in e): ar.root(c) for e, c in terms.items()}, ar)


def content_factor(t: ResiduePoly):
    """For a T in exactly two variables, a content of positive degree:
    the gcd over F_q[Z_j] of T's Z_i-coefficients, for i the first and
    then the second variable, as a checked factor of T; otherwise None."""
    ar, terms, pair = _setup(t)
    if len(pair) != 2:
        return None
    for x, y in (pair, pair[::-1]):
        g = _content(_rows(terms, x, operator.itemgetter(y), ar), ar)
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


def _value(a, c, ar):
    """a(c), by Horner's rule."""
    v = ar.zero
    for coef in reversed(a):
        v = ar.add(ar.mul(v, c), coef)
    return v


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
    """Decide a T in n >= 2 variables by specialising all but one: a
    checked factor of T, None when T is irreducible, or UNDECIDED when
    budget runs out first or T is in fewer than two variables.

    For each main variable X in turn, Kronecker's substitution sigma of
    one variable Y for the others (`_substitution`; the identity for n
    = 2) gives T' = sigma(T) in X and Y, and the route works on T'.
    This is sound:
    - sigma is a ring map, fixing X, that is one-to-one on the monomials
      of T's degree box, so T = A*B gives T' = sigma(A)*sigma(B), and
      sigma(A) keeps A's X-degree, as A lies in the box;
    - T' primitive in X implies T primitive in X: a factor C of T of
      X-degree 0 and positive degree gives the factor sigma(C) of T' of
      X-degree 0 and positive Y-degree;
    - the read-back inverts sigma on the box, so a lifted subset whose
      product is sigma(A) reads back to A exactly.
    Every candidate is read back and checked against T by
    `_proper_factor`.  With d = deg_X T and e = deg_Y T', X is passed
    over when T' is not primitive in X; otherwise:
    - the points c in F_q are drawn lazily, in the order of
      `ResidueField.elements()`.  A point is good when T''s X-leading
      coefficient lc has lc(c) != 0 and T'(X, c) is squarefree.  If T =
      A*B, both parts have positive X-degree, and sigma(A)(X, c) *
      sigma(B)(X, c) factors T'(X, c) at a good point; so a T'(X, c)
      with one factor, by Ben-Or's test, the first step of
      `_distinct_degree`, proves T irreducible;
    - the points that are not good are roots of lc or of the resultant
      of T' and dT'/dX, at most 2*d*e of them unless that resultant is
      0, so the walk stops after 2*d*e + 1 of them.  It tests up to d +
      1 good points when a test is charged no more than the lifting it
      may save, as over a small field, and only the first otherwise;
    - when none has one factor, the distinct-degree factorisation at
      the first good point runs on from its first step and is split,
      and the factors are lifted (Y - c)-adically to precision k = e +
      1, with lc imposed (P. S. Wang, Math. Comp. 32, 1978);
    - for each subset S of the lifted factors, of size at most half
      their number r, the primitive part in X of lc * prod_S G_i, with
      Y's powers below k, is read back and tried as a divisor of T; a
      subset of size r/2 only if it holds the first factor, as its
      complement gives the same split.  If T = A*B, sigma(A)(X, c) is
      the product of a subset of T'(X, c)'s factors, whose lifts are
      unique, and lc * prod_S G_i = lc(sigma(B)) * sigma(A) mod (Y -
      c)^k; that has Y-degree at most e, so it is the truncated
      product, whose primitive part is sigma(A), a factor of the
      primitive T'.  One of A and B has at most half the factors, so
      when no subset divides T, T is irreducible.

    The budget counts, each when it runs: for n >= 3, d * (e + 1)^2 for
    T''s dense rows and content, as e can near the product of the other
    degrees + 1 (for n = 2 they are T's own, uncharged); one per point
    drawn; d^3 * bitlen(q) per good point, the field operations of
    Rabin's test up to a constant factor, which bound Ben-Or's test and
    the factorisation; and d^2 * (e + 1)^2 for the lifting and for each
    subset, their field operations up to a constant factor.  A test the
    budget cannot pay ends the walk in X; rows or a lifting it cannot
    pay, or a walk with no good point, move on to the next X, whose
    charges may be lower; a subset it cannot pay leaves T undecided.
    """
    ar, terms, used = _setup(t)
    if len(used) < 2:
        return UNDECIDED
    left, bits = budget, ar.q.bit_length()
    for x in used:
        image, read = _substitution(t, [j for j in used if j != x])
        d, e = max(k[x] for k in terms), max(map(image, terms))
        dense = d * (e + 1) ** 2 if len(used) > 2 else 0
        if left < dense:
            continue
        left -= dense
        rows = _rows(terms, x, image, ar)
        if len(_content(rows, ar)) > 1:
            continue
        testing, lift = d ** 3 * bits, d * d * (e + 1) ** 2
        most_bad, scan = 2 * d * e, d + 1 if testing <= lift else 1
        first = None
        bad = good = 0
        for c in ar.elements():
            if left <= 0:
                break
            left -= 1
            f = [_value(row, c, ar) for row in rows]
            if not f[d] or len(_gcd(f, _derivative(f, ar), ar)) > 1:
                bad += 1
            elif left < testing:
                break
            else:
                left -= testing
                good += 1
                parts = _distinct_degree(_monic(f, ar), ar)
                k, g = next(parts)
                if k == d:
                    return None
                if first is None:
                    first = itertools.chain([(k, g)], parts), c
            if bad > most_bad or good == scan:
                break
        if first is None or left < lift:
            continue
        left -= lift
        parts, c = first
        lc, lifted = _hensel(rows, c, e + 1, _factor_squarefree(parts, ar),
                             ar)
        back = ar.sub(ar.zero, c)
        r = len(lifted)
        for size in range(1, r // 2 + 1):
            subsets = itertools.combinations(lifted, size)
            if 2 * size == r:
                subsets = ((lifted[0],) + others for others in
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
                    read(j, _exps(t.nvars, x, i, x, i)): v
                    for i, col in enumerate(cols)
                    for j, v in enumerate(_divmod(col, g, ar)[0]) if v},
                    ar)
                if a is not None:
                    return a
        return None
    return UNDECIDED


def kronecker_route(t: ResiduePoly, limit):
    """Decide T by Kronecker's substitution into one univariate
    factorisation: a checked factor of T, or None when T is irreducible;
    a guard raises rather than leave T undecided.

    `_substitution` of Z for all of T's variables is a ring map, one-to-one
    on T's degree box.  Both parts of a factorisation T = A*B lie in it, so
    for T's image u one part's image has degree at most deg u / 2 and
    is, up to a unit, the product of a sub-multiset of u's monic
    irreducible factors.  Each such product is read back and tried as a
    divisor of T.  Charged before the work: d^3 * bitlen(q) for d =
    deg u to "univariate Rabin work", and the prod (m_i + 1)
    sub-multisets of u's factors of multiplicities m_i to "multivariate
    divisor candidates".  They are walked depth first, by an explicit
    stack, and a product past deg u / 2 is not extended.
    """
    ar, terms, used = _setup(t)
    image, read = _substitution(t, used)
    u = {image(e): c for e, c in terms.items()}
    d = max(u)
    _rabin_work(d, ar, limit)
    factors = _factor(_monic([u.get(k, ar.zero) for k in range(d + 1)], ar),
                      ar)
    needed = math.prod(m + 1 for _, m in factors)
    if needed > limit:
        raise ResourceLimitExceeded(
            "multivariate divisor candidates", limit, needed)
    zero = (0,) * t.nvars
    stack = [(0, 0, [ar.one])]  # g: factors before i, j copies of i
    while stack:
        i, j, g = stack.pop()
        if 2 * (len(g) - 1) > d:
            continue
        if i < len(factors):
            stack.append((i + 1, 0, g))
            if j < factors[i][1]:
                stack.append((i, j + 1, _mul(g, factors[i][0], ar)))
        elif len(g) > 1:
            a = _proper_factor(t, terms, {
                read(k, zero): c for k, c in enumerate(g) if c}, ar)
            if a is not None:
                return a
    return None


def is_irreducible_multivariate(t: ResiduePoly, limit=DEFAULT_CANDIDATE_LIMIT):
    """Whether T is irreducible over its residue field F_q, by the
    routes of the module docstring.  A T with positive degree in one
    variable is univariate: its factors cannot involve the others."""
    if t.is_zero or t.degree() < 1:
        raise ValueError("T must be nonzero of total degree >= 1")
    used = sum(t.degree_in(i) > 0 for i in range(t.nvars))
    if used == 1:
        ar = _Arith(t.field.p, t.field)
        f = [ar.zero] * (t.degree() + 1)
        for e, c in t.terms.items():
            f[sum(e)] = ar.element(c)
        return _irreducible_univariate(_monic(f, ar), ar, limit)
    if factor_witness(t) is not None:
        return False
    factor = lifting_route(t, limit)
    if factor is not UNDECIDED:
        return factor is None
    return kronecker_route(t, limit) is None
