"""Arithmetic in F_p and its composite residue fields, plus
irreducibility tests for residue polynomials.

The residue field is F_p[y_1..y_k]/(g_1..g_k) where the g_i are monic
irreducible univariate polynomials over F_p of pairwise coprime degrees;
coprimality is what makes the quotient a field, and it is enforced
loudly at construction.  Univariate F_p polynomials are coefficient
tuples, low-to-high, with no trailing zeros; the routines behind Ben-Or's
test take lists in the same order over F_q.

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
bounds it.

A residue polynomial T(Z_1..Z_n) of positive degree in two or more
variables is decided in three steps.  First a guard counts the
candidate divisors of an exhaustive search and raises
ResourceLimitExceeded above the limit, so every T that could reach the
search is bounded before any work is done.  Second, a
specialisation witness: if T is primitive in a main variable Z_i and a
point c for the other variables keeps T's Z_i-degree and makes T(c)
irreducible by Ben-Or's test, then T is irreducible, because a
factorisation of T would specialise to one of T(c) or put a non-unit in
T's content.  The points tried, over all main variables, are at most the
candidate count the guard admitted.  Third, only if no witness is found,
the exhaustive divisor search decides; it decides every reducible T.
It tries only candidates g that fit T's degrees, which leaves every
answer as it is:
- a g with lex-leading monomial L has only monomials e with e_i <=
  deg_i T - H_i and |e| <= deg T - |H|, where H = lead(T) - L, because
  the cofactor T/g leads with H and degrees add under multiplication;
- the division of T by g stops at the first quotient monomial s with
  s_i > deg_i T - deg_i g, |s| > deg T - deg g or s <lex trail(T) -
  trail(g), because every quotient monomial is one of the cofactor's,
  whose degrees and lex-trailing monomial are those differences.
The guard's count, and the witness's budget, stay those of the
unpruned search.

One field arithmetic, `_Arith`, serves Ben-Or's test, the witness and the
divisor search: plain residues mod p for a prime field, ResidueElements
for an extension field.  Points and candidate coefficients are drawn
from its elements in the order of `ResidueField.elements()`; a prime
field's are range(p).  An extension field's q elements are listed on
first use, once by the witness and once by the search, and the field
does not keep them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

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
    """Field operations for Ben-Or's test, the witness and the divisor
    search: plain residues mod p for a prime field, ResidueElements for
    an extension field.  Zero is falsy in both.  `element` converts a
    ResidueElement to this representation; `elements` lists the q
    elements in the order of `ResidueField.elements()`.
    """

    def __init__(self, p, field=None):
        if field is None or not field.generators:
            self.field = None
            self.q, self.zero, self.one = p, 0, 1
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.mul = lambda a, b: a * b % p
            self.inv = lambda a: pow(a, -1, p)
            self.element = lambda a: a.coeffs.get((), 0)
        else:
            self.field = field
            self.q, self.zero, self.one = field.q, field.zero, field.one
            self.add, self.sub = operator.add, operator.sub
            self.mul, self.inv = operator.mul, ResidueElement.inverse
            self.element = lambda a: a

    @functools.cached_property
    def elements(self):
        if self.field is None:
            return range(self.q)
        return list(self.field.elements())


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _monic(a, ar):
    inv = ar.inv(a[-1])
    return [ar.mul(inv, c) for c in a]


def _rem(a, f, ar):
    """a mod f, for monic f."""
    r = list(a)
    n = len(f) - 1
    for k in range(len(r) - 1, n - 1, -1):
        c = r[k]
        if c:
            for j in range(n):
                r[k - n + j] = ar.sub(r[k - n + j], ar.mul(c, f[j]))
    return _trim(r[:n])


def _mulmod(a, b, f, ar):
    if not a or not b:
        return []
    prod = [ar.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = ar.add(prod[i + j], ar.mul(x, y))
    return _rem(prod, f, ar)


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
        b = _monic(b, ar)
        a, b = b, _rem(a, b, ar)
    return _monic(a, ar) if a else a


def _ben_or(f, ar):
    """Ben-Or's test: a monic f of degree d >= 1 over F_q is irreducible
    if and only if gcd(Z^(q^k) - Z, f) = 1 for k = 1..d/2, since a
    reducible f has a factor of degree at most d/2."""
    h = z = [ar.zero, ar.one]  # Z mod f, since the loop runs only for d >= 2
    for _ in range((len(f) - 1) // 2):
        h = _powmod(h, ar.q, f, ar)  # Z^(q^k) mod f
        diff = [ar.sub(a, b) for a, b in itertools.zip_longest(
            h, z, fillvalue=ar.zero)]
        if len(_gcd(f, diff, ar)) > 1:
            return False
    return True


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
        """Iterate over all q field elements (q is small by design): the
        coefficient vectors on the monomials below the generator degrees,
        in lexicographic order."""
        basis = list(itertools.product(*(range(m) for m in self.degrees)))
        for digits in itertools.product(range(self.p), repeat=len(basis)):
            yield ResidueElement(
                self, {e: d for e, d in zip(basis, digits) if d}
            )


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
    left = budget

    def points(k, holes):
        # the points of F_q^k, spread over the variables with None at the
        # holes
        nonlocal left
        for point in itertools.product(ar.elements, repeat=k):
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


def is_irreducible_multivariate(t: ResiduePoly, limit=DEFAULT_CANDIDATE_LIMIT):
    """Whether T is irreducible over its residue field F_q, by the
    routes of the module docstring.  A T with positive degree in one
    variable is univariate: its factors cannot involve the others."""
    if t.is_zero or t.degree() < 1:
        raise ValueError("T must be nonzero of total degree >= 1")
    field = t.field
    if sum(t.degree_in(i) > 0 for i in range(t.nvars)) == 1:
        ar = _Arith(field.p, field)
        f = [ar.zero] * (t.degree() + 1)
        for e, c in t.terms.items():
            f[sum(e)] = ar.element(c)
        return _irreducible_univariate(_monic(f, ar), ar, limit)
    slots, leads = _divisor_slots(t)
    if not slots:
        return True
    q = field.q
    total = 0
    for lead in leads:
        below = sum(1 for e in slots if e < lead) + 1  # + constant slot
        total += q ** below
        if total > limit:
            raise ResourceLimitExceeded(
                "multivariate divisor candidates", limit, total
            )
    if specialisation_witness(t, total) is not None:
        return True
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
    - every quotient monomial s of the lex division is a monomial of h,
      so it has s_i <= deg_i T - deg_i g, |s| <= deg T - deg g and s
      >=lex trail(T) - trail(g), lex-trailing monomials adding as the
      leading ones do; the division stops at the first s that does not.
    """
    slots, leads = _divisor_slots(t)
    box = [t.degree_in(i) for i in range(t.nvars)]
    deg = t.degree()
    t_lead, t_trail = t.lex_leading(), min(t.terms)
    ar = _Arith(t.field.p, t.field)
    sub, mul, zero = ar.sub, ar.mul, ar.zero
    tt = {e: ar.element(c) for e, c in t.terms.items()}

    def divides(g_items, lead, caps, room, floor):
        # lex leading-term reduction; g's lead coefficient is 1, and each
        # quotient monomial s must fit the bounds on h's monomials
        r = dict(tt)
        while r:
            rl = max(r)
            s = tuple(a - b for a, b in zip(rl, lead))
            if (s < floor or sum(s) > room
                    or any(not 0 <= a <= b for a, b in zip(s, caps))):
                return False
            c = r[rl]
            for ge, gc in g_items:
                e = tuple(a + b for a, b in zip(s, ge))
                v = sub(r.get(e, zero), mul(c, gc))
                if v:
                    r[e] = v
                else:
                    r.pop(e, None)
        return True

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
        for combo in itertools.product(ar.elements, repeat=len(lower)):
            g_items = [(lead, ar.one)]
            g_items += [(e, c) for e, c in zip(lower, combo) if c]
            monos = [e for e, _ in g_items]
            trail = min(monos)
            if any(a > b for a, b in zip(trail, t_trail)):
                continue
            caps = [b - max(col) for b, col in zip(box, zip(*monos))]
            room = deg - max(map(sum, monos))
            floor = tuple(a - b for a, b in zip(t_trail, trail))
            if divides(g_items, lead, caps, room, floor):
                return False
    return True
