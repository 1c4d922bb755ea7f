"""Arithmetic in F_p and its composite residue fields, plus exhaustive
irreducibility tests for residue polynomials.

The residue field is F_p[y_1..y_k]/(g_1..g_k) where the g_i are monic
irreducible univariate polynomials over F_p of pairwise coprime degrees;
coprimality is what makes the quotient a field, and it is enforced
loudly at construction.  Univariate F_p polynomials are coefficient
tuples, low-to-high, with no trailing zeros.

Irreducibility of a residue polynomial T(Z_1..Z_n) is decided by
exhaustive enumeration of candidate divisors, guarded by a configurable
candidate limit.  T is tiny by construction, so auditability beats
speed here.

One division routine serves every residue field.  It works on integer
element codes: a code is the base-p number whose digits are an
element's coefficients on `ResidueField.monomial_basis()`, constant
monomial lowest, so 0 encodes zero and 1 encodes one.  The search looks
its arithmetic up in add, mul and neg tables on the codes, chosen after
the guard has counted the candidates.  The first search whose count
reaches q^2 builds exact lists, so building them costs no more than the
search may, and the field keeps them for later searches.  Until then
add and mul are lists of rows that compute each entry on lookup (on the
residues themselves for a prime field) and store no entries, so a large
field costs O(q) memory, not O(q^2).
"""

from __future__ import annotations

import itertools

from .errors import ConfigError, LiftcertError, ResourceLimitExceeded
from .exactnum import check_prime
from .multipoly import grlex_key

DEFAULT_CANDIDATE_LIMIT = 10 ** 6


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


def fp_deg(g):
    return len(g) - 1  # -1 for the zero polynomial


def fp_divmod(a, b, p):
    """Division with remainder; b need not be monic."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    inv_lead = pow(b[-1], -1, p)
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        c = (r[-1] * inv_lead) % p
        d = len(r) - len(b)
        q[d] = c
        for i, cb in enumerate(b):
            r[i + d] = (r[i + d] - c * cb) % p
        while r and r[-1] == 0:
            r.pop()
    return fp_normalize(q, p), fp_normalize(r, p)


def is_irreducible_univariate(g, p, limit=DEFAULT_CANDIDATE_LIMIT):
    """Trial division over all monic candidates of degree <= deg(g)/2.

    g is monic of degree >= 1; degree-1 polynomials are irreducible.
    """
    check_prime(p)
    return _trial_division(g, p, limit)


def _trial_division(g, p, limit):
    g = fp_normalize(g, p)
    d = fp_deg(g)
    if d < 1 or g[-1] != 1:
        raise ValueError("g must be monic of degree >= 1")
    half = d // 2
    if half == 0:
        return True
    if p ** ((d + 1) // 2) > limit:
        raise ResourceLimitExceeded(
            "univariate trial-division candidates", limit, p ** ((d + 1) // 2)
        )
    for r in range(1, half + 1):
        for lower in itertools.product(range(p), repeat=r):
            cand = lower + (1,)
            _, rem = fp_divmod(g, cand, p)
            if not rem:
                return False
    return True


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
            d = fp_deg(g)
            if d < 2 or g[-1] != 1:
                raise ConfigError(
                    "residue-field generators must be monic of degree >= 2"
                )
            if not _trial_division(g, p, limit):
                raise GeneratorReducible(
                    f"generator {list(g)} is reducible over F_{p}"
                )
            self.degrees.append(d)
        for i in range(len(self.degrees)):
            for j in range(i + 1, len(self.degrees)):
                a, b = self.degrees[i], self.degrees[j]
                while b:
                    a, b = b, a % b
                if a != 1:
                    raise DegreesNotCoprime(
                        f"generator degrees {self.degrees[i]} and "
                        f"{self.degrees[j]} share a factor"
                    )
        ext = 1
        for d in self.degrees:
            ext *= d
        self.extension_degree = ext
        self.q = p ** ext
        self.nyvars = len(self.generators)
        self.zero = ResidueElement(self, {})
        self.one = ResidueElement(self, {(0,) * self.nyvars: 1})
        self._encoded = None  # code tables, see _code_tables

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
        # rewrite y_j^{m_j} using g_j until all exponents are in range
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

    def monomial_basis(self):
        """All exponent tuples componentwise below the generator degrees."""
        ranges = [range(m) for m in self.degrees]
        return sorted(itertools.product(*ranges))

    def elements(self):
        """Iterate over all q field elements (q is small by design)."""
        basis = self.monomial_basis()
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

    def __add__(self, other):
        out = dict(self.coeffs)
        p = self.field.p
        for e, c in other.coeffs.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return ResidueElement(self.field, out)

    def __neg__(self):
        p = self.field.p
        return ResidueElement(self.field, {e: (-c) % p for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

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

    def to_str(self, names=None) -> str:
        """Polynomial in y_i with integer coefficients in 0..p-1."""
        if not self.coeffs:
            return "0"
        if names is None:
            names = [f"y{i + 1}" for i in range(self.field.nyvars)]
        parts = []
        for e in sorted(self.coeffs, key=grlex_key, reverse=True):
            c = self.coeffs[e]
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)

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

    def to_str(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = [f"Z{i + 1}" for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            cs = c.to_str()
            if not factors:
                parts.append(f"({cs})" if ("+" in cs or "*" in cs) else cs)
            elif cs == "1":
                parts.append("*".join(factors))
            else:
                coef = f"({cs})" if ("+" in cs) else cs
                parts.append("*".join([coef] + factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"ResiduePoly({self.to_str()})"


class _Row:
    """One row of a table on element codes that computes each entry on
    lookup and stores no entries: row[b] is op(a, b)."""

    __slots__ = ("op", "a")

    def __init__(self, op, a):
        self.op = op
        self.a = a

    def __getitem__(self, b):
        return self.op(self.a, b)


def _code_tables(field, size):
    """The encoder of element codes and the add, mul and neg tables on
    them.  The first search whose candidate count reaches q^2 builds
    exact lists and the field keeps them; until then add and mul are
    lists of rows that compute each entry on lookup."""
    p, q = field.p, field.q
    weights = {e: p ** k for k, e in enumerate(field.monomial_basis())}

    def encode(a):
        return sum(c * weights[e] for e, c in a.coeffs.items())

    if field._encoded is not None:
        return (encode, *field._encoded)
    if not field.generators:
        # a prime field's codes are its residues
        def add(a, b):
            return (a + b) % p

        def mul(a, b):
            return a * b % p

        def neg(a):
            return -a % p
    else:
        elems = [
            ResidueElement(field, {e: code // w % p for e, w in weights.items()
                                   if code // w % p})
            for code in range(q)
        ]

        def add(a, b):
            return encode(elems[a] + elems[b])

        def mul(a, b):
            return encode(elems[a] * elems[b])

        def neg(a):
            return encode(-elems[a])

    codes = list(range(q))  # entries share these q int objects
    negs = [codes[neg(a)] for a in codes]
    if q * q > size:
        return (encode, [_Row(add, a) for a in codes],
                [_Row(mul, a) for a in codes], negs)
    adds = [[0] * q for _ in codes]
    muls = [[0] * q for _ in codes]
    for a in codes:
        for b in range(a, q):
            adds[a][b] = adds[b][a] = codes[add(a, b)]
            muls[a][b] = muls[b][a] = codes[mul(a, b)]
    field._encoded = (adds, muls, negs)
    return (encode, *field._encoded)


def is_irreducible_multivariate(t: ResiduePoly, limit=DEFAULT_CANDIDATE_LIMIT):
    """Exhaustive divisor search.

    Candidates g are non-constant, have componentwise degree within T's
    degree box, total degree at most deg(T)/2, and lex-leading
    coefficient 1 (removing unit ambiguity).  Two multiplicative facts
    prune the search: both the lex-leading and the lex-trailing monomial
    of a divisor must divide the corresponding monomial of T.
    """
    if t.is_zero or t.degree() < 1:
        raise ValueError("T must be nonzero of total degree >= 1")
    field = t.field
    n = t.nvars
    box = [t.degree_in(i) for i in range(n)]
    half = t.degree() // 2
    slots = sorted(
        e
        for e in itertools.product(*(range(b + 1) for b in box))
        if 0 < sum(e) <= half
    )
    if not slots:
        return True
    t_lead = t.lex_leading()
    t_trail = min(t.terms)
    leads = [e for e in slots if all(a <= b for a, b in zip(e, t_lead))]
    q = field.q
    total = 0
    for lead in leads:
        below = sum(1 for e in slots if e < lead) + 1  # + constant slot
        total += q ** below
        if total > limit:
            raise ResourceLimitExceeded(
                "multivariate divisor candidates", limit, total
            )
    encode, add, mul, neg = _code_tables(field, total)
    tt = {e: encode(c) for e, c in t.terms.items()}

    def divides(g_items, lead):
        # lex leading-term reduction; g's lead coefficient is 1
        r = dict(tt)
        while r:
            rl = max(r)
            if any(a < b for a, b in zip(rl, lead)):
                return False
            shift = tuple(a - b for a, b in zip(rl, lead))
            c = r[rl]
            for ge, gc in g_items:
                e = tuple(a + b for a, b in zip(shift, ge))
                v = add[r.get(e, 0)][neg[mul[c][gc]]]
                if v:
                    r[e] = v
                else:
                    r.pop(e, None)
        return True

    zero_exp = (0,) * n
    for lead in leads:
        lower = sorted(e for e in slots if e < lead) + [zero_exp]
        lower.sort()
        for combo in itertools.product(range(q), repeat=len(lower)):
            trail = lead
            for e, c in zip(lower, combo):
                if c:
                    trail = e
                    break
            if any(a > b for a, b in zip(trail, t_trail)):
                continue
            g_items = [(lead, 1)]  # code 1 encodes one
            for e, c in zip(lower, combo):
                if c:
                    g_items.append((e, c))
            if divides(g_items, lead):
                return False
    return True
