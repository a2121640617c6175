"""Univariate polynomials over Z and Q, plus the number-theoretic
utilities built on them: resultants, discriminants, square parts, and
an exact irreducibility test over Q.

Coefficients are stored constant-term first with no trailing zeros, so
the zero polynomial is the empty tuple and ``degree`` of zero is -1.
"""

import math
import operator
import re
from fractions import Fraction

from .errors import BudgetExceeded, FactorizationIncomplete, NotMonic
from .kernels import det_bareiss


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _as_int(c):
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise ValueError(f"non-integer coefficient {c}")
        return c.numerator
    return operator.index(c)


class IntPoly:
    """Integer polynomial; immutable, hashable, exact."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", tuple(_as_int(c) for c in _strip(coeffs)))

    def __setattr__(self, *a):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def x_power(cls, k, scale=1):
        return cls([0] * k + [scale])

    @classmethod
    def cyclic(cls, k):
        """x^k - 1."""
        return cls([-1] + [0] * (k - 1) + [1])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("IntPoly", self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def to_rat(self):
        return RatPoly([Fraction(c) for c in self.coeffs])

    def __repr__(self):
        return f"IntPoly({format_poly(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self.coeffs)


class RatPoly:
    """Rational polynomial; same storage conventions as IntPoly."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", tuple(_strip([Fraction(c) for c in coeffs])))

    def __setattr__(self, *a):
        raise AttributeError("RatPoly is immutable")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            other = other.to_rat()
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("RatPoly", self.coeffs))

    def __add__(self, other):
        if isinstance(other, IntPoly):
            other = other.to_rat()
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, IntPoly):
            other = other.to_rat()
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, IntPoly):
            other = other.to_rat()
        if isinstance(other, (int, Fraction)):
            return RatPoly([other * c for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RatPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return RatPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self):
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __divmod__(self, other):
        if isinstance(other, IntPoly):
            other = other.to_rat()
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        lead = den[-1]
        quo = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                f = c / lead
                quo[i - dd] = f
                for j, dc in enumerate(den):
                    rem[i - dd + j] -= f * dc
        return RatPoly(quo), RatPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        inv = 1 / self.coeffs[-1]
        return RatPoly([c * inv for c in self.coeffs])

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs)

    def to_int_poly(self):
        if not self.is_integral():
            raise ValueError("polynomial has non-integer coefficients")
        return IntPoly([int(c) for c in self.coeffs])

    def __repr__(self):
        return f"RatPoly({format_poly(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self.coeffs)


def poly_gcd(a, b):
    """Monic gcd over Q (inputs IntPoly or RatPoly)."""
    if isinstance(a, IntPoly):
        a = a.to_rat()
    if isinstance(b, IntPoly):
        b = b.to_rat()
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_xgcd(a, b):
    """Extended gcd over Q: (g, s, t) with s*a + t*b = g, g monic."""
    if isinstance(a, IntPoly):
        a = a.to_rat()
    if isinstance(b, IntPoly):
        b = b.to_rat()
    r0, r1 = a, b
    s0, s1 = RatPoly([1]), RatPoly()
    t0, t1 = RatPoly(), RatPoly([1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = r0.leading()
    inv = 1 / lead
    return r0.monic(), s0 * inv, t0 * inv


def poly_mod(g, p):
    """Unique representative of g modulo p with degree < deg p."""
    if isinstance(g, IntPoly):
        g = g.to_rat()
    return g % p


def resultant(a, b):
    """Resultant of two integer polynomials via the Sylvester matrix.

    Sign convention: resultant(x - s, x - t) = s - t, i.e.
    Res(a, b) = lc(a)^deg(b) * prod b(root) over the roots of a.
    """
    if isinstance(a, RatPoly):
        a = a.to_int_poly()
    if isinstance(b, RatPoly):
        b = b.to_int_poly()
    m, n = a.degree, b.degree
    if m < 0 or n < 0:
        return 0
    if m == 0:
        return a.coeffs[0] ** n
    if n == 0:
        return b.coeffs[0] ** m
    size = m + n
    rows = []
    ac = list(reversed(a.coeffs))  # leading first
    bc = list(reversed(b.coeffs))
    for i in range(n):
        rows.append([0] * i + ac + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + bc + [0] * (size - n - 1 - i))
    return det_bareiss(rows)


def discriminant(p):
    """disc(p) = (-1)^(n(n-1)/2) * Res(p, p') for monic p, deg >= 2."""
    if isinstance(p, RatPoly):
        p = p.to_int_poly()
    if not p.is_monic():
        raise NotMonic("discriminant requires a monic polynomial")
    n = p.degree
    if n < 2:
        raise ValueError("discriminant requires degree >= 2")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative())


# --------------------------------------------------------------------
# integer factorization (supports square_part and the order search)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981  # deterministic below this bound

TRIAL_DIVISION_BOUND = 10**6
_POLLARD_MAX_ROUNDS = 64


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        # The bases above only give a proof below _MR_LIMIT; a "probably
        # prime" answer is not good enough for an exact library.
        raise FactorizationIncomplete(f"cannot certify primality of {n}")
    return True


def _pollard_brent(n, rng_state=1):
    """One Pollard-Brent attempt; returns a nontrivial factor or None."""
    if n % 2 == 0:
        return 2
    y, c, m = rng_state % n or 1, rng_state % (n - 1) or 1, 128
    g, r, q = 1, 1, 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
        if r > 1 << 22:
            return None
    if g == n:
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
    return g if g != n else None


def _trial_division(n, bound):
    """(factors, m) with n = m·prod(q^e) for ``factors`` a dict q -> e of
    the primes q <= bound dividing n > 0; m is 1, a prime, or has no
    prime factor <= bound."""
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    w = 0
    while f * f <= n and f <= bound:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[w]
        w = (w + 1) % 8
    if n > 1 and f * f > n:
        out[n] = out.get(n, 0) + 1
        n = 1
    return out, n


def factorint(n):
    """Full factorization of |n| as a dict prime -> exponent.

    Raises FactorizationIncomplete when the remaining cofactor resists
    trial division, Miller-Rabin certification and Pollard-Brent within
    the configured budget; a wrong answer is never returned.
    """
    n = abs(int(n))
    if n == 0:
        raise ValueError("cannot factor 0")
    out, n = _trial_division(n, TRIAL_DIVISION_BOUND)
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = None
        for seed in range(1, _POLLARD_MAX_ROUNDS + 1):
            d = _pollard_brent(m, seed)
            if d:
                break
        if not d:
            raise FactorizationIncomplete(f"failed to split composite {m}")
        stack.append(d)
        stack.append(m // d)
    return out


def square_part(d):
    """Write d = F^2 * Delta with Delta square-free and F maximal > 0.

    Returns (F, Delta); Delta carries the sign of d.
    """
    d = int(d)
    if d == 0:
        raise ValueError("square_part is undefined for 0")
    sign = -1 if d < 0 else 1
    fac = factorint(d)
    big_f = 1
    delta = sign
    for p, e in fac.items():
        big_f *= p ** (e // 2)
        if e % 2:
            delta *= p
    return big_f, delta


# --------------------------------------------------------------------
# irreducibility over Q

def _gf_normalize(c, q):
    c = [e % q for e in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def _gf_mul(a, b, q):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return [e % q for e in out]


def _gf_mulmod(a, b, mod, q):
    """a·b mod (mod, q) for a monic ``mod``: one reduction pass from the
    top, with no inverse of the lead."""
    out = _gf_mul(a, b, q)
    dm = len(mod) - 1
    for i in range(len(out) - 1, dm - 1, -1):
        c = out[i] % q
        if c:
            for j in range(dm):
                out[i - dm + j] -= c * mod[j]
    return _gf_normalize(out[:dm], q)


def _gf_divmod(a, b, q):
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], q - 2, q)
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % q
        if c:
            f = c * inv % q
            quo[i - db] = f
            for j, bc in enumerate(b):
                a[i - db + j] = (a[i - db + j] - f * bc) % q
    return _gf_normalize(quo, q), _gf_normalize(a, q)


def _gf_gcd(a, b, q):
    while b:
        a, b = b, _gf_divmod(a, b, q)[1]
    if a:
        inv = pow(a[-1], q - 2, q)
        a = [c * inv % q for c in a]
    return a


def _gf_powmod(base, exp, mod, q):
    result = [1]
    base = _gf_divmod(base, mod, q)[1]
    while exp:
        if exp & 1:
            result = _gf_mulmod(result, base, mod, q)
        base = _gf_mulmod(base, base, mod, q)
        exp >>= 1
    return result


def _gf_radical(f, q):
    """The product of the distinct monic irreducible factors of the
    monic f mod the prime q, by squarefree decomposition (Cohen, GTM 138,
    Alg. 3.4.2).  Write f = Π P_i^m_i.  If f' = 0, then f = g(x^q) =
    g^q (the Frobenius fixes F_q), so rad f = rad g.  Otherwise
    gcd(f, f') = Π P_i^(m_i - 1) over q ∤ m_i times Π P_i^m_i over
    q | m_i, so r = f/gcd(f, f') is the product of the P_i with q ∤ m_i;
    dividing those out of the gcd leaves the q-th power Π P_i^m_i over
    q | m_i, whose radical is taken by recursion."""
    if len(f) <= 1:
        return [1]
    df = _gf_normalize([i * c for i, c in enumerate(f)][1:], q)
    if not df:
        return _gf_radical(f[::q], q)
    rest = _gf_gcd(f, df, q)
    r = _gf_divmod(f, rest, q)[0]
    while True:
        common = _gf_gcd(rest, r, q)
        if len(common) == 1:
            break
        rest = _gf_divmod(rest, common, q)[0]
    return _gf_mul(r, _gf_radical(rest, q), q)


def _factor_degrees_mod(p, q):
    """Multiset of irreducible-factor degrees of p mod q (p squarefree
    mod q assumed)."""
    f = _gf_normalize(list(p.coeffs), q)
    degrees = []
    w = [0, 1]  # x
    d = 0
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            degrees.append(len(f) - 1)
            break
        w = _gf_powmod(w, q, f, q)
        diff = list(w) + [0] * max(0, 2 - len(w))
        diff[1] = (diff[1] - 1) % q  # w - x
        g = _gf_gcd(f, _gf_normalize(diff, q), q)
        if len(g) - 1 > 0:
            degrees.extend([d] * ((len(g) - 1) // d))
            f = _gf_divmod(f, g, q)[0]
            w = _gf_divmod(w, f, q)[1]
    return degrees


def _subset_sums(degrees, total):
    mask = 1
    for d in degrees:
        mask |= mask << d
    return {s for s in range(1, total) if (mask >> s) & 1}


def _int_divmod_monic(a, b):
    """Exact division of integer coefficient lists by a monic b; returns
    (quotient, remainder) over Z."""
    a = list(a)
    db = len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            quo[i - db] = c
            for j, bc in enumerate(b):
                a[i - db + j] -= c * bc
    return quo, _strip(a)


IRREDUCIBILITY_SEARCH_BUDGET = 50_000  # factor values tried at most


def _signed_divisors(n):
    """Every divisor of the nonzero integer n, both signs, smallest first;
    None when n does not split: trial division up to 10^4 must leave 1
    or a proven prime."""
    try:
        fac, m = _trial_division(abs(n), 10**4)
        if m > 1:
            if not _is_prime(m):
                return None
            fac[m] = 1
    except FactorizationIncomplete:
        return None
    divs = [1]
    for q, e in fac.items():
        divs = [d * q**i for d in divs for i in range(e + 1)]
    return [s * d for d in sorted(divs) for s in (1, -1)]


def _root_or_repeated_factor(p):
    """True when the monic p of degree >= 2 with p(0) ≠ 0 has an integer
    root or a repeated factor, found q-adically, without factoring p(0).

    Take the primes q = 2, 3, 5, ... in turn.  At the first q where
    every root r of p mod q is simple (p'(r) ≢ 0), Newton's step lifts
    each r to the unique root mod q^(2^k) above it (Hensel).  An integer
    root s divides p(0) and has |s| <= 1 + max |p_i| (Cauchy); with B
    the smaller bound, s reduces to a root mod q, so once q^(2^k) > 2B
    it is the symmetric residue of one lift, and each lift is checked
    exactly.  A prime with a multiple root mod q divides
    disc(p) = ±Res(p, p').  Hadamard's bound on the rows of the
    Sylvester matrix gives |disc(p)| <= ||p||^(n-1)·||p'||^n, so once
    the product of such primes exceeds it, disc(p) = 0: p has a
    repeated factor.  The local Horner loop spares building p' as an
    IntPoly, which doubles the cost of a unit cubic.
    """
    c = p.coeffs

    def at(coeffs, x):
        out = 0
        for e in reversed(coeffs):
            out = out * x + e
        return out

    multiple = 1
    q = 1
    while True:
        q += 1
        if not _is_prime(q):
            continue
        roots = [x for x in range(q) if at(c, x) % q == 0]
        if not roots:
            return False
        dc = [k * e for k, e in enumerate(c)][1:]
        if any(at(dc, r) % q == 0 for r in roots):
            multiple *= q
            n = p.degree
            if multiple**2 > sum(e * e for e in c) ** (n - 1) * sum(e * e for e in dc) ** n:
                return True
            continue
        bound = min(abs(c[0]), 1 + max(map(abs, c[:-1])))
        mod = q
        while mod <= 2 * bound:
            mod *= mod
            roots = [(r - at(c, r) * pow(at(dc, r), -1, mod)) % mod for r in roots]
        return any(at(c, r if 2 * r <= mod else r - mod) == 0 for r in roots)


def _kronecker_points(p, k):
    """k integer points x with the divisors of p(x), those with the
    fewest divisors first, out of |x| <= deg p; BudgetExceeded when fewer
    than k of those values can be factored.  p has no integer root, so
    p(x) != 0."""
    ranked = []
    for x in sorted(range(-p.degree, p.degree + 1), key=abs):
        divs = _signed_divisors(p(x))
        if divs is not None:
            ranked.append((len(divs), len(ranked), x, divs))
    if len(ranked) < k:
        raise BudgetExceeded(f"{p}: too few values factor for the factor search")
    ranked.sort()
    return [(x, divs) for _, _, x, divs in ranked[:k]]


def _kronecker_factor(p, k, tried):
    """A monic integer factor of p of degree k, or None; ``tried`` is the
    one-element list counting the factor values tried against
    IRREDUCIBILITY_SEARCH_BUDGET.

    Kronecker's method: a monic h of degree k is fixed by its values v_i
    at k distinct integer points x_i, and h | p forces v_i | p(x_i).  h
    is integral exactly when its Newton coefficients
    c_j = (v_j - h_(j-1)(x_j)) / prod_(i<j) (x_j - x_i) are integers,
    h_(j-1) the interpolant of the first j values, so a value that leaves
    c_j fractional is cut before the later points are tried.
    """
    points = _kronecker_points(p, k)
    xs = [x for x, _ in points]
    newton = []

    def extend(j):
        if j == k:
            h = [1]  # h = c_0 + (x - x_0)(c_1 + ... (c_(k-1) + (x - x_(k-1))))
            for i in range(k - 1, -1, -1):
                h = [newton[i] - xs[i] * h[0]] + [
                    a - xs[i] * b for a, b in zip(h, h[1:])
                ] + [h[-1]]
            return h if not _int_divmod_monic(p.coeffs, h)[1] else None
        base = 0  # h_(j-1)(x_j), by Horner on the Newton form
        for i in range(j - 1, -1, -1):
            base = base * (xs[j] - xs[i]) + newton[i]
        step = math.prod(xs[j] - xs[i] for i in range(j))
        for v in points[j][1]:
            tried[0] += 1
            if tried[0] > IRREDUCIBILITY_SEARCH_BUDGET:
                raise BudgetExceeded(f"{p}: the factor search exceeds its budget")
            c, rem = divmod(v - base, step)
            if rem:
                continue
            newton.append(c)
            found = extend(j + 1)
            if found is not None:
                return found
            newton.pop()
        return None

    return extend(0)


def is_irreducible(p):
    """Exact irreducibility of a monic integer polynomial over Q.

    Degree <= 3 falls to the integer roots, lifted from roots modulo a
    prime (``_root_or_repeated_factor``).  Higher degrees are first attacked
    by factor-degree patterns modulo several primes; once no root is
    found, the possible factor degrees start at 2..n-2.  If every prime
    leaves a possible proper factor degree, Kronecker's search for a
    monic integer factor of each such degree (``_kronecker_factor``)
    settles the question.  The answer is always a proof, never a
    probability; when too few values of p factor, or a search would try
    more than IRREDUCIBILITY_SEARCH_BUDGET factor values, BudgetExceeded
    is raised instead.
    """
    if isinstance(p, RatPoly):
        p = p.to_int_poly()
    if not p.is_monic():
        raise NotMonic("irreducibility test requires a monic polynomial")
    n = p.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    if p.coeffs[0] == 0:
        return False  # x divides
    # A rational root of a monic integer p is an integer, and for n >= 2
    # a root or a repeated factor makes p reducible.  Up to degree 3 a
    # factor is linear, so that settles it.
    if _root_or_repeated_factor(p):
        return False
    if n <= 3:
        return True

    disc = resultant(p, p.derivative())
    if disc == 0:
        return False  # a repeated factor
    # No rational roots, so no linear factor and no degree n-1 cofactor.
    possible = set(range(2, n - 1))
    used = 0
    for prime in range(3, 200, 2):
        if used >= 8:
            break
        if _is_prime(prime) and disc % prime:
            possible &= _subset_sums(_factor_degrees_mod(p, prime), n)
            used += 1
            if not possible:
                return True
    candidates = sorted(d for d in possible if d <= n // 2 and (n - d) in possible)
    if not candidates:
        return True

    # A monic rational factor of a monic integer polynomial is integral
    # (Gauss), so finding none of any open degree is a proof.
    tried = [0]
    for k in candidates:
        if _kronecker_factor(p, k, tried) is not None:
            return False
    return True


# --------------------------------------------------------------------
# text format:  "x^3-23x^2+7x-1",  "3/2x^2",  "(1/2)b^2+3"

def _split_terms(s):
    terms = []
    depth = 0
    cur = ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and cur.strip() and not cur.rstrip().endswith(("^", "(", "/")):
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    if cur.strip():
        terms.append(cur)
    return terms


def parse_poly(text, var="x"):
    """Parse polynomial text into a constant-first list of Fractions.

    Accepted term shapes: ``7``, ``-3/2``, ``(3/2)x^2``, ``3/2x^2``
    (the rational multiplies the power), ``x``, ``-x^3``, ``2*x``.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    v = re.escape(var)
    term_re = re.compile(
        rf"^(?P<sign>[+-]?)(?P<coef>\(?-?\d+(?:/\d+)?\)?)?"
        rf"(?:\*?(?P<var>{v})(?:\^(?P<exp>\d+))?)?$"
    )
    coeffs = {}
    for raw in _split_terms(s):
        m = term_re.match(raw)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"cannot parse polynomial term {raw!r}")
        coef = m.group("coef")
        if coef is None:
            c = Fraction(1)
        else:
            c = Fraction(coef.strip("()"))
        if m.group("sign") == "-":
            c = -c
        if m.group("var") is None:
            exp = 0
        else:
            exp = int(m.group("exp")) if m.group("exp") else 1
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + c
    deg = max(coeffs) if coeffs else 0
    return [coeffs.get(i, Fraction(0)) for i in range(deg + 1)]


def parse_int_poly(text, var="x"):
    coeffs = parse_poly(text, var)
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("expected integer coefficients")
    return IntPoly([int(c) for c in coeffs])


def parse_rat_poly(text, var="x"):
    return RatPoly(parse_poly(text, var))


def format_poly(coeffs, var="x"):
    """Render constant-first coefficients in descending-degree text.

    Fractions are parenthesized: ``(3/2)x^2-x+(1/2)``.
    """
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        neg = c < 0
        mag = -c if neg else c
        if isinstance(mag, Fraction) and mag.denominator == 1:
            mag = mag.numerator
        if isinstance(mag, Fraction):
            coef = f"({mag.numerator}/{mag.denominator})"
        else:
            coef = str(mag)
        if k == 0:
            term = coef
        else:
            xpow = var if k == 1 else f"{var}^{k}"
            term = xpow if coef == "1" else f"{coef}{xpow}"
        if not parts:
            parts.append("-" + term if neg else term)
        else:
            parts.append(("-" if neg else "+") + term)
    return "".join(parts)
