"""Exact arithmetic in the group ring of the root lattice.

``GammaElement`` is a finite integer combination of formal exponentials
``e^lam`` indexed by root-lattice vectors ``lam`` (tuples of integers over the
simple-root basis).  This is a Laurent ring: exponents may be negative.  All
arithmetic is exact over the integers; there are no floats anywhere.  Its
ring operations live in ``SparsePolynomial``, which ``ChernPolynomial``
shares, and the field operations of its fractions in ``PolynomialFraction``,
which ``cohomology.LambdaFraction`` shares.

The module also provides

* ``QPolynomial`` - polynomials in a deformation parameter q with
  ``GammaElement`` coefficients, truncated at an explicit degree bound;
* ``exact_divide`` - exact multivariate division, the only way this codebase
  ever "divides" group-ring elements;
* ``GammaFraction`` - the exact fraction field of the group ring, with the
  field operators the Molev-Sagan recursion runs on;
* ``DEFAULT_PRIMES`` and ``default_assignments`` - the primes and nonzero
  residues of the generators ``e^{-alpha_i}`` that mod-p backends evaluate at
  (the evaluation itself is ``qkring._eval_array``);
* ``ChernPolynomial`` and ``ch_leading`` - the graded pieces of the Chern
  character ``e^lam -> exp(c(lam))``, with exact rational coefficients.
"""

from __future__ import annotations

from math import factorial, gcd

Exponent = tuple[int, ...]


class GammaError(Exception):
    pass


class NotDivisible(GammaError):
    """Exact division requested for a non-multiple."""


class ZeroAssignment(GammaError):
    """A mod-p assignment must send every generator to a nonzero residue."""


class SparsePolynomial:
    """Sparse polynomial in ``rank`` variables: a dict from exponent tuple to
    nonzero coefficient.

    The ring operations of ``GammaElement`` and ``ChernPolynomial``, written
    once.  A subclass fixes its coefficients: ``_scalars`` are the types that
    multiply an element coefficient-wise.  Operands of different rank raise
    ``GammaError``.
    """

    __slots__ = ("rank", "terms", "_hash")
    _scalars: tuple[type, ...] = (int,)

    def __init__(self, rank: int, terms: dict | None = None):
        self.rank = rank
        self.terms = {e: c for e, c in (terms or {}).items() if c}
        self._hash: int | None = None

    @classmethod
    def zero(cls, rank: int):
        return cls(rank)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other: "SparsePolynomial") -> None:
        if self.rank != other.rank:
            raise GammaError("rank mismatch in polynomial arithmetic")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return type(self)(self.rank, out)

    def __neg__(self):
        return type(self)(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            if not other:
                return type(self)(self.rank)
            return type(self)(self.rank, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out = {}
        small, big = (self.terms, other.terms)
        if len(small) > len(big):
            small, big = big, small
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return type(self)(self.rank, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise GammaError("negative powers need exact division")
        result = type(self)(self.rank, {(0,) * self.rank: 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.rank == other.rank and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.rank, tuple(sorted(self.terms.items()))))
        return self._hash

    def leading(self) -> tuple:
        """The lexicographically largest exponent and its coefficient."""
        e = max(self.terms)
        return e, self.terms[e]


class GammaElement(SparsePolynomial):
    """Sparse Laurent element: dict from exponent tuple to nonzero int."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(rank: int, n: int) -> "GammaElement":
        return GammaElement(rank, {(0,) * rank: n})

    @staticmethod
    def monomial(exponent: Exponent, coeff: int = 1) -> "GammaElement":
        return GammaElement(len(exponent), {tuple(exponent): coeff})

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            bits.append(f"{c}*e{list(e)}")
        return " + ".join(bits)

    # -- content helpers (used by fraction normalization) -------------------

    def int_content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(c))
            if g == 1:
                break
        return g or 1

    def min_exponent(self) -> Exponent:
        mins = [min(e[i] for e in self.terms) for i in range(self.rank)]
        return tuple(mins)

    def shifted(self, offset: Exponent) -> "GammaElement":
        return GammaElement(
            self.rank,
            {tuple(a + b for a, b in zip(e, offset)): c for e, c in self.terms.items()},
        )

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "rank": self.rank,
            "terms": [[list(e), c] for e, c in self.sorted_terms()],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "GammaElement":
        terms = {tuple(e): int(c) for e, c in obj["terms"]}
        return GammaElement(int(obj["rank"]), terms)


def exact_divide(a: GammaElement, b: GammaElement) -> GammaElement:
    """Return q with a = q * b, or raise NotDivisible.

    Exponents are shifted to be nonnegative and the quotient is produced by
    leading-term division in lexicographic order.  For a true multiple the
    leading term of the remainder is divisible at every step, so the loop
    terminates with zero remainder; any failure (monomial or integer
    coefficient) proves a is not a multiple of b.
    """
    if b.is_zero():
        raise NotDivisible("division by zero")
    if a.is_zero():
        return GammaElement.zero(a.rank)
    a._check(b)
    shift_a = a.min_exponent()
    shift_b = b.min_exponent()
    num = a.shifted(tuple(-x for x in shift_a))
    den = b.shifted(tuple(-x for x in shift_b))
    lead_e, lead_c = den.leading()
    quot: dict[Exponent, int] = {}
    rem = dict(num.terms)
    while rem:
        e = max(rem)
        c = rem[e]
        qe = tuple(x - y for x, y in zip(e, lead_e))
        if any(x < 0 for x in qe):
            raise NotDivisible("leading monomial not divisible")
        qc, r = divmod(c, lead_c)
        if r:
            raise NotDivisible("leading coefficient not divisible")
        quot[qe] = qc
        for de, dc in den.terms.items():
            te = tuple(x + y for x, y in zip(qe, de))
            s = rem.get(te, 0) - qc * dc
            if s:
                rem[te] = s
            else:
                rem.pop(te, None)
    offset = tuple(x - y for x, y in zip(shift_a, shift_b))
    return GammaElement(a.rank, quot).shifted(offset)


# ---------------------------------------------------------------------------
# q-truncated polynomials over the group ring


class QPolynomial:
    """Polynomial in q with GammaElement coefficients, lowest degree first."""

    __slots__ = ("rank", "coeffs")

    def __init__(self, rank: int, coeffs: list[GammaElement] | None = None):
        self.rank = rank
        cs = list(coeffs or [])
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = cs

    @staticmethod
    def zero(rank: int) -> "QPolynomial":
        return QPolynomial(rank)

    @staticmethod
    def from_gamma(g: GammaElement) -> "QPolynomial":
        return QPolynomial(g.rank, [g])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, d: int) -> GammaElement:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return GammaElement.zero(self.rank)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial(
            self.rank, [self.coeff(d) + other.coeff(d) for d in range(n)]
        )

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(self.rank, [-c for c in self.coeffs])

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def mul(self, other: "QPolynomial", tmax: int | None = None) -> "QPolynomial":
        if self.is_zero() or other.is_zero():
            return QPolynomial.zero(self.rank)
        n = len(self.coeffs) + len(other.coeffs) - 1
        if tmax is not None:
            n = min(n, tmax + 1)
        out = [GammaElement.zero(self.rank) for _ in range(n)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero() or i >= n:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                if b:
                    out[i + j] = out[i + j] + a * b
        return QPolynomial(self.rank, out)

    def __mul__(self, other):
        if isinstance(other, QPolynomial):
            return self.mul(other)
        if isinstance(other, GammaElement):
            return QPolynomial(self.rank, [c * other for c in self.coeffs])
        raise TypeError(other)

    def shift_q(self, k: int) -> "QPolynomial":
        return QPolynomial(
            self.rank, [GammaElement.zero(self.rank)] * k + list(self.coeffs)
        )

    def truncate(self, tmax: int) -> "QPolynomial":
        return QPolynomial(self.rank, self.coeffs[: tmax + 1])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QPolynomial)
            and self.rank == other.rank
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.rank, tuple(self.coeffs)))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"({c!r})*q^{d}" if d else f"({c!r})" for d, c in enumerate(self.coeffs) if c
        )

    def to_json_obj(self) -> dict:
        return {"rank": self.rank, "q_coeffs": [c.to_json_obj() for c in self.coeffs]}

    @staticmethod
    def from_json_obj(obj: dict) -> "QPolynomial":
        return QPolynomial(
            int(obj["rank"]),
            [GammaElement.from_json_obj(c) for c in obj["q_coeffs"]],
        )


# ---------------------------------------------------------------------------
# Fraction fields


class PolynomialFraction:
    """num/den over a ``SparsePolynomial`` ring; equality by cross
    multiplication, so unhashable.

    The field operations of ``GammaFraction`` and
    ``cohomology.LambdaFraction``, written once.  A subclass supplies
    ``_normalize(num, den)``, its best-effort reduced form; correctness never
    depends on it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: SparsePolynomial, den: SparsePolynomial, normalize: bool = True):
        if den.is_zero():
            raise ZeroDivisionError(f"zero denominator in {type(self).__name__}")
        if normalize:
            num, den = self._normalize(num, den)
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        if self.den == other.den:
            return type(self)(self.num + other.num, self.den)
        return type(self)(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        if self.den == other.den:
            return type(self)(self.num - other.num, self.den)
        return type(self)(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return type(self)(-self.num, self.den, normalize=False)

    def __mul__(self, other):
        return type(self)(self.num * other.num, self.den * other.den)

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError(f"inverting zero {type(self).__name__}")
        return type(self)(self.den, self.num)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    # equal fractions need not share num and den
    __hash__ = None

    def __repr__(self) -> str:
        return f"({self.num!r})/({self.den!r})"


_NORMALIZE_TERM_CAP = 400


class GammaFraction(PolynomialFraction):
    """The fraction field of the group ring.

    Normalization: integer content, monomial content of the denominator, and
    two-way exact-division attempts under a size cap.
    """

    __slots__ = ()

    @staticmethod
    def from_gamma(g: GammaElement) -> "GammaFraction":
        return GammaFraction(g, GammaElement.from_int(g.rank, 1), normalize=False)

    @staticmethod
    def _normalize(num: GammaElement, den: GammaElement) -> tuple[GammaElement, GammaElement]:
        if num.is_zero():
            return num, GammaElement.from_int(den.rank, 1)
        # Shift the denominator's monomial content into the numerator.
        shift = den.min_exponent()
        if any(shift):
            den = den.shifted(tuple(-x for x in shift))
            num = num.shifted(tuple(-x for x in shift))
        g = gcd(num.int_content(), den.int_content())
        if g > 1:
            num = GammaElement(num.rank, {e: c // g for e, c in num.terms.items()})
            den = GammaElement(den.rank, {e: c // g for e, c in den.terms.items()})
        # Sign: make the denominator's leading coefficient positive.
        if den.leading()[1] < 0:
            num, den = -num, -den
        if len(den.terms) == 1:
            e, c = den.leading()
            if c == 1:
                return num.shifted(tuple(-x for x in e)), GammaElement.from_int(num.rank, 1)
        if len(num.terms) <= _NORMALIZE_TERM_CAP and len(den.terms) <= _NORMALIZE_TERM_CAP:
            try:
                q = exact_divide(num, den)
                return q, GammaElement.from_int(num.rank, 1)
            except NotDivisible:
                pass
            try:
                q = exact_divide(den, num)
                one = GammaElement.from_int(num.rank, 1)
                if q.leading()[1] < 0:
                    return -one, -q
                return one, q
            except NotDivisible:
                pass
        return num, den


# ---------------------------------------------------------------------------
# Mod-p evaluation points


# No solver calls these two: the mod-p solve runs on int64 arrays.  They stay
# because perfbench/tracer.py wraps both methods to count calls.
class GammaModPField:
    """Sum and product of residues mod ``p``."""

    p: int

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p


# Fixed default primes for evaluation backends (31-bit).
DEFAULT_PRIMES = (2147483647, 2147483629, 2147483587, 2147483563)


def default_assignments(rank: int, p: int, count: int = 2, seed: int = 0) -> list[tuple[int, ...]]:
    """Deterministic nonzero residue assignments for the generators."""
    import random

    rng = random.Random((seed, p, rank).__hash__())
    out = []
    for _ in range(count):
        out.append(tuple(rng.randrange(2, p - 1) for _ in range(rank)))
    return out


# ---------------------------------------------------------------------------
# Chern character pieces: polynomials in the variables x_beta with exact
# rational coefficients.  Exponent tuples are nonnegative.


class ChernPolynomial(SparsePolynomial):
    """Sparse polynomial over Q in rank-many variables.

    Its coefficients are ``Fraction``s; ``fractions`` is imported where they
    are made, so that loading this module loads neither ``fractions`` nor
    ``decimal``.
    """

    __slots__ = ()

    @property
    def _scalars(self) -> tuple[type, ...]:
        from fractions import Fraction

        return (int, Fraction)

    @staticmethod
    def from_fraction(rank: int, c) -> "ChernPolynomial":
        from fractions import Fraction

        c = Fraction(c)
        return ChernPolynomial(rank, {(0,) * rank: c} if c else {})

    @staticmethod
    def linear(rank: int, coeffs) -> "ChernPolynomial":
        from fractions import Fraction

        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * rank
                e[i] = 1
                terms[tuple(e)] = Fraction(c)
        return ChernPolynomial(rank, terms)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def graded_piece(self, m: int) -> "ChernPolynomial":
        return ChernPolynomial(
            self.rank, {e: c for e, c in self.terms.items() if sum(e) == m}
        )

    def evaluate_mod_p(self, assignment: tuple[int, ...], p: int) -> int:
        total = 0
        for e, c in self.terms.items():
            if c.denominator % p == 0:
                raise ZeroDivisionError("denominator vanishes mod p")
            m = c.numerator * pow(c.denominator, -1, p) % p
            for v, k in zip(assignment, e):
                if k:
                    m = m * pow(v % p, k, p) % p
            total = (total + m) % p
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i+1}^{k}" if k > 1 else f"x{i+1}" for i, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def ch_character(a: GammaElement, up_to: int) -> ChernPolynomial:
    """Chern character of a group-ring element through total degree ``up_to``.

    Each e^lam contributes exp(c(lam)) = sum_m c(lam)^m / m!, where c(lam) is
    the linear form sum_i lam_i x_i in the simple-root variables.
    """
    from fractions import Fraction

    rank = a.rank
    out = ChernPolynomial.zero(rank)
    for e, c in a.terms.items():
        lin = ChernPolynomial.linear(rank, e)
        powp = ChernPolynomial.from_fraction(rank, 1)
        out = out + powp * c
        for m in range(1, up_to + 1):
            powp = powp * lin
            out = out + powp * Fraction(c, factorial(m))
    return ChernPolynomial(
        rank, {e: c for e, c in out.terms.items() if sum(e) <= up_to}
    )


def ch_leading(a: GammaElement, m: int) -> ChernPolynomial:
    """Degree-m graded piece of the Chern character of ``a``."""
    if m < 0:
        return ChernPolynomial.zero(a.rank)
    return ch_character(a, m).graded_piece(m)
