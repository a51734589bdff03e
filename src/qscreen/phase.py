"""Exact arithmetic for braiding phases.

Every coefficient produced by the contour representation is a finite sum of
monomials

    c * q^a * z_1^{m_1} * ... * z_N^{m_N}

with rational c and a and integer m_k, or a formal quotient of two such sums.
Here q is the deformation parameter and z_k is the weight phase q^{-alpha_k
. lambda} kept formal at generic weight.  Exponents of q are rational because
a symmetrizer of 1/2 produces half-integer powers.

A sum is stored as a sparse dict mapping the monomial key (a, m) to its
nonzero rational coefficient; the zero sum is the empty dict.  Because the
key group Q x Z^N is ordered, the sums form an integral domain, so the
quotients below are a genuine fraction field and equality can be decided by
cross-multiplication.  No gcd over these sums is ever computed.

Each coefficient c is an int, or a Fraction when non-integral.  Each
scalar carries a positive int `step`, and every q-exponent of its sums is
an int a read as q^(a/step): half-integer powers from odd roots and the
sixths of a weight such as -7/2,-5/3 are ints over a step of 2 or 6.  So
adding, hashing and comparing keys is int arithmetic, which costs far less
than Fraction's.  Two scalars with equal steps combine as they are; with
different steps both are first brought to the lcm of the two (`_aligned`).
The public constructors take rational exponents and pick the step
themselves; every internal builder carries it.  A step is never reduced:
the same value may be stored over 1 or over 6, `==` aligns before it
compares, and rendering prints `ratio(a, step)`.  This module owns the
number format for the whole package: `rational` brings a value into it
wherever values enter, and `ratio` divides within it exactly, where
int / int would give a float.

Exact division and elimination run on monomial keys packed into one
Python int.  A `KeyPacking` plan writes (a, m) in balanced mixed radix,
most significant field first: z_1 ... z_N, then -a, for sums over one
step, so every field holds an int.  Integer order is then `term_order`, a
product of monomials is a sum of packed keys and a quotient a difference,
and the leading term of a sum is its least int key.  The plan sizes each
field from the largest |exponent| of its input and from how many factors
a key may accumulate, so every key the computation forms, and the
difference of any two, decodes without carry; packing an exponent beyond
the plan raises ValueError rather than alias another key.
`KeyPacking.divide`, the one long-division loop, serves `_pdiv_exact` and
`serre.nullspace`.

No product that a verify sweep makes multiplies two sums.  On one pass
of the benchmark's seed-1 verify workload, 28,389 of 42,327 products had
the exact unit as a factor and the other 13,938 a monomial factor, a
one-term numerator over the unit denominator; all 8,556 sums added two
nonzero values with equal denominators and equal steps.  The sweeps skip
the products by the unit (`contour.accumulate`), and `__mul__` returns
the other operand when one side is 1 (a one-term numerator equal to its
one-term denominator, which `__init__` keeps exactly 1); `__add__`
returns the other operand when one side is 0.  Both check the arities
first.  A product with a monomial factor is one shift of the other
operand's numerator keys (`_shift`, shared with `_pmul`), which cannot
merge or cancel, over that operand's own denominator dict.  `_padd`
drops each key that cancels as it adds.  A longer product runs its outer
loop over the shorter sum, and a z-free outer term, such as the constant
term of every removal factor, keeps the inner term's z-tuple.

Returning an operand, or sharing its denominator, is safe because no
operation writes to an operand's `num` or `den`, so a dict that one
scalar holds may be held by others; for the same reason `PhaseScalar.one`
hands out one shared unit per arity.  Sums and products are built through
`PhaseScalar._of`, which skips the strip and the unit fold that the
public constructor applies to outside input: `_padd` and `_pmul` store
no zero, and a one-term denominator is always exactly 1, the same sum
over every step.

The number of z slots (the arity) is fixed per computation: single modules
use one slot per simple root, tensor squares use two.  Mixing arities is an
error, never a silent coercion.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

# Monomial key: (q-exponent, z-exponent vector); the q-exponent is an int a
# read as q^(a/step), over the step of the scalar that holds the sum.
Key = tuple[int, tuple[int, ...]]
# Sparse sum of monomials; each coefficient is an int, or a Fraction when
# non-integral.  Zero-coefficient entries are never stored.
Poly = dict[Key, Rational]


class ArityMismatchError(ValueError):
    """Raised when scalars from different weight-variable contexts meet."""


class DenominatorVanishesError(ZeroDivisionError):
    """Raised when a z-substitution sends a denominator to zero."""


def rational(x: Union[Rational, str]) -> Rational:
    """x in the package's one number format: an int when integral, else a
    Fraction.  Takes an int, a Fraction or a "p/q" string."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def ratio(a: Rational, b: Rational) -> Rational:
    """The exact quotient a / b in that format, never int / int's float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return rational(a / b)


class KeyPacking:
    """A plan that packs the monomial keys of some sums into ints.

    Fields, most significant first: z_1 ... z_N, then -a, for sums whose
    q-exponents share one step.  A field of b
    bits holds a balanced digit in [-2^(b-1), 2^(b-1)), so integer order is
    lexicographic order on the digits, which is `term_order`.

    The plan's range in a field is the largest |exponent| there in the
    input sums times `factors`, the number of input monomials a key may
    multiply together: 2 for a quotient in `_pdiv_exact`, the column
    count for the minors of `serre.nullspace`.  Its guard box is [-G, G),
    G the least power of two above that range, and the field holds
    [-4G, 4G).  A key in the guard box, a sum of two and such a sum less
    a third (a Bareiss cross term less the divisor) all decode without
    carry.  Every minor of `serre.nullspace` is a product of at most
    `factors` input monomials per term, so its keys lie in the guard box.
    A back-substitution numerator, D·U[k][f] less a sum of products
    U[k][c_j]·G[j][f], is a sum of products of two minors however many
    products it sums: summing adds coefficients of equal keys, never keys,
    so each of its keys is a sum of two, as in a cross term.
    """

    __slots__ = ("arity", "_limits", "_widths", "_offset", "_mask")

    def __init__(self, polys: Iterable[Poly], arity: int, factors: int = 1):
        top = [0] * (arity + 1)  # largest |exponent| per field
        for p in polys:
            for a, m in p:
                if abs(a) > top[arity]:
                    top[arity] = abs(a)
                for v, e in enumerate(m):
                    if abs(e) > top[v]:
                        top[v] = abs(e)
        self.arity = arity
        self._limits = [factors * e for e in top]
        guards = [lim.bit_length() + 1 for lim in self._limits]
        self._widths = [g + 2 for g in guards]
        # Adding G = 2^(g-1) brings a digit in the guard box to [0, 2^g):
        # every bit of the field from g up is then clear.
        self._offset = self.join([1 << (g - 1) for g in guards])
        mask = 0
        for g, b in zip(guards, self._widths):
            mask = (mask << b) | ((1 << b) - (1 << g))
        self._mask = mask

    def join(self, digits: Sequence[int]) -> int:
        """The packed key of digits given most significant first."""
        k = 0
        for e, b in zip(digits, self._widths):
            k = (k << b) + e
        return k

    def split(self, k: int) -> list[int]:
        """The digits of a packed key, most significant first."""
        digits = []
        for b in reversed(self._widths):
            half = 1 << (b - 1)
            t = k + half
            digits.append((t & ((half << 1) - 1)) - half)
            k = t >> b
        digits.reverse()
        return digits

    def pack(self, key: Key) -> int:
        """The packed key; ValueError beyond the plan."""
        a, m = key
        if len(m) == self.arity:
            digits = [*m, -a]
            if all(-lim <= e <= lim for e, lim in zip(digits, self._limits)):
                return self.join(digits)
        raise ValueError(f"key {key} is off the packing plan")

    def unpack(self, k: int) -> Key:
        *m, e = self.split(k)
        return (-e, tuple(m))

    def pack_poly(self, p: Poly) -> dict[int, Rational]:
        return {self.pack(k): c for k, c in p.items()}

    def unpack_poly(self, p: dict[int, Rational]) -> Poly:
        return {self.unpack(k): c for k, c in p.items()}

    def admits(self, k: int) -> bool:
        """Whether every digit of k lies in the guard box, for a k whose
        digits lie within three guard widths of zero, as every quotient key
        that `divide` forms does: one add and one mask, no decode."""
        return not (k + self._offset) & self._mask

    def divide(self, n: dict[int, Rational],
               d: dict[int, Rational]) -> dict[int, Rational]:
        """The packed quotient n / d, for a d that divides n; ValueError
        otherwise.  Long division from the least keys (`term_order`'s
        leading terms): quotient keys rise strictly, and one past
        max n - max d or out of the guard box proves that d does not divide
        n.  The box makes the loop finite where lex order alone does not:
        the quotient keys 1, z2, z2^2, ... of (1 - z1)/(1 - z2) never pass
        z1·z2^-1.
        """
        if len(d) == 1:
            ((k0, c0),) = d.items()
            if k0 == 0 and c0 == 1:
                return n
            return {k - k0: ratio(c, c0) for k, c in n.items()}
        if not n:
            return {}
        admits = self.admits
        stop = max(n) - max(d)
        lead = min(d)
        lead_c = d[lead]
        rest = [(k - lead, c) for k, c in d.items() if k != lead]
        rem = dict(n)
        out: dict[int, Rational] = {}
        while rem:
            low = min(rem)
            key = low - lead
            if key > stop or not admits(key):
                raise ValueError("exact division: the divisor does not divide")
            c = ratio(rem.pop(low), lead_c)
            out[key] = c
            for k, dc in rest:
                k += low
                v = rem.get(k, 0) - c * dc
                if v:
                    rem[k] = v
                else:
                    del rem[k]
        return out


def _mixed_arities(a: int, b: int) -> ArityMismatchError:
    return ArityMismatchError(f"mixed scalar arities {a} and {b}")


def _zero_key(arity: int) -> Key:
    return (0, (0,) * arity)


def _one_poly(arity: int) -> Poly:
    return {_zero_key(arity): 1}


def _strip(p: Poly) -> Poly:
    return {k: c for k, c in p.items() if c != 0}


def _padd(p1: Poly, p2: Poly) -> Poly:
    """p1 + p2, dropping each key that cancels as it adds."""
    out = dict(p1)
    get = out.get
    for k, c in p2.items():
        c = get(k, 0) + c
        if c:
            out[k] = c
        else:
            del out[k]
    return out


def _pneg(p: Poly) -> Poly:
    return {k: -c for k, c in p.items()}


def _shift(p: Poly, key: Key, coeff: Rational) -> Poly:
    """p times the monomial coeff·key.  Shifting keys by one monomial is
    injective and nonzero times nonzero is nonzero, so nothing merges or
    cancels; a z-free key keeps each z-tuple of p."""
    a0, m0 = key
    if any(m0):
        return {(a + a0, tuple(map(add, m, m0))): c * coeff
                for (a, m), c in p.items()}
    if a0 == 0 and coeff == 1:
        return dict(p)
    return {(a + a0, m): c * coeff for (a, m), c in p.items()}


def _pmul(p1: Poly, p2: Poly) -> Poly:
    if len(p2) == 1:
        p1, p2 = p2, p1
    if len(p1) == 1:
        (key, c), = p1.items()
        return _shift(p2, key, c)
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    out: Poly = {}
    get = out.get
    for (a1, m1), c1 in p1.items():
        if any(m1):
            for (a2, m2), c2 in p2.items():
                k = (a1 + a2, tuple(map(add, m1, m2)))
                out[k] = get(k, 0) + c1 * c2
        else:
            for (a2, m2), c2 in p2.items():
                k = (a1 + a2, m2)
                out[k] = get(k, 0) + c1 * c2
    return _strip(out)


def _pdiv_exact(n: Poly, d: Poly) -> Poly:
    """The quotient n / d, for a sum d that divides n; ValueError otherwise.

    A one-term d divides term by term.  Otherwise `_indivisible` may
    reject the pair at once, and `KeyPacking.divide` runs on one plan for
    n and d.  A true quotient's exponents lie in
    [min n - max d, max n - min d], so a plan for two factors holds them.
    """
    if not d:
        raise ZeroDivisionError("exact division by the zero sum")
    if len(d) == 1:
        return _pdiv_term(n, *next(iter(d.items())))
    if _indivisible(n, d):
        raise ValueError("exact division: the divisor does not divide")
    plan = KeyPacking((n, d), len(next(iter(d))[1]), 2)
    return plan.unpack_poly(plan.divide(plan.pack_poly(n), plan.pack_poly(d)))


def _indivisible(n: Poly, d: Poly) -> bool:
    """True when d provably does not divide n; False proves nothing.

    Only z-free sums with int coefficients are tested, as at a concrete
    weight.  Read each as a polynomial in x = q^(1/step) after shifting
    its least exponent to 0.  If n = d·Q, then Q is a polynomial with
    k = span n - span d + 1 coefficients, and long division from the top
    shows that c^k·Q has int coefficients, c the top coefficient of d.
    So at x = 2^w, with 2^w above the sum of |d|'s coefficients, where
    d(x) is nonzero, d(x) divides c^k·n(x): a nonzero remainder, or k < 1,
    proves that no quotient exists.  The cost is one integer remainder,
    where a failing long division runs up to its stop bound.
    """
    if not n:
        return False
    zero = (0,) * len(next(iter(d))[1])
    for p in (n, d):
        for (_, m), c in p.items():
            if m != zero or type(c) is not int:
                return False
    an, ad = [a for a, _ in n], [a for a, _ in d]
    lo_n, lo_d, hi_d = min(an), min(ad), max(ad)
    k = (max(an) - lo_n) - (hi_d - lo_d) + 1
    if k < 1:
        return True
    w = sum(map(abs, d.values())).bit_length()
    at_d = at_n = 0
    for (a, _), c in d.items():
        at_d += c << (w * (a - lo_d))
    for (a, _), c in n.items():
        at_n += c << (w * (a - lo_n))
    return pow(d[(hi_d, zero)], k, abs(at_d)) * at_n % at_d != 0


def _aligned(x: PhaseScalar, y: PhaseScalar) -> tuple[PhaseScalar, ...]:
    """x and y over one step, the lcm of theirs."""
    step = lcm(x.step, y.step)
    return x._at(step), y._at(step)


def _over(p: Poly, step: int) -> Poly:
    """A sum with rational q-exponents as ints over `step`, a multiple of
    every exponent's denominator."""
    return {(a.numerator * (step // a.denominator), m): c
            for (a, m), c in p.items()}


def _rescale(p: Poly, f: int) -> Poly:
    """p with every q-exponent times f: the same sum over f times its step."""
    return {(a * f, m): c for (a, m), c in p.items()}


def _pcross(p: dict[int, Rational], x: dict[int, Rational],
            pairs: Iterable[tuple[dict[int, Rational], dict[int, Rational]]]
            ) -> dict[int, Rational]:
    """p·x - the sum of f·y over the pairs (f, y), on packed sums: with one
    pair the cross term of a Bareiss step, with several the numerator of a
    back-substitution step."""
    out: dict[int, Rational] = {}
    get = out.get
    for k1, c1 in p.items():
        for k2, c2 in x.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    for f, y in pairs:
        for k1, c1 in f.items():
            for k2, c2 in y.items():
                k = k1 + k2
                out[k] = get(k, 0) - c1 * c2
    return {k: c for k, c in out.items() if c}


def _pdiv_term(p: Poly, key: Key, coeff: Rational) -> Poly:
    """Divide a sum by the single monomial coeff*key (always exact)."""
    a0, m0 = key
    return {
        (a - a0, tuple(x - y for x, y in zip(m, m0))): ratio(c, coeff)
        for (a, m), c in p.items()
    }


def term_order(key: Key):
    """Total order on monomial keys used for leading terms and rendering.

    Sorts by the z-exponent vector first (lexicographically ascending), then
    by descending q-exponent, so that e.g. q - q^-1 and z1^-1 - z1 both read
    in their customary order.  Keys over one step compare as the exponents
    they stand for.
    """
    a, m = key
    return (m, -a)


class PhaseScalar:
    """An element of the fraction field of phase sums.

    Instances are immutable by convention; all operations return new values.
    The stored pair (num, den) is not canonical: `==` compares by
    cross-multiplication.  Every q-exponent a of num and den is an int read
    as q^(a/step).
    """

    __slots__ = ("num", "den", "arity", "step")

    def __init__(self, num: Poly, den: Poly, arity: int):
        """The quotient num/den of sums with rational q-exponents, over the
        least step that makes each of them an int."""
        num = _strip(num)
        den = _strip(den)
        step = lcm(*(a.denominator for p in (num, den) for a, _ in p))
        self._fold(_over(num, step), _over(den, step), arity, step)

    def _fold(self, num: Poly, den: Poly, arity: int, step: int) -> None:
        """Store num/den over `step`, both free of zeros: a zero value gets
        the unit denominator and a one-term denominator is folded away,
        unless it is already 1.  So a stored one-term denominator is always
        exactly 1."""
        if not den:
            raise ZeroDivisionError("phase scalar with zero denominator")
        if not num:
            den = _one_poly(arity)
        elif len(den) == 1:
            key, coeff = next(iter(den.items()))
            if coeff != 1 or key[0] != 0 or any(key[1]):
                num = _pdiv_term(num, key, coeff)
                den = _one_poly(arity)
        self.num = num
        self.den = den
        self.arity = arity
        self.step = step

    @classmethod
    def _folded(cls, num: Poly, den: Poly, arity: int,
                step: int) -> "PhaseScalar":
        """num/den over `step`, both free of zeros, through `_fold`."""
        out = cls.__new__(cls)
        out._fold(num, den, arity, step)
        return out

    @classmethod
    def _of(cls, num: Poly, den: Poly, arity: int, step: int) -> "PhaseScalar":
        """Build without `_fold`: num stores no zero, and den is exactly 1
        or has two or more terms, as for every sum, product and negation
        of scalars."""
        out = cls.__new__(cls)
        out.num = num
        out.den = den if num else _one_poly(arity)
        out.arity = arity
        out.step = step
        return out

    def _at(self, step: int) -> "PhaseScalar":
        """This value over `step`, a multiple of its own step."""
        if step == self.step:
            return self
        f = step // self.step
        # a one-term den is the unit, the same sum over every step
        den = self.den if len(self.den) == 1 else _rescale(self.den, f)
        return PhaseScalar._of(_rescale(self.num, f), den, self.arity, step)

    # ---- constructors ----

    @classmethod
    def zero(cls, arity: int) -> "PhaseScalar":
        return cls._of({}, _one_poly(arity), arity, 1)

    @classmethod
    def one(cls, arity: int) -> "PhaseScalar":
        """The unit of this arity: one shared instance per arity."""
        unit = _UNITS.get(arity)
        if unit is None:
            unit = _UNITS[arity] = cls.from_rational(1, arity)
        return unit

    @classmethod
    def from_rational(cls, c: Rational, arity: int) -> "PhaseScalar":
        return cls.monomial(c, 0, (0,) * arity, arity)

    @classmethod
    def monomial(cls, coeff: Rational, a: Rational, m: Sequence[int],
                 arity: int) -> "PhaseScalar":
        m = tuple(m)
        if len(m) != arity:
            raise ArityMismatchError(f"exponent vector {m} has arity {len(m)}, expected {arity}")
        coeff = rational(coeff)
        a = rational(a)
        num = {} if coeff == 0 else {(a.numerator, m): coeff}
        return cls._of(num, _one_poly(arity), arity, a.denominator)

    def _coerce(self, other) -> "PhaseScalar":
        if isinstance(other, PhaseScalar):
            if other.arity != self.arity:
                raise _mixed_arities(self.arity, other.arity)
            return other
        if isinstance(other, (int, Fraction)):
            return PhaseScalar.from_rational(other, self.arity)
        return NotImplemented

    # ---- predicates ----

    def is_zero(self) -> bool:
        return not self.num

    # ---- arithmetic ----

    def __add__(self, other):
        if isinstance(other, PhaseScalar):
            if other.arity != self.arity:
                raise _mixed_arities(self.arity, other.arity)
        else:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if self.step != other.step:
            self, other = _aligned(self, other)
        if self.den == other.den:
            return PhaseScalar._of(_padd(self.num, other.num), self.den,
                                   self.arity, self.step)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return PhaseScalar._of(num, _pmul(self.den, other.den), self.arity,
                               self.step)

    __radd__ = __add__

    def __neg__(self):
        return PhaseScalar._of(_pneg(self.num), self.den, self.arity,
                               self.step)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PhaseScalar):
            if other.arity != self.arity:
                raise _mixed_arities(self.arity, other.arity)
        else:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # A one-term den is exactly 1 (see `__init__`): num == den is then 1.
        if len(other.den) == 1 and other.num == other.den:
            return self
        if len(self.den) == 1:
            if self.num == self.den:
                return other
            if len(self.num) == 1:
                self, other = other, self
        if self.step != other.step:
            self, other = _aligned(self, other)
        if len(other.den) == 1 and len(other.num) == 1:
            # a monomial factor: shift self's keys and keep self's den
            (key, c), = other.num.items()
            return PhaseScalar._of(_shift(self.num, key, c), self.den,
                                   self.arity, self.step)
        if len(self.den) == len(other.den) == 1:
            den = self.den  # both are the unit: see `__init__`
        else:
            den = _pmul(self.den, other.den)
        return PhaseScalar._of(_pmul(self.num, other.num), den, self.arity,
                               self.step)

    __rmul__ = __mul__

    def invert(self) -> "PhaseScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverting the zero phase scalar")
        return PhaseScalar._folded(self.den, self.num, self.arity, self.step)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.invert()

    def __pow__(self, n: int) -> "PhaseScalar":
        if not isinstance(n, int):
            raise TypeError("phase scalars support integer powers only")
        if n < 0:
            return self.invert() ** (-n)
        result = PhaseScalar.one(self.arity)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # ---- comparison ----

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.step != other.step:
            self, other = _aligned(self, other)
        if self.den == other.den:
            return self.num == other.num
        return _pmul(self.num, other.den) == _pmul(other.num, self.den)

    __hash__ = None  # mutable dicts inside; equality is semantic anyway

    # ---- exact quotient ----

    def reduce_exact(self) -> "PhaseScalar":
        """This value as a Laurent polynomial when its denominator divides
        its numerator exactly; otherwise this quotient unchanged.

        Meant for values with no z left to specialize (a concrete weight):
        at generic weight an un-cancelled factor marks where a
        specialization must report `denominator-vanishes`.  `_pdiv_exact`
        divides, through `KeyPacking.divide`.
        """
        try:
            quotient = _pdiv_exact(self.num, self.den)
        except ValueError:
            return self
        return PhaseScalar._of(quotient, _one_poly(self.arity), self.arity,
                               self.step)

    # ---- substitution ----

    def substitute_z(self, q_exponents: Sequence[Rational]) -> "PhaseScalar":
        """Substitute z_k -> q^{e_k} for each slot k.

        Used to specialize a generic-weight result at a concrete weight
        (e_k = -alpha_k . lambda).  Raises DenominatorVanishesError when the
        substitution kills the denominator, which happens at weights where
        the generic expression is a genuine 0/0.
        """
        exps = [rational(e) for e in q_exponents]
        if len(exps) != self.arity:
            raise ArityMismatchError(
                f"{len(exps)} substitution values for arity {self.arity}")
        # over the lcm of this step and the values' denominators, z_k is
        # q^(shifts[k]/step) and this value's exponents are f times theirs
        step = lcm(self.step, *(e.denominator for e in exps))
        f = step // self.step
        shifts = [e.numerator * (step // e.denominator) for e in exps]
        zeros = (0,) * self.arity

        def sub(p: Poly) -> Poly:
            out: Poly = {}
            for (a, m), c in p.items():
                key = (a * f + sum(map(mul, m, shifts)), zeros)
                out[key] = out.get(key, 0) + c
            return _strip(out)

        den = sub(self.den)
        if not den:
            raise DenominatorVanishesError(
                "denominator vanishes under z substitution")
        return PhaseScalar._folded(sub(self.num), den, self.arity, step)

    # ---- rendering ----

    def render(self, wrap: bool = False) -> str:
        """Deterministic text form; `wrap` parenthesizes multi-term sums."""
        if self.is_zero():
            return "0"
        num_s = render_poly(self.num, self.step)
        if len(self.den) == 1:
            if wrap and len(self.num) > 1:
                return f"({num_s})"
            return num_s
        return f"({num_s})/({render_poly(self.den, self.step)})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"PhaseScalar({self.render()!r}, arity={self.arity})"


# arity -> the shared unit; see `PhaseScalar.one`.
_UNITS: dict[int, PhaseScalar] = {}


def render_poly(p: Poly, step: int) -> str:
    """Render a sum of monomials over `step`, terms ordered by
    `term_order`."""
    if not p:
        return "0"
    parts: list[str] = []
    for key in sorted(p, key=term_order):
        c = p[key]
        body = _render_monomial(abs(c), key, step)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(parts)


def _render_monomial(c: Rational, key: Key, step: int) -> str:
    a, m = key
    factors: list[str] = []
    if a != 0:
        factors.append("q" if a == step else f"q^{exp_token(ratio(a, step))}")
    for slot, e in enumerate(m):
        if e != 0:
            name = f"z{slot + 1}"
            factors.append(name if e == 1 else f"{name}^{e}")
    if c != 1 or not factors:
        factors.insert(0, str(c))
    return "·".join(factors)


def exp_token(a: Rational) -> str:
    """A q-exponent as written after `q^`: parenthesized when non-integral."""
    return str(a) if a.denominator == 1 else f"({a})"


# ---- convenience constructors ----

def q_power(a: Rational, arity: int) -> PhaseScalar:
    """The monomial q^a with coefficient 1."""
    return PhaseScalar.monomial(1, a, (0,) * arity, arity)


def q_number(a: int, base: PhaseScalar) -> PhaseScalar:
    """The q-analog [a]_base = 1 + base + ... + base^{a-1}.

    Computed in polynomial form, so base = 1 is safe and [a] then degenerates
    to the integer a.  Agrees with (1 - base^a)/(1 - base) whenever base != 1.
    """
    if a < 0:
        raise ValueError("q-numbers are defined for nonnegative integers")
    total = PhaseScalar.zero(base.arity)
    power = PhaseScalar.one(base.arity)
    for _ in range(a):
        total = total + power
        power = power * base
    return total
