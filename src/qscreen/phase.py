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

Each q-exponent a and coefficient c is an int, or a Fraction when
non-integral; almost every value in play is integral, and int arithmetic
and hashing cost far less than Fraction's.  This module owns that format
for the whole package: `rational` brings a value into it wherever values
enter, and `ratio` divides within it exactly, where int / int would give a
float.  Equal numbers hash and compare equal (hash(Fraction(2)) == hash(2)),
so an integral Fraction that arithmetic yields later is harmless to keys,
equality and rendering.

Exact division and elimination run on monomial keys packed into one
Python int.  A `KeyPacking` plan writes (a, m) in balanced mixed radix,
most significant field first: z_1 ... z_N, then -a·s, where s is the lcm
of the q-exponent denominators, so every field holds an int.  Integer
order is then `term_order`, a product of monomials is a sum of packed
keys and a quotient a difference, and the leading term of a sum is its
least int key.  The plan sizes each field from the largest |exponent| of
its input and from how many factors a key may accumulate, so every key
the computation forms, and the difference of any two, decodes without
carry; packing an exponent beyond the plan raises ValueError rather than
alias another key.  `KeyPacking.divide`, the one long-division loop,
serves `_pdiv_exact` and `serre.nullspace`.

Almost every product met in practice is a monomial times a sum, and more
than half of them have the exact unit as one factor.  `__mul__` returns
the other operand when one side is 1 (a one-term numerator equal to its
one-term denominator, which `__init__` keeps exactly 1), and `__add__`
returns the other operand when one side is 0; both check the arities
first.  Returning an operand as it is is safe because scalars are never
mutated after construction.  Otherwise `_pmul` computes a monomial times
a sum by shifting the sum's keys, which cannot merge or cancel, and
`__mul__` does not multiply two unit denominators.  Sums and products are
built through `PhaseScalar._of`, which skips the strip and the unit fold
that the public constructor applies to outside input: `_padd` and `_pmul`
store no zero, and a one-term denominator is always exactly 1.

The number of z slots (the arity) is fixed per computation: single modules
use one slot per simple root, tensor squares use two.  Mixing arities is an
error, never a silent coercion.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

# Monomial key: (q-exponent, z-exponent vector); the q-exponent is an int,
# or a Fraction when non-integral.
Key = tuple[Rational, tuple[int, ...]]
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

    Fields, most significant first: z_1 ... z_N, then -a·s.  A field of b
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

    __slots__ = ("arity", "scale", "_limits", "_widths", "_offset", "_mask")

    def __init__(self, polys: Iterable[Poly], arity: int, factors: int = 1):
        scale = 1
        top = [0] * (arity + 1)  # largest |exponent| per field; q unscaled
        for p in polys:
            for a, m in p:
                if scale % a.denominator:
                    scale = lcm(scale, a.denominator)
                top[arity] = max(top[arity], abs(a))
                for v, e in enumerate(m):
                    if abs(e) > top[v]:
                        top[v] = abs(e)
        top[arity] = int(top[arity] * scale)
        self.arity = arity
        self.scale = scale
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
        if len(m) == self.arity and not self.scale % a.denominator:
            digits = [*m, -a.numerator * (self.scale // a.denominator)]
            if all(-lim <= e <= lim for e, lim in zip(digits, self._limits)):
                return self.join(digits)
        raise ValueError(f"key {key} is off the packing plan")

    def unpack(self, k: int) -> Key:
        *m, e = self.split(k)
        return (ratio(-e, self.scale), tuple(m))

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
    out = dict(p1)
    for k, c in p2.items():
        out[k] = out.get(k, 0) + c
    return _strip(out)


def _pneg(p: Poly) -> Poly:
    return {k: -c for k, c in p.items()}


def _pmul(p1: Poly, p2: Poly) -> Poly:
    if len(p2) == 1:
        p1, p2 = p2, p1
    if len(p1) == 1:
        # A monomial times a sum: shifting keys by one monomial is injective
        # and nonzero times nonzero is nonzero, so nothing merges or cancels.
        ((a0, m0), c0), = p1.items()
        if any(m0):
            return {(a + a0, tuple(map(add, m, m0))): c * c0
                    for (a, m), c in p2.items()}
        if a0 == 0 and c0 == 1:
            return dict(p2)
        return {(a + a0, m): c * c0 for (a, m), c in p2.items()}
    out: Poly = {}
    for (a1, m1), c1 in p1.items():
        for (a2, m2), c2 in p2.items():
            k = (a1 + a2, tuple(x + y for x, y in zip(m1, m2)))
            out[k] = out.get(k, 0) + c1 * c2
    return _strip(out)


def _pdiv_exact(n: Poly, d: Poly) -> Poly:
    """The quotient n / d, for a sum d that divides n; ValueError otherwise.

    A one-term d divides term by term; otherwise `KeyPacking.divide` runs
    on one plan for n and d.  A true quotient's exponents lie in
    [min n - max d, max n - min d], so a plan for two factors holds them.
    """
    if not d:
        raise ZeroDivisionError("exact division by the zero sum")
    if len(d) == 1:
        return _pdiv_term(n, *next(iter(d.items())))
    plan = KeyPacking((n, d), len(next(iter(d))[1]), 2)
    return plan.unpack_poly(plan.divide(plan.pack_poly(n), plan.pack_poly(d)))


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
        (rational(a - a0), tuple(x - y for x, y in zip(m, m0))): ratio(c, coeff)
        for (a, m), c in p.items()
    }


def term_order(key: Key):
    """Total order on monomial keys used for leading terms and rendering.

    Sorts by the z-exponent vector first (lexicographically ascending), then
    by descending q-exponent, so that e.g. q - q^-1 and z1^-1 - z1 both read
    in their customary order.
    """
    a, m = key
    return (m, -a)


class PhaseScalar:
    """An element of the fraction field of phase sums.

    Instances are immutable by convention; all operations return new values.
    The stored pair (num, den) is not canonical: `==` compares by
    cross-multiplication.
    """

    __slots__ = ("num", "den", "arity")

    def __init__(self, num: Poly, den: Poly, arity: int):
        num = _strip(num)
        den = _strip(den)
        if not den:
            raise ZeroDivisionError("phase scalar with zero denominator")
        if not num:
            den = _one_poly(arity)
        elif len(den) == 1:
            # A single-monomial denominator is a unit: fold it away, unless
            # it is already 1.  So a stored one-term denominator is always
            # exactly 1.
            key, coeff = next(iter(den.items()))
            if coeff != 1 or key[0] != 0 or any(key[1]):
                num = _pdiv_term(num, key, coeff)
                den = _one_poly(arity)
        self.num = num
        self.den = den
        self.arity = arity

    @classmethod
    def _of(cls, num: Poly, den: Poly, arity: int) -> "PhaseScalar":
        """Build without `__init__`'s strip and fold: num stores no zero,
        and den is exactly 1 or has two or more terms, as for every sum,
        product and negation of scalars."""
        out = cls.__new__(cls)
        out.num = num
        out.den = den if num else _one_poly(arity)
        out.arity = arity
        return out

    # ---- constructors ----

    @classmethod
    def zero(cls, arity: int) -> "PhaseScalar":
        return cls._of({}, _one_poly(arity), arity)

    @classmethod
    def one(cls, arity: int) -> "PhaseScalar":
        return cls.from_rational(1, arity)

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
        num = {} if coeff == 0 else {(rational(a), m): coeff}
        return cls._of(num, _one_poly(arity), arity)

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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            return PhaseScalar._of(_padd(self.num, other.num), self.den,
                                   self.arity)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return PhaseScalar._of(num, _pmul(self.den, other.den), self.arity)

    __radd__ = __add__

    def __neg__(self):
        return PhaseScalar._of(_pneg(self.num), self.den, self.arity)

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
        if len(self.den) == 1 and self.num == self.den:
            return other
        if len(self.den) == len(other.den) == 1:
            den = self.den  # both are the unit: see `__init__`
        else:
            den = _pmul(self.den, other.den)
        return PhaseScalar._of(_pmul(self.num, other.num), den, self.arity)

    __rmul__ = __mul__

    def invert(self) -> "PhaseScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverting the zero phase scalar")
        return PhaseScalar(self.den, self.num, self.arity)

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
        return PhaseScalar._of(quotient, _one_poly(self.arity), self.arity)

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

        def sub(p: Poly) -> Poly:
            out: Poly = {}
            for (a, m), c in p.items():
                key = (rational(a + sum(mk * ek for mk, ek in zip(m, exps))),
                       (0,) * self.arity)
                out[key] = out.get(key, 0) + c
            return _strip(out)

        den = sub(self.den)
        if not den:
            raise DenominatorVanishesError(
                "denominator vanishes under z substitution")
        return PhaseScalar(sub(self.num), den, self.arity)

    # ---- rendering ----

    def render(self, wrap: bool = False) -> str:
        """Deterministic text form; `wrap` parenthesizes multi-term sums."""
        if self.is_zero():
            return "0"
        num_s = render_poly(self.num)
        if len(self.den) == 1:
            if wrap and len(self.num) > 1:
                return f"({num_s})"
            return num_s
        return f"({num_s})/({render_poly(self.den)})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"PhaseScalar({self.render()!r}, arity={self.arity})"


def render_poly(p: Poly) -> str:
    """Render a sum of monomials, terms ordered by `term_order`."""
    if not p:
        return "0"
    parts: list[str] = []
    for key in sorted(p, key=term_order):
        c = p[key]
        body = _render_monomial(abs(c), key)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(parts)


def _render_monomial(c: Rational, key: Key) -> str:
    a, m = key
    factors: list[str] = []
    if a != 0:
        factors.append("q" if a == 1 else f"q^{exp_token(a)}")
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


def z_power(slot: int, n: int, arity: int) -> PhaseScalar:
    """The monomial z_{slot+1}^n (slot is 0-based) with coefficient 1."""
    if not 0 <= slot < arity:
        raise ArityMismatchError(f"z slot {slot} out of range for arity {arity}")
    m = [0] * arity
    m[slot] = n
    return PhaseScalar.monomial(1, 0, m, arity)


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
