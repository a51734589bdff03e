"""The contour representation of the deformed enveloping superalgebra.

A basis state is a nested sequence of screening contours around a highest
weight insertion.  We write it as the index sequence I = (i_1, ..., i_n),
position 0 being the *outermost* contour.  The generators act by exact
phase-scalar coefficients:

  * the lowering operator for root j nests one more contour of type j around
    the whole configuration (so it prepends to the sequence);
  * the Cartan operator K_j scales a state by q^{-sum_i n_ij} z_j^{-1}, where
    n_ij are Gram entries and z_j is the weight phase of root j; that
    factor is one monomial, `ModuleContext.qz`;
  * the raising operator first removes one contour of type j wherever the
    sequence allows (the hatted part below), then applies K_j.

Removing the contour at position l costs two factors: a deformation bracket

    (1 - q^{2 sum_{l'>l} n_{j, i_{l'}}} z_j^2) / (q_j - q_j^{-1})

from shrinking the contour through everything it encloses, and a crossing
product over the contours *outside* position l,

    prod_{l'<l} q^{n_{j, i_{l'}}} (-1)^{p(j) p(i_{l'})},

whose sign keeps track of odd contours passing odd contours.  The product
is a signed power of q, so `apply_raising_hat` carries it as a plain
(exponent, sign) pair, and `ModuleContext.removal_factor` writes the
whole factor from its keys.

Vectors over the basis are sparse dicts mapping index sequences to
PhaseScalar coefficients, in the weight-space given by the context.  A
vector never stores a zero coefficient: `accumulate` drops the entries
that cancel, `vec_scale` returns {} for a zero factor, and a product of
nonzero scalars is nonzero.  So {} is the zero vector, and `vec_eq`
compares keys, then coefficients.

Each `ModuleContext` owns three memos.  Each is keyed by everything its
values depend on besides the context's fields, which fix the rest:

  * images, read through `word_image`: the image of the unit state at a
    basis state under a word, one per (word, state);
  * removal factors of `apply_raising_hat`, crossing times bracket, one per
    (j, clear_denominator, sign, exponent, inner Gram sum), each written
    from its keys by `ModuleContext.removal_factor`;
  * Cartan factors of `apply_cartan`, one per (j, sign, exponent).

A memo lives and dies with its one instance: `dataclasses.replace` starts
empty ones, so a clean sweep never leaks into a negative control.  A
memoized value is a scalar, never mutated, or an image that callers read
and never hand out.  `apply_letter` (and so `apply_word`) reads the image
memo for E_j and K_j^{+-1}; the tensor sweep of `hopf` reads it for the
words of its coproduct terms.  `apply_letter` does not memoize F_j: it is
a plain prepend, cheaper than a lookup, and it must raise
`DepthExceededError` on every overflow.  `apply_raising_hat`,
`apply_raising` and `apply_cartan` act on every call, reading only the
scalar memos, so the scanner and the closed-form coproduct check never
read the image memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import Hashable, Iterable

from .phase import PhaseScalar, Rational, q_power
from .rootdata import RootDatum, Weight

# A basis state: tuple of 0-based simple-root indices, outermost first.
Seq = tuple[int, ...]
# A sparse vector over basis states; it never stores a zero coefficient.
Vector = dict[Seq, PhaseScalar]
# A generator letter: ('E', j), ('F', j) or ('K', j, +1 | -1), j 0-based.
Letter = tuple
Word = tuple[Letter, ...]


class DepthExceededError(ValueError):
    """Raised when a lowering operator would overflow the configured depth."""


@dataclass(frozen=True)
class FaultInjection:
    """Deliberate single-sign sabotage, used by the negative-control suite.

    Each flag corrupts exactly one convention:

      drop_hat_parity      -- forget the odd-odd parity corrections in the
                              crossing factors (raising prefactor and the
                              coproduct splitting factor);
      drop_interchange_sign-- forget the sign when a tensor-factor operator
                              slides past the first module factor;
      flip_raising_prefactor - negate the q-exponent in the raising
                              operator's crossing product.
    """

    drop_hat_parity: bool = False
    drop_interchange_sign: bool = False
    flip_raising_prefactor: bool = False


NO_FAULTS = FaultInjection()


@dataclass(frozen=True)
class ModuleContext:
    """Everything needed to act on one highest-weight module.

    `arity` is the total number of formal z slots in play (rank for a single
    module, 2*rank when this module is one factor of a tensor square);
    `z_offset` says which block of slots belongs to this module.  A concrete
    weight turns every z into an exact power of q instead.
    """

    datum: RootDatum
    weight: Weight = field(default_factory=Weight.generic)
    depth: int = 6
    arity: int = -1  # -1: use the rank
    z_offset: int = 0
    faults: FaultInjection = NO_FAULTS
    # (word, seq) -> image of the unit state; see `word_image`.
    _images: dict = field(default_factory=dict, init=False, compare=False,
                          hash=False, repr=False)
    # (j, clear_denominator, sign, exp, inner) -> removal factor; see
    # `removal_factor`.
    _factors: dict = field(default_factory=dict, init=False, compare=False,
                           hash=False, repr=False)
    # (j, sign, exp) -> Cartan factor; see `apply_cartan`.
    _cartans: dict = field(default_factory=dict, init=False, compare=False,
                           hash=False, repr=False)

    def __post_init__(self):
        if self.arity == -1:
            object.__setattr__(self, "arity", self.datum.rank)
        if not self.weight.is_generic and len(self.weight.coords) != self.datum.rank:
            raise ValueError("weight coordinate count does not match rank")

    # ---- scalar builders ----

    def qz(self, a, j: int, n: int) -> PhaseScalar:
        """The monomial q^a z_j^n as one scalar; at a concrete weight z_j
        is q^{-alpha_j . lambda}."""
        if self.weight.is_generic:
            m = [0] * self.arity
            m[self.z_offset + j] = n
            return PhaseScalar.monomial(1, a, m, self.arity)
        return q_power(a - n * self.pairings[j], self.arity)

    @cached_property
    def pairings(self) -> tuple[Rational, ...]:
        """alpha_j . lambda for each simple root j, at a concrete weight;
        computed once per context."""
        return tuple(self.weight.root_pairing(self.datum, j)
                     for j in range(self.datum.rank))

    def bracket_denominator(self, j: int) -> PhaseScalar:
        d = self.datum.symmetrizer(j)
        return q_power(d, self.arity) - q_power(-d, self.arity)

    def removal_factor(self, j: int, clear_denominator: bool, sign: int,
                       exp: Rational, inner: Rational) -> PhaseScalar:
        """sign q^exp (1 - q^{2 inner} z_j^2) / (q_j - q_j^{-1}), or its
        numerator alone with clear_denominator; memoized per context and key.

        A miss writes the two-term numerator from its keys (at a concrete
        weight z_j^2 is q^{-2 alpha_j . lambda}, and the numerator is 0 when
        its two keys coincide) over q^{d_j} - q^{-d_j} or 1, at the least
        step that makes the exponents ints: the num, den and step that
        `sign * q_power(exp, arity) * (1 - qz(2 inner, j, 2)) /
        bracket_denominator(j)` stores, with no product and no division.
        """
        key = (j, clear_denominator, sign, exp, inner)
        out = self._factors.get(key)
        if out is not None:
            return out
        zeros = (0,) * self.arity
        if self.weight.is_generic:
            e = 2 * inner
            k = self.z_offset + j
            m = zeros[:k] + (2,) + zeros[k + 1:]
        else:
            e = 2 * inner - 2 * self.pairings[j]
            m = zeros
        d = self.datum.symmetrizer(j)
        step = lcm(e.denominator, exp.denominator,
                   1 if clear_denominator else d.denominator)
        a = exp.numerator * (step // exp.denominator)
        num = ({(a + e.numerator * (step // e.denominator), m): -sign,
                (a, zeros): sign} if e or any(m) else {})
        if clear_denominator:
            den = {(0, zeros): 1}
        else:
            b = d.numerator * (step // d.denominator)
            den = {(b, zeros): 1, (-b, zeros): -1}
        out = self._factors[key] = PhaseScalar._of(num, den, self.arity, step)
        return out

    def crossing_factor(self, j: int, i: int) -> tuple[Rational, int]:
        """Cost of sliding a type-j raising excision past one contour i, as
        the pair (e, s) of the factor s * q^e."""
        exp = self.datum.pair(j, i)
        if self.faults.flip_raising_prefactor:
            exp = -exp
        odd = self.datum.parity(j) * self.datum.parity(i)
        return exp, -1 if odd and not self.faults.drop_hat_parity else 1


def state(ctx: ModuleContext, seq: Seq) -> Vector:
    return {tuple(seq): PhaseScalar.one(ctx.arity)}


def seq_parity(datum: RootDatum, seq: Seq) -> int:
    return sum(datum.parity(i) for i in seq) % 2


def accumulate(out: dict, terms: Iterable[tuple[Hashable, PhaseScalar]],
               scale: PhaseScalar | None = None) -> dict:
    """Add (key, coefficient) terms into the sparse dict `out`, in place,
    each times `scale` when one is given.

    The scale is applied only when it is not the exact unit (see `phase`),
    so a stored image added with a coefficient of 1 costs no product; a
    zero scale adds nothing.  Zero terms are skipped and entries that
    cancel to zero are dropped, so `out` keeps the zero-free contract of
    `Vector`.  Returns `out`.
    """
    if scale is not None:
        if not scale.num:
            return out
        if len(scale.den) == 1 and scale.num == scale.den:
            scale = None
    get = out.get
    for k, c in terms:
        if not c.num:
            continue
        if scale is not None:
            c = scale * c
        s = get(k)
        if s is not None:
            c = s + c
            if not c.num:
                del out[k]
                continue
        out[k] = c
    return out


def vec_add(v1: Vector, v2: Vector) -> Vector:
    return accumulate(dict(v1), v2.items())


def vec_scale(c: PhaseScalar, v: Vector) -> Vector:
    if c.is_zero():
        return {}
    return {seq: c * x for seq, x in v.items()}


def vec_eq(v1: Vector, v2: Vector) -> bool:
    """Equality of two zero-free vectors: the same keys, and equal
    coefficients at each by `PhaseScalar.__eq__` (cross-multiplication)."""
    return v1.keys() == v2.keys() and all(v1[k] == c for k, c in v2.items())


# ---- generator actions ----

def apply_lowering(ctx: ModuleContext, j: int, v: Vector) -> Vector:
    """F_j: nest one more type-j contour outside the whole state."""
    out: Vector = {}
    for seq, c in v.items():
        if len(seq) >= ctx.depth:
            raise DepthExceededError(
                f"lowering past depth {ctx.depth}; raise the depth limit")
        out[(j,) + seq] = c
    return out


def apply_cartan(ctx: ModuleContext, j: int, v: Vector, sign: int = 1) -> Vector:
    """K_j^{sign}: diagonal in the contour basis; each state's factor
    q^{-sign sum_i n_ij} z_j^{-sign} is one monomial (`ModuleContext.qz`),
    memoized per context and (j, sign, exponent)."""
    factors = ctx._cartans
    out: Vector = {}
    for seq, c in v.items():
        exp = -sum(ctx.datum.pair(j, i) for i in seq)
        factor = factors.get((j, sign, exp))
        if factor is None:
            factor = factors[(j, sign, exp)] = ctx.qz(sign * exp, j, -sign)
        out[seq] = c * factor
    return out


def apply_raising_hat(ctx: ModuleContext, j: int, v: Vector, *,
                      clear_denominator: bool = False) -> Vector:
    """The contour-removing part of the raising operator (no K factor).

    With clear_denominator=True the constant 1/(q_j - q_j^{-1}) is omitted,
    leaving Laurent-polynomial coefficients; the kernel of the operator is
    unchanged, which is what the singular-vector scanner relies on.

    The removal factor crossing * bracket depends on the context and on
    (j, clear_denominator, sign, exponent, inner) only, so the context
    memoizes it (`ModuleContext.removal_factor`), and each coefficient is
    multiplied by it once.
    """
    factors = ctx._factors
    pair = ctx.datum.pair
    out: Vector = {}
    for seq, c in v.items():
        # the inner Gram sum at each position, in one pass from the inside
        inner, inners = 0, []
        for i in reversed(seq):
            inners.append(inner)
            inner += pair(j, i)
        inners.reverse()
        # the crossing product over the contours outside position l
        exp, sign = 0, 1
        for l, i in enumerate(seq):
            if i == j:
                key = (j, clear_denominator, sign, exp, inners[l])
                factor = factors.get(key)
                if factor is None:
                    factor = ctx.removal_factor(*key)
                accumulate(out, ((seq[:l] + seq[l + 1:], factor),), c)
            e, s = ctx.crossing_factor(j, i)
            exp += e
            sign *= s
    return out


def apply_raising(ctx: ModuleContext, j: int, v: Vector) -> Vector:
    """E_j: remove a contour, then apply the Cartan correction K_j."""
    return apply_cartan(ctx, j, apply_raising_hat(ctx, j, v))


def word_image(ctx: ModuleContext, word: Word, seq: Seq) -> Vector:
    """The image of the unit state at seq under word, memoized in ctx.

    A one-letter E_j or K_j^{+-1} word comes from `apply_raising` or
    `apply_cartan`; any other word, a lone F_j included, goes through
    `apply_word`.  Callers build fresh scalars from the stored image and
    never hand it out.
    """
    image = ctx._images.get((word, seq))
    if image is None:
        unit = {seq: PhaseScalar.one(ctx.arity)}
        kind = word[0][0] if len(word) == 1 else None
        if kind == "E":
            image = apply_raising(ctx, word[0][1], unit)
        elif kind == "K":
            image = apply_cartan(ctx, word[0][1], unit, sign=word[0][2])
        else:
            image = apply_word(ctx, word, unit)
        ctx._images[(word, seq)] = image
    return image


def apply_letter(ctx: ModuleContext, letter: Letter, v: Vector) -> Vector:
    kind = letter[0]
    if kind == "F":
        return apply_lowering(ctx, letter[1], v)
    if kind not in ("E", "K"):
        raise ValueError(f"unknown generator letter {letter!r}")
    word = (letter,)
    out: Vector = {}
    for seq, c in v.items():
        accumulate(out, word_image(ctx, word, seq).items(), c)
    return out


def apply_word(ctx: ModuleContext, word: Word, v: Vector) -> Vector:
    """Act by a product of generators, rightmost letter first."""
    for letter in reversed(word):
        v = apply_letter(ctx, letter, v)
        if not v:
            break
    return v


def lowering_word(indices) -> Word:
    return tuple(("F", j) for j in indices)


def letter_parity(datum: RootDatum, letter: Letter) -> int:
    return datum.parity(letter[1]) if letter[0] in ("E", "F") else 0


def word_parity(datum: RootDatum, word: Word) -> int:
    return sum(letter_parity(datum, letter) for letter in word) % 2


# ---- text forms ----

def letter_token(letter: Letter) -> str:
    kind, j = letter[0], letter[1] + 1
    if kind == "K":
        return f"K{j}" if letter[2] == 1 else f"K{j}-"
    return f"{kind}{j}"


def word_token(word: Word) -> str:
    return " ".join(letter_token(letter) for letter in word) if word else "1"


def parse_letter(token: str) -> Letter:
    token = token.strip()
    if len(token) < 2:
        raise ValueError(f"bad generator token {token!r}")
    kind = token[0].upper()
    inverse = kind == "K" and token.endswith("-")
    digits = token[1:-1] if inverse else token[1:]
    if kind not in ("E", "F", "K") or not digits.isdecimal() or int(digits) < 1:
        raise ValueError(f"bad generator token {token!r}")
    j = int(digits) - 1
    return ("K", j, -1 if inverse else 1) if kind == "K" else (kind, j)


def parse_word(text: str) -> Word:
    cleaned = text.replace("·", " ").replace("*", " ").replace(",", " ")
    tokens = cleaned.split()
    if tokens == ["1"]:
        return ()
    return tuple(parse_letter(t) for t in tokens)


def seq_token(seq: Seq) -> str:
    return "U(" + ",".join(str(i + 1) for i in seq) + ")"


def render_vector(v: dict, token=seq_token,
                  order=lambda k: (len(k), k)) -> str:
    """Render a sparse dict as `c·token(key) + ...`, keys sorted by `order`.

    Serves every sparse type: module vectors by default, and algebra
    elements, tensor vectors and formal tensors with their own key token.
    Like a `Vector`, `v` stores no zero coefficient, so {} alone is "0".
    """
    if not v:
        return "0"
    return " + ".join(f"{v[k].render(wrap=True)}·{token(k)}"
                      for k in sorted(v, key=order))
