"""The contour representation of the deformed enveloping superalgebra.

A basis state is a nested sequence of screening contours around a highest
weight insertion.  We write it as the index sequence I = (i_1, ..., i_n),
position 0 being the *outermost* contour.  The generators act by exact
phase-scalar coefficients:

  * the lowering operator for root j nests one more contour of type j around
    the whole configuration (so it prepends to the sequence);
  * the Cartan operator K_j scales a state by q^{-sum_i n_ij} z_j^{-1}, where
    n_ij are Gram entries and z_j is the weight phase of root j; that
    factor is one monomial, built by `ModuleContext.qz`;
  * the raising operator first removes one contour of type j wherever the
    sequence allows (the hatted part below), then applies K_j.

Removing the contour at position l costs two factors: a deformation bracket

    (1 - q^{2 sum_{l'>l} n_{j, i_{l'}}} z_j^2) / (q_j - q_j^{-1})

from shrinking the contour through everything it encloses, and a crossing
product over the contours *outside* position l,

    prod_{l'<l} q^{n_{j, i_{l'}}} (-1)^{p(j) p(i_{l'})},

whose sign keeps track of odd contours passing odd contours.  The product
is a signed power of q, so `apply_raising_hat` carries it as a plain
(exponent, sign) pair.  The removal factor, crossing times bracket,
depends only on (sign, exponent, inner Gram sum), so one call builds it
once per such triple and multiplies each coefficient by it once.

Vectors over the basis are sparse dicts mapping index sequences to
PhaseScalar coefficients, in the weight-space given by the context.

Each `ModuleContext` owns one memo of images, read through `word_image`:
the image of the unit state at a basis state under a word, one per (word,
state).  It lives and dies with that one instance, whose fields (weight,
depth, faults) fix every image.  `apply_letter` (and so `apply_word`)
reads it for E_j and K_j^{+-1}; the tensor sweep of `hopf` reads it for
the words of its coproduct terms.  `apply_letter` does not memoize F_j: it
is a plain prepend, cheaper than a lookup, and it must raise
`DepthExceededError` on every overflow.  `apply_raising_hat` and
`apply_raising` stay uncached, so the scanner and the closed-form
coproduct check never read the memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

from .phase import PhaseScalar, Rational, q_power
from .rootdata import RootDatum, Weight

# A basis state: tuple of 0-based simple-root indices, outermost first.
Seq = tuple[int, ...]
# A sparse vector over basis states.
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

    def __post_init__(self):
        if self.arity == -1:
            object.__setattr__(self, "arity", self.datum.rank)
        if not self.weight.is_generic and len(self.weight.coords) != self.datum.rank:
            raise ValueError("weight coordinate count does not match rank")

    # ---- scalar builders ----

    def q(self, a) -> PhaseScalar:
        return q_power(a, self.arity)

    def z(self, j: int, n: int = 1) -> PhaseScalar:
        """The n-th power of the weight phase of simple root j."""
        return self.qz(0, j, n)

    def qz(self, a, j: int, n: int) -> PhaseScalar:
        """The monomial q^a z_j^n, built as one scalar: `q(a) * z(j, n)`
        without the product."""
        if self.weight.is_generic:
            m = [0] * self.arity
            m[self.z_offset + j] = n
            return PhaseScalar.monomial(1, a, m, self.arity)
        return q_power(a - n * self.weight.root_pairing(self.datum, j), self.arity)

    def bracket_denominator(self, j: int) -> PhaseScalar:
        d = self.datum.symmetrizer(j)
        return self.q(d) - self.q(-d)

    def crossing_factor(self, j: int, i: int) -> tuple[Rational, int]:
        """Cost of sliding a type-j raising excision past one contour i, as
        the pair (e, s) of the factor s * q^e."""
        exp = self.datum.pair(j, i)
        if self.faults.flip_raising_prefactor:
            exp = -exp
        odd = self.datum.parity(j) * self.datum.parity(i)
        return exp, -1 if odd and not self.faults.drop_hat_parity else 1


def vacuum(ctx: ModuleContext) -> Vector:
    """The highest-weight state with no contours."""
    return {(): PhaseScalar.one(ctx.arity)}


def state(ctx: ModuleContext, seq: Seq) -> Vector:
    return {tuple(seq): PhaseScalar.one(ctx.arity)}


def seq_parity(datum: RootDatum, seq: Seq) -> int:
    return sum(datum.parity(i) for i in seq) % 2


def accumulate(out: dict, terms: Iterable[tuple[Hashable, PhaseScalar]]) -> dict:
    """Add (key, coefficient) terms into the sparse dict `out`, in place.

    Entries that cancel to zero are dropped, so no zero is ever stored.
    Returns `out`.
    """
    for k, c in terms:
        if c.is_zero():
            continue
        s = out.get(k)
        if s is not None:
            c = s + c
            if c.is_zero():
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


def vec_sub(v1: Vector, v2: Vector) -> Vector:
    return vec_add(v1, {s: -c for s, c in v2.items()})


def vec_is_zero(v: Vector) -> bool:
    return all(c.is_zero() for c in v.values())


def vec_eq(v1: Vector, v2: Vector) -> bool:
    return vec_is_zero(vec_sub(v1, v2))


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
    q^{-sign sum_i n_ij} z_j^{-sign} is one monomial (`ModuleContext.qz`)."""
    out: Vector = {}
    for seq, c in v.items():
        exp = -sum(ctx.datum.pair(j, i) for i in seq)
        out[seq] = c * ctx.qz(sign * exp, j, -sign)
    return out


def apply_raising_hat(ctx: ModuleContext, j: int, v: Vector, *,
                      clear_denominator: bool = False) -> Vector:
    """The contour-removing part of the raising operator (no K factor).

    With clear_denominator=True the constant 1/(q_j - q_j^{-1}) is omitted,
    leaving Laurent-polynomial coefficients; the kernel of the operator is
    unchanged, which is what the singular-vector scanner relies on.

    The removal factor crossing * bracket is built once per (sign,
    exponent, inner) triple met in this call, and each coefficient is
    multiplied by it once.
    """
    denom = (PhaseScalar.one(ctx.arity) if clear_denominator
             else ctx.bracket_denominator(j))
    zeros = (0,) * ctx.arity
    factors: dict[tuple, PhaseScalar] = {}
    out: Vector = {}
    for seq, c in v.items():
        # the crossing product over the contours outside position l
        exp, sign = 0, 1
        for l, i in enumerate(seq):
            if i == j:
                inner = sum(ctx.datum.pair(j, ip) for ip in seq[l + 1:])
                key = (sign, exp, inner)
                factor = factors.get(key)
                if factor is None:
                    bracket = (1 - ctx.qz(2 * inner, j, 2)) / denom
                    crossing = PhaseScalar.monomial(sign, exp, zeros, ctx.arity)
                    factor = factors[key] = crossing * bracket
                accumulate(out, [(seq[:l] + seq[l + 1:], c * factor)])
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
    return accumulate({}, ((t, c * x) for seq, c in v.items()
                           for t, x in word_image(ctx, word, seq).items()))


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
    if kind not in ("E", "F", "K") or not digits.isdigit() or int(digits) < 1:
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
    """
    if not v or vec_is_zero(v):
        return "0"
    return " + ".join(f"{v[k].render(wrap=True)}·{token(k)}"
                      for k in sorted(v, key=order) if not v[k].is_zero())
