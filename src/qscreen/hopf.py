"""Hopf structure on the generators and its machine verification.

Elements of the algebra are sparse dicts mapping generator words to
phase-scalar coefficients; tensor-square elements map pairs of words.  All
tensor manipulations carry the super signs:

    (a (x) b)(c (x) d) = (-1)^{p(b) p(c)} ac (x) bd
    (a (x) b)(u (x) v) = (-1)^{p(b) p(u)} a u (x) b v   (module action)

The coproduct, counit and antipode are given on generators by

    D(F_j) = F_j (x) 1 + K_j^{-1} (x) F_j        e(F_j) = 0    g(F_j) = -K_j F_j
    D(K_j^s) = K_j^s (x) K_j^s                   e(K_j^s) = 1  g(K_j^s) = K_j^{-s}
    D(E_j) = E_j (x) K_j + 1 (x) E_j             e(E_j) = 0    g(E_j) = -E_j K_j^{-1}

and extended multiplicatively / antimultiplicatively.

The verification suites sweep every contour basis state up to the configured
depth and check the defining relations, the compatibility of the coproduct
with the contour-splitting rule, the homomorphism property of the coproduct
on the relations, and the Hopf axioms.  Each suite returns a report with one
record per identity.  Every record, swept or formal, comes from one loop,
`_sweep`: it compares both sides case by case, stops at the first failing
basis state and keeps it as a counterexample, rendered exactly by
`contour.render_vector` with the key token of the sparse type at hand.

The tensor sweep acts by a word pair w1 (x) w2 on every pair of factor
states, but each factor image depends on one factor state only.
`act_word_pair` therefore reads the image of each (word, state) from the
memo of its factor's `ModuleContext` (`contour.word_image`), and builds
each pair's image as a product of two stored images: N factor images per
sweep rather than N² pair images.  The `TensorContext` keeps one pair of
factor contexts, so the memo lives and dies with it.

Algebra elements and tensor-module vectors are sparse dicts like module
vectors, so the sums and scalings of `contour` serve them too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Iterable, Optional

from .contour import (
    FaultInjection,
    Letter,
    ModuleContext,
    NO_FAULTS,
    Seq,
    Vector,
    Word,
    accumulate,
    apply_lowering,
    apply_word,
    letter_parity,
    render_vector,
    seq_parity,
    seq_token,
    vec_add,
    vec_eq,
    vec_scale,
    word_image,
    word_parity,
    word_token,
)
from .phase import PhaseScalar, exp_token, q_power
from .rootdata import RootDatum, Weight

# Sparse algebra element: word -> coefficient.
AlgebraElement = dict[Word, PhaseScalar]
# Sparse element of the tensor square: (word, word) -> coefficient.
TensorElement = dict[tuple[Word, Word], PhaseScalar]
# State of the tensor-square module: (sequence, sequence) -> coefficient.
TensorVector = dict[tuple[Seq, Seq], PhaseScalar]


# ---- algebra elements ----

def elem_mul(e1: AlgebraElement, e2: AlgebraElement) -> AlgebraElement:
    return accumulate({}, ((w1 + w2, c1 * c2) for w1, c1 in e1.items()
                           for w2, c2 in e2.items()))


def act_algebra(ctx: ModuleContext, e: AlgebraElement, v: Vector) -> Vector:
    out: Vector = {}
    for word, coeff in e.items():
        accumulate(out, ((s, coeff * c) for s, c in apply_word(ctx, word, v).items()))
    return out


# ---- tensor elements ----

def tensor_mul(datum: RootDatum, t1: TensorElement, t2: TensorElement) -> TensorElement:
    """Super product: (a (x) b)(c (x) d) = (-1)^{p(b) p(c)} ac (x) bd."""
    return accumulate({}, (
        ((a + c, b + d),
         (-1 if word_parity(datum, b) and word_parity(datum, c) else 1) * c1 * c2)
        for (a, b), c1 in t1.items() for (c, d), c2 in t2.items()))


# ---- structure maps on generators ----

def coproduct_letter(letter: Letter, arity: int) -> TensorElement:
    one = PhaseScalar.one(arity)
    kind, j = letter[0], letter[1]
    if kind == "F":
        return {((letter,), ()): one, ((("K", j, -1),), (letter,)): one}
    if kind == "E":
        return {((letter,), (("K", j, 1),)): one, ((), (letter,)): one}
    if kind == "K":
        return {((letter,), (letter,)): one}
    raise ValueError(f"unknown generator letter {letter!r}")


def coproduct_word(datum: RootDatum, word: Word, arity: int) -> TensorElement:
    out: TensorElement = {((), ()): PhaseScalar.one(arity)}
    for letter in word:
        out = tensor_mul(datum, out, coproduct_letter(letter, arity))
    return out


def coproduct_element(datum: RootDatum, e: AlgebraElement, arity: int) -> TensorElement:
    out: TensorElement = {}
    for word, coeff in e.items():
        piece = coproduct_word(datum, word, arity)
        accumulate(out, ((k, coeff * c) for k, c in piece.items()))
    return out


def counit_letter(letter: Letter, arity: int) -> PhaseScalar:
    if letter[0] == "K":
        return PhaseScalar.one(arity)
    return PhaseScalar.zero(arity)


def counit_word(word: Word, arity: int) -> PhaseScalar:
    out = PhaseScalar.one(arity)
    for letter in word:
        out = out * counit_letter(letter, arity)
        if out.is_zero():
            break
    return out


def antipode_letter(letter: Letter, arity: int) -> AlgebraElement:
    one = PhaseScalar.one(arity)
    kind, j = letter[0], letter[1]
    if kind == "E":
        return {(letter, ("K", j, -1)): -one}
    if kind == "F":
        return {(("K", j, 1), letter): -one}
    if kind == "K":
        return {(("K", j, -letter[2]),): one}
    raise ValueError(f"unknown generator letter {letter!r}")


def antipode_word(datum: RootDatum, word: Word, arity: int) -> AlgebraElement:
    """Graded antihomomorphism: g(xy) = (-1)^{p(x)p(y)} g(y) g(x)."""
    out: AlgebraElement = {(): PhaseScalar.one(arity)}
    for k, letter in enumerate(word):
        sign = -1 if letter_parity(datum, letter) and word_parity(datum, word[k + 1:]) else 1
        piece = vec_scale(PhaseScalar.from_rational(sign, arity),
                          antipode_letter(letter, arity))
        out = elem_mul(piece, out)
    return out


# ---- the tensor-square module ----

@dataclass(frozen=True)
class TensorContext:
    """Two weight modules side by side, sharing one scalar arity.

    The left factor owns z slots 1..rank, the right factor slots
    rank+1..2*rank; a rendered z with index above the rank therefore refers
    to the second factor's weight.
    """

    datum: RootDatum
    weight1: Weight = field(default_factory=Weight.generic)
    weight2: Weight = field(default_factory=Weight.generic)
    depth: int = 4
    faults: FaultInjection = NO_FAULTS

    @property
    def arity(self) -> int:
        return 2 * self.datum.rank

    # One pair of factor contexts per tensor context, so that a sweep reuses
    # their memoized images (see `contour.word_image`).
    @cached_property
    def left(self) -> ModuleContext:
        return ModuleContext(datum=self.datum, weight=self.weight1,
                             depth=self.depth, arity=self.arity,
                             z_offset=0, faults=self.faults)

    @cached_property
    def right(self) -> ModuleContext:
        return ModuleContext(datum=self.datum, weight=self.weight2,
                             depth=self.depth, arity=self.arity,
                             z_offset=self.datum.rank, faults=self.faults)


def tensor_state(tctx: TensorContext, s1: Seq, s2: Seq) -> TensorVector:
    return {(tuple(s1), tuple(s2)): PhaseScalar.one(tctx.arity)}


def act_word_pair(tctx: TensorContext, w1: Word, w2: Word,
                  tv: TensorVector) -> TensorVector:
    """Act by w1 (x) w2, sliding w2 past the left factor with a super sign.

    Factor images come from the factor contexts' memos; see the module
    docstring.
    """
    datum = tctx.datum
    p2 = word_parity(datum, w2)
    out: TensorVector = {}
    for (s1, s2), c in tv.items():
        if p2 and seq_parity(datum, s1) and not tctx.faults.drop_interchange_sign:
            c = -c
        v1 = word_image(tctx.left, w1, s1)
        if not v1:
            continue
        v2 = word_image(tctx.right, w2, s2)
        accumulate(out, (((t1, t2), c * c1 * c2) for t1, c1 in v1.items()
                         for t2, c2 in v2.items()))
    return out


def act_tensor_element(tctx: TensorContext, te: TensorElement,
                       tv: TensorVector) -> TensorVector:
    out: TensorVector = {}
    for (w1, w2), coeff in te.items():
        piece = act_word_pair(tctx, w1, w2, tv)
        accumulate(out, ((k, coeff * c) for k, c in piece.items()))
    return out


def split_lowering(tctx: TensorContext, j: int, tv: TensorVector) -> TensorVector:
    """Closed form of D(F_j) on a tensor state, straight from the contours.

    Nesting a type-j contour around the joined configuration either encloses
    everything (outermost on the left factor) or is pulled through the whole
    left factor onto the right one, at the cost of one crossing factor per
    left contour and one weight phase z_j of the left insertion:

        D(F_j)(U1 (x) U2) = F_j U1 (x) U2
            + prod_{i in I1} [ q^{n_ji} (-1)^{p(j)p(i)} ] z_j^(1) U1 (x) F_j U2
    """
    datum = tctx.datum
    left, right = tctx.left, tctx.right
    out: TensorVector = {}
    for (s1, s2), c in tv.items():
        outer = apply_lowering(left, j, {s1: c})
        accumulate(out, (((t1, s2), c1) for t1, c1 in outer.items()))
        crossing = left.qz(sum(datum.pair(j, i) for i in s1), j, 1)
        odd = sum(datum.parity(j) * datum.parity(i) for i in s1)
        if odd % 2 and not tctx.faults.drop_hat_parity:
            crossing = -crossing
        inner = apply_lowering(right, j, {s2: c * crossing})
        accumulate(out, (((s1, t2), c2) for t2, c2 in inner.items()))
    return out


def tensor_seq_token(key: tuple[Seq, Seq]) -> str:
    return f"{seq_token(key[0])}(x){seq_token(key[1])}"


render_tensor_vector = partial(render_vector, token=tensor_seq_token,
                               order=lambda k: (len(k[0]) + len(k[1]), k))


# ---- braiding of two insertions ----

def braid_phase(datum: RootDatum, weight1: Weight, seq1: Seq,
                weight2: Weight, seq2: Seq,
                faults: FaultInjection = NO_FAULTS) -> PhaseScalar:
    """Monodromy phase from moving one dressed insertion past another.

    Both weights must be concrete.  The result is a signed power of q: the
    two insertions contribute q^{lambda1 . lambda2}, each contour pairs with
    the other insertion's weight, and contour pairs across the two groups
    contribute crossing factors with odd-odd signs.
    """
    if weight1.is_generic or weight2.is_generic:
        raise ValueError("braiding phases need two concrete weights")
    exp = weight1.inner(datum, weight2)
    for i in seq1:
        exp -= weight2.root_pairing(datum, i)
    for j in seq2:
        exp -= weight1.root_pairing(datum, j)
    sign = 1
    for i in seq1:
        for j in seq2:
            exp += datum.pair(i, j)
            if datum.parity(i) * datum.parity(j) and not faults.drop_hat_parity:
                sign = -sign
    return sign * q_power(exp, 0)


# ---- the defining relations, as algebra elements ----

def defining_relations(datum: RootDatum, arity: int):
    """Yield (name, element) pairs that must act as zero on every state."""
    one = PhaseScalar.one(arity)
    r = datum.rank
    for i in range(r):
        ki, ki_inv = ("K", i, 1), ("K", i, -1)
        yield (f"K{i+1} K{i+1}- = 1", {(ki, ki_inv): one, (): -one})
        for j in range(i + 1, r):
            kj = ("K", j, 1)
            yield (f"K{i+1} K{j+1} = K{j+1} K{i+1}",
                   {(ki, kj): one, (kj, ki): -one})
    for i in range(r):
        ki = ("K", i, 1)
        for j in range(r):
            n = datum.pair(i, j)
            ej, fj = ("E", j), ("F", j)
            yield (f"K{i+1} E{j+1} = q^{exp_token(n)} E{j+1} K{i+1}",
                   {(ki, ej): one, (ej, ki): -q_power(n, arity)})
            yield (f"K{i+1} F{j+1} = q^{exp_token(-n)} F{j+1} K{i+1}",
                   {(ki, fj): one, (fj, ki): -q_power(-n, arity)})
    for i in range(r):
        for j in range(r):
            ei, fj = ("E", i), ("F", j)
            sign = -1 if datum.parity(i) and datum.parity(j) else 1
            rel: AlgebraElement = {(ei, fj): one,
                                   (fj, ei): PhaseScalar.from_rational(-sign, arity)}
            op = "+" if sign == -1 else "-"
            if i == j:
                d = datum.symmetrizer(i)
                denom = q_power(d, arity) - q_power(-d, arity)
                rel = vec_add(rel, {(("K", i, 1),): -1 / denom,
                                    (("K", i, -1),): 1 / denom})
                name = (f"E{i+1} F{i+1} {op} F{i+1} E{i+1} = "
                        f"(K{i+1} - K{i+1}-)/(q^{exp_token(d)} - q^{exp_token(-d)})")
            else:
                name = f"E{i+1} F{j+1} {op} F{j+1} E{i+1} = 0"
            yield (name, rel)


# ---- sweeps and reports ----

def basis_states(rank: int, max_len: int) -> Iterable[Seq]:
    for n in range(max_len + 1):
        yield from itertools.product(range(rank), repeat=n)


@dataclass
class IdentityRecord:
    identity: str
    status: str  # "pass" | "fail"
    counterexample: Optional[dict] = None  # {"basis":…, "lhs":…, "rhs":…}

    def to_json(self) -> dict:
        return {"identity": self.identity, "status": self.status,
                "counterexample": self.counterexample}


@dataclass
class VerificationReport:
    suite: str
    algebra: str
    depth: int
    weight: str
    records: list[IdentityRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(rec.status == "pass" for rec in self.records)

    def failures(self) -> list[IdentityRecord]:
        return [rec for rec in self.records if rec.status != "pass"]

    def to_json(self) -> dict:
        return {"suite": self.suite, "algebra": self.algebra,
                "depth": self.depth, "weight": self.weight,
                "status": "pass" if self.passed else "fail",
                "identities": [rec.to_json() for rec in self.records]}

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}  algebra: {self.algebra}  "
                 f"depth: {self.depth}  weight: {self.weight}"]
        for rec in self.records:
            lines.append(f"  [{rec.status:4s}] {rec.identity}")
            if rec.counterexample:
                ce = rec.counterexample
                lines.append(f"         at {ce['basis']}")
                lines.append(f"         lhs = {ce['lhs']}")
                lines.append(f"         rhs = {ce['rhs']}")
        lines.append("result: " + ("all identities hold" if self.passed else
                                   f"{len(self.failures())} identities FAILED"))
        return "\n".join(lines)


def weight_label(*weights: Weight) -> str:
    return " | ".join(w.label for w in weights)


def _sweep(identity: str, cases, render=render_vector) -> IdentityRecord:
    """Check one identity case by case, keeping the first counterexample.

    Each case is (basis token, sides, expected): the identity holds there
    when every side equals `expected`.  Cases are taken lazily, so the sweep
    computes nothing past the first failure.  A failing record renders the
    sides joined by " ; " against the expected value.
    """
    for basis, sides, expected in cases:
        if not all(vec_eq(side, expected) for side in sides):
            return IdentityRecord(identity, "fail", {
                "basis": basis,
                "lhs": " ; ".join(render(side) for side in sides),
                "rhs": render(expected),
            })
    return IdentityRecord(identity, "pass")


def _unit_states(rank: int, depth: int, arity: int) -> list[tuple[str, Vector]]:
    """(token, unit vector) for every contour state up to depth-1."""
    return [(seq_token(seq), {seq: PhaseScalar.one(arity)})
            for seq in basis_states(rank, depth - 1)]


def verify_relations(datum: RootDatum, depth: int = 4,
                     weight: Weight = Weight(None),
                     faults: FaultInjection = NO_FAULTS,
                     identity_filter=None) -> VerificationReport:
    """Check every defining relation on every contour state up to depth-1."""
    ctx = ModuleContext(datum=datum, weight=weight, depth=depth, faults=faults)
    report = VerificationReport("relations", datum.label, depth,
                                weight_label(weight))
    states = _unit_states(datum.rank, depth, ctx.arity)
    for name, rel in defining_relations(datum, ctx.arity):
        if identity_filter is not None and not identity_filter(name):
            continue
        report.records.append(_sweep(name, (
            (basis, (act_algebra(ctx, rel, v),), {}) for basis, v in states)))
    return report


def verify_coproduct(datum: RootDatum, depth: int = 3,
                     weight1: Weight = Weight(None),
                     weight2: Weight = Weight(None),
                     faults: FaultInjection = NO_FAULTS) -> VerificationReport:
    """Coproduct consistency on the tensor square.

    Two families: the table coproduct of each lowering generator must match
    the contour-splitting closed form state by state, and the coproduct of
    every defining relation must act as zero.
    """
    tctx = TensorContext(datum=datum, weight1=weight1, weight2=weight2,
                         depth=depth, faults=faults)
    report = VerificationReport("coproduct", datum.label, depth,
                                weight_label(weight1, weight2))
    pairs = [(tensor_seq_token((s1, s2)), tensor_state(tctx, s1, s2))
             for s1 in basis_states(datum.rank, depth - 1)
             for s2 in basis_states(datum.rank, depth - 1)]

    for j in range(datum.rank):
        te = coproduct_letter(("F", j), tctx.arity)
        report.records.append(_sweep(
            f"D(F{j+1}) matches the contour-splitting rule",
            ((basis, (act_tensor_element(tctx, te, tv),),
              split_lowering(tctx, j, tv)) for basis, tv in pairs),
            render_tensor_vector))

    for name, rel in defining_relations(datum, tctx.arity):
        te = coproduct_element(datum, rel, tctx.arity)
        report.records.append(_sweep(
            f"D[{name}] acts as zero",
            ((basis, (act_tensor_element(tctx, te, tv),), {})
             for basis, tv in pairs),
            render_tensor_vector))
    return report


def _all_letters(datum: RootDatum) -> list[Letter]:
    letters: list[Letter] = []
    for j in range(datum.rank):
        letters += [("E", j), ("F", j), ("K", j, 1), ("K", j, -1)]
    return letters


_render_element = partial(render_vector, token=word_token)
# Formal triple tensors keep the order in which they were built among keys
# of equal word lengths (a stable sort on the lengths alone).
_render_triple = partial(
    render_vector, token=lambda k: "[" + "(x)".join(map(word_token, k)) + "]",
    order=lambda k: tuple(map(len, k)))


def verify_hopf_axioms(datum: RootDatum, depth: int = 3,
                       weight: Weight = Weight(None),
                       faults: FaultInjection = NO_FAULTS) -> VerificationReport:
    """Coassociativity, counit and antipode axioms on each generator.

    Coassociativity and the counit laws hold at the level of formal tensors
    of words; the antipode laws involve genuine products, so they are
    checked as operator identities on the contour module.
    """
    arity = datum.rank
    one = PhaseScalar.one(arity)
    ctx = ModuleContext(datum=datum, weight=weight, depth=depth, faults=faults)
    report = VerificationReport("hopf-axioms", datum.label, depth,
                                weight_label(weight))
    states = _unit_states(datum.rank, depth, arity)

    for letter in _all_letters(datum):
        tok = word_token((letter,))
        te = coproduct_letter(letter, arity)

        # (D (x) id) D = (id (x) D) D as formal triple tensors
        lhs: dict = {}
        rhs: dict = {}
        for (w1, w2), c in te.items():
            accumulate(lhs, (((a, b, w2), c * c2) for (a, b), c2
                             in coproduct_word(datum, w1, arity).items()))
            accumulate(rhs, (((w1, a, b), c * c2) for (a, b), c2
                             in coproduct_word(datum, w2, arity).items()))
        report.records.append(_sweep(f"coassociativity on {tok}",
                                     [(tok, (lhs,), rhs)], _render_triple))

        # counit laws, formally
        left: AlgebraElement = {}
        right: AlgebraElement = {}
        for (w1, w2), c in te.items():
            accumulate(left, [(w2, c * counit_word(w1, arity))])
            accumulate(right, [(w1, c * counit_word(w2, arity))])
        report.records.append(_sweep(f"counit laws on {tok}",
                                     [(tok, (left, right), {(letter,): one})],
                                     _render_element))

        # antipode laws, as operators on the module
        gamma_left: AlgebraElement = {}
        gamma_right: AlgebraElement = {}
        for (w1, w2), c in te.items():
            accumulate(gamma_left, vec_scale(c, elem_mul(
                antipode_word(datum, w1, arity), {w2: one})).items())
            accumulate(gamma_right, vec_scale(c, elem_mul(
                {w1: one}, antipode_word(datum, w2, arity))).items())
        eps = counit_word((letter,), arity)
        report.records.append(_sweep(f"antipode laws on {tok}", (
            (basis, (act_algebra(ctx, gamma_left, v),
                     act_algebra(ctx, gamma_right, v)), vec_scale(eps, v))
            for basis, v in states)))
    return report


def run_suite(suite: str, datum: RootDatum, depth: int,
              weight1: Weight = Weight(None), weight2: Weight = Weight(None),
              faults: FaultInjection = NO_FAULTS) -> list[VerificationReport]:
    reports = []
    if suite in ("relations", "all"):
        reports.append(verify_relations(datum, depth, weight1, faults))
    if suite in ("coproduct", "all"):
        reports.append(verify_coproduct(datum, depth, weight1, weight2, faults))
    if suite in ("hopf", "hopf-axioms", "all"):
        reports.append(verify_hopf_axioms(datum, depth, weight1, faults))
    if not reports:
        raise ValueError(f"unknown suite {suite!r}")
    return reports
