"""Scanner for singular vectors of a fixed lowering multidegree.

A candidate is a combination of lowering words of multidegree d (word w uses
d_j letters of type j), acting on the highest-weight state.  In the contour
basis the word F_{w_1} ... F_{w_n} lands exactly on the state U_{(w_1,...,
w_n)}, so candidates are vectors over the distinct arrangements of the
multiset d.  The candidate is singular when every raising operator kills it;
that is one homogeneous linear system per raising index, with one row per
target state of multidegree d - e_j.

The system is solved exactly over the phase-scalar field.  At a generic
weight a nonzero kernel means the combination is annihilated for *every*
weight — a quantized Serre-type relation made visible inside the module.  At
a concrete weight the kernel can jump: those are honest weight-specific
singular vectors.

The kernel is computed by fraction-free elimination (Bareiss): forward
elimination, where each step multiplies a row below the pivot by the pivot,
subtracts the cross term and divides exactly by the previous pivot, then
fraction-free back-substitution, one exact division per pivot row and free
column.  Every entry stays a Laurent polynomial, so each kernel vector
comes out polynomial, and `nullspace` returns it so: one form, whose
coordinates v_k all have the unit denominator.  The pivots and the minors
are those of fraction-free Gauss-Jordan elimination: the rows from each
pivot down hold the same values in both, so the same pivot rows are chosen,
and each back-substitution step solves for the minor that Gauss-Jordan
would leave in its pivot row.  Only the updates of the rows above each
pivot are saved.  The residual checks run on that vector, at the scan's
weight and at each specialization, and only a vector that fails is checked
again, as printed, so that the failure shows in the printed terms.

The printed form is built in one place, `normal_form`: the lead coordinate
is the literal 1 and every other one is v_k / v_lead.  No polynomial gcd is
ever taken, and v_lead is never cancelled against the other coordinates by
trial division: it is a minor of the matrix, and its zeros mark weights
where the generic elimination breaks down (for sl3 at multidegree (2,1) it
carries the factor 1 - z1^2, which vanishes at weight 1,2).  Equality tests
and specializations treat the un-cancelled factor correctly, and a
specialization that lands on it raises DenominatorVanishesError rather than
guessing.  A scan at a concrete weight has no z left to specialize, so there
each coordinate is replaced by its exact Laurent quotient whenever v_lead
divides it.

The elimination runs on monomial keys packed into ints (`phase.KeyPacking`):
`nullspace` packs the matrix once, on entry, with rational q-exponents
(odd roots, concrete weights such as -7/2,-5/3) scaled by the lcm of their
denominators.  Multiplying monomials then adds ints, dividing subtracts
them, and a leading term is a least int.  Only the minor D and the kernel
entries are unpacked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .contour import (
    FaultInjection,
    ModuleContext,
    NO_FAULTS,
    Seq,
    apply_raising,
    apply_raising_hat,
    lowering_word,
    render_vector,
    word_token,
)
from .phase import (
    DenominatorVanishesError,
    KeyPacking,
    PhaseScalar,
    _one_poly,
    _pcross,
)
from .rootdata import RootDatum, Weight


def enumerate_words(multidegree: Sequence[int]) -> list[Seq]:
    """All distinct letter arrangements of the multidegree, lex ascending."""
    counts = {j: d for j, d in enumerate(multidegree) if d > 0}
    if any(d < 0 for d in multidegree):
        raise ValueError("multidegree entries must be nonnegative")
    total = sum(counts.values())

    def rec(n: int):
        if n == 0:
            yield ()
            return
        for j in sorted(counts):
            if counts[j]:
                counts[j] -= 1
                for rest in rec(n - 1):
                    yield (j,) + rest
                counts[j] += 1

    return list(rec(total))


def nullspace(rows: list[list[PhaseScalar]], ncols: int,
              arity: int) -> list[list[PhaseScalar]]:
    """Exact kernel basis of the matrix, one vector per free column.

    Fraction-free elimination (Bareiss) over Laurent polynomials; every
    entry must be one, as `apply_raising_hat(..., clear_denominator=True)`
    makes them.  Forward: for pivot (r, c) with previous pivot p, each row
    i below r becomes (R[r][c]·R[i][k] - R[i][c]·R[r][k]) / p, an exact
    division.  Row k of the echelon form U then holds minors of order
    k + 1, its pivot d_k among them, and the last pivot is the minor D.
    Back-substitution, for each free column f and each pivot row k from
    the last up:

        G[k][f] = (D·U[k][f] - sum over j > k of U[k][c_j]·G[j][f]) / d_k,

    again exact, with G[last][f] = U[last][f].  The kernel vector of f
    holds D at f and -G[k][f] at each pivot column c_k.  That polynomial
    vector is what comes back: every coordinate a `PhaseScalar` with the
    unit denominator.  No gcd is taken and nothing is divided out;
    `normal_form` builds the printed v_k / v_lead.

    These are the vectors that fraction-free Gauss-Jordan returns, which
    updates the rows above each pivot too.  A row's update reads only that
    row and the pivot row, so from the pivot row down both hold the same
    values, and they choose the same candidates and the same sparsest
    pivot rows.  Gauss-Jordan ends with D on the diagonal, so its entry at
    (k, f) solves row k of U·x = 0 with x_f = D and x = -G below; that
    equation is the back-substitution step, and d_k != 0 makes its
    solution unique.  The rows above each pivot are never touched.

    The entries are packed on entry by one `KeyPacking` plan, sized for
    minors of order up to ncols, so that the elimination multiplies,
    subtracts and divides (`KeyPacking.divide`) sums keyed by ints.  Only
    D and the kernel entries are unpacked.
    """
    one = _one_poly(arity)
    if any(e.den != one for row in rows for e in row):
        raise ValueError("nullspace needs Laurent-polynomial entries")
    plan = KeyPacking((e.num for row in rows for e in row), arity, ncols)
    divide = plan.divide
    matrix = [[plan.pack_poly(e.num) for e in row] for row in rows]
    matrix = [row for row in matrix if any(row)]
    pivots: list[int] = []  # pivot column of each echelon row
    prev = {0: 1}  # the packed unit
    r = 0
    for c in range(ncols):
        cand = [i for i in range(r, len(matrix)) if matrix[i][c]]
        if not cand:
            continue
        # favor the sparsest pivot row to slow coefficient growth
        best = min(cand, key=lambda i: sum(len(e) for e in matrix[i]))
        matrix[r], matrix[best] = matrix[best], matrix[r]
        pivot_row = matrix[r]
        pivot = pivot_row[c]
        tail = pivot_row[c + 1:]
        for i in range(r + 1, len(matrix)):
            row = matrix[i]
            f = row[c]
            # columns up to c are zero below the pivot, column c becomes so
            matrix[i] = row[:c] + [{}] + [
                divide(_pcross(pivot, x, ((f, y),)), prev)
                if x or (f and y) else {}
                for x, y in zip(row[c + 1:], tail)]
        prev = pivot
        pivots.append(c)
        r += 1

    minor = plan.unpack_poly(prev)  # D
    rank = len(pivots)
    basis: list[list[PhaseScalar]] = []
    for free in (f for f in range(ncols) if f not in pivots):
        g: list[dict] = [{}] * rank  # G[k][free], filled from the last row up
        for k in reversed(range(rank)):
            row = matrix[k]
            if k == rank - 1:
                g[k] = row[free]
                continue
            terms = [(row[pivots[j]], g[j]) for j in range(k + 1, rank)]
            g[k] = divide(_pcross(prev, row[free], terms), row[pivots[k]])
        vec = [{} for _ in range(ncols)]
        vec[free] = minor
        for k, pc in enumerate(pivots):
            vec[pc] = {plan.unpack(key): -x for key, x in g[k].items()}
        basis.append([PhaseScalar._of(x, one, arity) for x in vec])
    return basis


def normal_form(vec: Sequence[PhaseScalar]) -> list[PhaseScalar]:
    """A polynomial kernel vector as printed: the first nonzero coordinate
    is the literal 1 and every other one is the quotient v_k / v_lead."""
    lead = next(k for k, c in enumerate(vec) if not c.is_zero())
    den = vec[lead].num
    return [PhaseScalar.one(c.arity) if k == lead
            else PhaseScalar(c.num, den, c.arity) for k, c in enumerate(vec)]


@dataclass
class ScanResult:
    algebra: str
    multidegree: tuple[int, ...]
    weight: str
    words: list[Seq]
    basis: list[list[PhaseScalar]]
    # `nullspace`'s polynomial vectors, one per basis vector; not printed
    polys: list[list[PhaseScalar]]
    residuals: list[dict[str, str]] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def basis_as_tokens(self) -> list[dict[str, str]]:
        return [vector_tokens(self.words, vec) for vec in self.basis]

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "multidegree": list(self.multidegree),
            "weight": self.weight,
            "dimension": self.dimension,
            "basis": self.basis_as_tokens(),
            "residual_checks": self.residuals,
        }

    def to_text(self) -> str:
        lines = [f"algebra: {self.algebra}  multidegree: {list(self.multidegree)}  "
                 f"weight: {self.weight}",
                 f"kernel dimension: {self.dimension}"]
        for k, entry in enumerate(self.basis_as_tokens()):
            lines.append(f"  vector {k + 1}:")
            for token, coeff in entry.items():
                lines.append(f"    {token}: {coeff}")
        for k, checks in enumerate(self.residuals):
            status = "ok" if residuals_vanish([checks]) else "NONZERO"
            lines.append(f"  residuals of vector {k + 1}: {status} "
                         + " ".join(f"{g}={v}" for g, v in checks.items()))
        return "\n".join(lines)


def vector_tokens(words: Sequence[Seq],
                  vec: Sequence[PhaseScalar]) -> dict[str, str]:
    """A kernel vector as {lowering word token: rendered coefficient},
    zero coordinates left out."""
    return {word_token(lowering_word(w)): c.render()
            for w, c in zip(words, vec) if not c.is_zero()}


def residuals_vanish(residuals: Iterable[dict[str, str]]) -> bool:
    """Whether every residual check, of every vector, printed `0`."""
    return all(v == "0" for checks in residuals for v in checks.values())


def _scan_context(datum: RootDatum, multidegree, weight, faults) -> ModuleContext:
    return ModuleContext(datum=datum, weight=weight,
                         depth=max(sum(multidegree), 1) + 1, faults=faults)


def singular_scan(datum: RootDatum, multidegree: Sequence[int],
                  weight: Weight = Weight(None),
                  faults: FaultInjection = NO_FAULTS) -> ScanResult:
    """Find all singular combinations of lowering words of one multidegree."""
    multidegree = tuple(int(d) for d in multidegree)
    if len(multidegree) != datum.rank:
        raise ValueError(f"multidegree needs {datum.rank} entries")
    ctx = _scan_context(datum, multidegree, weight, faults)
    words = enumerate_words(multidegree)
    col = {w: i for i, w in enumerate(words)}
    one = PhaseScalar.one(ctx.arity)

    rows: list[list[PhaseScalar]] = []
    for j in range(datum.rank):
        if multidegree[j] == 0:
            continue
        reduced = list(multidegree)
        reduced[j] -= 1
        targets = {t: k for k, t in enumerate(enumerate_words(reduced))}
        block = [[PhaseScalar.zero(ctx.arity) for _ in words] for _ in targets]
        for w in words:
            image = apply_raising_hat(ctx, j, {w: one}, clear_denominator=True)
            for t, coeff in image.items():
                block[targets[t]][col[w]] = coeff
        rows.extend(block)

    polys = nullspace(rows, len(words), ctx.arity)
    basis = [normal_form(poly) for poly in polys]
    if not weight.is_generic:
        # No z is left to specialize, so no vanishing locus is at stake.
        basis = [[c.reduce_exact() for c in vec] for vec in basis]
    return ScanResult(
        algebra=datum.label,
        multidegree=multidegree,
        weight=weight.label,
        words=words,
        basis=basis,
        polys=polys,
        residuals=[_kernel_residuals(datum, words, poly, vec, weight, faults)
                   for poly, vec in zip(polys, basis)],
    )


def _kernel_residuals(datum: RootDatum, words: list[Seq],
                      poly: Sequence[PhaseScalar], vec: Sequence[PhaseScalar],
                      weight: Weight, faults: FaultInjection
                      ) -> dict[str, str]:
    """The residual checks of one kernel vector, given as its polynomial
    form `poly` and its printed form `vec`.

    They run on `poly`, whose coordinates carry no denominator, and again
    on `vec` only on a failure, so that the failure shows in the printed
    terms.  poly = v_lead·vec and E_j is linear, so with v_lead != 0 the
    two pass or fail together.  A `poly` that is zero (v_lead vanished
    under a specialization) proves nothing, and `vec` is checked instead.
    """
    if any(not c.is_zero() for c in poly):
        checks = residual_checks(datum, words, poly, weight, faults)
        if residuals_vanish([checks]):
            return checks
    return residual_checks(datum, words, vec, weight, faults)


def residual_checks(datum: RootDatum, words: list[Seq],
                    vec: Sequence[PhaseScalar], weight: Weight = Weight(None),
                    faults: FaultInjection = NO_FAULTS) -> dict[str, str]:
    """Recompute every raising image of a candidate with the full operator.

    This is the independent confirmation pass: it goes through the complete
    raising action (bracket denominators, Cartan factor and all) rather than
    the cleared matrix used by the solver.
    """
    md = [0] * datum.rank
    for j in (words[0] if words else ()):
        md[j] += 1
    ctx = _scan_context(datum, md, weight, faults)
    v = {w: c for w, c in zip(words, vec) if not c.is_zero()}
    return {f"E{j+1}": render_vector(apply_raising(ctx, j, v))
            for j in range(datum.rank)}


def specialize_vector(vec: Sequence[PhaseScalar],
                      datum: RootDatum, weight: Weight) -> list[PhaseScalar]:
    """Substitute a concrete weight into a generic kernel vector.

    Raises DenominatorVanishesError when the weight sits on the vanishing
    locus of some coefficient's denominator (an un-cancelled common factor,
    typically); callers are expected to report such weights, not skip them
    silently.
    """
    exps = [-weight.root_pairing(datum, j) for j in range(datum.rank)]
    return [c.substitute_z(exps) for c in vec]


def specialize_scan(result: ScanResult, datum: RootDatum, weight: Weight,
                    faults: FaultInjection = NO_FAULTS) -> dict:
    """Specialize a generic scan at one concrete weight.

    Returns {"weight", "status", ...}: status "ok" carries the specialized
    basis and recomputed residuals, status "denominator-vanishes" reports
    the weight as lying on a vanishing locus.  The printed basis is
    specialized first, so that a vanishing v_lead is reported as such;
    the residuals are then checked on the specialized polynomial vectors
    (`_kernel_residuals`), with the scan's own `faults`, so a faulted
    kernel meets the operator it was computed from.
    """
    label = weight.label
    try:
        basis = [specialize_vector(vec, datum, weight) for vec in result.basis]
    except DenominatorVanishesError as exc:
        return {"weight": label, "status": "denominator-vanishes",
                "detail": str(exc)}
    polys = [specialize_vector(poly, datum, weight) for poly in result.polys]
    residuals = [
        _kernel_residuals(datum, result.words, poly, vec, weight, faults)
        for poly, vec in zip(polys, basis)]
    return {"weight": label,
            "status": "ok" if residuals_vanish(residuals) else "residual-nonzero",
            "basis": [vector_tokens(result.words, vec) for vec in basis],
            "residual_checks": residuals}
