from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qscreen.contour import (FaultInjection, ModuleContext, apply_word,
                             parse_word, vec_add, vec_eq)
from qscreen.hopf import (
    TensorAction,
    TensorContext,
    act_algebra,
    act_tensor_element,
    act_word_pair,
    antipode_word,
    braid_phase,
    coproduct_element,
    coproduct_letter,
    coproduct_word,
    counit_word,
    defining_relations,
    run_suite,
    split_lowering,
    tensor_mul,
    tensor_state,
    verify_coproduct,
    verify_hopf_axioms,
    verify_relations,
)
from qscreen.phase import PhaseScalar, q_power
from qscreen.rootdata import CATALOG, Weight


def one(ar):
    return PhaseScalar.one(ar)


def test_coproduct_tables():
    assert coproduct_letter(("F", 0), 1) == {
        ((("F", 0),), ()): one(1),
        ((("K", 0, -1),), (("F", 0),)): one(1),
    }
    assert coproduct_letter(("E", 0), 1) == {
        ((("E", 0),), (("K", 0, 1),)): one(1),
        ((), (("E", 0),)): one(1),
    }
    assert coproduct_letter(("K", 0, -1), 1) == {
        ((("K", 0, -1),), (("K", 0, -1),)): one(1),
    }


def test_counit_on_words():
    assert counit_word(parse_word("K1 K2- K1"), 2) == 1
    assert counit_word(parse_word("K1 F2"), 2).is_zero()
    assert counit_word((), 2) == 1


def test_antipode_is_graded_antihomomorphism():
    datum = CATALOG["sl2_1"]
    # two odd letters: g(F2 F2) = -g(F2) g(F2) = -(K2 F2)(K2 F2)
    out = antipode_word(datum, parse_word("F2 F2"), 2)
    assert out == {parse_word("K2 F2 K2 F2"): -one(2)}
    # odd past even: g(F1 F2) = g(F2) g(F1) with no extra sign
    out = antipode_word(datum, parse_word("F1 F2"), 2)
    assert out == {parse_word("K2 F2 K1 F1"): one(2)}


def test_tensor_multiplication_sign():
    datum = CATALOG["sl2_1"]
    a = {((), (("E", 1),)): one(4)}  # 1 (x) E2
    b = {((("F", 1),), ()): one(4)}  # F2 (x) 1
    # odd (x) odd interchange picks up a minus sign
    assert tensor_mul(datum, a, b) == {((("F", 1),), (("E", 1),)): -one(4)}
    # and even factors do not
    c = {((("F", 0),), ()): one(4)}
    assert tensor_mul(datum, a, c) == {((("F", 0),), (("E", 1),)): one(4)}


def test_coproduct_word_multiplies():
    datum = CATALOG["sl2"]
    te = coproduct_word(datum, parse_word("K1 K1"), 1)
    assert te == {(parse_word("K1 K1"), parse_word("K1 K1")): one(1)}


def test_act_word_pair_interchange_sign():
    tctx = TensorContext(datum=CATALOG["sl2_1"], depth=3)
    tv = tensor_state(tctx, (1,), ())
    out = act_word_pair(tctx, (), (("F", 1),), tv)
    assert list(out) == [((1,), (1,))]
    assert out[((1,), (1,))] == -one(tctx.arity)

    # with an even left factor there is no sign
    tv = tensor_state(tctx, (0,), ())
    out = act_word_pair(tctx, (), (("F", 1),), tv)
    assert out[((0,), (1,))] == one(tctx.arity)


def test_split_lowering_closed_form():
    tctx = TensorContext(datum=CATALOG["sl2"], depth=3)
    tv = tensor_state(tctx, (0,), (0,))
    out = split_lowering(tctx, 0, tv)
    # outer placement is coefficient-free
    assert out[((0, 0), (0,))] == one(tctx.arity)
    # pulling through one even contour costs q^2 and the left weight phase
    z_left = tctx.left.qz(0, 0, 1)
    assert out[((0,), (0, 0))] == q_power(2, tctx.arity) * z_left


def test_split_lowering_matches_table_action():
    for name in ("sl2", "sl2_1"):
        tctx = TensorContext(datum=CATALOG[name], depth=3)
        j = tctx.datum.rank - 1
        action = TensorAction(tctx, coproduct_letter(("F", j), tctx.arity))
        for s1 in [(), (j,), (0, j)]:
            for s2 in [(), (j,)]:
                tv = tensor_state(tctx, s1, s2)
                assert vec_eq(act_tensor_element(action, tv),
                              split_lowering(tctx, j, tv))


def test_relation_list_covers_all_families():
    names = [name for name, _ in defining_relations(CATALOG["sl3"], 2)]
    assert "K1 K2 = K2 K1" in names
    assert any(name.startswith("K1 E2") for name in names)
    assert any(name.startswith("K2 F1") for name in names)
    assert any("E1 F1 - F1 E1" in name for name in names)
    assert sum(1 for n in names if "= 0" in n) == 2  # the two mixed E F pairs


def test_anticommutator_named_for_odd_roots():
    names = [name for name, _ in defining_relations(CATALOG["osp1_2"], 1)]
    assert any("E1 F1 + F1 E1" in name for name in names)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_relations_hold(name):
    report = verify_relations(CATALOG[name], depth=3)
    assert report.passed, report.to_text()


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_relations_hold_at_concrete_weight(name):
    datum = CATALOG[name]
    weight = Weight.concrete([Fraction(k + 2, 3) for k in range(datum.rank)])
    report = verify_relations(datum, depth=3, weight=weight)
    assert report.passed, report.to_text()


@pytest.mark.parametrize("name", ["sl2", "sl2_1"])
def test_coproduct_suite_holds(name):
    report = verify_coproduct(CATALOG[name], depth=2)
    assert report.passed, report.to_text()


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_hopf_axioms_hold(name):
    report = verify_hopf_axioms(CATALOG[name], depth=3)
    assert report.passed, report.to_text()


def test_report_json_shape():
    report = verify_relations(CATALOG["sl2"], depth=2)
    obj = report.to_json()
    assert obj["suite"] == "relations"
    assert obj["status"] == "pass"
    for rec in obj["identities"]:
        assert set(rec) == {"identity", "status", "counterexample"}
        assert rec["counterexample"] is None


def test_report_records_counterexample():
    faults = FaultInjection(flip_raising_prefactor=True)
    report = verify_relations(CATALOG["sl2"], depth=3, faults=faults)
    assert not report.passed
    rec = report.failures()[0]
    ce = rec.counterexample
    assert set(ce) == {"basis", "lhs", "rhs"}
    assert ce["basis"].startswith("U(")
    assert ce["lhs"] != ce["rhs"]


def test_run_suite_dispatch():
    reports = run_suite("all", CATALOG["sl2"], depth=2)
    assert [r.suite for r in reports] == ["relations", "coproduct", "hopf-axioms"]
    with pytest.raises(ValueError):
        run_suite("nonsense", CATALOG["sl2"], depth=2)


# ---- braiding phases ----

def test_braid_phase_is_symmetric():
    datum = CATALOG["sl2_1"]
    w1, w2 = Weight.concrete([1, 2]), Weight.concrete([Fraction(1, 2), 1])
    a = braid_phase(datum, w1, (0, 1), w2, (1,))
    b = braid_phase(datum, w2, (1,), w1, (0, 1))
    assert a == b


def test_braid_phase_odd_pair_sign():
    datum = CATALOG["sl2_1"]
    w0 = Weight.concrete([0, 0])
    # a single odd-odd contour pair contributes (-1) q^{n_22} = -1
    assert braid_phase(datum, w0, (1,), w0, (1,)) == PhaseScalar.from_rational(-1, 0)
    # even-even pair: q^{n_11} = q^2
    assert braid_phase(datum, w0, (0,), w0, (0,)) == q_power(2, 0)


def test_braid_phase_requires_concrete_weights():
    with pytest.raises(ValueError):
        braid_phase(CATALOG["sl2"], Weight.generic(), (), Weight.concrete([1]), ())


coords = st.fractions(min_value=-2, max_value=2, max_denominator=2)
seqs2 = st.lists(st.integers(0, 1), min_size=0, max_size=3).map(tuple)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["sl3", "sl2_1"]),
       st.tuples(coords, coords), st.tuples(coords, coords),
       seqs2, seqs2, seqs2)
def test_braid_phase_multiplicative_in_second_group(name, c1, c2, i1, i2a, i2b):
    """Concatenating the second contour group multiplies phases, up to the
    weight-weight factor that would otherwise be counted twice."""
    datum = CATALOG[name]
    w1, w2 = Weight.concrete(c1), Weight.concrete(c2)
    base_exp = w1.inner(datum, w2) - sum(w2.root_pairing(datum, i) for i in i1)
    base = q_power(base_exp, 0)
    joined = braid_phase(datum, w1, i1, w2, i2a + i2b)
    split = braid_phase(datum, w1, i1, w2, i2a) * braid_phase(datum, w1, i1, w2, i2b)
    assert joined * base == split


# ---- the zero-free contract of sparse vectors ----

def vec_eq_by_subtraction(v1, v2) -> bool:
    """Reference equality: every coefficient of v1 - v2 is zero."""
    diff = dict(v1)
    for k, c in v2.items():
        diff[k] = diff[k] - c if k in diff else -c
    return all(c.is_zero() for c in diff.values())


def assert_zero_free(v):
    zeros = [k for k, c in v.items() if c.is_zero()]
    assert not zeros, f"zero coefficients stored at {zeros}"


@st.composite
def contract_cases(draw):
    """Plain data for one module-layer case: algebra, two weights (None
    for generic), words, states, a relation index, a root, and the terms
    of two vectors for `vec_eq`."""
    name = draw(st.sampled_from(sorted(CATALOG)))
    rank = CATALOG[name].rank
    weight = st.one_of(st.none(), st.tuples(*[coords] * rank))
    index = st.integers(0, rank - 1)
    letter = st.one_of(st.tuples(st.sampled_from("EF"), index),
                       st.tuples(st.just("K"), index, st.sampled_from([1, -1])))
    word = st.lists(letter, max_size=3).map(tuple)
    seq = st.lists(index, max_size=2).map(tuple)
    # (state, pool index, form index) terms; the second vector sums the
    # first one's terms in reverse with other stored forms, then a pair
    # that cancels, and at times one term more
    term = st.tuples(seq, st.integers(0, 4), st.integers(0, 1))
    terms = draw(st.lists(term, max_size=4))
    return (name, draw(weight), draw(weight), draw(word), draw(word),
            draw(word), draw(seq), draw(seq), draw(st.integers(0, 99)),
            draw(index), terms, draw(term), draw(st.one_of(st.none(), term)))


def scalar_pool(arity: int) -> list[PhaseScalar]:
    z = PhaseScalar.monomial(1, 0, (1,) + (0,) * (arity - 1), arity)
    return [one(arity), -q_power(Fraction(1, 2), arity),
            q_power(-1, arity) * z, q_power(Fraction(1, 3), arity),
            (1 - q_power(2, arity) * z * z)
            / (q_power(1, arity) - q_power(-1, arity))]


def stored_forms(x: PhaseScalar, arity: int) -> list[PhaseScalar]:
    """x as it is, and x times d/d, the same value stored over d."""
    d = 1 + q_power(1, arity)
    return [x, x * d / d]


# E1 U(1,1) in sl2: at weight 1 one removal factor is zero, at 1/2 the
# image cancels to 0.
@example(("sl2", (1,), (1,), (("E", 0),), (("E", 0),), (), (0, 0), (0, 0),
          0, 0, [], ((), 0, 0), None))
@example(("sl2", (Fraction(1, 2),), (Fraction(1, 2),), (("E", 0),),
          (("E", 0),), (), (0, 0), (0, 0), 8, 0, [], ((), 0, 0), None))
@settings(max_examples=60, deadline=None)
@given(contract_cases())
def test_module_layer_stores_no_zero_and_vec_eq_matches_subtraction(case):
    (name, c1, c2, word, w1, w2, s1, s2, rel, j, terms, extra, more) = case
    datum = CATALOG[name]
    weight1, weight2 = (Weight.generic() if c is None else Weight.concrete(c)
                        for c in (c1, c2))
    ctx = ModuleContext(datum=datum, weight=weight1, depth=6)
    tctx = TensorContext(datum=datum, weight1=weight1, weight2=weight2,
                         depth=6)
    v = {s1: one(ctx.arity)}
    tv = tensor_state(tctx, s1, s2)
    relations = list(defining_relations(datum, ctx.arity))
    _, element = relations[rel % len(relations)]
    _, tensor_element = list(defining_relations(datum, tctx.arity))[
        rel % len(relations)]
    images = [
        apply_word(ctx, word, v),
        act_algebra(ctx, element, v),
        act_word_pair(tctx, w1, w2, tv),
        act_tensor_element(TensorAction(tctx, coproduct_element(
            datum, tensor_element, tctx.arity)), tv),
        split_lowering(tctx, j, tv),
    ]
    for image in images:
        assert_zero_free(image)

    pool, arity = scalar_pool(ctx.arity), ctx.arity

    def build(spec):
        out: dict = {}
        for k, p, f in spec:
            out = vec_add(out, {k: stored_forms(pool[p], arity)[f]})
        return out

    first = build(terms)
    flip = [(k, p, 1 - f) for k, p, f in reversed(terms)]
    second = vec_add(build(flip + [extra]),
                     {extra[0]: -stored_forms(pool[extra[1]], arity)[1 - extra[2]]})
    if more is not None:
        second = vec_add(second, build([more]))
    for a, b in ((first, second), (second, first), (first, first),
                 (images[0], first), (images[2], images[4])):
        assert_zero_free(a)
        assert vec_eq(a, b) == vec_eq_by_subtraction(a, b)
    if more is None:
        assert vec_eq(first, second)
