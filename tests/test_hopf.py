from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscreen.contour import FaultInjection, parse_word, vec_eq
from qscreen.hopf import (
    TensorContext,
    act_tensor_element,
    act_word_pair,
    antipode_word,
    braid_phase,
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
    z_left = tctx.left.z(0, 1)
    assert out[((0,), (0, 0))] == q_power(2, tctx.arity) * z_left


def test_split_lowering_matches_table_action():
    for name in ("sl2", "sl2_1"):
        tctx = TensorContext(datum=CATALOG[name], depth=3)
        j = tctx.datum.rank - 1
        te = coproduct_letter(("F", j), tctx.arity)
        for s1 in [(), (j,), (0, j)]:
            for s2 in [(), (j,)]:
                tv = tensor_state(tctx, s1, s2)
                assert vec_eq(act_tensor_element(tctx, te, tv),
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
