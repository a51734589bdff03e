import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscreen.cli import parse_weight
from qscreen.rootdata import (
    CATALOG,
    ConfigError,
    RootDatum,
    Weight,
    datum_from_config,
    datum_to_config,
    load_datum,
    resolve_algebra,
)


def test_catalog_contents():
    assert set(CATALOG) == {"sl2", "sl3", "sl2_1", "osp1_2"}
    assert CATALOG["sl2"].gram == ((2,),)
    assert CATALOG["sl3"].gram == ((2, -1), (-1, 2))
    assert CATALOG["sl2_1"].odd == frozenset({1})
    assert CATALOG["sl2_1"].gram[1][1] == 0
    assert CATALOG["osp1_2"].odd == frozenset({0})
    assert CATALOG["osp1_2"].gram == ((1,),)


def test_parities():
    assert CATALOG["sl3"].parity(0) == CATALOG["sl3"].parity(1) == 0
    assert CATALOG["sl2_1"].parity(0) == 0
    assert CATALOG["sl2_1"].parity(1) == 1
    assert CATALOG["osp1_2"].parity(0) == 1


def test_symmetrizers():
    assert CATALOG["sl2"].symmetrizer(0) == 1
    assert CATALOG["osp1_2"].symmetrizer(0) == Fraction(1, 2)
    # isotropic odd root falls back to 1
    assert CATALOG["sl2_1"].symmetrizer(1) == 1


def test_cartan_matrices():
    assert CATALOG["sl3"].cartan() == ((2, -1), (-1, 2))
    assert CATALOG["sl2_1"].cartan() == ((2, -1), (-1, 0))
    # norm-1 odd root still has diagonal 2 in the Cartan matrix
    assert CATALOG["osp1_2"].cartan() == ((2,),)


def test_symmetrizer_times_cartan_recovers_gram():
    for datum in CATALOG.values():
        a = datum.cartan()
        for i in range(datum.rank):
            for j in range(datum.rank):
                assert datum.symmetrizer(i) * a[i][j] == datum.gram[i][j]


def test_validation_rejects_bad_data():
    with pytest.raises(ConfigError):
        RootDatum(rank=2, gram=((Fraction(2),),))
    with pytest.raises(ConfigError):
        RootDatum(rank=2,
                  gram=((Fraction(2), Fraction(-1)), (Fraction(0), Fraction(2))))
    with pytest.raises(ConfigError):
        RootDatum(rank=1, gram=((Fraction(2),),), odd=frozenset({3}))


def test_weight_pairings():
    datum = CATALOG["sl3"]
    lam = Weight.concrete([1, 2])
    # alpha_1 . lambda = 2*1 - 1*2 = 0, alpha_2 . lambda = -1 + 4 = 3
    assert lam.root_pairing(datum, 0) == 0
    assert lam.root_pairing(datum, 1) == 3
    mu = Weight.concrete([Fraction(1, 2), 0])
    assert lam.inner(datum, mu) == Fraction(1) * 2 * Fraction(1, 2) + 2 * (-1) * Fraction(1, 2)


def test_generic_weight_has_no_numbers():
    lam = Weight.generic()
    assert lam.is_generic
    with pytest.raises(ValueError):
        lam.root_pairing(CATALOG["sl2"], 0)


def test_config_roundtrip(tmp_path):
    datum = CATALOG["sl2_1"]
    obj = datum_to_config(datum)
    assert obj == {"rank": 2, "gram": [[2, -1], [-1, 0]], "odd": [2]}
    back = datum_from_config(obj)
    assert back.gram == datum.gram and back.odd == datum.odd

    p = tmp_path / "alg.json"
    p.write_text(json.dumps(obj))
    assert load_datum(str(p)).gram == datum.gram


def test_config_fraction_strings():
    obj = {"rank": 1, "gram": [["1/2"]], "odd": [1]}
    datum = datum_from_config(obj)
    assert datum.gram == ((Fraction(1, 2),),)
    assert datum.odd == frozenset({0})
    assert datum_to_config(datum)["gram"] == [["1/2"]]


def test_config_rank_defaults_to_gram_size():
    datum = datum_from_config({"name": "mine", "gram": [[2, -1], [-1, 0]],
                               "odd": [2]}, name="path.json")
    assert datum.rank == 2 and datum.name == "mine"
    assert datum_from_config({"gram": [[2]]}, name="path.json").name == "path.json"


def test_config_rejects_garbage():
    for bad in [
        {"rank": 1},
        {"rank": 2, "gram": [[2]]},
        {"rank": 1, "gram": [["x"]]},
        {"rank": 1, "gram": [["1/0"]]},
        {"rank": 1, "gram": [[2]], "odd": ["a"]},
        {"rank": 1, "gram": [[2]], "odd": [1.5]},
        {"rank": 1, "gram": [[2]], "odd": [True]},
        {"rank": 2, "gram": [[2, -1], [-1, 2]], "odd": "12"},
        {"rank": 2, "gram": [[2, -1], [-1, 2]], "odd": [0]},
        {"rank": 2, "gram": [[2, -1], [-1, 2]], "odd": [3]},
        {"rank": 2.5, "gram": [[2, -1], [-1, 2]]},
        {"rank": "2", "gram": [[2, -1], [-1, 2]]},
        {"rank": True, "gram": [[2]]},
        [],
    ]:
        with pytest.raises(ConfigError):
            datum_from_config(bad)
    # an out-of-range odd root is named as written, 1-based
    with pytest.raises(ConfigError, match=r"odd root 0 out of range 1\.\.2"):
        datum_from_config({"gram": [[2, -1], [-1, 2]], "odd": [0]})


def test_resolve_algebra():
    assert resolve_algebra("sl3") is CATALOG["sl3"]
    with pytest.raises(ConfigError):
        resolve_algebra("e8")


gram_entries = st.fractions(min_value=-4, max_value=4, max_denominator=2)


@st.composite
def root_data(draw):
    rank = draw(st.integers(min_value=1, max_value=3))
    entries = [[Fraction(0)] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            entries[i][j] = entries[j][i] = draw(gram_entries)
    odd = frozenset(i for i in range(rank) if draw(st.booleans()))
    return RootDatum(rank=rank,
                     gram=tuple(tuple(r) for r in entries),
                     odd=odd)


@settings(max_examples=50, deadline=None)
@given(root_data())
def test_symmetrized_cartan_identity_holds_generally(datum):
    a = datum.cartan()
    for i in range(datum.rank):
        for j in range(datum.rank):
            assert datum.symmetrizer(i) * a[i][j] == datum.gram[i][j]


@settings(max_examples=50, deadline=None)
@given(root_data())
def test_config_roundtrip_generally(datum):
    back = datum_from_config(datum_to_config(datum))
    assert back.rank == datum.rank
    assert back.gram == datum.gram
    assert back.odd == datum.odd


# ---- one number format: an int, or a Fraction when non-integral ----

def _normal(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _config_entry(draw, x: Fraction):
    """x as a config file may spell it: an int, or a "p/q" string that need
    not be in lowest terms."""
    scale = draw(st.integers(1, 3))
    if x.denominator == 1 and draw(st.booleans()):
        return int(x)
    return f"{x.numerator * scale}/{x.denominator * scale}"


@st.composite
def built_data(draw):
    """Root data from the catalog, a config, or direct construction."""
    route = draw(st.sampled_from(["catalog", "config", "direct"]))
    if route == "catalog":
        return draw(st.sampled_from(sorted(CATALOG.items())))[1]
    datum = draw(root_data())
    gram = [[Fraction(x) for x in row] for row in datum.gram]
    if route == "config":
        return datum_from_config(
            {"gram": [[_config_entry(draw, x) for x in row] for row in gram]})
    return RootDatum(rank=datum.rank, gram=tuple(map(tuple, gram)))


@settings(max_examples=60, deadline=None)
@given(built_data(), st.data())
def test_root_data_and_weights_hold_one_number_format(datum, data):
    r = range(datum.rank)
    assert all(_normal(x) for row in datum.gram for x in row)
    assert all(_normal(datum.symmetrizer(j)) for j in r)
    assert all(_normal(x) for row in datum.cartan() for x in row)

    coords = [data.draw(st.fractions(-4, 4, max_denominator=3)) for _ in r]
    text = ",".join(str(_config_entry(data.draw, c)) for c in coords)
    weights = [Weight.concrete(coords), Weight(tuple(coords)),
               parse_weight(text, datum.rank)]
    for w in weights:
        assert w.coords == tuple(coords)
        assert all(_normal(c) for c in w.coords)
        for j in r:
            pairing = w.root_pairing(datum, j)
            assert type(pairing) in (int, Fraction)
            assert pairing == sum(Fraction(c) * Fraction(datum.gram[j][k])
                                  for k, c in enumerate(coords))
        inner = w.inner(datum, weights[0])
        assert type(inner) in (int, Fraction)
        assert inner == sum(Fraction(cj) * datum.gram[j][k] * ck
                            for j, cj in enumerate(coords)
                            for k, ck in enumerate(coords))
