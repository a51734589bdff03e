"""Root data for the algebras under study.

An algebra is specified by a symmetric rational Gram matrix of simple-root
inner products together with the set of odd simple roots.  Everything else —
parities, symmetrizers, the Cartan matrix, the weight pairings that drive the
contour representation — is derived from that pair.  Gram entries and weight
coordinates are kept in the number format of `phase` (`phase.rational`), and
symmetrizers and Cartan entries divide through `phase.ratio`.

Indices are 0-based internally.  User-facing text (words, JSON configs, CLI
tokens) is 1-based; conversion happens only at those boundaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .phase import Rational, ratio, rational


class ConfigError(ValueError):
    """Raised for malformed or inconsistent algebra configurations."""


@dataclass(frozen=True)
class RootDatum:
    """A rank-r symmetric Gram matrix plus the set of odd simple roots.

    gram[i][j] is the inner product of simple roots i and j.  Diagonal zeros
    are allowed (isotropic odd roots).
    """

    rank: int
    gram: tuple[tuple[Rational, ...], ...]
    odd: frozenset[int] = frozenset()
    name: str = ""

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigError("rank must be at least 1")
        if len(self.gram) != self.rank or any(len(row) != self.rank for row in self.gram):
            raise ConfigError(f"gram matrix must be {self.rank}x{self.rank}")
        object.__setattr__(self, "gram", tuple(tuple(map(rational, row))
                                               for row in self.gram))
        if self.gram != tuple(zip(*self.gram)):
            raise ConfigError("gram matrix must be symmetric")
        for j in self.odd:
            if not 0 <= j < self.rank:
                raise ConfigError(f"odd index {j} out of range")

    # ---- derived structure ----

    @property
    def label(self) -> str:
        """The name, or `custom` for an unnamed datum, as reports print it."""
        return self.name or "custom"

    def parity(self, j: int) -> int:
        """0 for an even simple root, 1 for an odd one."""
        return 1 if j in self.odd else 0

    def pair(self, i: int, j: int) -> Rational:
        """Inner product of simple roots i and j."""
        return self.gram[i][j]

    def symmetrizer(self, j: int) -> Rational:
        """The factor d_j with q_j = q^{d_j}.

        Half the root's norm when the norm is nonzero; 1 on isotropic roots,
        where the deformed bracket degenerates gracefully.
        """
        njj = self.gram[j][j]
        return ratio(njj, 2) if njj != 0 else 1

    def cartan(self) -> tuple[tuple[Rational, ...], ...]:
        """The (generalized) Cartan matrix a_ij derived from the Gram matrix.

        a_ij = 2 (alpha_i . alpha_j) / (alpha_i . alpha_i) on non-isotropic
        rows; an isotropic row is left as the raw inner products.  Either
        way d_i * a_ij recovers the Gram entry.
        """
        rows = []
        for i, row in enumerate(self.gram):
            nii = row[i]
            rows.append(tuple(ratio(2 * x, nii) for x in row) if nii != 0 else row)
        return tuple(rows)


@dataclass(frozen=True)
class Weight:
    """A highest weight: either generic (formal) or rational coordinates.

    Concrete coordinates are taken in the simple-root basis, so both the
    root pairings alpha_j . lambda and inner products lambda . mu follow
    from the Gram matrix alone.
    """

    coords: Optional[tuple[Rational, ...]] = None

    def __post_init__(self):
        if self.coords is not None:
            object.__setattr__(self, "coords", tuple(map(rational, self.coords)))

    @staticmethod
    def generic() -> "Weight":
        return Weight(None)

    @staticmethod
    def concrete(values: Sequence[Rational]) -> "Weight":
        return Weight(values)

    @property
    def is_generic(self) -> bool:
        return self.coords is None

    @property
    def label(self) -> str:
        """`generic`, or the coordinates joined by commas, as reports print it."""
        if self.coords is None:
            return "generic"
        return ",".join(str(c) for c in self.coords)

    def root_pairing(self, datum: RootDatum, j: int) -> Rational:
        """alpha_j . lambda for a concrete weight."""
        if self.coords is None:
            raise ValueError("generic weight has no numeric pairings")
        if len(self.coords) != datum.rank:
            raise ConfigError("weight coordinate count does not match rank")
        return sum(c * datum.gram[j][k] for k, c in enumerate(self.coords))

    def inner(self, datum: RootDatum, other: "Weight") -> Rational:
        """lambda . mu for two concrete weights."""
        if self.coords is None or other.coords is None:
            raise ValueError("inner product needs two concrete weights")
        return sum(c * other.root_pairing(datum, j)
                   for j, c in enumerate(self.coords))


# ---- bundled algebras ----

def _datum(name, gram, odd=()):
    return RootDatum(rank=len(gram), gram=gram, odd=frozenset(odd), name=name)


CATALOG: dict[str, RootDatum] = {
    # the basic even cases
    "sl2": _datum("sl2", [[2]]),
    "sl3": _datum("sl3", [[2, -1], [-1, 2]]),
    # one isotropic odd root (second simple root odd, null)
    "sl2_1": _datum("sl2_1", [[2, -1], [-1, 0]], odd=(1,)),
    # one non-isotropic odd root; its norm 1 gives half-integer q exponents
    "osp1_2": _datum("osp1_2", [[1]], odd=(0,)),
}


# ---- JSON configuration files ----
#
# {"name": "my_algebra", "rank": 2, "gram": [[2, -1], [-1, 0]], "odd": [2]}
#
# Gram entries may be integers or "p/q" strings; "odd" is a list of 1-based
# integer indices.  "rank", an integer, defaults to the size of "gram", and
# "name", when given, names the algebra in reports instead of the file path.

def datum_from_config(obj: dict, name: str = "") -> RootDatum:
    if not isinstance(obj, dict):
        raise ConfigError("algebra config must be a JSON object")
    try:
        raw_gram = obj["gram"]
        rank = obj["rank"] if "rank" in obj else len(raw_gram)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad algebra config: {exc}") from exc
    if type(rank) is not int:
        raise ConfigError(f"rank must be an integer, not {rank!r}")
    try:
        gram = tuple(tuple(rational(str(x)) for x in row) for row in raw_gram)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad gram entry: {exc}") from exc
    odd = obj.get("odd", [])
    if type(odd) is not list or any(type(j) is not int for j in odd):
        raise ConfigError(f"odd must be a list of integers, not {odd!r}")
    for j in odd:
        if not 1 <= j <= rank:
            raise ConfigError(f"odd root {j} out of range 1..{rank}")
    return RootDatum(rank=rank, gram=gram, odd=frozenset(j - 1 for j in odd),
                     name=str(obj.get("name") or name))


def datum_to_config(datum: RootDatum) -> dict:
    return {
        "rank": datum.rank,
        "gram": [[x if type(x) is int else str(x) for x in row]
                 for row in datum.gram],
        "odd": sorted(j + 1 for j in datum.odd),
    }


def load_datum(path: str) -> RootDatum:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return datum_from_config(obj, name=path)


def resolve_algebra(spec: str) -> RootDatum:
    """Accept either a catalog name or a path to a JSON config."""
    if spec in CATALOG:
        return CATALOG[spec]
    if spec.endswith(".json"):
        return load_datum(spec)
    raise ConfigError(
        f"unknown algebra {spec!r}; expected one of {sorted(CATALOG)} or a .json path")
