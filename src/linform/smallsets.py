"""Explicit small witness sets for pairs of binary linear forms.

Closed-form classification of the 3-element sets with a deficient image
(from the collision equations u*dx + v*dy = 0 over A - A, no scan),
3- and 4-element sets separating two forms in both directions, the
5-element set separating ux+vy from x-y, and arithmetic progressions on
which conjugate forms agree.  Every construction re-verifies its claimed
cardinalities by direct computation before returning.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .intsets import (
    DIFFERENCE,
    FiniteIntSet,
    LinearForm,
    canonical_pair,
    image_cardinality,
)


@dataclass(frozen=True)
class TripleClassification:
    """All 3-element sets (up to affine equivalence) where |f(A)| < 9.

    ``exceptional_canonicals[i]`` is the canonical representative of the
    i-th exceptional class and ``cardinalities[i]`` its image size.
    """

    form: LinearForm
    bound: int
    exceptional_canonicals: tuple[FiniteIntSet, ...]
    cardinalities: tuple[int, ...]

    def as_pairs(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return tuple(
            (s.elements, c) for s, c in zip(self.exceptional_canonicals, self.cardinalities)
        )


@dataclass(frozen=True)
class WitnessPair:
    """Two sets on which |f| and |g| strictly separate in opposite directions."""

    form_f: LinearForm
    form_g: LinearForm
    set_a: FiniteIntSet
    set_b: FiniteIntSet
    f_of_a: int
    g_of_a: int
    f_of_b: int
    g_of_b: int

    def __post_init__(self) -> None:
        a_sign = self.f_of_a - self.g_of_a
        b_sign = self.f_of_b - self.g_of_b
        if a_sign == 0 or b_sign == 0 or (a_sign > 0) == (b_sign > 0):
            raise RuntimeError(
                "witness pair does not separate strictly in opposite directions: "
                f"|f(A)|={self.f_of_a}, |g(A)|={self.g_of_a}, "
                f"|f(B)|={self.f_of_b}, |g(B)|={self.g_of_b}"
            )


# (p, q) with p*a + q*b running over A - A = {0, a, -a, b, -b, b-a, a-b} for A = {0, a, b}.
_DIFFERENCES = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1))


def _require_normalized(form: LinearForm) -> tuple[int, int]:
    if not form.is_normalized:
        raise ValueError(f"normalized binary form required, got {form.coefficients}")
    return form.coefficients


def _require_coprime_uv(u: int, v: int) -> None:
    if v < 1 or u <= v:
        raise ValueError(f"need u > v >= 1, got u={u}, v={v}")
    if math.gcd(u, v) != 1:
        raise ValueError(f"u and v must be coprime, got gcd={math.gcd(u, v)}")


def classify_triples(form: LinearForm) -> TripleClassification:
    """Exceptional triples {0,a,b} (0 < a < b coprime, |f| < 9) of ux+vy, u >= 2.

    Two of the nine values coincide iff u*dx + v*dy = 0 for dx, dy in A-A =
    {p*a + q*b : (p, q) in _DIFFERENCES}, not both 0: iff alpha*a + beta*b
    = 0 with alpha = u*p1 + v*p2, beta = u*q1 + v*q2.  As u > |v| >= 1 and
    |p2| <= 1, u*p1 = -v*p2 forces p1 = p2 = 0 (so too for q): each
    coincidence is a non-trivial equation.  It has a solution 0 < a < b iff
    alpha*beta < 0 and |beta| < |alpha|, and its only coprime one is
    (|beta|, |alpha|)/gcd(alpha, beta).  So the 49 choices of (dx, dy)
    yield exactly the exceptional triples, and b <= |alpha| <= u + |v| =
    ``bound``.  A candidate (0, a, b) has 0 < a < b, so it is already
    sorted and distinct.  Each is counted exactly and keyed by ``canonical_pair``;
    |f| = 9 or two counts in one class raise RuntimeError.  For u = 1,
    dx = -v*dy always collides: every triple is exceptional, so x+y and
    x-y raise ValueError.
    """
    u, v = _require_normalized(form)
    if u == 1:
        raise ValueError(f"every triple is exceptional for {form.coefficients}; classification needs u >= 2")
    equations = [(u * p1 + v * p2, u * q1 + v * q2)
                 for (p1, q1), (p2, q2) in itertools.product(_DIFFERENCES, repeat=2)]
    candidates = {(0, abs(beta) // math.gcd(alpha, beta), abs(alpha) // math.gcd(alpha, beta))
                  for alpha, beta in equations if alpha * beta < 0 and abs(beta) < abs(alpha)}
    found: dict[tuple[int, ...], int] = {}
    for triple in map(FiniteIntSet._from_sorted, candidates):
        card = len({u * x + v * y for x in triple.elements for y in triple.elements})  # 9 sums: cheaper than planning a kernel
        key = canonical_pair(triple).elements
        if card >= 9 or found.setdefault(key, card) != card:
            raise RuntimeError(f"{triple.elements} has |f| = {card}; its class {key} has {found.get(key)}")

    keys = sorted(found)
    return TripleClassification(
        form=form,
        bound=u + abs(v),
        exceptional_canonicals=tuple(FiniteIntSet(k) for k in keys),
        cardinalities=tuple(found[k] for k in keys),
    )


def three_set_witness(form_f: LinearForm, form_g: LinearForm) -> WitnessPair:
    """3-element sets A, B with |f(A)| < |g(A)| and |f(B)| > |g(B)|.

    Requires both forms normalized with leading coefficient >= 2 and
    (u1, |v1|) != (u2, |v2|); conjugate pairs (u, v) vs (u, -v) have no
    3-element witness and are rejected.
    """
    u1, v1 = _require_normalized(form_f)
    u2, v2 = _require_normalized(form_g)
    if u1 < 2 or u2 < 2:
        raise ValueError("both forms need leading coefficient >= 2")
    if (u1, abs(v1)) == (u2, abs(v2)):
        raise ValueError("forms with equal (u, |v|) admit no 3-element witness")
    # The form with the smaller (u, |v|) takes fewer than 9 values on small, the other on large.
    (us, vs), (ul, vl) = sorted([(u1, abs(v1)), (u2, abs(v2))])
    if us < ul and ul != us + vs:
        small, large = (0, vs, us), (0, vl, ul)
    elif us < ul:
        small, large = (0, vs, us), (0, vl, ul + vl)
    else:
        small, large = (0, vs, us + vs), (0, vl, ul + vl)
    set_a, set_b = map(FiniteIntSet, (small, large) if (u1, abs(v1)) < (u2, abs(v2)) else (large, small))

    f_of_a = image_cardinality(form_f, set_a)
    g_of_a = image_cardinality(form_g, set_a)
    f_of_b = image_cardinality(form_f, set_b)
    g_of_b = image_cardinality(form_g, set_b)
    if not (f_of_a <= 8 and g_of_a == 9 and f_of_b == 9 and g_of_b <= 8):
        raise RuntimeError(
            f"3-set witness verification failed for {form_f.coefficients} vs "
            f"{form_g.coefficients}: got {f_of_a}, {g_of_a}, {f_of_b}, {g_of_b}"
        )
    return WitnessPair(form_f, form_g, set_a, set_b, f_of_a, g_of_a, f_of_b, g_of_b)


def conjugate_four_set_witness(u: int, v: int) -> WitnessPair:
    """4-element sets separating ux+vy from its conjugate ux-vy both ways.

    For u = 2 the pair is {0,3,4,6} / {0,4,6,7} with cardinalities
    13 > 12 and 13 < 14; for u >= 3 the sets are built from u and v and
    give 14 > 13 and 13 < 14.  All four cardinalities are recomputed and
    checked against these patterns.
    """
    _require_coprime_uv(u, v)
    form_f = LinearForm((u, v))
    form_g = LinearForm((u, -v))
    if u == 2:
        set_a = FiniteIntSet((0, 3, 4, 6))
        set_b = FiniteIntSet((0, 4, 6, 7))
        expected = (13, 12, 13, 14)
    else:
        set_a = FiniteIntSet((0, u * u - v * v, u * u, u * u + u * v))
        set_b = FiniteIntSet((0, u * u - u * v, u * u - v * v, u * u))
        expected = (14, 13, 13, 14)

    cards = (
        image_cardinality(form_f, set_a),
        image_cardinality(form_g, set_a),
        image_cardinality(form_f, set_b),
        image_cardinality(form_g, set_b),
    )
    if cards != expected:
        raise RuntimeError(
            f"4-set witness verification failed for (u,v)=({u},{v}): "
            f"expected {expected}, computed {cards}"
        )
    return WitnessPair(form_f, form_g, set_a, set_b, *cards)


def five_set_witness(u: int, v: int) -> tuple[FiniteIntSet, int, int]:
    """A 5-element set with |f(A)| <= 19 but |A - A| = 21, for f = ux+vy.

    A is the geometric-mix set {0, v^3, v^3+v^2*u, v^3+v^2*u+v*u^2,
    v^3+v^2*u+v*u^2+u^3}.  Returns (A, |f(A)|, |d(A)|) after verifying
    both counts.
    """
    _require_coprime_uv(u, v)
    a1 = v**3
    a2 = a1 + v * v * u
    a3 = a2 + v * u * u
    a4 = a3 + u**3
    witness = FiniteIntSet((0, a1, a2, a3, a4))
    card_f = image_cardinality(LinearForm((u, v)), witness)
    card_d = image_cardinality(DIFFERENCE, witness)
    if card_d != 21 or card_f > 19:
        raise RuntimeError(
            f"5-set witness verification failed for (u,v)=({u},{v}): "
            f"|f(A)|={card_f}, |d(A)|={card_d}"
        )
    return witness, card_f, card_d


def ap_equality_set(u: int, v: int, t: int) -> FiniteIntSet:
    """The progression [0, t-1], on which ux+vy and ux-vy agree with t^2 values.

    Valid for 1 <= t <= u; beyond u the equality guarantee fails, so
    larger t is rejected.
    """
    _require_coprime_uv(u, v)
    if not 1 <= t <= u:
        raise ValueError(f"progression length must satisfy 1 <= t <= u={u}, got {t}")
    return FiniteIntSet(range(t))
