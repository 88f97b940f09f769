"""Local solutions from k-th power subgroups, the quadratic residues being k = 2.

Let H be the subgroup of k-th powers in the units mod a prime
p = 1 (mod 2k), of order (p-1)/k, and f = ux+vy with p not dividing uv.
One flow, _subgroup_locals, turns H into a local solution with
|f(H)| = p - 1 against |s(H)| = |d(H)| = p at each prime where a given
integer a is not a k-th power residue:

- 0 is not in f(H).  u*h1 + v*h2 = 0 means h1/h2 = -v/u, and the
  quotients h1/h2 run over H, so 0 is in f(H) exactly when -v/u is a
  k-th power.  Multiplying by the k-th power u^k, that is when -u^(k-1)*v
  is one: a = -uv for the squares, a = -u^(q-1)*v for q-th powers.
- f(H) holds every nonzero class: for p > k^4 by the coverage bound (the
  k-th power sources take p > q^4), and for k = 2 from p > 5 on.  There
  u*x^2 + v*y^2 = c != 0 has p - (-uv/p) >= p - 1 solutions (x, y), and
  at most 4 of them have x = 0 or y = 0, since v*y^2 = c and u*x^2 = c
  have at most two roots each.
- s(H) and d(H) are all of Z/pZ.  The nonzero classes follow as for f
  with (u, v) = (1, +-1).  0 is in d(H) always, and in s(H) because -1
  is in H: (-1)^((p-1)/k) = 1 as (p-1)/k is even for p = 1 (mod 2k).

While |H| is at most FULL_ENUMERATION_ORDER_CAP, the flow counts the
representations of every class under f, x+y and x-y and checks all of
the above on the counts; past the cap it checks -1 in H and relies on
the lemma.

power_subgroup raises every x in [1, p) to the k-th power by
square-and-multiply on numpy int64, which is exact while
(p-1)^2 < 2^63, so it takes p below POWER_SUBGROUP_P_CAP.  The
representations r_f(x) = #{(h1, h2) in H x H : f(h1, h2) = x} of every
class come from one cyclic convolution per coset of H, in O(p log p)
time and O(p) memory, by modular._representation_counts: a float64 FFT
whose rounding is exact by the error bound in its docstring and checked
on every call.

- Coset lemma.  r_f(x) = T_C(x/u), where C = (v/u)*H is the coset of
  v/u and T_C(y) = #{(h, c) in H x C : h + c = y} is the convolution of
  the indicators 1_H and 1_C.  Proof: (h1, h2) -> (h1, (v/u)*h2) maps
  H x H one-to-one onto H x C, and u*h1 + v*h2 = x exactly when
  h1 + (v/u)*h2 = x/u.  Units c and c' lie in one coset exactly when
  c^|H| = c'^|H|, since c -> c^((p-1)/k) has kernel H.
- k = 2.  The cosets are H and the nonresidues N, and
  1_N = 1 - 1_H - 1_{0}, so T_N(y) = sum over h in H of 1_N(y - h)
  = |H| - T_H(y) - 1_H(y), exactly.  So f, x+y and x-y at a QR prime
  all come from the one transform pair of T_H; for k >= 3, T_H and each
  T_cH share the transform of 1_H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .intsets import DIFFERENCE, SUM, LinearForm
from .modular import LocalSolution, ResidueSet, _image_mask, _representation_counts
from .numtheory import (
    DEFAULT_SEARCH_LIMIT,
    PrimeSearchSpec,
    find_primes,
    is_perfect_kth_power,
    is_prime,
    primes_between,
)

# Subgroup order up to which the local-solution sources check each subgroup
# by its representation counts (an O(p log p) FFT); above it the lemma of
# the module docstring, the power-residue test and -1 in H stand in.
FULL_ENUMERATION_ORDER_CAP = 10_000

# Smallest p power_subgroup rejects: below it (p-1)^2 < 2^63, so the
# products of its int64 square-and-multiply are exact.
POWER_SUBGROUP_P_CAP = 3_037_000_500


@dataclass(frozen=True)
class PowerSubgroup:
    """The multiplicative subgroup {x^k mod p} of the nonzero classes mod p."""

    p: int
    k: int
    classes: tuple[int, ...]
    indicator: np.ndarray = field(repr=False, compare=False)  # 1_H: bool, length p, read-only

    @property
    def order(self) -> int:
        return len(self.classes)

    def residue_set(self) -> ResidueSet:
        return ResidueSet._from_sorted(self.p, self.classes)

    def __contains__(self, value: int) -> bool:
        return bool(self.indicator[value % self.p])


def power_subgroup(p: int, k: int) -> PowerSubgroup:
    """The k-th powers in the multiplicative group mod p; requires k | p-1.

    Every x in [1, p) is raised to the k-th power on int64, so p must be
    below POWER_SUBGROUP_P_CAP = 3,037,000,500, where (p-1)^2 < 2^63;
    larger p raise ValueError before anything is allocated.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if (p - 1) % k != 0:
        raise ValueError(f"k={k} does not divide p-1={p - 1}")
    if p >= POWER_SUBGROUP_P_CAP:
        raise ValueError(f"power_subgroup takes p below {POWER_SUBGROUP_P_CAP}, got {p}")
    present = np.zeros(p, dtype=bool)
    present[_powers(p, k)] = True
    present.flags.writeable = False
    classes = np.flatnonzero(present).tolist()
    if len(classes) != (p - 1) // k:
        raise RuntimeError(f"subgroup of k-th powers mod {p} has unexpected order {len(classes)}")
    return PowerSubgroup(p=p, k=k, classes=tuple(classes), indicator=present)


def _powers(p: int, e: int) -> np.ndarray:
    """x^e mod p for x = 1, ..., p-1 and e >= 1, by left-to-right square-and-multiply on int64.

    Every product is of two residues below p, so below 2^63 when p is
    below POWER_SUBGROUP_P_CAP.
    """
    base = np.arange(1, p, dtype=np.int64)
    powers = base.copy()
    for bit in bin(e)[3:]:
        powers *= powers
        powers %= p
        if bit == "1":
            powers *= base
            powers %= p
    return powers


def qr_sum_diff_full(p: int) -> bool:
    """Check by enumeration that sums and differences of squares cover Z/pZ.

    Stated for primes p = 1 (mod 4) with p > 5; other inputs are
    rejected.  A False return would indicate an implementation bug.
    """
    if not is_prime(p) or p % 4 != 1 or p <= 5:
        raise ValueError(f"requires a prime p = 1 (mod 4) with p > 5, got {p}")
    s_counts, d_counts = _subgroup_counts((SUM, DIFFERENCE), power_subgroup(p, 2))
    return bool(s_counts.all() and d_counts.all())


def _subgroup_counts(forms: Sequence[LinearForm], subgroup: PowerSubgroup) -> list[np.ndarray]:
    """counts[x] = #{(h1, h2) in H x H : f(h1, h2) = x mod p} for each form f = ux+vy, p not dividing uv.

    By the coset lemma of the module docstring: one convolution T_C for
    each coset C of H that holds some v/u (T_H alone for k = 2), and one
    gather x -> T_C(x/u) per form.
    """
    p, n, h = subgroup.p, subgroup.order, subgroup.indicator
    x = np.arange(p, dtype=np.int64)
    inverses = [pow(form.coefficients[0], -1, p) for form in forms]
    ratios = [form.coefficients[1] * w % p for form, w in zip(forms, inverses)]
    keys = [pow(c, n, p) for c in ratios]  # c^|H| names the coset cH
    cosets = {1: h} if subgroup.k == 2 else {
        key: h if key == 1 else h[x * pow(c, -1, p) % p] for key, c in zip(keys, ratios)}  # 1_cH(y) = 1_H(y/c)
    t = dict(zip(cosets, _representation_counts(h, list(cosets.values()))))
    if subgroup.k == 2:
        t[p - 1] = n - t[1] - h  # T_N
    return [t[key] if w == 1 else t[key][x * w % p] for key, w in zip(keys, inverses)]


def zero_in_f_of_qr(u: int, v: int, p: int) -> bool:
    """Whether 0 is in f(R_p) for f = ux+vy, computed by enumeration.

    Equal to jacobi(-uv, p) == 1 for every odd prime p not dividing uv.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if u % p == 0 or v % p == 0:
        raise ValueError(f"p={p} must not divide the coefficients ({u}, {v})")
    return bool(_image_mask(LinearForm((u, v)), p, power_subgroup(p, 2).classes) & 1)


@dataclass(frozen=True)
class CoverageReport:
    """Representation counts of f over a power subgroup.

    ``representation_counts[x]`` is the number of ordered pairs
    (h1, h2) in H x H with f(h1, h2) = x mod p.  The counts sum to
    |H|^2 and are constant on the multiplicative cosets of H away from 0;
    both facts are checked at construction time.
    """

    form: LinearForm
    subgroup: PowerSubgroup
    covered_nonzero: bool
    zero_covered: bool
    representation_counts: tuple[int, ...]


def coverage(form: LinearForm, subgroup: PowerSubgroup) -> CoverageReport:
    """Enumerate r(x) over H x H and report nonzero coverage and 0-membership.

    When p > k^4 the nonzero classes are guaranteed covered; a violation
    raises rather than reporting, since it would mean a broken kernel.
    """
    (counts,) = _checked_counts((form,), subgroup)
    return CoverageReport(
        form=form,
        subgroup=subgroup,
        covered_nonzero=bool(counts[1:].all()),
        zero_covered=bool(counts[0]),
        representation_counts=tuple(counts.tolist()),
    )


def _checked_counts(forms: Sequence[LinearForm], subgroup: PowerSubgroup) -> list[np.ndarray]:
    """The representation counts of each form over H x H, checked as coverage states.

    RuntimeError unless each sums to |H|^2, is constant on cosets and,
    when p > k^4, reaches every nonzero class.
    """
    p, k, n = subgroup.p, subgroup.k, subgroup.order
    for form in forms:
        form._require_binary()
        u, v = form.coefficients
        if u % p == 0 or v % p == 0:
            raise ValueError(f"p={p} must not divide the coefficients ({u}, {v})")
    if n < 2:
        raise ValueError(f"subgroup order must be >= 2, got {n}")
    all_counts = _subgroup_counts(forms, subgroup)
    distinct = list({id(c): c for c in all_counts}.values())  # forms with u = 1 and v in one coset share one array
    for counts in distinct:
        total = int(counts.sum())
        if total != n * n:
            raise RuntimeError(f"representation counts sum to {total}, expected {n * n}")
    _check_coset_constancy(np.array(distinct), subgroup)
    if p > k**4 and not all(counts[1:].all() for counts in distinct):
        raise RuntimeError(f"nonzero coverage guaranteed for p={p} > k^4={k**4} but enumeration disagrees")
    return all_counts


def _check_coset_constancy(counts: np.ndarray, subgroup: PowerSubgroup) -> None:
    """Raise unless counts[x], or each row of counts, is constant on each coset of H.

    With H = <g>, the cosets are the orbits of x -> g*x, so the counts are
    constant on every coset exactly when counts[g*x] = counts[x] for all
    units x.
    """
    p = subgroup.p
    shifted = np.arange(1, p, dtype=np.int64) * _generator(subgroup) % p
    for row in np.atleast_2d(counts):
        bad = np.flatnonzero(row[shifted] != row[1:])
        if len(bad):
            raise RuntimeError(f"representation count not constant on the coset of {bad[0] + 1} mod {p}")


def _generator(subgroup: PowerSubgroup) -> int:
    """A generator of the cyclic group H.

    An element g of H generates it when g^(|H|/l) != 1 for every prime l
    dividing |H|; each such l is a divisor d <= sqrt(|H|) or |H|/d.
    """
    p, n = subgroup.p, subgroup.order
    divisors = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    primes = {e for d in divisors for e in (d, n // d) if is_prime(e)}
    for g in subgroup.classes:
        if all(pow(g, n // ell, p) != 1 for ell in primes):
            return g
    raise RuntimeError(f"no generator of the order-{n} subgroup mod {p}")


def qr_local_solutions(u: int, v: int, count: int,
                       search_limit: int = DEFAULT_SEARCH_LIMIT) -> list[LocalSolution]:
    """Local solutions from quadratic residues, for f = ux+vy vs s or d.

    The k = 2 case of _subgroup_locals: primes p = 1 (mod 4), p > 5, not
    dividing uv, with -uv a quadratic nonresidue; each yields R_p with
    |f(R_p)| = p - 1 and |s(R_p)| = |d(R_p)| = p.  Returns fewer than
    ``count`` solutions when the search limit is reached.
    """
    form = LinearForm((u, v))
    if not form.is_normalized:
        raise ValueError(f"normalized form required, got ({u}, {v})")
    if is_perfect_kth_power(abs(u * v), 2):
        raise ValueError(f"|uv| = {abs(u * v)} is a perfect square; no such primes exist")
    return _subgroup_locals(form, 2, -u * v, 5, count, search_limit)


def choose_power_exponent(u: int, v: int) -> tuple[int, int]:
    """Smallest odd prime q with a = -u^(q-1)*v not a perfect integer q-th power.

    Returns (q, a).  Some q below 100 always works for u >= 2: the prime
    exponents of u cannot all be divisible by every candidate q.
    """
    for q in primes_between(3, 99):
        a = -(u ** (q - 1)) * v
        if not is_perfect_kth_power(a, q):
            return q, a
    raise RuntimeError(f"no usable exponent below 100 for (u, v) = ({u}, {v})")


def kth_power_local_solutions(u: int, v: int, count: int,
                              search_limit: int = DEFAULT_SEARCH_LIMIT) -> list[LocalSolution]:
    """Local solutions from k-th power subgroups, for f = ux+vy vs s or d.

    The k = q case of _subgroup_locals, for the (q, a) of
    choose_power_exponent: primes p = 1 (mod q), p > q^4, not dividing uv,
    with a not a q-th power residue.
    """
    form = LinearForm((u, v))
    if not form.is_normalized or u <= abs(v):
        raise ValueError(f"normalized form with u > |v| >= 1 required, got ({u}, {v})")
    q, a = choose_power_exponent(u, v)
    return _subgroup_locals(form, q, a, q**4, count, search_limit)


def _subgroup_locals(form: LinearForm, k: int, a: int, lower_bound: int, count: int,
                     search_limit: int) -> list[LocalSolution]:
    """Local solutions from the k-th powers mod the first ``count`` suitable primes.

    Suitable: p > lower_bound, p = 1 (mod 2k), p not dividing uv and a not
    a k-th power mod p.  Each is a local solution with f_card = p - 1 and g_card = p by the
    lemma of the module docstring, checked on the representation counts
    up to FULL_ENUMERATION_ORDER_CAP.
    """
    u, v = form.coefficients
    spec = PrimeSearchSpec(
        residue_conditions=((1, 2 * k),),
        lower_bound=lower_bound,
        extra_predicate=lambda p: u % p != 0 and v % p != 0 and pow(a, (p - 1) // k, p) != 1,
        search_limit=search_limit,
    )
    solutions = []
    for p in find_primes(spec, count):
        subgroup = power_subgroup(p, k)
        if subgroup.order <= FULL_ENUMERATION_ORDER_CAP:
            f_counts, s_counts, d_counts = _checked_counts((form, SUM, DIFFERENCE), subgroup)
            if f_counts[0] or not f_counts[1:].all():
                raise RuntimeError(f"f(H) mod {p} is not exactly the nonzero classes")
            if not (s_counts.all() and d_counts.all()):
                raise RuntimeError(f"sums/differences over the subgroup mod {p} do not cover Z/{p}Z")
        elif p - 1 not in subgroup:
            raise RuntimeError(f"-1 is not a {k}-th power mod {p} although p = 1 (mod {2 * k})")
        solutions.append(LocalSolution(subgroup.residue_set(), f_card=p - 1, g_card=p))
    return solutions
