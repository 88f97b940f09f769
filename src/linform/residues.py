"""Local solutions from quadratic residues and k-th power subgroups.

For an odd prime p the quadratic residues R_p sum and difference to all
of Z/pZ once p = 1 (mod 4) and p > 5, while 0 lands in f(R_p) exactly
when -uv is a square mod p; choosing primes where it is not gives local
solutions with |f(R_p)| = p - 1 against |s(R_p)| = |d(R_p)| = p.  The
k-th power subgroups generalize this: for p > k^4 every nonzero class is
f(h1, h2) with h1, h2 k-th powers, and excluding 0 reduces to a single
power-residue test.

Subgroups and their coverage are found by full enumeration.
power_subgroup raises every x in [1, p) to the k-th power by
square-and-multiply on numpy int64, which is exact while
(p-1)^2 < 2^63, so it takes p below POWER_SUBGROUP_P_CAP.  The
representations of every class under f = ux+vy are counted as the cyclic
convolution of the 0/1 indicators of u*R and v*R mod p, in O(p log p)
time and O(p) memory, by modular._representation_counts: a float64 FFT
whose rounding is exact by the error bound in its docstring and checked
on every call.  The forms checked at one prime share their transforms;
-R = R for the squares mod p = 1 (mod 4) and for subgroups of odd index,
so x-y takes the counts of x+y.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .intsets import DIFFERENCE, SUM, LinearForm
from .modular import LocalSolution, ResidueSet, _dilation, _image_mask, _representation_counts
from .numtheory import (
    DEFAULT_SEARCH_LIMIT,
    PrimeSearchSpec,
    find_primes,
    is_perfect_kth_power,
    is_prime,
    is_qth_power_residue,
    jacobi,
    primes_between,
)

# Subgroup order up to which kth_power_local_solutions checks each subgroup
# by its representation counts (an O(p log p) FFT); above it the proven
# p > k^4 coverage bound, the power-residue test and -1 in H stand in.
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

    @property
    def order(self) -> int:
        return len(self.classes)

    def residue_set(self) -> ResidueSet:
        return ResidueSet._from_sorted(self.p, self.classes)

    @cached_property
    def coset_labels(self) -> np.ndarray:
        """x^|H| mod p for x = 1, ..., p-1, computed once per subgroup.

        H is the subgroup of |H| elements of the cyclic group of units
        mod p, so x and y lie in one coset of H exactly when (x/y)^|H| = 1,
        that is when their labels agree.
        """
        labels = _powers(self.p, self.order)
        labels.flags.writeable = False
        return labels

    def __contains__(self, value: int) -> bool:
        v = value % self.p
        i = bisect.bisect_left(self.classes, v)
        return i < len(self.classes) and self.classes[i] == v


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
    classes = np.flatnonzero(present).tolist()
    if len(classes) != (p - 1) // k:
        raise RuntimeError(f"subgroup of k-th powers mod {p} has unexpected order {len(classes)}")
    return PowerSubgroup(p=p, k=k, classes=tuple(classes))


def _powers(p: int, e: int) -> np.ndarray:
    """x^e mod p for x = 1, ..., p-1, by square-and-multiply on int64.

    Every product is of two residues below p, so below 2^63 when p is
    below POWER_SUBGROUP_P_CAP.
    """
    base = np.arange(1, p, dtype=np.int64)
    powers = np.ones(p - 1, dtype=np.int64)
    while True:
        if e & 1:
            powers *= base
            powers %= p
        e >>= 1
        if not e:
            return powers
        base *= base
        base %= p


def quadratic_residues(p: int) -> PowerSubgroup:
    """The nonzero squares mod an odd prime p."""
    if p == 2:
        raise ValueError("p must be an odd prime")
    return power_subgroup(p, 2)


def qr_sum_diff_full(p: int) -> bool:
    """Check by enumeration that sums and differences of squares cover Z/pZ.

    Stated for primes p = 1 (mod 4) with p > 5; other inputs are
    rejected.  A False return would indicate an implementation bug.
    """
    if not is_prime(p) or p % 4 != 1 or p <= 5:
        raise ValueError(f"requires a prime p = 1 (mod 4) with p > 5, got {p}")
    s_counts, d_counts = _form_counts((SUM, DIFFERENCE), p, quadratic_residues(p).classes)
    return bool(s_counts.all() and d_counts.all())


def _form_counts(forms: Sequence[LinearForm], m: int, classes: Sequence[int]) -> list[np.ndarray]:
    """counts[x] = #{(a, b) in R x R : f(a, b) = x mod m} for each binary form f.

    Every coefficient must be a unit mod m, so that u*R has |R| classes.
    """
    r = np.asarray(classes, dtype=np.int64)
    return _representation_counts([tuple(_dilation(m, r, c) for c in form.coefficients)
                                   for form in forms])


def zero_in_f_of_qr(u: int, v: int, p: int) -> bool:
    """Whether 0 is in f(R_p) for f = ux+vy, computed by enumeration.

    Equal to jacobi(-uv, p) == 1 for every odd prime p not dividing uv.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if u % p == 0 or v % p == 0:
        raise ValueError(f"p={p} must not divide the coefficients ({u}, {v})")
    return bool(_image_mask(LinearForm((u, v)), p, quadratic_residues(p).classes) & 1)


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
    all_counts = _form_counts(forms, p, subgroup.classes)
    for counts in all_counts:
        total = int(counts.sum())
        if total != n * n:
            raise RuntimeError(f"representation counts sum to {total}, expected {n * n}")
        _check_coset_constancy(counts, subgroup)
        if p > k**4 and not counts[1:].all():
            raise RuntimeError(
                f"nonzero coverage guaranteed for p={p} > k^4={k**4} but enumeration disagrees"
            )
    return all_counts


def _check_coset_constancy(counts: np.ndarray, subgroup: PowerSubgroup) -> None:
    """Raise unless counts[x] is constant on each coset of the subgroup H.

    One member's count is stored per coset label (see
    PowerSubgroup.coset_labels) and every count is compared with it; all
    agree exactly when the counts are constant on each coset.
    """
    p, labels = subgroup.p, subgroup.coset_labels
    vals = counts[1:]
    per_label = np.zeros(p, dtype=counts.dtype)
    per_label[labels] = vals
    bad = np.flatnonzero(per_label[labels] != vals)
    if len(bad):
        raise RuntimeError(f"representation count not constant on the coset of {bad[0] + 1} mod {p}")


def qr_local_solutions(
    u: int,
    v: int,
    count: int,
    search_limit: int = DEFAULT_SEARCH_LIMIT,
) -> list[LocalSolution]:
    """Local solutions from quadratic residues, for f = ux+vy vs s or d.

    Searches for primes p = 1 (mod 4), p > 5, not dividing uv, with
    -uv a quadratic nonresidue; each yields R_p with |f(R_p)| = p - 1
    while sums and differences both cover Z/pZ (g_card = p for either
    choice of g).  Every solution is re-verified by enumeration.  Returns
    fewer than ``count`` solutions when the search limit is reached.
    """
    form = LinearForm((u, v))
    if not form.is_normalized:
        raise ValueError(f"normalized form required, got ({u}, {v})")
    if is_perfect_kth_power(abs(u * v), 2):
        raise ValueError(f"|uv| = {abs(u * v)} is a perfect square; no such primes exist")

    spec = PrimeSearchSpec(
        residue_conditions=((1, 4),),
        lower_bound=5,
        extra_predicate=lambda p: u % p != 0 and v % p != 0 and jacobi(-u * v, p) == -1,
        search_limit=search_limit,
    )
    solutions = []
    for p in find_primes(spec, count):
        residues = quadratic_residues(p).residue_set()
        f_counts, s_counts, d_counts = _form_counts((form, SUM, DIFFERENCE), p, residues.classes)
        if f_counts[0]:
            raise RuntimeError(f"0 in f(R_{p}) despite jacobi({-u * v}, {p}) = -1")
        if not (s_counts.all() and d_counts.all()):
            raise RuntimeError(f"sums/differences of squares do not cover Z/{p}Z")
        solutions.append(LocalSolution(residues, f_card=int(np.count_nonzero(f_counts)), g_card=p))
    return solutions


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


def kth_power_local_solutions(
    u: int,
    v: int,
    count: int,
    search_limit: int = DEFAULT_SEARCH_LIMIT,
) -> list[LocalSolution]:
    """Local solutions from k-th power subgroups, for f = ux+vy vs s or d.

    Picks the smallest odd prime q with a = -u^(q-1)*v not an integer
    q-th power, then primes p = 1 (mod q), p > q^4, p not dividing uv,
    with a not a q-th power residue; the subgroup H of q-th powers then
    has f(H) equal to exactly the nonzero classes while s and d cover
    everything.  Full enumeration verifies each solution while the
    subgroup order is small; beyond that the proven coverage bound plus
    the zero-exclusion test stand in.
    """
    form = LinearForm((u, v))
    if not form.is_normalized or u <= abs(v):
        raise ValueError(f"normalized form with u > |v| >= 1 required, got ({u}, {v})")
    q, a = choose_power_exponent(u, v)

    spec = PrimeSearchSpec(
        residue_conditions=((1, q),),
        lower_bound=q**4,
        extra_predicate=lambda p: u % p != 0
        and v % p != 0
        and not is_qth_power_residue(a, q, p),
        search_limit=search_limit,
    )
    solutions = []
    for p in find_primes(spec, count):
        subgroup = power_subgroup(p, q)
        if subgroup.order <= FULL_ENUMERATION_ORDER_CAP:
            f_counts, s_counts, d_counts = _checked_counts((form, SUM, DIFFERENCE), subgroup)
            if f_counts[0] or not f_counts[1:].all():
                raise RuntimeError(f"k-th power local solution at p={p} failed verification")
            if not s_counts.all():
                raise RuntimeError(f"sums over the subgroup mod {p} do not cover Z/{p}Z")
            if not d_counts.all():
                raise RuntimeError(f"differences over the subgroup mod {p} do not cover Z/{p}Z")
        else:
            # order > cap: p > q^4 guarantees nonzero coverage; 0 stays
            # excluded because a is not a q-th power residue, and -1 is a
            # q-th power (q odd) so sums still reach 0.
            if p - 1 not in subgroup:
                raise RuntimeError(f"-1 is not a {q}-th power mod {p} although {q} is odd")
        solutions.append(
            LocalSolution(residues=subgroup.residue_set(), f_card=p - 1, g_card=p)
        )
    return solutions
