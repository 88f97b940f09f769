"""Exact integer and modular arithmetic primitives.

Jacobi symbols, deterministic primality, prime search in arithmetic
progressions, Chinese-remainder combination, and q-th power residue
tests.  Everything is pure and exact; no floating point anywhere.

Primality is Miller-Rabin with witness sets proven deterministic below a
bound, in two tiers: the witnesses 2, 3, 5, 7 for n < 3,215,031,751, the
least strong pseudoprime to all four (Jaeschke, "On strong pseudoprimes
to several bases", Math. Comp. 61, 1993), and the twelve primes up to 37
for n < 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, "Strong
pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).  Above that
no witness set is proven, and is_prime refuses to answer.

find_primes and primes_between sieve their progression (every integer,
for primes_between) in blocks of _SIEVE_BLOCK candidates on a numpy
boolean array: each base prime q <= min(sqrt(limit), _SIEVE_BASE) not
dividing the step crosses out its multiples other than q itself.  The
base primes come from the same sieve, run on every integer up to that
bound, recursively.  A survivor below _SIEVE_BASE^2 is then prime; a
larger one still goes through is_prime.  The sieve works on candidate
indices and booleans only, so no floating point enters here either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

DEFAULT_SEARCH_LIMIT = 10**6

# Miller-Rabin witness sets, each proven deterministic for all n below its
# bound (see the module docstring for the citations).  The twelve primes up
# to 37 are also is_prime's trial divisors.
_MR_SMALL_WITNESSES = (2, 3, 5, 7)
_MR_SMALL_BOUND = 3_215_031_751
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981

# _sieved_primes sieves with the primes up to _SIEVE_BASE, so survivors
# below _SIEVE_BASE^2 = 2^32 need no primality test, and holds one boolean
# per candidate for _SIEVE_BLOCK candidates at a time.
_SIEVE_BASE = 1 << 16
_SIEVE_BLOCK = 1 << 16


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n >= 1; the Legendre symbol when n is prime."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol requires odd positive n, got n={n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_prime(n: int) -> bool:
    """Deterministic primality for n below the proven Miller-Rabin bound.

    n <= 1 is not prime, and any n with a factor among the primes up to 37
    is decided exactly.  Other n below _MR_SMALL_BOUND run Miller-Rabin
    on the witnesses 2, 3, 5, 7, and n below _MR_PROVEN_BOUND on the
    twelve primes up to 37.  For any other n at or above _MR_PROVEN_BOUND
    (about 3.3e24) no witness set is proven and trial division is
    unbounded, so ValueError is raised instead of answering.
    """
    if n <= 1:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _MR_PROVEN_BOUND:
        raise ValueError(f"is_prime is proven only below {_MR_PROVEN_BOUND}, got {n}")
    return _miller_rabin(n, _MR_SMALL_WITNESSES if n < _MR_SMALL_BOUND else _MR_WITNESSES)


def _miller_rabin(n: int, witnesses: Sequence[int]) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_between(lo: int, hi: int) -> Iterator[int]:
    """Yield the primes p with lo <= p <= hi in increasing order, by the sieve."""
    return _sieved_primes(max(lo, 2), 1, hi)


def crt_combine(pairs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Combine congruences x = r (mod m) into one x = residue (mod modulus).

    Returns (residue, modulus) with 0 <= residue < modulus = lcm of the
    input moduli, which is their product when they are pairwise coprime.
    Compatible non-coprime moduli merge; contradictory congruences raise
    ValueError.
    """
    if not pairs:
        raise ValueError("crt_combine needs at least one congruence")
    residue, modulus = 0, 1
    for r, m in pairs:
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
        g = math.gcd(modulus, m)
        if (r - residue) % g != 0:
            raise ValueError(f"contradictory congruences: x={residue} (mod {modulus}) vs x={r} (mod {m})")
        # x = residue (mod modulus), x = r (mod m)
        t = (r - residue) // g * pow(modulus // g, -1, m // g) % (m // g)
        residue += modulus * t
        modulus = modulus // g * m
    return residue % modulus, modulus


@dataclass(frozen=True)
class PrimeSearchSpec:
    """A bounded search for primes in an intersection of arithmetic progressions.

    ``residue_conditions`` lists (residue, modulus) pairs of ints, never
    truncated, that the prime must satisfy; each residue must be coprime to
    its modulus, otherwise the progression contains at most one prime.
    ``extra_predicate`` is an arbitrary additional test on the candidate prime.
    """

    residue_conditions: tuple[tuple[int, int], ...] = ()
    lower_bound: int = 1
    extra_predicate: Optional[Callable[[int], bool]] = None
    search_limit: int = DEFAULT_SEARCH_LIMIT

    def __post_init__(self) -> None:
        conditions = tuple((r, n) for r, n in self.residue_conditions)
        object.__setattr__(self, "residue_conditions", conditions)
        for r, n in conditions:
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in (r, n)):
                raise ValueError(f"residue conditions must be pairs of integers, got {(r, n)!r}")
            if n < 2:
                raise ValueError(f"residue condition modulus must be >= 2, got {n}")
            if math.gcd(r, n) != 1:
                raise ValueError(f"residue {r} is not coprime to modulus {n}")
        if self.lower_bound >= self.search_limit:
            raise ValueError(
                f"lower_bound {self.lower_bound} must be below search_limit {self.search_limit}"
            )


@dataclass(frozen=True)
class PrimeSearchResult:
    """Primes found by find_primes, with an explicit shortfall marker."""

    primes: tuple[int, ...]
    shortfall: bool

    def __iter__(self) -> Iterator[int]:
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)


def find_primes(spec: PrimeSearchSpec, count: int) -> PrimeSearchResult:
    """The ``count`` smallest primes matching ``spec``, in increasing order.

    Stops at ``spec.search_limit``; if fewer than ``count`` primes exist
    below the limit the result carries ``shortfall=True`` rather than
    raising.  Contradictory residue conditions raise ValueError.  The
    progression is sieved block by block (see the module docstring), and
    ``spec.extra_predicate`` runs only on primes.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    residue, step = crt_combine(spec.residue_conditions) if spec.residue_conditions else (0, 1)
    c = max(spec.lower_bound + 1, 2)
    found: list[int] = []
    for n in _sieved_primes(c + (residue - c) % step, step, spec.search_limit):
        if spec.extra_predicate is None or spec.extra_predicate(n):
            found.append(n)
            if len(found) == count:
                break
    return PrimeSearchResult(primes=tuple(found), shortfall=len(found) < count)


def _sieved_primes(c: int, step: int, hi: int) -> Iterator[int]:
    """The primes among c, c + step, c + 2*step, ... up to hi, in increasing order.

    Requires c >= 2 and gcd(c, step) = 1: primes dividing step then divide
    no candidate, and are left out of the sieve base.  The base, the primes
    up to min(sqrt(hi), _SIEVE_BASE), comes from this sieve, recursively.
    """
    if c > hi:  # also ends the recursion
        return
    limit = min(math.isqrt(hi), _SIEVE_BASE)
    base = [(q, pow(step, -1, q)) for q in _sieved_primes(2, 1, limit) if step % q]
    proven = _SIEVE_BASE**2  # survivors below it are prime
    while c <= hi:
        size = min(_SIEVE_BLOCK, (hi - c) // step + 1)
        alive = np.ones(size, dtype=bool)
        for q, inv in base:
            i = -c * inv % q  # first index with q | c + i*step
            if c + i * step == q:
                i += q
            alive[i::q] = False
        for i in np.flatnonzero(alive).tolist():
            n = c + i * step
            if n < proven or is_prime(n):
                yield n
        c += size * step


def is_qth_power_residue(a: int, q: int, p: int) -> bool:
    """Whether a is a q-th power mod p, for primes q, p with q | p-1.

    Equivalent to a^((p-1)/q) = 1 (mod p).  When a is not a q-th power
    residue, the binomial x^q - a has no root mod p and is irreducible
    over the p-element field (degree-q binomial criterion for q | p-1).
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if (p - 1) % q != 0:
        raise ValueError(f"q={q} does not divide p-1={p - 1}")
    if math.gcd(a, p) != 1:
        raise ValueError(f"a={a} is not coprime to p={p}")
    return pow(a, (p - 1) // q, p) == 1


def nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0 (exact integer arithmetic)."""
    if n < 0:
        raise ValueError("nth_root requires n >= 0")
    if k < 1:
        raise ValueError("nth_root requires k >= 1")
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_perfect_kth_power(a: int, k: int) -> bool:
    """Whether a = x^k for some integer x; negative a allowed for odd k."""
    if a < 0:
        if k % 2 == 0:
            return False
        return is_perfect_kth_power(-a, k)
    r = nth_root(a, k)
    return r**k == a
