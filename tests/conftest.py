"""Shared brute-force oracles, kept independent of the package kernels,
and a time limit that turns a hang into a failure."""

from __future__ import annotations

import contextlib
import signal
from itertools import product

import pytest

# Seconds a test using the time_limit fixture may run.  The slowest such test
# takes under 5 s on a 2-CPU Xeon.
TIME_LIMIT_S = 30


@contextlib.contextmanager
def alarm_after(seconds):
    """Raise TimeoutError in the main thread once ``seconds`` have passed.

    Uses SIGALRM, so it is POSIX only; elsewhere the block runs without a
    limit.
    """
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """Fail the test with TimeoutError if it runs past TIME_LIMIT_S."""
    with alarm_after(TIME_LIMIT_S):
        yield


def brute_image(coeffs, elements):
    """Image of a linear form by direct enumeration, one term at a time.

    Each term adds c*a, for every element a, to each distinct sum so far:
    the same image as enumerating every tuple, at a cost of n sums per
    distinct partial sum rather than n**k tuples.
    """
    sums = {0}
    for c in coeffs:
        sums = {s + c * a for s in sums for a in elements}
    return sorted(sums)


def brute_modular_image(coeffs, modulus, classes):
    return sorted({sum(c * r for c, r in zip(coeffs, combo)) % modulus
                   for combo in product(sorted(classes), repeat=len(coeffs))})


def trial_division_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def brute_legendre(a, p):
    """Legendre symbol by enumerating the nonzero squares mod an odd prime."""
    if a % p == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a % p in squares else -1


def brute_jacobi(a, n):
    """Jacobi symbol as the product of Legendre symbols over the factorization."""
    result = 1
    for p, e in factorize(n).items():
        result *= brute_legendre(a, p) ** e
    return result
