"""Independent checks of every task result, run in the parent process.

Nothing here imports linform: each check rests on a closed form, a pinned
value from the paper's constructions, a brute-force or numpy recount, or
an independent sieve.  ``check_task`` returns None when the result is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import functools
import math
from itertools import product

import numpy as np

# |A|, |f(A)|, |s(A)| for 2x+y against x+y on the packaged locals.
PACKAGED = (2646, 108014, 114575)
# |A| and |f(A)| for 2x+y, x+y, x-y on the materialised prefixes.
MATERIALISED = {
    "qr": (39312, (1886562, 1477677, 1477677)),
    "kpower": (1088, (29114, 19725, 19725)),
}


class Rejected(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Rejected(message)


def brute_image(coeffs, elements) -> set:
    return {sum(c * a for c, a in zip(coeffs, combo)) for combo in product(elements, repeat=len(coeffs))}


def brute_mod_image(coeffs, m: int, classes) -> set:
    return {x % m for x in brute_image(coeffs, classes)}


def _distinct(values: np.ndarray) -> np.ndarray:
    # Sort and drop repeats; np.unique is an order of magnitude slower on
    # millions of int64 values with numpy 2.4.
    s = np.sort(values, axis=None)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def numpy_image_count(coeffs, elements) -> int:
    """|f(A)| by outer sums of int64 arrays; elements and sums must fit int64."""
    a = np.asarray(elements, dtype=np.int64)
    acc = _distinct(coeffs[0] * a)
    for c in coeffs[1:]:
        acc = _distinct(acc[:, None] + c * a[None, :])
    return int(acc.size)


def generic_count(coeffs, n: int) -> int:
    """|f(A)| for a generic A (no additive coincidences) of n elements."""
    closed = {(1, 1): n * (n + 1) // 2, (1, -1): n * (n - 1) + 1, (2, 1): n * n,
              (1, 1, 1): math.comb(n + 2, 3)}
    return closed[tuple(coeffs)]


def _height(coeffs) -> int:
    return sum(abs(c) for c in coeffs)


# ---------------------------------------------------------------------------
# dense-construct

def _packaged_direct(task, r):
    f_cards = [len(brute_mod_image(task["f"], m, cl)) for m, cl in task["locals"]]
    g_cards = [len(brute_mod_image(task["g"], m, cl)) for m, cl in task["locals"]]
    _expect(r["f_cards"] == f_cards and r["g_cards"] == g_cards,
            f"local cardinalities {r['f_cards']}/{r['g_cards']} != {f_cards}/{g_cards}")
    got = (r["set_size"], r["f_card"], r["g_card"])
    _expect(got == PACKAGED, f"(|A|, |f(A)|, |s(A)|) = {got}, expected {PACKAGED}")


def _materialise(task, r):
    size, cards = MATERIALISED[task["name"]]
    modulus = math.prod(m for m, _ in task["locals"])
    _expect(r["classes"] == r["size"] == size, f"{r['classes']} classes, |A| = {r['size']}, expected {size}")
    _expect(task["window"] <= r["min"] and r["max"] < task["window"] + modulus,
            "rectified set leaves its window")
    _expect(tuple(r["cards"]) == cards, f"cardinalities {r['cards']}, expected {list(cards)}")
    for coeffs, card in zip(task["forms"], r["cards"]):
        f_mod = math.prod(len(brute_mod_image(coeffs, m, cl)) for m, cl in task["locals"])
        _expect(f_mod <= card <= 2 * _height(coeffs) * f_mod,
                f"sandwich {f_mod} <= {card} <= {2 * _height(coeffs) * f_mod} fails for {coeffs}")


# ---------------------------------------------------------------------------
# sparse-image

def _image(task, r):
    coeffs = task["form"]
    if task["family"] == "generic":
        want = generic_count(coeffs, len(task["set"]))
    elif task["family"] == "int64":
        want = numpy_image_count(coeffs, task["set"])
    else:  # |f(D*B + t)| = |f(B)| for D != 0
        want = numpy_image_count(coeffs, task["base"])
    _expect(r["card"] == want, f"|f(A)| = {r['card']}, expected {want}")


# ---------------------------------------------------------------------------
# prime-locals

@functools.lru_cache(maxsize=2)
def sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    return tuple(i for i, f in enumerate(flags) if f)


def _is_perfect_power(a: int, q: int) -> bool:
    r = round(abs(a) ** (1 / q))
    return any((s * x) ** q == a for x in (r - 1, r, r + 1) if x >= 0 for s in (1, -1))


def qr_primes(u: int, v: int, limit: int) -> list[int]:
    """p = 1 (mod 4), p > 5, p not dividing uv, -uv a non-residue (Euler's criterion)."""
    return [p for p in sieve(limit) if p % 4 == 1 and p > 5 and u % p and v % p
            and pow(-u * v % p, (p - 1) // 2, p) == p - 1]


def kpower_exponent(u: int, v: int) -> tuple[int, int]:
    q = 3
    while _is_perfect_power(-(u ** (q - 1)) * v, q) or any(q % d == 0 for d in range(2, q)):
        q += 2
    return q, -(u ** (q - 1)) * v


def kpower_primes(u: int, v: int, limit: int) -> tuple[int, list[int]]:
    q, a = kpower_exponent(u, v)
    return q, [p for p in sieve(limit) if p % q == 1 and p > q**4 and u % p and v % p
               and pow(a % p, (p - 1) // q, p) != 1]


def _qr_locals(task, r):
    primes = qr_primes(task["u"], task["v"], task["limit"])[: task["count"]]
    want = [[p, (p - 1) // 2, p - 1, p] for p in primes]
    _expect(r["locals"] == want, "QR locals differ from the sieve (modulus, |R|, |f(R)|, |g(R)|)")


def _kpower_locals(task, r):
    q, primes = kpower_primes(task["u"], task["v"], task["limit"])
    want = [[p, (p - 1) // q, p - 1, p] for p in primes[: task["count"]]]
    _expect(r["locals"] == want, "k-th power locals differ from the sieve (modulus, |R|, |f(R)|, |g(R)|)")


def _find_primes(task, r):
    want = qr_primes(task["u"], task["v"], task["limit"])[: task["count"]]
    _expect(r["primes"] == want, f"{len(r['primes'])} primes found, the sieve gives {len(want)}")
    _expect(r["shortfall"] == (len(want) < task["count"]), "shortfall flag wrong")


def _ratio_search(task, r):
    m, classes = task["m"], r["classes"]
    _expect(len(brute_mod_image(task["f"], m, classes)) == r["f_card"], "|f(R)| differs from brute force")
    _expect(len(brute_mod_image(task["g"], m, classes)) == m == r["g_card"], "g(R) is not all of Z/mZ")


# ---------------------------------------------------------------------------
# small-witnesses

def _affine_canonical(elems) -> tuple:
    lo = min(elems)
    shifted = [x - lo for x in elems]
    g = math.gcd(*shifted)
    return tuple(sorted(x // g for x in shifted))


def canonical_pair(elems) -> tuple:
    return min(_affine_canonical(elems), _affine_canonical([-x for x in elems]))


def two_family(u: int, v: int) -> dict:
    """The exceptional triples of a normalized form ux+vy."""
    if u == 2:
        return {(0, 1, 2): 7, (0, 1, 3): 8}
    return {canonical_pair((0, abs(v), u)): 8, canonical_pair((0, abs(v), u + abs(v))): 8}


def _classify(task, r):
    u, v = task["u"], task["v"]
    got = {tuple(s): c for s, c in r["pairs"]}
    _expect(got == two_family(u, v), f"({u},{v}): {got} != two-family {two_family(u, v)}")


def _pair_cards(f, g, a, b) -> list[int]:
    return [len(brute_image(f, a)), len(brute_image(g, a)), len(brute_image(f, b)), len(brute_image(g, b))]


def _four(task, r):
    u, v = task["uv"]
    want = _pair_cards((u, v), (u, -v), r["a"], r["b"])
    _expect(r["cards"] == want, f"reported {r['cards']}, recount {want}")
    _expect(want == ([13, 12, 13, 14] if u == 2 else [14, 13, 13, 14]), f"pattern {want}")
    _expect(len(set(r["a"])) == len(set(r["b"])) == 4, "not 4-element sets")


def _three(task, r):
    want = _pair_cards(task["f"], task["g"], r["a"], r["b"])
    _expect(r["cards"] == want, f"reported {r['cards']}, recount {want}")
    _expect(want[0] < want[1] and want[2] > want[3], f"no separation both ways: {want}")
    _expect(len(set(r["a"])) == len(set(r["b"])) == 3, "not 3-element sets")


def _five(task, r):
    u, v = task["uv"]
    f, d = len(brute_image((u, v), r["set"])), len(brute_image((1, -1), r["set"]))
    _expect((r["f_card"], r["d_card"]) == (f, d), f"reported {r['f_card']}/{r['d_card']}, recount {f}/{d}")
    _expect(len(set(r["set"])) == 5 and d == 21 and f <= 19, f"|f(A)| = {f}, |A-A| = {d}")


def _ap(task, r):
    u, v, t = task["u"], task["v"], task["t"]
    _expect(r["set"] == list(range(t)), f"set {r['set']} is not [0, {t - 1}]")
    want = [len(brute_image((u, v), r["set"])), len(brute_image((u, -v), r["set"]))]
    _expect(r["cards"] == want == [t * t, t * t], f"reported {r['cards']}, recount {want}, t^2 = {t * t}")


def _amplify(task, r):
    a, f, g = task["set"], task["f"], task["g"]
    big = r["set"]
    fa, ga = len(brute_image(f, a)), len(brute_image(g, a))
    want = [fa, ga, len(brute_image(f, big)), len(brute_image(g, big))]
    _expect(r["cards"] == want, f"reported {r['cards']}, recount {want}")
    _expect(sorted(big) == sorted(x + r["m"] * y for x in a for y in a), "A_M != A + M*A")
    _expect(len(big) == len(a) ** 2 and want[2:] == [fa * fa, ga * ga], "cardinalities did not square")


def _crt(task, r):
    (m1, r1), (m2, r2) = task["residues"]
    m = m1 * m2
    want = sorted(x for x in range(m) if x % m1 in set(r1) and x % m2 in set(r2))
    _expect(r["classes"] == want, "CRT classes differ from direct enumeration")
    arr = np.asarray(want, dtype=np.int64)
    u, v = task["f"]
    mod_card = int(_distinct((u * arr[:, None] + v * arr[None, :]) % m).size)
    _expect(r["mod_card"] == mod_card, f"|f(R)| = {r['mod_card']}, recount {mod_card}")
    w = task["window"]
    _expect(sorted(r["set"]) == sorted(w + (c - w) % m for c in want), "rectified set wrong")
    card = numpy_image_count(task["f"], r["set"])
    _expect(r["card"] == card, f"|f(A)| = {r['card']}, recount {card}")
    _expect(mod_card <= card <= 2 * _height(task["f"]) * mod_card, "rectification sandwich fails")


def _cli(task, r):
    p, doc = task["params"], r["doc"]
    _expect(r["code"] == 0 and doc["status"] == "success", f"exit {r['code']}, status {doc['status']}")
    out, kind = doc["outputs"], p["kind"]
    if kind == "image":
        want = len(brute_image(p["f"], p["set"]))
        _expect(out["cardinality"] == want, f"image {out['cardinality']}, recount {want}")
    elif kind == "compare":
        f, g = len(brute_image(p["f"], p["set"])), len(brute_image(p["g"], p["set"]))
        _expect((out["f_card"], out["g_card"]) == (f, g), f"compare {out['f_card']}/{out['g_card']} != {f}/{g}")
    elif kind == "classify3":
        got = {tuple(e["set"]): e["cardinality"] for e in out["exceptional"]}
        _expect(got == two_family(p["u"], p["v"]), f"classify3 {got} != {two_family(p['u'], p['v'])}")
    elif kind == "four":
        _four({"uv": (p["u"], p["v"])}, {"a": out["set_a"], "b": out["set_b"], "cards": [
            out["f_of_a"], out["g_of_a"], out["f_of_b"], out["g_of_b"]]})
    elif kind == "five":
        _five({"uv": (p["u"], p["v"])}, out)
    else:
        _ap(p, {"set": out["set"], "cards": [out["f_card"], out["g_card"]]})


CHECKS = {
    "packaged-direct": _packaged_direct, "materialise": _materialise, "image": _image,
    "qr-locals": _qr_locals, "kpower-locals": _kpower_locals, "find-primes": _find_primes,
    "ratio-search": _ratio_search, "classify": _classify, "four": _four, "three": _three,
    "five": _five, "ap": _ap, "amplify": _amplify, "crt": _crt, "cli": _cli,
}


def check_task(task: dict, result) -> str | None:
    """None if ``result`` is right for ``task``, else the reason it is rejected."""
    if result is None:
        return "task raised"
    try:
        CHECKS[task["kind"]](task, result)
    except Rejected as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed result: {exc!r}"
    return None
