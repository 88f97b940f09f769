"""Seeded inputs of the four benchmark workloads, as plain Python data.

The worker hands these to the library and the oracles check the library's
answers against them; both rebuild the same list from (workload, seed), so
no library object ever crosses a process boundary.  Nothing here imports
linform.

Why each workload exists:

* dense-construct: the paper's local-to-global materialisation.  Almost all
  of its time is the bitset image kernel on sets of ~39k elements whose
  image fits a window of a few million integers.
* sparse-image: image cardinalities of sets whose span fits no bitset
  window (elements near 10**40, int64-range sets, huge dilations).  Sizes
  sit on both sides of the 4,000,000-tuple pairs/merge cutoff.
* prime-locals: the sources of local solutions (prime search, power
  subgroups, coverage, residue images, local search); it never computes an
  integer image.
* small-witnesses: thousands of calls on 3-12 element sets plus in-process
  CLI calls, where fixed cost per call dominates.

A seed moves the values, never the amount of work: sizes, kinds and moduli
are fixed.  dense-construct shifts every residue set and its rectification
window by one seeded offset, which leaves every cardinality unchanged.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("dense-construct", "sparse-image", "prime-locals", "small-witnesses")

QR_PRIMES = (13, 29, 37, 53)
KPOWER_PRIMES = (97, 103)
DENSE_FORMS = ((2, 1), (1, 1), (1, -1))
PRIME_SEARCH_LIMIT = 10**6
RATIO_SEARCH_MODULI = (13, 17, 23, 29)
CRT_MODULI = ((29, 30), (27, 28), (25, 26), (23, 24), (19, 21))
CLI_KINDS = ("image", "compare", "classify3", "four", "five", "ap")


def make_tasks(workload: str, seed: int, root: Path) -> list[dict]:
    """The ordered task list of one pass over ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dense-construct":
        return _dense(rng, root)
    if workload == "sparse-image":
        return _sparse(rng)
    if workload == "prime-locals":
        return _prime(rng)
    if workload == "small-witnesses":
        return _small(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _dense(rng: random.Random, root: Path) -> list[dict]:
    shift = rng.randrange(1, 10**9)

    def shifted(m: int, classes) -> list:
        return [m, sorted((c + shift) % m for c in classes)]

    packaged = json.loads((root / "src/linform/data/locals_2x_plus_y.json").read_text())
    out = [{"kind": "packaged-direct", "f": [2, 1], "g": [1, 1], "window": 1 + shift,
            "locals": [shifted(e["modulus"], e["classes"]) for e in packaged]}]
    for name, primes, k in (("qr", QR_PRIMES, 2), ("kpower", KPOWER_PRIMES, 3)):
        out.append({"kind": "materialise", "name": name, "window": shift,
                    "locals": [shifted(p, {pow(x, k, p) for x in range(1, p)}) for p in primes],
                    "forms": [list(f) for f in DENSE_FORMS]})
    return out


def _distinct(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    out: set[int] = set()
    while len(out) < n:
        out.add(rng.randrange(lo, hi))
    return sorted(out)


def _sparse(rng: random.Random) -> list[dict]:
    tasks = []
    for form, n in (((1, 1), 600), ((1, -1), 600), ((2, 1), 600), ((1, 1, 1), 120)):
        tasks.append({"kind": "image", "family": "generic", "form": list(form),
                      "set": _distinct(rng, 10**40, 2 * 10**40, n)})
    # n = 2050 puts |A|^2 just above the auto cutoff, so auto picks merge there.
    for form, n in (((1, 1), 800), ((2, 1), 800), ((1, 1, 1), 120), ((1, -1), 2050)):
        tasks.append({"kind": "image", "family": "int64", "form": list(form),
                      "set": rng.sample(range(10**9), n)})
    for form, n, span in (((1, -1), 700, 3000), ((2, 1), 700, 3000), ((1, 1, 1), 120, 400)):
        tasks.append({"kind": "image", "family": "dilated", "form": list(form),
                      "base": sorted(rng.sample(range(span), n)),
                      "dilation": rng.randrange(10**30, 10**31),
                      "offset": rng.randrange(-10**35, 10**35)})
    return tasks


def _prime(rng: random.Random) -> list[dict]:
    tasks = [
        {"kind": "qr-locals", "u": 2, "v": 1, "count": 250, "limit": PRIME_SEARCH_LIMIT},
        {"kind": "kpower-locals", "u": 2, "v": 1, "count": 150, "limit": PRIME_SEARCH_LIMIT},
        {"kind": "find-primes", "u": 2, "v": 1, "count": PRIME_SEARCH_LIMIT,
         "limit": PRIME_SEARCH_LIMIT},
    ]
    for i, m in enumerate(RATIO_SEARCH_MODULI):
        tasks.append({"kind": "ratio-search", "f": [2, 1], "g": [[1, 1], [1, -1]][i % 2],
                      "m": m, "budget": 2000, "seed": rng.randrange(2**31)})
    return tasks


def normalized_forms(max_u: int) -> list[tuple[int, int]]:
    """(u, v) with 2 <= u <= max_u, 1 <= |v| < u and gcd(u, v) = 1."""
    return [(u, s * av) for u in range(2, max_u + 1) for av in range(1, u)
            if math.gcd(u, av) == 1 for s in (1, -1)]


def _coprime_pair(rng: random.Random, max_u: int) -> tuple[int, int]:
    while True:
        u = rng.randrange(2, max_u + 1)
        v = rng.randrange(1, u)
        if math.gcd(u, v) == 1:
            return u, v


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def _small(rng: random.Random) -> list[dict]:
    # Sizes and kinds are fixed by position, values by the seed, so that the
    # amount of work is the same for every seed.
    tasks = [{"kind": "classify", "u": u, "v": v} for u, v in normalized_forms(32)]
    for i in range(40):
        tasks.append({"kind": "four", "uv": _coprime_pair(rng, 20)})
        tasks.append({"kind": "five", "uv": _coprime_pair(rng, 50)})
        u, v = _coprime_pair(rng, 12)
        tasks.append({"kind": "ap", "u": u, "v": v, "t": rng.randrange(1, u + 1)})
        tasks.append({"kind": "amplify", "f": [_nonzero(rng, 5), _nonzero(rng, 5)],
                      "g": [_nonzero(rng, 5), _nonzero(rng, 5)],
                      "set": rng.sample(range(-40, 40), 3 + i % 10)})
        m1, m2 = CRT_MODULI[i % len(CRT_MODULI)]
        tasks.append({"kind": "crt", "residues": [[m, rng.sample(range(m), m // 2)] for m in (m1, m2)],
                      "f": [_nonzero(rng, 10), _nonzero(rng, 10)], "window": rng.randrange(-50, 50)})
    pool = normalized_forms(10)
    for _ in range(20):
        while True:
            (u1, v1), (u2, v2) = rng.sample(pool, 2)
            if (u1, abs(v1)) != (u2, abs(v2)):
                break
        tasks.append({"kind": "three", "f": [u1, v1], "g": [u2, v2]})
    tasks += [_cli_task(rng, CLI_KINDS[i % len(CLI_KINDS)]) for i in range(102)]
    return tasks


def _cli_task(rng: random.Random, kind: str) -> dict:
    """One CLI call: its argv and, for the oracle, the parameters it encodes."""
    p: dict = {"kind": kind}
    if kind in ("image", "compare"):
        p["f"] = [_nonzero(rng, 6), _nonzero(rng, 6)]
        p["set"] = rng.sample(range(-50, 51), rng.randint(3, 12))
        inline = "--inline=" + ",".join(map(str, p["set"]))
        if kind == "image":
            argv = ["image", "--form=%d,%d" % tuple(p["f"]), inline]
        else:
            p["g"] = [_nonzero(rng, 6), _nonzero(rng, 6)]
            argv = ["compare", "--form-f=%d,%d" % tuple(p["f"]), "--form-g=%d,%d" % tuple(p["g"]), inline]
    elif kind == "classify3":
        p["u"], p["v"] = rng.choice(normalized_forms(12))
        argv = ["classify3", f"-u{p['u']}", f"-v{p['v']}"]
    else:
        p["u"], p["v"] = _coprime_pair(rng, {"four": 20, "five": 50, "ap": 12}[kind])
        argv = ["witness", kind, f"-u{p['u']}", f"-v{p['v']}"]
        if kind == "ap":
            p["t"] = rng.randrange(1, p["u"] + 1)
            argv.append(f"-t{p['t']}")
    return {"kind": "cli", "argv": argv + ["--json"], "params": p}
