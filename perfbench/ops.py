"""Library side of the benchmark: build each task's inputs and run it.

``prepare`` turns a task from tasks.py into library objects (this is
set-up); ``run`` performs the task's public calls through a ``Calls`` or
``Tracer`` object and returns plain data for the oracles.  Traced, a task
built on a composite call (build_separating_set, qr_local_solutions,
kth_power_local_solutions) is replayed as the public calls it is made of,
so each gets its own span.  Imported only in the worker process, after the
checkout's ``src`` is on sys.path.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import linform as L
from linform import cli, intsets, residues
from linform.numtheory import PrimeSearchSpec


def _form(coeffs) -> L.LinearForm:
    return L.LinearForm(tuple(coeffs))


# ---------------------------------------------------------------------------
# set-up: tasks -> library objects

def prepare(task: dict) -> dict:
    obj = dict(task)
    for key in ("f", "g", "form"):
        if key in task:
            obj[key] = _form(task[key])
    if task["kind"] in ("qr-locals", "kpower-locals", "find-primes", "classify"):
        obj["form"] = _form((task["u"], task["v"]))
    if "forms" in task:
        obj["forms"] = [_form(f) for f in task["forms"]]
    for key in ("locals", "residues"):
        if key in task:
            obj["residues"] = [L.ResidueSet(m, classes) for m, classes in task[key]]
    if "set" in task:
        obj["set"] = L.FiniteIntSet(task["set"])
    if "base" in task:
        obj["set"] = L.FiniteIntSet(task["dilation"] * b + task["offset"] for b in task["base"])
    return obj


# ---------------------------------------------------------------------------
# the tasks

def _packaged_direct(x, t):
    locs = [t.call("modular.local_solution", L.local_solution, x["f"], x["g"], r) for r in x["residues"]]
    out = {"f_cards": [loc.f_card for loc in locs], "g_cards": [loc.g_card for loc in locs]}
    if not t.traced:
        rep = t.call("modular.build_separating_set", L.build_separating_set, x["f"], x["g"], locs,
                     window_start=x["window"], direct=True)
        return {**out, "set_size": rep.set_size, "f_card": rep.f_card, "g_card": rep.g_card}
    combined = t.call("modular.crt_product", L.crt_product, [loc.residues for loc in locs])
    a = t.call("modular.rectify", L.rectify, combined, x["window"])
    return {**out, "set_size": len(a),
            "f_card": t.call("intsets.image_cardinality", L.image_cardinality, x["f"], a),
            "g_card": t.call("intsets.image_cardinality", L.image_cardinality, x["g"], a)}


def _materialise(x, t):
    combined = t.call("modular.crt_product", L.crt_product, x["residues"])
    a = t.call("modular.rectify", L.rectify, combined, x["window"])
    cards = [t.call("intsets.image_cardinality", L.image_cardinality, f, a) for f in x["forms"]]
    return {"classes": len(combined), "size": len(a), "min": a[0], "max": a[-1], "cards": cards}


def _image(x, t):
    return {"card": t.call("intsets.image_cardinality", L.image_cardinality, x["form"], x["set"])}


def _locals_out(sols):
    return [[s.residues.modulus, len(s.residues), s.f_card, s.g_card] for s in sols]


def qr_spec(u: int, v: int, limit: int) -> PrimeSearchSpec:
    """The prime search qr_local_solutions runs: p = 1 (mod 4), p > 5, (-uv | p) = -1."""
    return PrimeSearchSpec(
        residue_conditions=((1, 4),), lower_bound=5,
        extra_predicate=lambda p: u % p != 0 and v % p != 0 and L.jacobi(-u * v, p) == -1,
        search_limit=limit)


def _qr_locals(x, t):
    u, v, count, limit = x["u"], x["v"], x["count"], x["limit"]
    if not t.traced:
        return {"locals": _locals_out(t.call("residues.qr_local_solutions", L.qr_local_solutions,
                                             u, v, count, limit))}
    out = []
    for p in t.call("numtheory.find_primes", L.find_primes, qr_spec(u, v, limit), count):
        res = t.call("residues.power_subgroup", L.power_subgroup, p, 2).residue_set()
        image = t.call("modular.modular_image", L.modular_image, x["form"], res)
        if 0 in image.classes or not t.call("residues.qr_sum_diff_full", L.qr_sum_diff_full, p):
            raise RuntimeError(f"QR local solution at p={p} failed its check")
        out.append([p, len(res), len(image), p])
    return {"locals": out}


def _kpower_locals(x, t):
    u, v, count, limit = x["u"], x["v"], x["count"], x["limit"]
    if not t.traced:
        return {"locals": _locals_out(t.call("residues.kth_power_local_solutions",
                                             L.kth_power_local_solutions, u, v, count, limit))}
    q, a = t.call("residues.choose_power_exponent", L.choose_power_exponent, u, v)
    spec = PrimeSearchSpec(
        residue_conditions=((1, q),), lower_bound=q**4,
        extra_predicate=lambda p: u % p != 0 and v % p != 0 and not L.is_qth_power_residue(a, q, p),
        search_limit=limit)
    out = []
    for p in t.call("numtheory.find_primes", L.find_primes, spec, count):
        sub = t.call("residues.power_subgroup", L.power_subgroup, p, q)
        if sub.order <= residues.FULL_ENUMERATION_ORDER_CAP:
            f_rep, s_rep, d_rep = (t.call("residues.coverage", L.coverage, form, sub)
                                   for form in (x["form"], L.SUM, L.DIFFERENCE))
            ok = (not f_rep.zero_covered and f_rep.covered_nonzero and s_rep.zero_covered
                  and s_rep.covered_nonzero and d_rep.zero_covered and d_rep.covered_nonzero)
        else:
            ok = p - 1 in sub.classes
        if not ok:
            raise RuntimeError(f"k-th power local solution at p={p} failed its check")
        out.append([p, sub.order, p - 1, p])
    return {"locals": out}


def _find_primes(x, t):
    res = t.call("numtheory.find_primes", L.find_primes, qr_spec(x["u"], x["v"], x["limit"]), x["count"])
    return {"primes": list(res.primes), "shortfall": res.shortfall}


def _ratio_search(x, t):
    sol = t.call("modular.local_ratio_search", L.local_ratio_search, x["f"], x["g"], x["m"],
                 budget=x["budget"], seed=x["seed"])
    return {"classes": list(sol.residues.classes), "f_card": sol.f_card, "g_card": sol.g_card}


def _classify(x, t):
    res = t.call("smallsets.classify_triples", L.classify_triples, x["form"])
    return {"bound": res.bound, "pairs": [[list(s), c] for s, c in res.as_pairs()]}


def _witness_pair(w):
    return {"a": list(w.set_a), "b": list(w.set_b), "cards": [w.f_of_a, w.g_of_a, w.f_of_b, w.g_of_b]}


def _four(x, t):
    return _witness_pair(t.call("smallsets.conjugate_four_set_witness", L.conjugate_four_set_witness,
                                *x["uv"]))


def _three(x, t):
    return _witness_pair(t.call("smallsets.three_set_witness", L.three_set_witness, x["f"], x["g"]))


def _five(x, t):
    a, card_f, card_d = t.call("smallsets.five_set_witness", L.five_set_witness, *x["uv"])
    return {"set": list(a), "f_card": card_f, "d_card": card_d}


def _ap(x, t):
    u, v = x["u"], x["v"]
    a = t.call("smallsets.ap_equality_set", L.ap_equality_set, u, v, x["t"])
    return {"set": list(a),
            "cards": [t.call("intsets.image_cardinality", L.image_cardinality, _form(c), a)
                      for c in ((u, v), (u, -v))]}


def _amplify(x, t):
    f, g, a = x["f"], x["g"], x["set"]
    m, big = t.call("intsets.amplify", L.amplify, f, g, a)
    cards = [t.call("intsets.image_cardinality", L.image_cardinality, form, s)
             for s in (a, big) for form in (f, g)]
    return {"m": m, "set": list(big), "cards": cards}


def _crt(x, t):
    combined = t.call("modular.crt_product", L.crt_product, x["residues"])
    image = t.call("modular.modular_image", L.modular_image, x["f"], combined)
    a = t.call("modular.rectify", L.rectify, combined, x["window"])
    return {"classes": list(combined.classes), "mod_card": len(image), "set": list(a),
            "card": t.call("intsets.image_cardinality", L.image_cardinality, x["f"], a)}


def _cli(x, t):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = t.call("cli.main", cli.main, list(x["argv"]))
    return {"code": code, "doc": json.loads(out.getvalue())}


RUNNERS = {
    "packaged-direct": _packaged_direct, "materialise": _materialise, "image": _image,
    "qr-locals": _qr_locals, "kpower-locals": _kpower_locals, "find-primes": _find_primes,
    "ratio-search": _ratio_search, "classify": _classify, "four": _four, "three": _three,
    "five": _five, "ap": _ap, "amplify": _amplify, "crt": _crt, "cli": _cli,
}


def run(obj: dict, t) -> dict:
    return RUNNERS[obj["kind"]](obj, t)


# ---------------------------------------------------------------------------
# counts computed at call boundaries from input sizes (traced runs only)

PAIRS_TUPLE_CUTOFF = 4_000_000  # image_cardinality's auto rule: pairs up to here


def _image_counts(args, result):
    form, a = args[0], args[1]
    k, n = form.arity, len(a)
    width = form.height * (a[-1] - a[0]) + 1
    # Word operations the bitset fold needs: each later term shifts the
    # accumulator once per element.  Counted only when the auto rule picks
    # the bitset kernel: the window fits BITSET_WIDTH_CAP and the fold costs
    # at most 120 operations per tuple, or there are too many tuples for pairs.
    word_ops = (k - 1) * n * (width // 64 + 1)
    tuples = min(n**k, 10 * PAIRS_TUPLE_CUTOFF)
    bitset = width <= intsets.BITSET_WIDTH_CAP and (
        word_ops <= 120 * tuples or tuples > PAIRS_TUPLE_CUTOFF)
    return {"tuples": n**k, "word_ops": word_ops if bitset else 0, "outputs": result}


def _modular_image_counts(args, result):
    form, res = args
    return {"word_ops": (form.arity - 1) * len(res) * (2 * res.modulus // 64 + 1)}


def progression_start(spec: PrimeSearchSpec) -> tuple[int, int]:
    """First candidate and step of find_primes' progression, by plain CRT."""
    residue, step = 0, 1
    for r, m in spec.residue_conditions:
        while residue % m != r % m:
            residue += step
        step *= m
    c = max(spec.lower_bound + 1, 2)
    return c + (residue - c) % step, step


def _find_primes_counts(args, result):
    spec = args[0]
    first, step = progression_start(spec)
    last = spec.search_limit if result.shortfall else result.primes[-1]
    return {"candidates": max(0, (last - first) // step + 1), "primes": len(result)}


def _classify_counts(args, result):
    bound = result.bound
    return {"candidates": sum(1 for b in range(2, bound + 1) for a in range(1, b) if math.gcd(a, b) == 1)}


COUNTERS = {
    "intsets.image_cardinality": _image_counts,
    "modular.modular_image": _modular_image_counts,
    "modular.crt_product": lambda args, result: {"classes": len(result)},
    "modular.local_ratio_search": lambda args, result: {"min_best_ratio": float(result.ratio)},
    "numtheory.find_primes": _find_primes_counts,
    "residues.power_subgroup": lambda args, result: {"classes_enumerated": args[0] - 1},
    "residues.coverage": lambda args, result: {"pairs": args[1].order ** 2},
    "smallsets.classify_triples": _classify_counts,
}

# Every call name a traced pass can make, so that a name never called in a
# workload still reports zeros rather than going missing.
CALL_NAMES = (
    "intsets.image_cardinality", "intsets.amplify",
    "modular.local_solution", "modular.crt_product", "modular.rectify",
    "modular.modular_image", "modular.local_ratio_search",
    "numtheory.find_primes",
    "residues.choose_power_exponent", "residues.power_subgroup", "residues.coverage",
    "residues.qr_sum_diff_full",
    "smallsets.classify_triples", "smallsets.conjugate_four_set_witness",
    "smallsets.three_set_witness", "smallsets.five_set_witness", "smallsets.ap_equality_set",
    "cli.main",
)
WITNESS_CALLS = ("smallsets.conjugate_four_set_witness", "smallsets.three_set_witness",
                 "smallsets.five_set_witness", "smallsets.ap_equality_set")
LAYERS = ("intsets", "modular", "numtheory", "residues", "smallsets", "cli", "verify")
