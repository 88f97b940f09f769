"""Command-line interface.

Every subcommand prints a human-readable summary by default or a stable
JSON document with --json; the schema is the same for all commands:

    {"command": ..., "inputs": {...}, "outputs": {...},
     "status": "success" | "failure", "reason": ... | null}

Exit codes: 0 on success, 1 on a domain failure (for example a
construction shortfall), 2 on usage or parse errors.  main() alone maps
exceptions to exit codes: the library raises ValueError on a violated
precondition and RuntimeError on a failed self-check, so a ValueError
(UsageError included) or an OSError from a handler prints one ``error:``
line to stderr and exits 2, and a RuntimeError, a fault, propagates.

The parser is built once per process, on the first main() call; later
calls only parse.  In process, a small image, compare, classify3 or
witness call then takes about 0.2 ms instead of about 2.1 ms (Python
3.11, 2-CPU Xeon).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .intsets import (
    FiniteIntSet,
    LinearForm,
    image,
    image_cardinality,
    set_from_json,
    set_from_text,
    set_to_text,
)
from .modular import (
    DEFAULT_SEARCH_BUDGET,
    build_separating_set,
    load_locals,
    local_ratio_search,
    local_solution,
)
from .residues import kth_power_local_solutions, qr_local_solutions
from .smallsets import (
    ap_equality_set,
    classify_triples,
    conjugate_four_set_witness,
    five_set_witness,
    three_set_witness,
)
from . import verify as verify_mod

# Input caps, each with its measured cost at the cap (Python 3.11, numpy 2.4,
# 2-CPU Xeon, form 2x+y).  local-search builds Z/mZ and an m-bit mask per
# image; at m = 4096 and the default budget a search took 1.3-1.4 s.
LOCAL_SEARCH_MODULUS_CAP = 4096
# Each local-search move computes one or two images mod m; at this budget a
# search took 6.2-7.3 s at m = 4096 and 0.4 s at m = 13.
LOCAL_SEARCH_BUDGET_CAP = 100_000
# image and compare bound |f(A)| by min(|A|^n, window width) before folding;
# 2x+y on 5,000 generic elements (25,000,000 values) took 1.4 s and 607 MB
# peak RSS under auto, x+y+z on 300 elements (27,000,000 tuples) 0.55 s.
IMAGE_VALUE_CAP = 25_000_000
# construct verifies each prime local by FFT representation counts,
# O(p log p) each; 500 locals took 2.3 s (qr, p up to 17,477) and 2.6 s
# (kpower, p up to 12,697).
CONSTRUCT_COUNT_CAP = 500


class UsageError(ValueError):
    """Bad command-line input found by the CLI's own checks; maps to exit code 2."""


T = TypeVar("T")


@dataclass
class CommandResult:
    command: str
    inputs: dict
    outputs: dict = field(default_factory=dict)
    status: str = "success"
    reason: str | None = None
    text: str = ""

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "text"}


def parse_form(token: str) -> LinearForm:
    parts = [p.strip() for p in token.split(",")]
    coeffs = []
    for p in parts:
        try:
            coeffs.append(int(p))
        except ValueError:
            raise UsageError(f"could not parse form {token!r}: offending token {p!r}") from None
    try:
        return LinearForm(tuple(coeffs))
    except ValueError as exc:
        raise UsageError(f"invalid form {token!r}: {exc}") from None


def parse_inline_set(token: str) -> FiniteIntSet:
    values = []
    for p in token.split(","):
        p = p.strip()
        if not p:
            continue
        try:
            values.append(int(p))
        except ValueError:
            raise UsageError(f"could not parse set: offending token {p!r}") from None
    if not values:
        raise UsageError("inline set is empty")
    return FiniteIntSet(values)


def read_input(path: str, what: str, parse: Callable[[str], T]) -> T:
    """parse() of the file's text; UsageError naming the file if reading or parsing fails."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise UsageError(f"bad {what} file {path!r}: {exc}") from None


def load_set_file(path: str) -> FiniteIntSet:
    return read_input(path, "set", set_from_json if path.endswith(".json") else set_from_text)


def _resolve_set(args: argparse.Namespace) -> tuple[FiniteIntSet, dict]:
    if args.inline is not None and args.set_file is not None:
        raise UsageError("give the set with -A FILE or --inline, not both")
    if args.inline is not None:
        return parse_inline_set(args.inline), {"inline": args.inline}
    if args.set_file is not None:
        return load_set_file(args.set_file), {"file": args.set_file}
    raise UsageError("provide a set with -A FILE or --inline a,b,c")


def _require_image_within_cap(form: LinearForm, size: int, span: int) -> None:
    """UsageError when f(A) may hold more than IMAGE_VALUE_CAP values; |A| = size, max - min = span."""
    bound = min(size ** form.arity, form.height * span + 1)
    if bound > IMAGE_VALUE_CAP:
        raise UsageError(f"|f(A)| may reach {bound} values (min of |A|^n and the window width), "
                         f"above the cap {IMAGE_VALUE_CAP}")


def _form_str(form: LinearForm) -> str:
    return ",".join(str(c) for c in form.coefficients)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_image(args: argparse.Namespace) -> CommandResult:
    form = parse_form(args.form)
    a, source = _resolve_set(args)
    _require_image_within_cap(form, len(a), a[-1] - a[0])
    if args.full:
        img = image(form, a)
        card = len(img)
        outputs: dict = {"cardinality": card, "image": list(img.elements)}
        text = f"|f(A)| = {card}\n" + " ".join(str(x) for x in img.elements)
    else:
        card = image_cardinality(form, a)
        outputs = {"cardinality": card}
        text = f"|f(A)| = {card}"
    return CommandResult("image", {"form": _form_str(form), "set": source}, outputs, text=text)


def cmd_compare(args: argparse.Namespace) -> CommandResult:
    form_f = parse_form(args.form_f)
    form_g = parse_form(args.form_g)
    a, source = _resolve_set(args)
    _require_image_within_cap(form_f, len(a), a[-1] - a[0])
    _require_image_within_cap(form_g, len(a), a[-1] - a[0])
    f_card = image_cardinality(form_f, a)
    g_card = image_cardinality(form_g, a)
    relation = "<" if f_card < g_card else (">" if f_card > g_card else "=")
    return CommandResult(
        "compare",
        {"form_f": _form_str(form_f), "form_g": _form_str(form_g), "set": source},
        {"f_card": f_card, "g_card": g_card, "relation": relation},
        text=f"|f(A)| = {f_card} {relation} {g_card} = |g(A)|",
    )


def cmd_classify3(args: argparse.Namespace) -> CommandResult:
    form = parse_form(f"{args.u},{args.v}")
    result = classify_triples(form)
    pairs = result.as_pairs()
    lines = [f"{{{', '.join(str(x) for x in elems)}}}: |f| = {card}" for elems, card in pairs]
    return CommandResult(
        "classify3",
        {"u": args.u, "v": args.v, "bound": result.bound},
        {"exceptional": [{"set": list(e), "cardinality": c} for e, c in pairs]},
        text="\n".join(lines) if lines else "no exceptional triples",
    )


def cmd_witness(args: argparse.Namespace) -> CommandResult:
    kind = args.kind
    if kind == "three":
        w = three_set_witness(parse_form(args.form_f), parse_form(args.form_g))
    elif kind == "five":
        a, card_f, card_d = five_set_witness(args.u, args.v)
        return CommandResult(
            "witness",
            {"kind": "five", "u": args.u, "v": args.v},
            {"set": list(a.elements), "f_card": card_f, "d_card": card_d},
            text=f"A = {list(a.elements)}\n|f(A)| = {card_f} < {card_d} = |A - A|",
        )
    elif kind == "ap":
        form_f = LinearForm((args.u, args.v))
        form_g = LinearForm((args.u, -args.v))
        _require_image_within_cap(form_f, args.t, args.t - 1)  # A = [0, t-1]; g has f's height
        a = ap_equality_set(args.u, args.v, args.t)
        cf = image_cardinality(form_f, a)
        cg = image_cardinality(form_g, a)
        return CommandResult(
            "witness",
            {"kind": "ap", "u": args.u, "v": args.v, "t": args.t},
            {"set": list(a.elements), "f_card": cf, "g_card": cg},
            text=f"A = {list(a.elements)}\n|f(A)| = {cf} = {cg} = |g(A)|",
        )
    else:  # "four"; argparse restricts the kinds
        w = conjugate_four_set_witness(args.u, args.v)
    return CommandResult(
        "witness",
        {"kind": kind, "form_f": _form_str(w.form_f), "form_g": _form_str(w.form_g)},
        {
            "set_a": list(w.set_a.elements),
            "set_b": list(w.set_b.elements),
            "f_of_a": w.f_of_a,
            "g_of_a": w.g_of_a,
            "f_of_b": w.f_of_b,
            "g_of_b": w.g_of_b,
        },
        text=(
            f"A = {list(w.set_a.elements)}: |f(A)| = {w.f_of_a}, |g(A)| = {w.g_of_a}\n"
            f"B = {list(w.set_b.elements)}: |f(B)| = {w.f_of_b}, |g(B)| = {w.g_of_b}"
        ),
    )


def cmd_local_search(args: argparse.Namespace) -> CommandResult:
    form_f = parse_form(args.form_f)
    form_g = parse_form(args.form_g)
    if args.modulus > LOCAL_SEARCH_MODULUS_CAP:
        raise UsageError(f"--modulus is capped at {LOCAL_SEARCH_MODULUS_CAP}, got {args.modulus}")
    if args.budget > LOCAL_SEARCH_BUDGET_CAP:
        raise UsageError(f"--budget is capped at {LOCAL_SEARCH_BUDGET_CAP}, got {args.budget}")
    sol = local_ratio_search(form_f, form_g, args.modulus, budget=args.budget, seed=args.seed)
    return CommandResult(
        "local-search",
        {
            "form_f": _form_str(form_f),
            "form_g": _form_str(form_g),
            "modulus": args.modulus,
            "budget": args.budget,
            "seed": args.seed,
        },
        {
            "classes": list(sol.residues.classes),
            "f_card": sol.f_card,
            "g_card": sol.g_card,
            "ratio": [sol.ratio.numerator, sol.ratio.denominator],
        },
        text=(
            f"R = {list(sol.residues.classes)} mod {args.modulus}\n"
            f"|f(R)| / |g(R)| = {sol.f_card}/{sol.g_card}"
        ),
    )


def cmd_construct(args: argparse.Namespace) -> CommandResult:
    form_f = parse_form(args.form_f)
    form_g = parse_form(args.form_g)
    inputs = {
        "form_f": _form_str(form_f),
        "form_g": _form_str(form_g),
        "source": args.source,
        "count": args.count,
        "window": args.window,
        "locals": args.locals,
    }
    shortfall_note = ""
    direct = args.source == "file"
    if direct and not args.locals:
        raise UsageError("--source file needs --locals PATH")
    if not direct:
        if not form_f.is_binary:
            raise UsageError("this command needs a binary form u,v")
        if form_g.coefficients not in ((1, 1), (1, -1)):
            raise UsageError(f"--source {args.source} builds locals against x+y or x-y only")
        if args.count > CONSTRUCT_COUNT_CAP:
            raise UsageError(f"--count is capped at {CONSTRUCT_COUNT_CAP}, got {args.count}")
    # Before the locals are read, so that an unwritable path fails before the
    # construction; a new file is removed again, so that no error leaves one.
    if args.set_out:
        fresh = not Path(args.set_out).exists()  # also for a dangling symlink
        open(args.set_out, "a").close()  # truncates nothing
        if fresh:  # the created file, not a symlink to it
            Path(args.set_out).resolve().unlink()
    if direct:
        locs = [local_solution(form_f, form_g, r) for r in read_input(args.locals, "locals", load_locals)]
    else:
        source = qr_local_solutions if args.source == "qr" else kth_power_local_solutions
        locs = source(*form_f.coefficients, args.count)
        if len(locs) < args.count:
            shortfall_note = f"prime search found only {len(locs)} of {args.count} local solutions; "
    if not locs:
        return CommandResult(
            "construct", inputs, {"locals_found": 0},
            status="failure", reason=shortfall_note + "no local solutions found",
            text="no local solutions found",
        )
    report = build_separating_set(form_f, form_g, locs, window_start=args.window, direct=direct)
    outputs = report.to_dict()
    if args.set_out and report.elements is not None:
        Path(args.set_out).write_text(set_to_text(report.elements))
        outputs["set"] = {"file": args.set_out, "size": len(report.elements)}
    status = "success" if report.success else "failure"
    reason = None if report.success else shortfall_note + report.detail
    headline = (
        f"|f(A)| = {report.f_card} < {report.g_card} = |g(A)|"
        if report.success and report.f_card is not None
        else ("certified: |f(A)| <= {} < {} <= |g(A)|".format(*(b.value for b in report.certificate))
              if report.success else f"failed: {report.detail}")
    )
    text = (
        f"{shortfall_note}{headline}\n"
        f"mode: {report.mode}; combined modulus {report.combined_modulus}; |A| = {report.set_size}\n"
        f"ratio product {report.ratio_product} vs threshold {report.threshold}"
    )
    return CommandResult("construct", inputs, outputs, status=status, reason=reason, text=text)


def cmd_verify(args: argparse.Namespace) -> CommandResult:
    results = verify_mod.run_checks(only=args.only)
    ok = all(r.ok for r in results) and bool(results)
    return CommandResult(
        "verify",
        {"only": args.only},
        {"checks": [r.to_dict() for r in results]},
        status="success" if ok else "failure",
        reason=None if ok else "some checks failed" if results else "no checks matched",
        text=verify_mod.render_table(results),
    )


# ---------------------------------------------------------------------------
# parser wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by later ones.

    parse_args returns a fresh Namespace and leaves the tree unchanged, so
    sharing is safe while every default stays immutable (None, False, ints,
    "auto", the handlers); a mutable default would leak between calls.
    """
    parser = argparse.ArgumentParser(
        prog="linform",
        description="images of integer linear forms over finite sets and residue rings",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON result document")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("image", parents=[common], help="compute |f(A)| (and optionally f(A))")
    p.add_argument("-f", "--form", required=True, help="comma-separated coefficients, e.g. 2,1")
    p.add_argument("-A", "--set-file", help="set file: one integer per line, or .json array")
    p.add_argument("--inline", help="inline set, e.g. 0,1,2")
    p.add_argument("--full", action="store_true", help="print the image, not just its size")
    p.set_defaults(handler=cmd_image)

    p = sub.add_parser("compare", parents=[common], help="compare |f(A)| with |g(A)|")
    p.add_argument("-f", "--form-f", required=True)
    p.add_argument("-g", "--form-g", required=True)
    p.add_argument("-A", "--set-file")
    p.add_argument("--inline")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("classify3", parents=[common],
                       help="exceptional 3-element sets for a normalized form")
    p.add_argument("-u", type=int, required=True)
    p.add_argument("-v", type=int, required=True)
    p.set_defaults(handler=cmd_classify3)

    p = sub.add_parser("witness", help="explicit separating witness sets")
    p.set_defaults(handler=cmd_witness)
    kinds = p.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("three", parents=[common])
    k.add_argument("-f", "--form-f", required=True)
    k.add_argument("-g", "--form-g", required=True)
    for kind in ("four", "five", "ap"):
        k = kinds.add_parser(kind, parents=[common])
        k.add_argument("-u", type=int, required=True, help="leading coefficient")
        k.add_argument("-v", type=int, required=True, help="second coefficient")
    k.add_argument("-t", type=int, required=True, help="progression length")  # k is ap, the last

    p = sub.add_parser("local-search", parents=[common],
                       help="search Z/mZ for a subset with small |f(R)|/|g(R)| and g(R) full")
    p.add_argument("-f", "--form-f", required=True)
    p.add_argument("-g", "--form-g", required=True)
    p.add_argument("-m", "--modulus", type=int, required=True,
                   help=f"at most {LOCAL_SEARCH_MODULUS_CAP}")
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET, help=f"at most {LOCAL_SEARCH_BUDGET_CAP}")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_local_search)

    p = sub.add_parser("construct", parents=[common],
                       help="combine local solutions into a set with |f(A)| < |g(A)|")
    p.add_argument("-f", "--form-f", required=True)
    p.add_argument("-g", "--form-g", required=True)
    p.add_argument("--source", choices=["qr", "kpower", "file"], required=True)
    p.add_argument("--count", type=int, default=8,
                   help=f"local solutions to request (qr/kpower), at most {CONSTRUCT_COUNT_CAP}")
    p.add_argument("--locals", help="JSON file of residue sets (file source)")
    p.add_argument("--window", type=int, default=0, help="first representative of the window")
    p.add_argument("--set-out", help="write the materialized set to this file")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("verify", parents=[common], help="run the built-in verification suite")
    p.add_argument("--only", help="run only checks whose name starts with this prefix")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result: CommandResult = args.handler(args)
    except (ValueError, OSError) as exc:  # bad input; a RuntimeError is a fault and propagates
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.text)
    return 0 if result.status == "success" else 1


if __name__ == "__main__":
    sys.exit(main())
