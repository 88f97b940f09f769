"""Residue-ring images and local-to-global set construction.

A local solution is a set of congruence classes R mod m whose image
under f misses classes that g still covers.  Local solutions at pairwise
coprime moduli combine multiplicatively through the Chinese remainder
theorem; picking one integer representative per combined class
("rectification") turns them into a finite integer set A whose image
cardinalities are bounded by the modular ones.  proved_bounds lists
those bounds as data, each rule proved once in the docstring of the
function that computes it, and a running product of local ratios below
1/(2*h_f) certifies |f(A)| < |g(A)| without materializing anything.

Residue images are m-bit masks.  Small or sparse sets fold by big-int
shift-or, one shifted copy of the mask per class, about |R|*m/32 words
per stage.  Once |R|^2 >= _FFT_CROSSOVER*m (for quadratic-residue sets,
m >= 576), and while m <= _FFT_MODULUS_CAP, each stage instead counts
representations with _representation_counts, an exact float64 FFT
convolution of one 0/1 vector with each of its partners in O(m log m),
and keeps only the support; a stage of x+y convolves one dilation with
itself.  The kernel rounds each count and raises if any value lies 1/4
or more from an integer; its docstring bounds the error below 0.001 for
m <= 2^33, so the rounding is exact.  The prime locals of residues are
verified on the same kernel, 1_H convolved with each coset of the power
subgroup H by the coset lemma there: one rfft and one irfft per
quadratic-residue prime.  local_ratio_search keeps the mask of c*R for
each coefficient c between its moves: its shift-or folds start from a
kept mask, and an add ORs two rotations of kept masks into f(R) instead
of folding at all.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from . import _bits
from .intsets import FiniteIntSet, LinearForm, image_cardinality

DEFAULT_ELEMENT_CAP = 10_000_000
DEFAULT_MODULUS_CAP = 10_000_000

DEFAULT_SEARCH_BUDGET = 10_000
# ConstructionReport.to_dict lists a set inline up to this size, else its size.
INLINE_SET_LIMIT = 100_000

# _image_mask folds on the FFT once |R|^2 >= _FFT_CROSSOVER*m.  The fold
# costs about |R|*m/32 words by shift-or and O(m log m) by FFT, whose time
# per point also grows with m once its arrays leave the cache.  Measured
# per 2x+y image on random sets (Python 3.11, numpy 2.4, 2-CPU Xeon), the
# two break even at |R| = 10-12*sqrt(m) for m from 800 to 100,000: at
# m = 8,000, |R| = 715 shift-or took 1.08 ms and FFT 1.04 ms; at
# m = 100,000, |R| = 3,794 40 ms and 37 ms.  At m = 300 the FFT lost even
# on the full ring (0.10 against 0.12 ms), and on a sparse set, 200
# classes mod 59,280, it lost 13x (1.3 against 17 ms).
_FFT_CROSSOVER = 144
# Largest modulus _image_mask folds on the FFT: at m = 2^20 one 2x+y image
# of m/2 classes took 0.75 s at a traced peak of 84 MiB (21 MiB at 2^18),
# about 80 bytes per class.  Larger moduli fold by shift-or in O(m) memory
# but |R|*m/32 words of time (2x+y and x+y of 20,000 classes mod 4,000,037:
# 13.4 s; the worst found below the cap, 1.2-2.0 s), so load_locals rejects them.
_FFT_MODULUS_CAP = 1 << 20
# Largest sum of the moduli of a locals file: each entry costs two images in
# time growing with its modulus (two entries near 2^20: 2.8-3.9 s in all).
LOCALS_MODULUS_SUM_CAP = 1 << 21


@dataclass(frozen=True)
class ResidueSet:
    """A nonempty subset of Z/mZ, stored as sorted classes in [0, m-1].

    ValueError on m < 2, on no classes, and on a modulus or class that is
    not an int (bool, float, str or numpy integer): nothing is coerced.
    """

    modulus: int
    classes: tuple[int, ...]

    def __init__(self, modulus: int, classes: Iterable[int]) -> None:
        classes = tuple(classes)  # read once: a generator is accepted
        for value in (modulus, *classes):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"moduli and classes must be integers, got {value!r}")
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        reduced = sorted({c % modulus for c in classes})
        if not reduced:
            raise ValueError("a residue set needs at least one class")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "classes", tuple(reduced))

    @classmethod
    def _from_sorted(cls, modulus: int, classes: list[int]) -> "ResidueSet":
        """Trusted constructor: classes already sorted, distinct, nonempty and in [0, m)."""
        residues = object.__new__(cls)
        object.__setattr__(residues, "modulus", modulus)
        object.__setattr__(residues, "classes", tuple(classes))
        return residues

    @classmethod
    def full_ring(cls, modulus: int) -> "ResidueSet":
        return cls(modulus, range(modulus))

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.classes)

    def is_full(self) -> bool:
        return len(self.classes) == self.modulus

    def to_dict(self) -> dict:
        return {"modulus": self.modulus, "classes": list(self.classes)}

    @classmethod
    def from_dict(cls, data: dict) -> "ResidueSet":
        return cls(data["modulus"], data["classes"])


def modular_image(form: LinearForm, residues: ResidueSet) -> ResidueSet:
    """The image {sum ui*ri mod m : ri in R} as a residue set mod m."""
    mask = _image_mask(form, residues.modulus, residues.classes)
    return ResidueSet._from_sorted(residues.modulus, _bits.decode(mask, 0))


def modular_image_cardinality(form: LinearForm, residues: ResidueSet) -> int:
    """|f(R)| mod m, without decoding the image."""
    return _image_mask(form, residues.modulus, residues.classes).bit_count()


def _image_mask(form: LinearForm, m: int, classes: Collection[int], masks: dict[int, int] | None = None) -> int:
    """The image of distinct classes in [0, m) as an m-bit mask, bit c set when c is in f(R).

    Large dense sets take the FFT fold (see the module docstring), the
    others the shift-or fold: the mask of the first term, rotated by each
    class of every later term.  masks, when given, maps every coefficient
    c mod m to the mask of c*R, as local_ratio_search keeps them, and the
    first term's mask is read from it.
    """
    if len(classes) ** 2 >= _FFT_CROSSOVER * m and m <= _FFT_MODULUS_CAP:
        return _fft_image_mask(form, m, classes)

    def dilated(c: int) -> Collection[int]:
        return classes if c % m == 1 else {c * r % m for r in classes}

    first, *rest = form.coefficients
    acc = masks[first % m] if masks is not None else _bits.mask_of(dilated(first), 0)
    for c in rest:
        acc = _bits.cyclic_shift(acc, dilated(c), m)
    return acc


def _fft_image_mask(form: LinearForm, m: int, classes: Collection[int]) -> int:
    """_image_mask by cyclic counts: each stage keeps the support of acc * term."""
    array = np.fromiter(classes, dtype=np.int64, count=len(classes))
    # One array per coefficient mod m: a term equal to acc is acc itself, and shares its rfft.
    dilations = {r: _dilation(m, array, r) for r in {c % m for c in form.coefficients}}
    acc = dilations[form.coefficients[0] % m]
    for c in form.coefficients[1:]:
        (counts,) = _representation_counts(acc, [dilations[c % m]])
        acc = counts > 0
    return int.from_bytes(np.packbits(acc, bitorder="little").tobytes(), "little")


def _dilation(m: int, classes: np.ndarray, c: int) -> np.ndarray:
    """The 0/1 indicator of c*R mod m, for R an int64 array of classes in [0, m)."""
    term = np.zeros(m, dtype=bool)
    term[classes * (c % m) % m] = True  # exact on int64 while (m-1)^2 < 2^63
    return term


def _representation_counts(x: np.ndarray, ys: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Exact cyclic convolutions of the 0/1 vector x with each 0/1 vector y of its length m, as int64.

    For each y, counts[k] = #{(i, j) : x[i] = y[j] = 1, i + j = k (mod m)}.
    The linear convolution comes from a float64 rfft/irfft of the power
    of two N >= 2m-1, and its entries at k and k + m are added.  x takes
    one rfft, which a y that is x itself reuses; each other y takes one
    rfft, and each y one irfft.

    Error bound.  For an FFT product of length N = 2^t, Percival (Math.
    Comp. 72, 2003, Theorem 5.1) bounds every entry's error by
    ||x||_2 ||y||_2 ((1+e)^(3t) (1+e*sqrt(5))^(3t+1) (1+b)^(3t) - 1),
    with e = 2^-53 and b the error of the twiddle factors.  For 0/1
    vectors ||x||_2 ||y||_2 <= m, and with b <= 4e (pocketfft computes
    its twiddles to about one ulp) the bracket is below 24*t*e, so the
    error is below 24*t*m*2^-53.  rfft is a half-length complex FFT
    plus one twiddle pass, which adds at most one more level.  For
    m <= 2^33, so t <= 35 with that level, the error is below 0.001 and
    rounding to the nearest integer is exact.  Measured errors are far
    smaller: 1.8e-12 for the coverage of 2x+y over the cubes mod 29,917
    and 1.5e-10 for x+y over the squares mod 1,000,003.  The rounding is
    checked anyway: a value 1/4 or more from its nearest integer raises
    RuntimeError.

    Memory is O(m): the transforms hold about 80 bytes per class, and each
    spectrum is dropped before the inverse transform of its last product.
    """
    m = len(x)
    size = 1 << (2 * m - 1).bit_length()
    spectrum = np.fft.rfft(x, size)
    counts = []
    for i, y in enumerate(ys, 1):
        c = spectrum * (spectrum if y is x else np.fft.rfft(y, size))
        if i == len(ys):
            del spectrum  # free it before the last inverse transform
        c = np.fft.irfft(c, size)
        c = c[:m] + c[m:2 * m]
        rounded = np.rint(c)
        if np.abs(c - rounded).max() >= 0.25:
            raise RuntimeError("FFT counts are not within 1/4 of integers; rounding would be inexact")
        counts.append(rounded.astype(np.int64))
    return counts


def crt_product(residue_sets: Sequence[ResidueSet]) -> ResidueSet:
    """Combine residue sets at pairwise coprime moduli into one mod the product.

    The result has exactly prod |R_i| classes, and |f(result)| equals
    prod |f(R_i)| for every linear form f.
    """
    if not residue_sets:
        raise ValueError("crt_product needs at least one residue set")
    combined = residue_sets[0]
    for nxt in residue_sets[1:]:
        m1, m2 = combined.modulus, nxt.modulus
        if math.gcd(m1, m2) != 1:
            raise ValueError(f"moduli {m1} and {m2} are not coprime")
        m = m1 * m2
        inv = pow(m1, -1, m2)
        # a + m1*t in [0, m) is the one class that is a mod m1 and b mod m2: all distinct.
        classes = [a + m1 * ((b - a) * inv % m2) for a in combined.classes for b in nxt.classes]
        combined = ResidueSet._from_sorted(m, sorted(classes))
    return combined


def _require_int_window(window_start: int) -> None:
    """ValueError unless window_start is an int (a bool is not): rule "rectification" needs one."""
    if not isinstance(window_start, int) or isinstance(window_start, bool):
        raise ValueError(f"window_start must be an integer, got {window_start!r}")


def rectify(residues: ResidueSet, window_start: int = 0) -> FiniteIntSet:
    """One integer representative per class, from [window_start, window_start + m - 1].

    window_start=0 picks the least nonnegative representatives.  The
    image cardinalities of the result obey the bounds of proved_bounds.
    The classes are distinct ints in [0, m), so for an int window_start
    the values w + (c - w) mod m are distinct ints in [w, w + m): sorted,
    they need no further check.
    """
    _require_int_window(window_start)
    m = residues.modulus
    return FiniteIntSet._from_sorted(sorted(window_start + (c - window_start) % m for c in residues.classes))


@dataclass(frozen=True)
class LocalSolution:
    """A residue set with the image cardinalities of the two forms attached."""

    residues: ResidueSet
    f_card: int
    g_card: int

    def __post_init__(self) -> None:
        m = self.residues.modulus
        for name, card in (("f_card", self.f_card), ("g_card", self.g_card)):
            if not 1 <= card <= m:
                raise ValueError(f"{name}={card} outside [1, {m}]")

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.f_card, self.g_card)

    def to_dict(self) -> dict:
        return {**self.residues.to_dict(), "f_card": self.f_card, "g_card": self.g_card}


def local_solution(form_f: LinearForm, form_g: LinearForm, residues: ResidueSet) -> LocalSolution:
    """Compute both image cardinalities of a residue set."""
    return LocalSolution(
        residues=residues,
        f_card=modular_image_cardinality(form_f, residues),
        g_card=modular_image_cardinality(form_g, residues),
    )


def load_locals(text: str) -> list[ResidueSet]:
    """Parse a nonempty JSON array of {"modulus": m, "classes": [...]} objects; ValueError if malformed.

    A modulus above _FFT_MODULUS_CAP, whose images would fold by shift-or
    in time growing with |R| (see there), moduli summing to more than
    LOCALS_MODULUS_SUM_CAP, and moduli that are not pairwise coprime,
    which build_separating_set would reject, are rejected before any image.
    """
    data = json.loads(text)
    if not isinstance(data, list) or not data:
        raise ValueError("locals file must contain a nonempty JSON array")
    try:
        residue_sets = [ResidueSet.from_dict(entry) for entry in data]
    except (KeyError, TypeError) as exc:
        raise ValueError(f'each entry must be {{"modulus": m, "classes": [...]}}: {exc!r}') from None
    largest = max(r.modulus for r in residue_sets)
    if largest > _FFT_MODULUS_CAP:
        raise ValueError(f"modulus {largest} is above the cap {_FFT_MODULUS_CAP}")
    if (total := sum(r.modulus for r in residue_sets)) > LOCALS_MODULUS_SUM_CAP:
        raise ValueError(f"the moduli sum to {total}, above the cap {LOCALS_MODULUS_SUM_CAP}")
    combined = 1
    for r in residue_sets:
        if math.gcd(combined, r.modulus) != 1:
            raise ValueError(f"modulus {r.modulus} is not coprime to the combined modulus {combined}")
        combined *= r.modulus
    return residue_sets


@dataclass(frozen=True)
class Bound:
    """A proved bound on |f(A)| or |g(A)|: quantity "f" or "g", side "lower" or "upper", by rule."""

    quantity: str
    side: str
    value: int
    rule: str

    def holds(self, card: int) -> bool:
        return card >= self.value if self.side == "lower" else card <= self.value


def proved_bounds(form_f: LinearForm, locals_used: Sequence[LocalSolution]) -> tuple[Bound, ...]:
    """The proved bounds on |f(A)| and |g(A)| for A = rectify(R, w), R the CRT product of the locals.

    Rule "residue-image": |f(A)| >= prod |f(R_i)|, and so for g.  Proof.
    With M the modulus of R, A mod M = R, so f(A) mod M = f(R), whose size
    is prod |f(R_i)| by crt_product.

    Rule "rectification": |f(A)| <= 2*h_f*|f(R)|, h_f = form_f.height.
    Proof.  A lies in [w, w+M) for an int w, so f(A) lies in h_f*(M-1)+1
    consecutive integers.  Those meet each of the |f(R)| classes of f(A)
    mod M at most h_f times, so |f(A)| <= h_f*|f(R)|, half the bound.
    """
    f_lower = math.prod(loc.f_card for loc in locals_used)
    return (Bound("f", "lower", f_lower, "residue-image"),
            Bound("g", "lower", math.prod(loc.g_card for loc in locals_used), "residue-image"),
            Bound("f", "upper", 2 * form_f.height * f_lower, "rectification"))


@dataclass(frozen=True)
class ConstructionReport:
    """Outcome of combining local solutions against a pair of forms.

    ``mode`` is "threshold" when the ratio product fell below 1/(2*h_f),
    so that ``certificate`` separates the images, "direct" when it did not
    but the materialized A gave |f(A)| < |g(A)|, else "shortfall".
    """

    form_f: LinearForm
    form_g: LinearForm
    locals_used: tuple[LocalSolution, ...]
    window_start: int
    mode: str
    detail: str = ""
    elements: FiniteIntSet | None = None
    f_card: int | None = None
    g_card: int | None = None

    @property
    def success(self) -> bool:
        return self.mode != "shortfall"

    @property
    def combined_modulus(self) -> int:
        return math.prod(loc.residues.modulus for loc in self.locals_used)

    @property
    def set_size(self) -> int:
        return math.prod(len(loc.residues) for loc in self.locals_used)

    @property
    def ratio_product(self) -> Fraction:
        return Fraction(math.prod(loc.f_card for loc in self.locals_used),
                        math.prod(loc.g_card for loc in self.locals_used))

    @property
    def threshold(self) -> Fraction:
        return Fraction(1, 2 * self.form_f.height)

    @property
    def threshold_met(self) -> bool:
        return self.ratio_product < self.threshold

    @property
    def bounds(self) -> tuple[Bound, ...]:
        return proved_bounds(self.form_f, self.locals_used)

    @property
    def certificate(self) -> tuple[Bound, Bound] | None:
        """The least upper bound on |f(A)| and the greatest lower bound on |g(A)| if the first is less."""
        bounds = self.bounds
        f_upper = min((b for b in bounds if (b.quantity, b.side) == ("f", "upper")), key=lambda b: b.value)
        g_lower = max((b for b in bounds if (b.quantity, b.side) == ("g", "lower")), key=lambda b: b.value)
        return (f_upper, g_lower) if f_upper.value < g_lower.value else None

    @property
    def representative_window(self) -> tuple[int, int]:
        return (self.window_start, self.window_start + self.combined_modulus - 1)

    def to_dict(self) -> dict:
        out = {
            "form_f": list(self.form_f.coefficients),
            "form_g": list(self.form_g.coefficients),
            "locals": [loc.to_dict() for loc in self.locals_used],
            "combined_modulus": self.combined_modulus,
            "window": list(self.representative_window),
            "set_size": self.set_size,
            "ratio_product": [self.ratio_product.numerator, self.ratio_product.denominator],
            "threshold": [self.threshold.numerator, self.threshold.denominator],
            "threshold_met": self.threshold_met,
            "bounds": [asdict(b) for b in self.bounds],
            "f_card": self.f_card,
            "g_card": self.g_card,
            "success": self.success,
            "mode": self.mode,
            "detail": self.detail,
        }
        if self.elements is None:
            out["set"] = None
        elif len(self.elements) <= INLINE_SET_LIMIT:
            out["set"] = list(self.elements.elements)
        else:
            out["set"] = {"inline": False, "size": len(self.elements)}
        return out


def _materialize(report: ConstructionReport) -> ConstructionReport:
    """The report with A built from its locals and both images counted, each of its bounds checked."""
    elements = rectify(crt_product([loc.residues for loc in report.locals_used]), report.window_start)
    cards = {"f": image_cardinality(report.form_f, elements), "g": image_cardinality(report.form_g, elements)}
    for b in report.bounds:
        if not b.holds(cards[b.quantity]):
            raise RuntimeError(f"rule {b.rule!r} violated: |{b.quantity}(A)| = {cards[b.quantity]}, {b}")
    return replace(report, elements=elements, f_card=cards["f"], g_card=cards["g"])


def build_separating_set(
    form_f: LinearForm,
    form_g: LinearForm,
    locals_stream: Iterable[LocalSolution],
    *,
    window_start: int = 0,
    direct: bool = False,
) -> ConstructionReport:
    """Combine local solutions into a set A with |f(A)| < |g(A)|, or report the shortfall.

    One flow.  Locals are consumed until the exact rational product of
    f_card/g_card falls below the threshold 1/(2*h_f), or, with
    direct=True, all of them.  A product below the threshold certifies
    |f(A)| < |g(A)| by the report's certificate (mode "threshold").
    Then the longest prefix of the consumed locals whose class count and
    combined modulus fit DEFAULT_ELEMENT_CAP and DEFAULT_MODULUS_CAP is
    materialized and both images are counted.  A certified set is
    materialized only when every consumed local fits; otherwise it stays
    described by (moduli, window).  Without a certificate the prefix
    decides: mode "direct" if |f(A)| < |g(A)| on it, else "shortfall".
    So direct=True differs only in not stopping at the certificate.
    ValueError on a window_start that is not an int, before any local.
    """
    _require_int_window(window_start)
    report = ConstructionReport(form_f, form_g, (), window_start, mode="shortfall")
    consumed: list[LocalSolution] = []
    product = Fraction(1)
    modulus = size = 1
    fitting = 0  # length of the longest prefix of consumed within the caps
    for loc in locals_stream:
        m = loc.residues.modulus
        if math.gcd(modulus, m) != 1:
            raise ValueError(f"modulus {m} is not coprime to the combined modulus {modulus}")
        consumed.append(loc)
        product *= loc.ratio
        modulus *= m
        size *= len(loc.residues)
        if size <= DEFAULT_ELEMENT_CAP and modulus <= DEFAULT_MODULUS_CAP:
            fitting = len(consumed)
        if not direct and product < report.threshold:
            break
    if not consumed:
        raise ValueError("no local solutions supplied")
    report = replace(report, locals_used=tuple(consumed))
    if report.threshold_met:
        if report.certificate is None:
            raise RuntimeError(f"threshold met but certified bounds do not separate: {report.bounds}")
        if fitting < len(consumed):
            return replace(report, mode="threshold",
                           detail="ratio product below 1/(2*h_f); set described by (moduli, window), "
                                  "beyond the materialization caps")
        report = _materialize(report)  # its bounds hold, so |f(A)| <= f upper < g lower <= |g(A)|
        return replace(report, mode="threshold", detail="ratio product below 1/(2*h_f); set materialized")
    note = f"ratio product {product} of {len(consumed)} locals is not below threshold {report.threshold}"
    if not fitting:
        return replace(report, detail=f"{note}, and no prefix fits the materialization caps")
    report = _materialize(replace(report, locals_used=tuple(consumed[:fitting])))
    separated = report.f_card < report.g_card
    return replace(report, mode="direct" if separated else "shortfall",
                   detail=f"{note}; the first {fitting}, within the caps, gave "
                          f"|f(A)|={report.f_card} {'<' if separated else '>='} |g(A)|={report.g_card}")


def local_ratio_search(
    form_f: LinearForm,
    form_g: LinearForm,
    modulus: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
    seed: int = 0,
) -> LocalSolution:
    """Heuristic search for R mod m minimizing |f(R)|/|g(R)| with g(R) full.

    Greedy seeding (randomized feasible shrink from the full ring)
    followed by hill-climbing add/remove/swap moves, restarted while the
    move budget lasts.  Deterministic for a fixed seed.  May return the
    full ring (ratio 1) when nothing better is found; budget 0 returns it
    without searching, and a negative budget raises ValueError.

    Kept between moves: R as a sorted list, and for every coefficient c
    of either form the m-bit mask of c*R mod m, with, when c is not a
    unit mod m (so classes of R can share c*r), the count of R's classes
    at each c*r.  A move updates them one class at a time, and a rejected
    move is undone.  Images fold the kept masks (_image_mask: shift-or,
    or the FFT for large dense sets).  An add keeps g(R) full, since g(R)
    only grows with R, so it needs no g image.  For a binary f = ux+vy it
    needs no fold either: with R' = R + {r},

        f(R') = f(R) | (u*r + v*R') | (u*R' + v*r),

    since a pair (x, y) of R' lies in R x R, or has x = r, or has y = r.
    The RNG draws, the images and the tie-break (the lexicographically
    least sorted class list among sets of least |f(R)|) depend on the
    classes alone, so the result equals that of a search rebuilding both
    images from the classes on every move (tests/test_modular.py runs one).
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    rng = random.Random(seed)
    m = modulus
    full = (1 << m) - 1
    # Fold order for _image_mask: the term of largest gcd with m is kept as a mask, 1*R is iterated last.
    form_f, form_g = (LinearForm(sorted(form.coefficients, key=lambda c: (-math.gcd(c, m), c % m == 1)))
                      for form in (form_f, form_g))
    current: list[int] = []  # R, sorted
    masks = {c % m: 0 for c in (*form_f.coefficients, *form_g.coefficients)}  # c*R
    shared = {c: [0] * m for c in masks if math.gcd(c, m) > 1}  # |{r in R : c*r = x}| at each x
    units = [c for c in masks if c not in shared]

    def step(r: int, sign: int) -> None:
        """Add r to R (sign 1) or drop it (sign -1), with every kept mask and count."""
        if sign > 0:
            bisect.insort(current, r)
        else:
            del current[bisect.bisect_left(current, r)]
        for c in units:
            masks[c] ^= 1 << c * r % m
        for c, count in shared.items():
            x = c * r % m
            count[x] += sign
            if count[x] == (sign > 0):  # 0 -> 1 on an add, 1 -> 0 on a drop
                masks[c] ^= 1 << x

    def added(f_mask: int, r: int) -> int:
        """f(R) for R just grown by r, from f_mask = f(R - {r})."""
        if len(form_f.coefficients) != 2:
            return _image_mask(form_f, m, current, masks)
        u, v = (c % m for c in form_f.coefficients)
        shifted = masks[v] << u * r % m | masks[u] << v * r % m
        return f_mask | (shifted & full) | (shifted >> m)

    def reset() -> None:
        """R = Z/mZ, so c*R is the multiples of d = gcd(c, m), each the image of d classes."""
        current[:] = range(m)
        for c in masks:
            d = math.gcd(c, m)
            masks[c] = full if d == 1 else _bits.mask_of(range(0, m, d), 0)
            if c in shared:
                shared[c][:] = [0 if x % d else d for x in range(m)]

    reset()
    if _image_mask(form_g, m, current, masks) != full:
        raise ValueError("infeasible: g does not cover the full ring even on all of Z/mZ")
    best_classes, best_count = current[:], _image_mask(form_f, m, current, masks).bit_count()
    moves = 0

    def consider(count: int) -> None:
        nonlocal best_classes, best_count
        if count < best_count or (count == best_count and current < best_classes):
            best_classes, best_count = current[:], count

    while moves < budget:
        # Greedy seed: randomized shrink from the full ring, keeping g full.
        reset()
        order = list(range(m))
        rng.shuffle(order)
        for r in order:
            if len(current) <= 1:
                break
            step(r, -1)
            if _image_mask(form_g, m, current, masks) != full:
                step(r, 1)
        f_mask = _image_mask(form_f, m, current, masks)
        f_count = f_mask.bit_count()
        consider(f_count)

        present = set(current)
        missing = [c for c in range(m) if c not in present]  # sorted complement of R
        stale = 0
        while moves < budget and stale < 3 * m:
            moves += 1
            kind = rng.randrange(3)
            if kind == 0 and len(current) > 1:
                out, new = rng.choice(current), None
            elif kind == 1 and len(current) < m:
                out, new = None, rng.choice(missing)
            elif kind == 2 and len(current) < m:
                out, new = rng.choice(current), rng.choice(missing)
            else:
                continue
            if out is not None:
                step(out, -1)
            if new is not None:
                step(new, 1)
            if out is None:
                trial = added(f_mask, new)
            elif _image_mask(form_g, m, current, masks) != full:
                trial = None
            else:
                trial = _image_mask(form_f, m, current, masks)
            # Accept non-worsening moves so plateaus can be crossed.
            if trial is not None and (count := trial.bit_count()) <= f_count:
                if count < f_count:
                    stale = 0
                if new is not None:
                    missing.remove(new)
                if out is not None:
                    bisect.insort(missing, out)
                f_mask, f_count = trial, count
                consider(count)
            else:
                if new is not None:
                    step(new, -1)
                if out is not None:
                    step(out, 1)
                stale += 1

    return LocalSolution(residues=ResidueSet._from_sorted(m, best_classes), f_card=best_count, g_card=m)
