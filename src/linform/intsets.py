"""Finite integer sets, linear forms, images, and affine canonical forms.

The image of a linear form f(x1,...,xn) = u1*x1 + ... + un*xn on a set A
is {f(a1,...,an) : ai in A}, computed here by folding sumsets of the
dilations ui*A.  Each call plans its kernel once (_plan), from the form's
coefficients, |A| and the span of A, and runs exactly that kernel, the
one with the least predicted time (_predicted_ns): merge sorts and
merges numpy offsets, and big-int and word OR shifted bit masks, on a
big int or on a word array.  Whether a form folds unordered pairs is
read off its coefficients too (_pair_fold).

The merge kernel folds on offsets from the sum of the terms' first
elements.  Each stage forms its sums in blocks of whole rows keeping at
most _SORT_CHUNK values (or one row keeping more), keeps the distinct
values of each block, then merges the blocks the same way; a block
whose columns hash apart is already distinct.  A
run of equal terms, c*(x1 + ... + xr) or the y, z of 2x + y + z, forms
each multiset of indices once: every partial sum carries J, the least
last index over its representations, and the next equal term adds only
its elements from index J on.  So c*(x + y) keeps the pairs i <= j, and
x + y + z on a set with distinct pair sums forms C(n+2, 3) sums in its
last stage, not n*C(n+1, 2).  A block forms only the sums it keeps, as a
staircase of rectangles and small masked squares.  For c*(x - y) it
forms each positive difference once: A - A = -D, {0}, D for its
positive values D.  No partial sum passes the window's span S, so a
span below 2**32 holds each offset in one uint32, below 2**63 in one
int64, and a wider one in k limbs of _LIMB_BITS = 62 bits, least
significant first: two such limbs and a carry sum below 2**63, so the
limb-wise outer sum cannot overflow (see _limb_fold).

Before planning, image and image_cardinality divide a set whose image's
window is wider than BITSET_WIDTH_CAP by the gcd g of its offsets
(_reduced): f(min A + g*B) = (sum c)*min A + g*f(B), and x -> s + g*x is
increasing, so a dilated set is planned and folded on B.

A FiniteIntSet holds its elements as a tuple of Python ints, which is
all that equality, hashing, repr and pickling see.  Beside it, built
once on first use and never a field, it caches their offsets from its
least element as a read-only int64 array whenever its span is below
2**63, however large the elements are (_offsets); rectify hands the
array over as it builds the set.  The word fold and a merge whose window
holds at most 2**63 integers (one limb) build each term's offsets from
it in numpy (_term_offsets).  The big-int fold, the gcd of a set past
int64 and a merge on several limbs keep Python ints (_terms).

The bitmask kernel keeps the accumulated sumset in one of two exact
representations, the one with the lower predicted time: a Python int,
shifted and ORed whole per element, or a numpy uint64 word array, into
which one shifted copy per distinct bit shift is ORed in place per
element.  The word array is priced at about 0.44 ns per word, 2.2 us per
element and 139 us per call, the big int at 2.5 ns per word and 11 us
per call, so narrow or small images stay on big ints.  Both use only
shifts and ORs, so they give the same mask bit for bit.  Like merge, the
word array folds each unordered pair of c*(x + y) and c*(x - y) once;
the big int folds every ordered pair.  After a first pass over whole
ranges, the word array ORs only into words below their ceiling, the AND
of the periodic lifts of f(A mod m) over the prime powers m <= 64 at
which that image misses a class (all ones if there is none), and reads
them again as words close.  f(A) mod m lies in f(A mod m) for every m,
so every bit an OR sets lies in the ceiling, and ORing into a word equal
to it changes no bit.  A stage shorter than the
gap at which runs of open words join (about 5,100 words) is one run
anyway, so it closes words against all ones.  A stage with at most 4
tuples per bit of its span fills few words and ORs whole ranges.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _bits

# Widest window (in bits, 16 MiB) at which the bitmask kernels are priced;
# _plan never picks them on a wider image.
BITSET_WIDTH_CAP = 1 << 27

# Nanoseconds per unit of each kernel's work, in _predicted_ns's order, fitted
# by tools/kernel_grid.py (least squares on log time) on its 120 cells with
# Python 3.11, numpy 2.4, 2-CPU Xeon.  Three of its rows, in us:
#   x+y, n=128, span 254,567:  merge 153  big-int 2,443  word 1,481  -> merge
#   2x+y, n=32, span 2,561:  merge 34  big-int 26  word 169  -> big-int
#   x+y+z, n=4096, span 4,096:  big-int 3,688  word 7,931  -> big-int
# The word price is the cost without _word_fold's skip, an upper bound on
# images that fill their ceiling (all ones, or the lift of f(A mod m) where
# that misses a class); it is not refitted, so the picks stay pinned.
_KERNEL_NS = {
    "merge": (16.5, 18_800.0),            # tuple after the pair fold; call
    "big-int": (2.54, 11_200.0),          # word; call
    "word": (0.436, 2_220.0, 139_000.0),  # word after the pair fold; element; call
}

# Most int64 values (32 MiB) a block of merge's outer sum holds, counting
# every limb and, where it carries one, J, unless the block is one longer row.
_SORT_CHUNK = 1 << 22
# Values in the masked square of a staircase step (_staircase), about what one
# more step's numpy calls cost.
_STAIR_AREA = 1 << 12

# Bits per limb of offsets too wide for one int64: two limbs and a carry sum
# below 2**63.
_LIMB_BITS = 62
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_HASH_MUL = 0x5851F42D4C957F2D  # hashes wide limb columns; any value is exact

# The largest power of each prime up to 64 that is at most 64 (a lower power's
# lift contains it).  A class that f(A mod m) misses for one of them leaves a
# hole in every 64-bit word of the mask, so without a ceiling (_word_fold) no
# word of that image would close.
_CEILING_MODULI = (64, 27, 25, 49, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
# Offsets of terms 0 and 1 that _stage_ceilings reads first: at random, 64
# offsets meet at least 63% of the classes mod m <= 64, so two such prefixes
# settle most m by their class counts alone.
_RESIDUE_PREFIX = 64
# Most offsets (32 KiB of uint64) that _stage_ceilings reduces at once.
_RESIDUE_VALUES = 1 << 12

# Byte b with its bits reversed, at index b: reverses a word fold's mask bytewise.
_BYTE_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], np.uint8)
# Elements per set bit of the accumulator that a word fold's first pass ORs
# over whole ranges: a bit of the output then misses them all with probability
# about e**-16.  On tools/kernel_grid.py's searched word cells, 16 and 32 run
# within 2.3% of the best of 4-64 in geometric mean; 4 and 8 up to 1.8x, 64 1.3x.
_FIRST_PASS_FILL = 16


@dataclass(frozen=True)
class FiniteIntSet:
    """A nonempty, sorted, duplicate-free finite set of arbitrary-precision integers.

    ValueError on an empty iterable or an element that is not an int (bool,
    float or numpy integer), so every operation may assume a nonempty set.
    """

    elements: tuple[int, ...]

    def __init__(self, elements: Iterable[int]) -> None:
        seen = set()
        for a in elements:
            if not isinstance(a, int) or isinstance(a, bool):
                raise ValueError(f"set elements must be integers, got {a!r}")
            seen.add(a)
        if not seen:
            raise ValueError("a set needs at least one element")
        object.__setattr__(self, "elements", tuple(sorted(seen)))

    @classmethod
    def _from_sorted(cls, elements: list[int], offsets: np.ndarray | None = None) -> "FiniteIntSet":
        """Trusted constructor: elements already sorted, distinct Python ints;
        offsets, if given, their int64 offsets from the first one (_offsets)."""
        a = object.__new__(cls)
        object.__setattr__(a, "elements", tuple(elements))
        if offsets is not None:
            offsets.flags.writeable = False
            a.__dict__["_offsets"] = offsets
        return a

    @functools.cached_property
    def _offsets(self) -> np.ndarray | None:
        """The elements' offsets from the least one as a read-only int64 array, None if they span 2**63 or more."""
        lo, hi = self.elements[0], self.elements[-1]
        if hi - lo >= 1 << 63:
            return None
        if -(1 << 63) <= lo and hi < 1 << 63:
            offsets = np.fromiter(self.elements, np.int64, len(self.elements))
            offsets -= lo
        else:
            offsets = np.fromiter((x - lo for x in self.elements), np.int64, len(self.elements))
        offsets.flags.writeable = False
        return offsets

    def __getstate__(self) -> dict:
        return {"elements": self.elements}  # not the cache: a pickle holds the elements only

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, value: int) -> bool:
        i = bisect.bisect_left(self.elements, value)
        return i < len(self.elements) and self.elements[i] == value

    def __getitem__(self, i: int) -> int:
        return self.elements[i]

    def reflect(self) -> "FiniteIntSet":
        """The set {-a : a in A}: negating the reversed elements keeps them sorted and distinct."""
        return FiniteIntSet._from_sorted([-a for a in reversed(self.elements)])


@dataclass(frozen=True)
class LinearForm:
    """An integer linear form given by its nonzero coefficient vector."""

    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Iterable[int]) -> None:
        coeffs = tuple(coefficients)
        if not coeffs:
            raise ValueError("a linear form needs at least one coefficient")
        for c in coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficients must be integers, got {c!r}")
            if c == 0:
                raise ValueError("zero coefficients are not allowed")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def arity(self) -> int:
        return len(self.coefficients)

    @property
    def height(self) -> int:
        """Sum of the absolute values of the coefficients."""
        return sum(abs(c) for c in self.coefficients)

    @property
    def is_binary(self) -> bool:
        return len(self.coefficients) == 2

    def _require_binary(self) -> None:
        if len(self.coefficients) != 2:
            raise ValueError(f"binary form required, this one has arity {self.arity}")

    @property
    def is_normalized(self) -> bool:
        """u >= |v| >= 1, gcd(u, v) = 1, u > 0 (binary forms only)."""
        self._require_binary()
        u, v = self.coefficients
        return u >= abs(v) >= 1 and math.gcd(u, v) == 1


SUM = LinearForm((1, 1))
DIFFERENCE = LinearForm((1, -1))


def normalize_form(form: LinearForm) -> LinearForm:
    """Reduce a binary form to u >= |v| >= 1, gcd(u, v) = 1, u > 0.

    Each move (gcd division, coefficient swap, global negation) preserves
    the image cardinality |f(A)| for every finite set A.
    """
    form._require_binary()
    u, v = form.coefficients
    d = math.gcd(u, v)
    u, v = u // d, v // d
    if abs(u) < abs(v):
        u, v = v, u
    if u < 0:
        u, v = -u, -v
    normalized = LinearForm((u, v))
    if not normalized.is_normalized:
        raise RuntimeError(f"normalization of {form.coefficients} produced {normalized.coefficients}")
    return normalized


def image(form: LinearForm, a: FiniteIntSet | Iterable[int]) -> FiniteIntSet:
    """The image f(A) = {sum ui*ai : ai in A}, sorted and deduplicated.

    Where f(A)'s window does not fit BITSET_WIDTH_CAP, A = min A + g*B
    with g the gcd of A's offsets (_reduced); the kernel is planned and run
    on B, and each value x of f(B) maps back to (sum ui)*min A + g*x.
    """
    a = _as_set(a)
    b, g = _reduced(form.coefficients, a)
    values = _image(form, b, _plan(form.coefficients, b))
    if g == 1:
        return values
    shift = sum(form.coefficients) * a.elements[0]
    return FiniteIntSet._from_sorted([shift + g * x for x in values.elements])


def image_cardinality(form: LinearForm, a: FiniteIntSet | Iterable[int]) -> int:
    """|f(A)| = |f(B)| (_reduced), without materializing the image when a bitmask kernel runs."""
    b = _reduced(form.coefficients, _as_set(a))[0]
    return _cardinality(form, b, _plan(form.coefficients, b))


def _reduced(coefficients: Sequence[int], a: FiniteIntSet) -> tuple[FiniteIntSet, int]:
    """(B, g) with A = min A + g*B, where g > 1 is the gcd of A's offsets
    from min A and f(A)'s window is wider than BITSET_WIDTH_CAP; else (A, 1).

    f(min A + g*B) = (sum c)*min A + g*f(B), and x -> s + g*x with g > 0 is
    increasing, so f(A) is f(B) mapped value by value, in order, and
    |f(A)| = |f(B)|; B = (A - min A)/g is sorted and distinct as A is.  B's
    window is g times narrower, so a dilated set can reach the bitset
    kernels or one int64.  A window that fits BITSET_WIDTH_CAP is left as it
    is: _plan already weighs every kernel there.
    """
    lo = a.elements[0]
    if sum(map(abs, coefficients)) * (a.elements[-1] - lo) < BITSET_WIDTH_CAP:
        return a, 1
    o = a._offsets
    g = int(np.gcd.reduce(o)) if o is not None else math.gcd(*(x - lo for x in a.elements))
    if g == 1:
        return a, 1
    if o is None:
        return FiniteIntSet._from_sorted([(x - lo) // g for x in a.elements]), g
    o = o // g
    return FiniteIntSet._from_sorted(o.tolist(), o), g


def _as_set(a: FiniteIntSet | Iterable[int]) -> FiniteIntSet:
    return a if isinstance(a, FiniteIntSet) else FiniteIntSet(a)


def _terms(coefficients: Sequence[int], a: FiniteIntSet) -> list[list[int]]:
    """The dilations c*A as sorted lists of Python ints, one per coefficient.

    A is sorted and duplicate-free, so c*A already is too, in reverse
    order when c < 0.
    """
    return [[c * x for x in (a.elements if c > 0 else reversed(a.elements))]
            for c in coefficients]


def _term_offsets(coefficients: Sequence[int], a: FiniteIntSet) -> list[np.ndarray]:
    """Each dilation c*A's offsets from its least element, as a sorted int64 array, one per coefficient.

    With O the offsets of A (_offsets) and d its span, they are c*O for
    c > 0 and |c|*(d - O reversed) for c < 0.  OverflowError if the image's
    window, sum |c|*d + 1 integers, is wider than 2**63.
    """
    span = a.elements[-1] - a.elements[0]
    if sum(map(abs, coefficients)) * span >= 1 << 63:
        raise OverflowError("the image's window spans more than 2**63 integers")
    o = a._offsets
    return [(abs(c) if span else 0) * (o if c > 0 else span - o[::-1]) for c in coefficients]


def _ends(coefficients: Sequence[int], a: FiniteIntSet) -> tuple[int, int]:
    """min f(A) and max f(A): c*A is least at c*min A if c > 0, else at c*max A."""
    lo, hi = a.elements[0], a.elements[-1]
    return (sum(c * (lo if c > 0 else hi) for c in coefficients),
            sum(c * (hi if c > 0 else lo) for c in coefficients))


def _pair_fold(coefficients: tuple[int, ...]) -> str | None:
    """The form's pair fold: "pair" for c*(x + y), "mirrored" for c*(x - y), else
    None.  For |A| >= 2, c1*A and c2*A are equal or mirrored only if |c1| = |c2|."""
    if len(coefficients) == 2 and abs(coefficients[0]) == abs(coefficients[1]):
        return "pair" if coefficients[0] == coefficients[1] else "mirrored"
    return None


def _plan(coefficients: tuple[int, ...], a: FiniteIntSet) -> str:
    """The kernel with the least predicted time: merge, big-int or word."""
    ns = _predicted_ns(coefficients, len(a), a.elements[-1] - a.elements[0])
    return min(ns, key=ns.get)


def _predicted_ns(coefficients: tuple[int, ...], n: int, d: int) -> dict[str, float]:
    """Each kernel's predicted time on n elements of span d; big-int and word only if the window fits.

    Term c*A spans |c|*d.  merge forms one sum per distinct partial sum and
    element of the next term, one per unordered pair of c*(x + y) and
    c*(x - y).  It forms each multiset of a run of equal terms once, so for
    runs of 3 or more (x + y + z: about a third of the tuples) its price
    here is an upper bound; it is not refitted, so that the picks stay
    pinned.  The big int shifts a window-wide mask per element of each
    later term.  The word array, narrowest term first, ORs the mask so far
    per element, per pair as merge does.
    """
    spans = sorted([abs(c) * d for c in coefficients])
    span, distinct = spans[0], n
    tuples = words = rows = 0
    for s in spans[1:]:
        tuples += distinct * n
        words += n * (span // 64 + 1)
        rows += n
        span += s
        distinct = min(distinct * n, span + 1)
    folded = 1 if _pair_fold(coefficients) is None else 2
    (m, m_call), (b, b_call), (w, w_row, w_call) = _KERNEL_NS.values()
    ns = {"merge": m * tuples / folded + m_call}
    if span < BITSET_WIDTH_CAP:
        ns["big-int"] = b * rows * (span // 64 + 1) + b_call
        ns["word"] = w * words / folded + w_row * rows + w_call
    return ns


def _image(form: LinearForm, a: FiniteIntSet, kernel: str) -> FiniteIntSet:
    """f(A) on the kernel, one of _KERNEL_NS's names."""
    coefficients = form.coefficients
    base, fold = _ends(coefficients, a)[0], _pair_fold(coefficients)
    if kernel == "merge":
        values = [base + x for x in _decode(_sort_fold(coefficients, a, fold))]
        return FiniteIntSet._from_sorted([-x for x in reversed(values)] + [0] + values
                                         if fold == "mirrored" else values)
    return FiniteIntSet._from_sorted(_bits.decode(_mask(coefficients, a, fold, kernel), base))


def _cardinality(form: LinearForm, a: FiniteIntSet, kernel: str) -> int:
    """|f(A)| on the kernel, one of _KERNEL_NS's names."""
    fold = _pair_fold(form.coefficients)
    if kernel == "merge":
        count = _sort_fold(form.coefficients, a, fold).shape[1]
        return 2 * count + 1 if fold == "mirrored" else count
    return _mask(form.coefficients, a, fold, kernel).bit_count()


def _mask(coefficients: tuple[int, ...], a: FiniteIntSet, fold: str | None, kernel: str) -> int:
    """The bitset fold's mask on the kernel, big-int or word; ValueError on any other label."""
    if kernel not in ("big-int", "word"):
        raise ValueError(f"unknown kernel {kernel!r}: the kernels are {', '.join(_KERNEL_NS)}")
    if kernel == "word":
        return _word_fold(_term_offsets(coefficients, a), fold)
    return _big_int_fold(_terms(coefficients, a))


def _sort_fold(coefficients: tuple[int, ...], a: FiniteIntSet, fold: str | None) -> np.ndarray:
    """The image's distinct offsets from min f(A), the sum of the terms' first elements.

    Each column of the returned (k, count) limb array is one distinct
    offset, sum(limbs[j] << 62*j).  Every partial sum of offsets is at most
    the window's span S, the window width minus 1.  If S < 2**32, k = 1
    and the limbs are uint32; if S < 2**63, k = 1 and they are int64; else
    k = ceil(bitlen(S) / 62) int64 limbs.  No sum exceeds S, so no dtype
    overflows.  A dilated set reaches here from image and
    image_cardinality already divided by its gcd (_reduced).

    Equal terms, those of equal coefficients, are moved next to each other
    and converted once, so that _limb_fold folds each run of them on
    multisets.  A mirrored fold, terms B, -B (c*(x - y)), B sorted, gives
    b_i - b_(n-1-j) at (i, j), positive iff i + j >= n; those pairs give
    the positive values D only, and the image is -D, {0}, D.  One limb
    reads the terms off A's int64 offsets (_term_offsets), cast to uint32
    under 2**32; wider limbs are taken in Python ints (_terms, _limbs).
    """
    # Each distinct coefficient once, with the length of its run, in the order they first appear.
    runs = [(c, len(list(group))) for c, group in itertools.groupby(sorted(coefficients, key=coefficients.index))]
    distinct = [c for c, _ in runs]
    span = sum(abs(c) * r for c, r in runs) * (a.elements[-1] - a.elements[0])
    if span < 1 << 63:
        dtype = np.uint32 if span < 1 << 32 else np.int64
        terms = [offsets.astype(dtype, copy=False)[None] for offsets in _term_offsets(distinct, a)]
    else:
        k = -(-span.bit_length() // _LIMB_BITS)
        terms = [_limbs(t, k) for t in _terms(distinct, a)]
    return _limb_fold([offs for offs, (_, r) in zip(terms, runs) for _ in range(r)], fold == "mirrored")


def _limb_fold(terms: list[np.ndarray], mirrored: bool) -> np.ndarray:
    """Fold offsets held as (k, n) limb arrays; returns the distinct sums.

    Each stage adds the accumulator's limbs to the next term's limb by
    limb, row i of the accumulator keeping the term's columns j >= J[i]
    (all of them where there is no J), then carries from the low limbs to
    the high ones.  Before the carry every limb is a sum of two limbs below
    2**62; a carry adds at most 1 to the next limb, so nothing overflows.
    Afterwards every limb is below 2**62, since every partial sum is below
    2**(62*k): equal values have equal columns.  One limb never carries:
    it is uint32 where the span is below 2**32 and int64 below 2**63
    (_sort_fold), and no sum exceeds the span.  One-limb sums come out
    sorted, wider ones unordered.

    A run of equal terms T, ..., T (c*(x1 + ... + xr)) forms each multiset
    of indices into T once.  Each column folded from part of the run
    carries J, the least last index into T over the representations of its
    value; the next T adds to it only its elements j >= J, and the sum's
    J is j (the run's first T adds every element, and T itself has
    J = arange(n)).  Intermediate stages keep the least J of each distinct
    value; the last one needs none.  Every value is still reached: for
    sorted indices i1 <= ... <= it, the prefix value of i1, ..., i(t-1) is
    reached, by induction, with J <= i(t-1) <= it, so T's element it is
    added to it.  x + y is the run T, T and keeps the pairs i <= j.  A
    mirrored fold keeps the columns j >= n - i of row i of B; on B
    reversed, row i keeps j >= i + 1.  Equal terms come as one array
    (_sort_fold), so a run is read off identity.
    """
    acc, n = terms[0], terms[0].shape[1]
    js = np.arange(n) if len(terms) > 1 and terms[1] is acc else None
    if mirrored:
        acc, js = acc[:, ::-1], np.arange(1, n + 1)
    for t in range(1, len(terms)):
        tracked = t + 1 < len(terms) and terms[t + 1] is terms[t]
        acc, js = _limb_stage(acc, js, terms[t], tracked)
    return acc


def _limb_stage(acc: np.ndarray, js: np.ndarray | None, offs: np.ndarray,
                tracked: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """One stage of _limb_fold: the distinct sums, and if tracked their least J, ordered by it.

    The columns of acc come ordered by J, so a block of its rows keeps a
    staircase (_staircase).  A block is whole rows, cut where the sums
    they keep, counting J as one more limb if tracked, would pass
    _SORT_CHUNK values; a row that keeps more is a block on its own.  The
    blocks' distinct columns are grouped once more, all together.
    """
    n, cap = offs.shape[1], _SORT_CHUNK // (acc.shape[0] + tracked)
    rows = acc.shape[1] if js is None else int(np.searchsorted(js, n))  # x - y: the last row keeps none
    if rows == 0:  # x - y on one element: no positive difference
        return acc[:, :0], None
    cuts = [0, rows]  # one block if every row kept whole fits, else cut by the sums kept up to each row
    if rows * n > cap:
        ends, cuts = np.cumsum(np.full(rows, n) if js is None else n - js[:rows]), [0]
        while cuts[-1] < rows:
            i = cuts[-1]
            cuts.append(max(int(np.searchsorted(ends, cap + (ends[i - 1] if i else 0), "right")), i + 1))
    blocks = []
    for i, j in zip(cuts, cuts[1:]):
        block, block_js = _staircase(acc[:, i:j], None if js is None else js[i:j], offs, tracked)
        blocks.append(_distinct_columns(_carry(block), block_js))
    if len(blocks) == 1:
        return blocks[0]
    limbs = np.concatenate([limbs for limbs, _ in blocks], axis=1)
    js = np.concatenate([js for _, js in blocks]) if tracked else None
    del blocks
    return _distinct_columns(limbs, js)


def _staircase(acc: np.ndarray, left: np.ndarray | None, offs: np.ndarray,
               tracked: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The sums of column i of acc and the columns j >= left[i] of offs, with each one's j if tracked.

    left is nondecreasing, so a step of rows keeps every column from its
    last row's left on, a rectangle added in place; only the square of
    columns between its first and last row's left is formed whole and
    masked.  Steps are sized so that squares hold about _STAIR_AREA values,
    and a rectangle smaller than that is masked with its square, which
    costs less than adding it apart.  Without left, every row keeps every
    column: one rectangle.  The sums keep acc's dtype, uint32 or int64:
    adds are array with array, and no sum passes the fold's span, which
    _sort_fold chose that dtype to hold.
    """
    (k, m), n = acc.shape, offs.shape[1]
    if left is None:
        block = (acc[:, :, None] + offs[:, None, :]).reshape(k, -1)
        return block, np.tile(np.arange(n), m) if tracked else None
    block = np.empty((k, n * m - int(left.sum())), acc.dtype)
    js = np.empty(block.shape[1], np.int64) if tracked else None
    spread = int(left[-1] - left[0])
    step = m if spread == 0 else max(math.isqrt(_STAIR_AREA * m // spread), 1)
    pos = 0
    for x in range(0, m, step):
        rows, a, b = acc[:, x:x + step, None], int(left[x]), int(left[min(x + step, m) - 1])
        h = rows.shape[1]
        if h * (n - b) < _STAIR_AREA:
            b = n
        if b < n:
            size = h * (n - b)
            np.add(rows, offs[:, None, b:], out=block[:, pos:pos + size].reshape(k, h, n - b))
            if tracked:
                js[pos:pos + size].reshape(h, n - b)[:] = np.arange(b, n)
            pos += size
        if a < b:
            keep = np.arange(a, b) >= left[x:x + h, None]
            size = np.count_nonzero(keep)
            np.compress(keep.ravel(), (rows + offs[:, None, a:b]).reshape(k, -1), axis=1, out=block[:, pos:pos + size])
            if tracked:
                np.add(np.nonzero(keep)[1], a, out=js[pos:pos + size])
            pos += size
    return block, js


def _carry(limbs: np.ndarray) -> np.ndarray:
    for j in range(len(limbs) - 1):
        limbs[j + 1] += limbs[j] >> _LIMB_BITS
        limbs[j] &= _LIMB_MASK
    return limbs


def _distinct_columns(limbs: np.ndarray, js: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """The distinct columns of a canonical limb array, and given each column's J, each value's least J.

    One limb without J is sorted in place, far faster here than np.unique,
    and twice as fast on uint32 as on int64.  Other columns are grouped in
    one pass by a hash of all their limbs, built on an int64 copy (widened
    from uint32, which has no room to pack the index): one sort of
    hash << b | index (2**b > column count), far faster than an argsort,
    groups them by hash mod 2**(64 - b), so each value lies in one run.
    If every run is one column and there is no J, limbs is returned as it
    is.  A run whose columns all agree is one value, with the run's least
    J; only the runs that still mix values are lexsorted.  With js, the
    distinct columns come back ordered by their least J, together with it;
    without, with None.
    """
    if len(limbs) == 1 and js is None:
        keys = limbs[0]
        keys.sort()
        new = np.ones(len(keys), bool)
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        return keys[new][None], None
    packed = limbs[-1].astype(np.int64)
    for limb in limbs[-2::-1]:
        packed *= _HASH_MUL
        packed += limb
    packed ^= packed >> 32  # the key below drops the top b bits; fold them into the low half first
    b = limbs.shape[1].bit_length()
    packed = packed.view(np.uint64)
    packed <<= np.uint64(b)
    packed |= np.arange(limbs.shape[1], dtype=np.uint64)
    packed.sort()
    new = np.concatenate(([True], packed[1:] >> b != packed[:-1] >> b))
    if not new.all():  # some run holds more than one column
        order = np.bitwise_and(packed, (1 << b) - 1, out=packed).view(np.int64)
        limbs, js = limbs.take(order, axis=1), None if js is None else js[order]
        del packed, order  # before the copies below
        clash = ~new[1:] & (limbs[:, 1:] != limbs[:, :-1]).any(axis=0)
        mixed = None
        if clash.any():
            run = np.cumsum(new) - 1
            tied = np.isin(run, run[1:][clash], kind="table")
            mixed = _lexsorted_distinct(limbs.compress(tied, axis=1), None if js is None else js[tied])
            limbs, js, new = limbs.compress(~tied, axis=1), None if js is None else js[~tied], new[~tied]
        starts = np.flatnonzero(new)
        limbs, js = limbs[:, starts], None if js is None else np.minimum.reduceat(js, starts)
        if mixed is not None:  # after the runs of one value
            limbs, js = np.concatenate((limbs, mixed[0]), axis=1), None if js is None else np.concatenate((js, mixed[1]))
    if js is None:
        return limbs, None
    order = np.argsort(js)
    return limbs[:, order], js[order]


def _lexsorted_distinct(limbs: np.ndarray, js: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """The distinct columns, lexsorted, and given each column's J, each value's least J (else None)."""
    order = np.lexsort(limbs if js is None else (js, *limbs))
    limbs = limbs[:, order]
    new = np.concatenate(([True], (limbs[:, 1:] != limbs[:, :-1]).any(axis=0)))
    return limbs.compress(new, axis=1), None if js is None else js[order][new]


def _decode(limbs: np.ndarray) -> list[int]:
    """The values of the columns of _sort_fold's limbs, in increasing order."""
    values = limbs[-1].tolist()
    for limb in limbs[-2::-1]:
        values = [v << _LIMB_BITS | x for v, x in zip(values, limb.tolist())]
    return values if len(limbs) == 1 else sorted(values)  # one-limb sums come out sorted


def _big_int_fold(terms: list[list[int]]) -> int:
    """The bitset fold on one Python int; returns the mask, bit i for the
    sum of the terms' first elements plus i.  Each stage shifts the mask by
    the next term's offsets, so intermediate images are never decoded."""
    acc = _bits.mask_of(terms[0], terms[0][0])
    for term in terms[1:]:
        tbase = term[0]
        shifted = 0
        for t in term:
            shifted |= acc << (t - tbase)
        acc = shifted
    return acc


def _word_fold(offsets: list[np.ndarray], fold: str | None) -> int:
    """The bitset fold of the terms' int64 offsets (_term_offsets) on numpy
    uint64 words, ORed in place; returns the mask.

    The narrowest term is folded first, so that the accumulator stays as
    short as it can.  An offset t = 64*q + s is applied by ORing the
    s-bit-shifted copy of the accumulator into the output from word q on.
    Each of the at most 64 shifted copies is built once per stage.  The
    first pass ORs whole ranges until its shifts, taken 0, 32, 16, 48, 8,
    ... so that every prefix spreads over the word, hold _FIRST_PASS_FILL
    elements per set bit of the accumulator.  The elements of the others
    OR only into runs of words below their ceiling (_open_runs), the AND
    of the lifts of the stage's sums mod m for the m <= 64 at which they
    miss a class (_stage_ceilings), read again before the 1st, 2nd, 4th,
    ... shift after the pass while the open words times the elements left
    reach one element's price in words; once no word is open, the stage
    ends.  Every bit a stage sets is a sum of one offset per term so far,
    whose class mod m is among those sums, so it lies in the ceiling: ORs
    commute, and ORing into a word equal to its ceiling changes nothing,
    so the mask is bit for bit _big_int_fold's.

    A pair fold, offsets O, O (c*(x + y)), or a mirrored one, O,
    span - reversed(O) (c*(x - y)), folds each unordered pair once: offset
    t ORs the copy's words from lo = q, or lo = (span - t) // 64, into the
    output from word q + lo.  They hold every o + t with o >= t, or with
    o + t >= span, and only sums; a difference image is symmetric about
    span, so its bit reversal is ORed in.
    """
    offsets = sorted(offsets, key=lambda o: int(o[-1]))
    gap = _KERNEL_NS["word"][1] / _KERNEL_NS["word"][0]  # words one element's price buys
    ceilings = _stage_ceilings(offsets, gap)
    span = int(offsets[0][-1])
    q, s = np.divmod(offsets.pop(0), 64)
    acc = np.zeros(int(q[-1]) + 1, np.uint64)
    np.bitwise_or.at(acc, q, np.uint64(1) << s.astype(np.uint64))
    first = max(span - 63, 0) // 64 if fold == "mirrored" else 0  # no copy starts below; scanned, they join the runs and small x-y ORs whole
    while offsets:  # popped, so each offset array is freed once split
        q, s = np.divmod(offsets.pop(0), 64)
        n = len(acc)
        out = np.zeros(n + int(q[-1]) + 1, np.uint64)
        counts = np.bincount(s, minlength=64)
        shifts = np.flatnonzero(counts).tolist()
        runs, open_words, images = None, math.inf, ceilings.pop(0)
        passed = len(shifts)  # shifts of the first pass, ORed over whole ranges
        if images is not None:
            order = np.argsort(_BYTE_REVERSED[::4])  # 0, 32, 16, 48, 8, ...: each shift's 6 bits reversed
            shifts = order[counts[order] > 0].tolist()
            held = np.cumsum(counts[shifts])  # elements in the shifts up to each
            bits = int.from_bytes(acc.tobytes(), "little").bit_count()
            passed = int(np.searchsorted(held, _FIRST_PASS_FILL * 64 * n / bits)) + 1
            ceiling = _ceiling(len(out), images)
        for i, shift in enumerate(shifts):
            after = i - passed  # shifts since the first pass
            # Look again before the 1st, 2nd, 4th, ... of them, while the open words could cost one element's price
            if after >= 0 and after & (after + 1) == 0 and open_words * (len(q) - held[i - 1]) >= gap:
                runs = _open_runs(out, first, gap, ceiling)  # joined over gaps under one element's price in words
                if not runs:  # every word closed: the other shifts would OR nothing
                    break
                open_words = sum(b - a for a, b in runs)
                runs = None if runs == [(first, len(out))] else runs  # open everywhere: OR whole ranges
            shifted = np.zeros(n + 1, np.uint64)
            np.left_shift(acc, np.uint64(shift), out=shifted[:n])
            if shift:
                shifted[1:] |= acc >> np.uint64(64 - shift)
            js = q[s == shift]
            los = 0 if fold is None else js if fold == "pair" else (span - shift - 64 * js) // 64
            if runs is not None:  # about 5 us a shift more than ORing whole ranges
                for a, b in runs:  # element j ORs out[begin:end] from shifted[begin - j:]
                    begin, end = np.maximum(js + los, a), np.minimum(js + n + 1, b)
                    meet = begin < end
                    for j, st, en in zip(js[meet].tolist(), begin[meet].tolist(), end[meet].tolist()):
                        out[st:en] |= shifted[st - j:en - j]
            elif fold is None:  # a view per element costs other forms about 5%
                for j in js.tolist():
                    out[j:j + n + 1] |= shifted
            else:
                for j, lo in zip(js.tolist(), los.tolist()):
                    out[j + lo:j + n + 1] |= shifted[lo:]
        acc, ceiling = out, None  # the ceiling is freed before the next stage's or the mask's arrays are built
    data = acc.astype("<u8", copy=False).view(np.uint8)
    mask = int.from_bytes(data, "little")
    if fold == "mirrored":  # bit p of the 8*len(data)-bit reversal is bit 8*len(data) - 1 - p of mask
        mask |= int.from_bytes(_BYTE_REVERSED[data[::-1]], "little") >> (8 * len(data) - 1 - 2 * span)
    return mask


def _open_runs(words: np.ndarray, first: int, gap: float, ceiling: np.ndarray) -> list[tuple[int, int]]:
    """The runs [start, stop) of the words from first on that differ from their ceiling, joined over gaps under gap."""
    if len(words) - first <= gap and words[first] != ceiling[first] and words[-1] != ceiling[-1]:
        return [(first, len(words))]  # both ends open, and every gap between is shorter than gap
    open_ = np.concatenate(([False], words[first:] != ceiling[first:], [False]))
    edges = np.flatnonzero(open_[1:] != open_[:-1]) + first  # start, stop, start, ...
    inner = edges[1:-1].reshape(-1, 2)  # a run's stop and the next run's start
    edges = np.concatenate((edges[:1], inner[inner[:, 1] - inner[:, 0] >= gap].ravel(), edges[-1:])).tolist()
    return list(zip(edges[0::2], edges[1::2]))


def _stage_ceilings(offsets: list[np.ndarray], gap: float) -> list[list[tuple[int, int]] | None]:
    """Per stage k >= 1 of a fold of the offsets, the images (m, mask), m in
    _CEILING_MODULI up to the narrowest term's span, of the sums of one
    offset per term 0..k mod m that miss a class (bit c set when c is such
    a sum); None if the stage forms at most 4 tuples per bit of its span,
    where a word of random sums keeps a hole with probability about 0.7.
    A stage spanning fewer than gap words gets no images, the all-ones
    ceiling: _open_runs joins runs across gaps under gap words, so a ceiling
    there could only trim the ends of its one run.  A prefix's sums lie
    among the whole terms', so an m at which the first _RESIDUE_PREFIX
    offsets of terms 0 and 1 reach every class (as they do if their class
    counts add up to more than m) is dropped unread; the others read every
    offset, in blocks, reduced by one scalar modulus at a time (numpy
    divides by a scalar far faster than by an array).
    """
    def classes(block, moduli):  # bit c of entry i set when an offset is c mod moduli[i]
        block = block.view(np.uint64)
        return [int(np.bitwise_or.reduce(np.uint64(1) << (block - block // m * m))) for m in map(np.uint64, moduli)]

    n, spans = len(offsets[0]), list(itertools.accumulate(int(o[-1]) for o in offsets))[1:]
    searched = [n ** k > 4 * span for k, span in enumerate(spans, 2)]
    ceiled = [search and span >= 64 * gap for search, span in zip(searched, spans)]
    moduli = [m for m in _CEILING_MODULI if m <= offsets[0][-1]]  # a wider m restates the window
    if not moduli or not any(ceiled):
        return [[] if search else None for search in searched]
    heads = [classes(o[:_RESIDUE_PREFIX], moduli) for o in offsets[:2]]
    kept = [m for m, p, q in zip(moduli, *heads) if p.bit_count() + q.bit_count() <= m
            and _bits.cyclic_fold([_bits.decode(p, 0), _bits.decode(q, 0)], m) != (1 << m) - 1]
    terms = []  # terms[i][j]: the classes of term i mod kept[j]
    for o in offsets if kept else ():
        masks = [0] * len(kept)
        for i in range(0, len(o), _RESIDUE_VALUES):
            masks = [a | b for a, b in zip(masks, classes(o[i:i + _RESIDUE_VALUES], kept))]
        terms.append([_bits.decode(mask, 0) for mask in masks])
    stages = [[(m, _bits.cyclic_fold([t[j] for t in terms[:k]], m)) for j, m in enumerate(kept)]
              for k in range(2, len(offsets) + 1)]
    return [[(m, mask) for m, mask in stage if mask != (1 << m) - 1] if ceil else [] if search else None
            for stage, search, ceil in zip(stages, searched, ceiled)]


def _ceiling(length: int, images: list[tuple[int, int]]) -> np.ndarray:
    """length words of the AND of the images' lifts: bit p set when p mod m is in each image (m, mask)."""
    ceiling = np.broadcast_to(~np.uint64(0), length)
    for m, mask in images:
        bits = math.lcm(m, 64)  # one period, a whole number of words
        period = mask * ((1 << bits) - 1) // ((1 << m) - 1)  # mask repeated every m bits
        words = np.frombuffer(period.to_bytes(bits // 8, "little"), "<u8")
        lift = np.tile(words, -(-length // len(words)))[:length]
        lift &= ceiling
        ceiling = lift
    return ceiling


def _limbs(term: list[int], k: int) -> np.ndarray:
    """The term's offsets as a (k, len(term)) int64 array of 62-bit limbs, low limb first.

    Offsets are taken in Python ints: the terms that come here span 2**63
    or more, and k >= 2 limbs hold them.
    """
    offsets = [x - term[0] for x in term]
    low = [[x >> j * _LIMB_BITS & _LIMB_MASK for x in offsets] for j in range(k - 1)]
    return np.array(low + [[x >> (k - 1) * _LIMB_BITS for x in offsets]], np.int64)


def affine_canonical(a: FiniteIntSet | Iterable[int]) -> FiniteIntSet:
    """Translate to min 0 and divide by the gcd of the nonzero elements.

    The result is the unique representative of A under translation and
    positive dilation; |A| >= 2 required.  x -> (x - min A)/g with g > 0 is
    increasing, so the result is sorted and distinct as A is.
    """
    a = _as_set(a)
    if len(a) < 2:
        raise ValueError("affine canonical form needs at least two elements")
    lo = a.elements[0]
    shifted = [x - lo for x in a.elements]
    g = 0
    for x in shifted:
        g = math.gcd(g, x)
    return FiniteIntSet._from_sorted([x // g for x in shifted])


def canonical_pair(a: FiniteIntSet | Iterable[int]) -> FiniteIntSet:
    """Equivalence key under the full affine group (negative dilations too).

    Lexicographic minimum of the canonical forms of A and of -A; two sets
    are affinely equivalent exactly when their keys are equal.
    """
    a = _as_set(a)
    c1 = affine_canonical(a)
    c2 = affine_canonical(a.reflect())
    return c1 if c1.elements <= c2.elements else c2


def amplify(form_f: LinearForm, form_g: LinearForm,
            a: FiniteIntSet | Iterable[int]) -> tuple[int, FiniteIntSet]:
    """Square both image cardinalities at once: A_M = A + M*A.

    M is the smallest integer exceeding twice the largest absolute value
    in A, f(A) and g(A); this guarantees |A_M| = |A|^2, |f(A_M)| = |f(A)|^2
    and |g(A_M)| = |g(A)|^2.  The images are not formed: each term c*A is
    sorted, so min f(A) and max f(A) are the sums of the terms' first and
    last elements, and a largest absolute value is at one of those ends.
    A_M = {x + M*y} is listed by y, then x, already sorted and distinct:
    |x - x'| <= 2*max|A| < M, so x + M*y < x' + M*y' whenever y < y'.
    """
    if form_f.arity != form_g.arity:
        raise ValueError("both forms must have the same arity")
    a = _as_set(a)
    ends = [a[0], a[-1], *_ends(form_f.coefficients, a), *_ends(form_g.coefficients, a)]
    big_m = 2 * max(map(abs, ends)) + 1
    return big_m, FiniteIntSet._from_sorted([x + big_m * y for y in a.elements for x in a.elements])


# ---------------------------------------------------------------------------
# serialization: one integer per line (read and written) or a JSON array (read)

def set_to_text(a: FiniteIntSet) -> str:
    """One integer per line."""
    return "\n".join(str(x) for x in a.elements) + "\n"


def set_from_text(text: str) -> FiniteIntSet:
    """Parse one integer per line; '#' starts a comment, blank lines ignored; ValueError if none remain."""
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            values.append(int(body))
        except ValueError:
            raise ValueError(f"line {lineno}: not an integer: {body!r}") from None
    return FiniteIntSet(values)


def set_from_json(text: str) -> FiniteIntSet:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("JSON set form must be an array of integers")
    return FiniteIntSet(data)
