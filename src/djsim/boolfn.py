"""Boolean promise functions, subfunction decompositions, and structural statistics.

A Deutsch-Jozsa instance is a Boolean function f: {0,1}^n -> {0,1} promised to be
either constant or balanced.  Splitting off the last t input bits decomposes f
into 2^t subfunctions f_w(u) = f(uw); the counting statistics of those
subfunctions (delta, Delta, and the B/C/E counters) decide constant vs balanced
without ever looking at f globally.

Index conventions used throughout the package:

* A truth table is stored with integer index x = the input string read
  big-endian, so f(x) = table[x].
* An input splits as x = u . w with w the last t bits, hence
  f_w(u) = table[(u << t) | w] where w is the integer value of the suffix.
* Subfunction pairs are formed by the low-order bit of w: pair p consists of
  f at w = 2p (even) and w = 2p + 1 (odd).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

# Full enumeration beyond this arity is rejected (the balanced family grows as
# a central binomial coefficient); use random_balanced_table for larger n.
MAX_ENUMERATION_ARITY = 5
MAX_ARITY = 24


# Table byte -> ASCII digit of the packed table: "0" for 0, "1" for anything else.
_BIT_CHARS = b"0" + b"1" * 255
# ASCII digit -> table byte: "0" to 0, "1" to 1, any other byte to 2, which the 0/1 check rejects.
_DIGIT_BITS = bytes({ord("0"): 0, ord("1"): 1}.get(c, 2) for c in range(256))


class Promise(enum.Enum):
    """Label attached to a truth table: the promise class it belongs to."""

    CONSTANT = "constant"
    BALANCED = "balanced"
    UNKNOWN = "unknown"


class Verdict(enum.Enum):
    """Outcome of a structural classifier."""

    CONSTANT = "constant"
    BALANCED = "balanced"
    PROMISE_VIOLATED = "promise violated"

    def matches(self, promise: Promise) -> bool:
        return self.value == promise.value


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of f: {0,1}^n -> {0,1} with its detected promise label.

    ``table`` holds one byte per input, value 0 or 1, indexed by the input
    string read as a big-endian integer.
    """

    n: int
    table: bytes
    promise: Promise

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def popcount(self) -> int:
        return self.table.count(1)

    def value(self, x: int) -> int:
        return self.table[x]

    def digest(self) -> str:
        """Compact identifier: arity plus the table packed as hex."""
        width = (self.size + 3) // 4
        packed = int(self.table.translate(_BIT_CHARS), 2)
        return f"{self.n}:{packed:0{width}x}"

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.table, dtype=np.uint8)


def make_function(n: int, table: Union[Sequence[int], str, bytes]) -> BooleanFunction:
    """Build a BooleanFunction from a truth table, auto-detecting the promise.

    Accepts a sequence of 0/1 ints, a string of '0'/'1' characters, or bytes of
    0/1 values.  Rejects tables whose length is not exactly 2^n.
    """
    if not 1 <= n <= MAX_ARITY:
        raise ValueError(f"arity must be in [1, {MAX_ARITY}], got {n}")
    if isinstance(table, str):
        bits = table.encode("ascii", "replace").translate(_DIGIT_BITS)
    else:
        bits = bytes(table)
    if len(bits) != 1 << n:
        raise ValueError(f"truth table must have length 2^{n} = {1 << n}, got {len(bits)}")
    ones = bits.count(1)
    if ones + bits.count(0) != len(bits):
        raise ValueError("truth table entries must be 0 or 1")
    if ones == 0 or ones == len(bits):
        promise = Promise.CONSTANT
    elif ones == len(bits) // 2:
        promise = Promise.BALANCED
    else:
        promise = Promise.UNKNOWN
    return BooleanFunction(n=n, table=bits, promise=promise)


@dataclass(frozen=True)
class Decomposition:
    """View of a function as 2^t subfunctions f_w(u) = f(uw), w the last t bits."""

    base: BooleanFunction
    t: int

    def __post_init__(self) -> None:
        if not 1 <= self.t < self.base.n:
            raise ValueError(f"split size t must satisfy 1 <= t < n, got t={self.t}, n={self.base.n}")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def num_subfunctions(self) -> int:
        return 1 << self.t

    @property
    def u_bits(self) -> int:
        return self.base.n - self.t

    def value(self, w: int, u: int) -> int:
        return self.base.table[(u << self.t) | w]

    def sub_table(self, w: int) -> bytes:
        """Truth table of f_w over u in {0,1}^(n-t)."""
        if not 0 <= w < self.num_subfunctions:
            raise ValueError(f"subfunction index must be in [0, {self.num_subfunctions}), got {w}")
        arr = self.base.as_array().reshape(-1, self.num_subfunctions)
        return arr[:, w].tobytes()


@dataclass(frozen=True)
class StructureStats:
    """Counting statistics of one decomposition.

    ``delta[u]`` is the count difference |{w: f_w(u)=0}| - |{w: f_w(u)=1}|.
    The E counters pair subfunctions by the low-order bit of w; ``big_delta``
    is E00 - E11 per u.  B/C/M are the two-node (t=1) counters and are None
    for t > 1.
    """

    n: int
    t: int
    delta: tuple[int, ...]
    big_delta: tuple[int, ...]
    e00: tuple[int, ...]
    e01: tuple[int, ...]
    e10: tuple[int, ...]
    e11: tuple[int, ...]
    k: tuple[int, ...]
    d_total: int
    b00: Optional[int] = None
    b01: Optional[int] = None
    b10: Optional[int] = None
    b11: Optional[int] = None
    c00: Optional[int] = None
    c01: Optional[int] = None
    c10: Optional[int] = None
    c11: Optional[int] = None
    m: Optional[int] = None

    @property
    def delta_sum(self) -> int:
        return sum(self.delta)

    @property
    def big_delta_sum(self) -> int:
        return sum(self.big_delta)


def compute_stats(d: Decomposition) -> StructureStats:
    """Populate every structural counter of a decomposition."""
    t, nu = d.t, 1 << d.u_bits
    rows = d.base.as_array().reshape(nu, 1 << t).astype(np.int64)

    delta = (1 << t) - 2 * rows.sum(axis=1)

    even = rows[:, 0::2]
    odd = rows[:, 1::2]
    e00 = ((1 - even) * (1 - odd)).sum(axis=1)
    e01 = ((1 - even) * odd).sum(axis=1)
    e10 = (even * (1 - odd)).sum(axis=1)
    e11 = (even * odd).sum(axis=1)
    big_delta = e00 - e11
    k = e01 + e10
    d_total = int((e00 + e11).sum())

    extra: dict[str, int] = {}
    if t == 1:
        f0, f1 = rows[:, 0], rows[:, 1]
        extra = {
            "b00": int(((f0 == 0) & (f1 == 0)).sum()),
            "b01": int(((f0 == 0) & (f1 == 1)).sum()),
            "b10": int(((f0 == 1) & (f1 == 0)).sum()),
            "b11": int(((f0 == 1) & (f1 == 1)).sum()),
            "c00": int((f0 == 0).sum()),
            "c01": int((f0 == 1).sum()),
            "c10": int((f1 == 0).sum()),
            "c11": int((f1 == 1).sum()),
        }
        extra["m"] = extra["b00"] + extra["b11"]

    return StructureStats(
        n=d.n,
        t=t,
        delta=tuple(int(v) for v in delta),
        big_delta=tuple(int(v) for v in big_delta),
        e00=tuple(int(v) for v in e00),
        e01=tuple(int(v) for v in e01),
        e10=tuple(int(v) for v in e10),
        e11=tuple(int(v) for v in e11),
        k=tuple(int(v) for v in k),
        d_total=d_total,
        **extra,
    )


def classify_theorem1(stats: StructureStats) -> Verdict:
    """Two-node classifier from the B/C counters (t=1 only).

    Constant iff one of the subfunction pairs of C counters saturates 2^(n-1);
    balanced iff B00 = B11 = M/2.
    """
    if stats.t != 1 or stats.m is None:
        raise ValueError("theorem-1 classification requires a t=1 decomposition")
    half = 1 << (stats.n - 1)
    constant = (stats.c00 == half and stats.c10 == half) or (stats.c01 == half and stats.c11 == half)
    balanced = stats.b00 == stats.b11 == stats.m // 2 and stats.m % 2 == 0
    if constant:
        return Verdict.CONSTANT
    if balanced:
        return Verdict.BALANCED
    return Verdict.PROMISE_VIOLATED


def classify_theorem2(stats: StructureStats) -> Verdict:
    """Classifier from delta: constant iff delta is uniformly +-2^t, balanced iff it sums to zero."""
    full = 1 << stats.t
    if all(v == full for v in stats.delta) or all(v == -full for v in stats.delta):
        return Verdict.CONSTANT
    if stats.delta_sum == 0:
        return Verdict.BALANCED
    return Verdict.PROMISE_VIOLATED


def classify_theorem3(stats: StructureStats) -> Verdict:
    """Classifier from Delta: constant iff Delta is uniformly +-2^(t-1), balanced iff it sums to zero."""
    half = 1 << (stats.t - 1)
    if all(v == half for v in stats.big_delta) or all(v == -half for v in stats.big_delta):
        return Verdict.CONSTANT
    if stats.big_delta_sum == 0:
        return Verdict.BALANCED
    return Verdict.PROMISE_VIOLATED


def corollary_witness(d: Decomposition) -> Optional[int]:
    """Smallest u witnessing a balancedness-forcing condition, or None.

    A witness is any u with |delta(u)| != 2^t, |Delta(u)| != 2^(t-1), or (at
    t=1, equivalently) f_0(u) != f_1(u).  For promise functions, absence of a
    witness implies f is constant.
    """
    stats = compute_stats(d)
    full = 1 << d.t
    half = 1 << (d.t - 1)
    for u in range(1 << d.u_bits):
        if abs(stats.delta[u]) != full or abs(stats.big_delta[u]) != half:
            return u
    return None


def _popcounts(values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    v = values.copy()
    while v.any():
        out += v & 1
        v >>= 1
    return out


def enumerate_promise_functions(n: int) -> Iterator[BooleanFunction]:
    """Yield every promise function of arity n exactly once: the tables of ``packed_promise_tables``, unpacked.

    Order: the two constants (all-zero then all-one), then balanced tables in
    ascending order of the table read as a big-endian integer.
    """
    for block in packed_promise_tables(n):
        for row in unpack_tables(block, n).astype(np.uint8):
            yield make_function(n, row.tobytes())


def packed_promise_tables(n: int) -> Iterator[np.ndarray]:
    """The promise family of arity n as packed int64 tables, in blocks.

    A packed table is the truth table read as a big-endian integer (bit
    2^n - 1 - x is f(x)).  Blocks come out in ascending order: the two
    constants, then for each value of the high half of the table, in
    ascending order, the low halves that balance it.  The low halves are
    sorted once per popcount, so neither the family nor the range 2^(2^n) is
    ever held in memory.
    """
    if n > MAX_ENUMERATION_ARITY:
        raise ValueError(
            f"full enumeration is limited to n <= {MAX_ENUMERATION_ARITY} "
            f"(C(2^{n}, 2^{n - 1}) balanced functions); sample with random_balanced_table instead"
        )
    size = 1 << n
    low_bits = size // 2
    yield np.array([0, (1 << size) - 1], dtype=np.int64)
    lows = np.arange(1 << low_bits, dtype=np.int64)
    weights = _popcounts(lows)
    by_weight = [lows[weights == k] for k in range(low_bits + 1)]
    for high in range(1 << (size - low_bits)):
        need = size // 2 - high.bit_count()
        if 0 <= need <= low_bits:
            yield (high << low_bits) | by_weight[need]


def unpack_tables(packed: np.ndarray, n: int) -> np.ndarray:
    """Packed tables as rows of 0/1 int64 truth tables, shape (tables, 2^n)."""
    shifts = np.arange((1 << n) - 1, -1, -1, dtype=np.int64)
    return (packed[:, None] >> shifts) & 1


def count_promise_functions(n: int) -> int:
    return 2 + math.comb(1 << n, 1 << (n - 1))


def random_balanced_table(n: int, rng: np.random.Generator) -> BooleanFunction:
    """Uniformly random balanced function of arity n."""
    size = 1 << n
    bits = np.zeros(size, dtype=np.uint8)
    bits[rng.choice(size, size=size // 2, replace=False)] = 1
    return make_function(n, bits.tobytes())
