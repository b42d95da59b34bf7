"""The simulation's random stream: ``numpy.random.default_rng`` in pure Python.

Every stochastic decision of the model (pilot placement and preemption,
node speeds, replica placement, the job schedule) draws from a
:class:`RandomStream`.  It reproduces numpy 2.4.6's ``default_rng(seed)``
bit for bit (SeedSequence mixing into PCG64 XSL-RR) for exactly the
methods the model uses, so a scenario process never imports numpy and
its payloads do not depend on numpy's version (NEP 19 lets a
``Generator`` method's algorithm change between releases).  They still
depend on the platform's ``exp``/``log1p`` through the exponential's
rare rejection paths.

Functions that take a stream are duck-typed: a ``numpy.random.Generator``
seeded the same way draws the same values.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from math import exp, isfinite, log1p
from typing import List, Optional, Sequence

from ._ziggurat import FE, KE, TAIL_R, WE

__all__ = ["RandomStream"]

_M32 = 0xFFFF_FFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: PCG's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: Scale of a 53-bit integer onto [0, 1).
_TO_UNIT = 1.0 / 9007199254740992.0
#: numpy's tolerance for ``choice``'s probabilities summing to 1.
_P_ATOL = 1.4901161193847656e-08


def _seed_words(seed: int) -> List[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    entropy = []
    while True:
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    mult_a = 0x931E8875
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value = ((value ^ hash_a) * hash_a * mult_a) & _M32
        hash_a = (hash_a * mult_a) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ (r >> 16)

    # mix_entropy: hash the words into a 4-word pool, then cross-mix.
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(extra))
    # generate_state: eight 32-bit words, paired low-first into uint64s.
    hash_b = 0x8B51F9DD
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = (hash_b * 0x58F38DED) & _M32
        value = (value * hash_b) & _M32
        halves.append(value ^ (value >> 16))
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


class RandomStream:
    """``numpy.random.default_rng(seed)``'s draws for a non-negative int.

    Implemented: :meth:`random`, :meth:`uniform`, :meth:`integers`,
    :meth:`exponential`, :meth:`permutation` and two forms of
    :meth:`choice` (weighted single draw; sample without replacement).
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        w = _seed_words(int(seed))
        initstate = w[0] << 64 | w[1]
        self._inc = (w[2] << 64 | w[3]) << 1 & _M128 | 1
        self._state = ((self._inc + initstate) * _PCG_MULT
                       + self._inc) & _M128
        #: Upper half of the last 64-bit output, owed to the next 32-bit
        #: draw (numpy's ``has_uint32``/``uinteger``).
        self._half: Optional[int] = None

    # -- raw outputs ------------------------------------------------------

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        rot = s >> 122
        x = ((s >> 64) ^ s) & _M64
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def _bounded(self, top: int) -> int:
        """Uniform on ``[0, top]`` for ``top < 2**32 - 1``: numpy's
        Lemire rejection on the buffered 32-bit outputs."""
        if top == 0:
            return 0
        excl = top + 1
        m = self._next32() * excl
        if m & _M32 < excl:
            threshold = (_M32 - top) % excl
            while m & _M32 < threshold:
                m = self._next32() * excl
        return m >> 32

    def _interval(self, top: int) -> int:
        """Uniform on ``[0, top]`` for ``top < 2**32`` by masked rejection
        (numpy's ``random_interval``, the shuffle's draw)."""
        mask = (1 << top.bit_length()) - 1
        while True:
            value = self._next32() & mask
            if value <= top:
                return value

    def _shuffle_tail(self, items: List[int], first: int) -> None:
        """numpy's ``_shuffle_int``: the Fisher–Yates steps for positions
        ``len(items) - 1`` down to ``first``, with Lemire draws."""
        for i in range(len(items) - 1, first - 1, -1):
            j = self._bounded(i)
            items[i], items[j] = items[j], items[i]

    def _standard_exponential(self) -> float:
        while True:
            ri = self._next64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * WE[idx]
            if ri < KE[idx]:
                return x
            if idx == 0:
                return TAIL_R - log1p(-self.random())
            if (FE[idx - 1] - FE[idx]) * self.random() + FE[idx] < exp(-x):
                return x

    # -- numpy Generator methods -------------------------------------------

    def random(self) -> float:
        """A float on ``[0, 1)``."""
        return (self._next64() >> 11) * _TO_UNIT

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A float on ``[low, high)``."""
        span = high - low
        if not isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
        return low + span * self.random()

    def integers(self, low: int, high: Optional[int] = None) -> int:
        """An int on ``[low, high)``, or on ``[0, low)`` alone.  Ranges of
        ``2**32`` values or more take numpy's 64-bit paths, which the
        model never needs and this stream does not implement."""
        if high is None:
            low, high = 0, low
        if high <= low:
            raise ValueError("low >= high" if low else "high <= 0")
        if high - low > _M32:
            raise ValueError("ranges of 2**32 or more values are not "
                             "implemented")
        return low + self._bounded(high - 1 - low)

    def exponential(self, scale: float = 1.0,
                    size: Optional[int] = None):
        """One exponential draw with mean ``scale``, or a list of
        ``size`` of them."""
        if scale < 0:
            raise ValueError("scale < 0")
        if size is None:
            return scale * self._standard_exponential()
        return [scale * self._standard_exponential() for _ in range(size)]

    def permutation(self, n: int) -> List[int]:
        """A random ordering of ``range(n)``."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._interval(i)
            items[i], items[j] = items[j], items[i]
        return items

    def choice(self, n: int, size: Optional[int] = None,
               replace: bool = True,
               p: Optional[Sequence[float]] = None):
        """``choice(n, p=p)``: one index drawn with probabilities ``p``;
        ``choice(n, size=k, replace=False)``: ``k`` distinct indices.

        The weighted draw follows numpy's cumulative sum, normalisation
        and right-sided search, so it matches numpy exactly whenever
        ``p`` is computed the same way on both sides (``w / sum(w)`` with
        integer-valued ``w`` is).
        """
        if replace and size is None and p is not None:
            if len(p) != n:
                raise ValueError("a and p must have same size")
            cdf = list(accumulate(p))
            total = cdf[-1]
            if abs(total - 1.0) > _P_ATOL:
                raise ValueError("probabilities do not sum to 1")
            cdf = [c / total for c in cdf]
            return bisect_right(cdf, self.random())
        if not replace and size is not None and p is None:
            return self._sample(n, size)
        raise TypeError("supported: choice(n, p=...) and "
                        "choice(n, size=k, replace=False)")

    def _sample(self, n: int, k: int) -> List[int]:
        if not 0 <= k <= n:
            raise ValueError("sample size must be in [0, n] when replace "
                             "is False")
        if n > 10_000 and k > n // 50:
            # Tail shuffle: the last k slots of a partial shuffle.
            items = list(range(n))
            self._shuffle_tail(items, max(n - k, 1))
            return items[n - k:]
        # Floyd's algorithm (numpy keeps the picked set in its own hash
        # table; membership is all that matters), then a shuffle.
        picked = set()
        picks = []
        for j in range(n - k, n):
            val = self._bounded(j)
            if val in picked:
                val = j
            picked.add(val)
            picks.append(val)
        self._shuffle_tail(picks, 1)
        return picks
