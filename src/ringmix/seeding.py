"""Counter-based random stream derivation.

Every random stream in the library is a pure function of a tuple of
non-negative integers: a user-facing seed, a domain tag, and zero or
more indices (iteration, learner, trial).  Two call sites that build a
stream from the same tuple get bit-identical draws; streams built from
different tuples are statistically independent.  This is what makes
simulated trajectories replayable and lets a sweep add cells without
perturbing the streams of existing ones.

Many-stream consumers (the training loop, the Monte Carlo trials) derive
the PCG64 states of many streams, one for each index their columns of
indices broadcast to, in one vectorized pass (`stream_states`) and draw
each from one module-held Generator reseated at that state (`_reseated`)
rather than from a freshly built one.  Those rngs are one shared object,
so a consumer must finish with each stream before it takes the next.  The
reseat writes numpy's state struct in place; if that write fails its
check, it goes through the public `bit_generator.state` setter.
`bounded_integers` draws bounded integers from many state rows at once,
bit-identical to each stream's `integers`: every row's raw 64-bit outputs
come from PCG64's step and output in closed form (`_raw_outputs`), one
vectorized pass with no reseat, and only a row it must redraw is reseated
and drawn by `integers`.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from ._checks import _require

# Domain tags.  Fixed forever: changing one silently reseeds every
# consumer, which breaks replay of recorded runs.
TAG_GRADIENT = 0     # minibatch sampling / gradient noise, indexed (iteration, learner)
TAG_PERMUTATION = 1  # shared ring permutation, indexed (iteration,)
TAG_CLOCK = 2        # compute-time draws, indexed (iteration,)
TAG_INIT = 3         # initial weights, no index
TAG_TRIAL = 4        # Monte-Carlo trial streams, indexed (trial,)
TAG_CELL = 5         # sweep cell seeds, indexed (strategy_id, n_learners, trial)
TAG_DATA = 6         # oracle-owned randomness (datasets, drawn optima), no index


def seed_sequence(*entropy: int) -> np.random.SeedSequence:
    """SeedSequence for an entropy tuple of non-negative integers."""
    return np.random.SeedSequence(tuple(_require("entropy", n, ">= 0", int) for n in entropy))


def stream(*entropy: int) -> np.random.Generator:
    """Fresh Generator for an entropy tuple.  Pure: same tuple, same draws."""
    return np.random.default_rng(seed_sequence(*entropy))


# Batched derivation.  numpy's SeedSequence hashing is fixed by its
# stream-compatibility policy (NEP 19), so it is reimplemented here to
# derive many streams' seed words in one vectorized pass; so are PCG64's
# seeding from them (`_seed_in_place`) and its step and output
# (`_raw_outputs`).  `stream` stays the reference they are tested against.
# Constants from numpy/random/bit_generator.pyx.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _int_words(n: int) -> list[int]:
    """SeedSequence's uint32 words of one entropy int, least significant first."""
    n = _require("entropy", n, ">= 0", int)
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _xorshift(value):
    return value ^ (value >> 16)


class _HashMix:
    """SeedSequence's hashmix with its running multiplier.

    Values are Python ints or uint64 arrays holding uint32 words; products
    of two words fit in 64 bits and are masked back to 32.
    """

    def __init__(self):
        self.const = _INIT_A

    def __call__(self, value):
        value = value ^ self.const
        self.const = self.const * _MULT_A & _MASK32
        return _xorshift(value * self.const & _MASK32)


def _mix(x, y):
    # uint64 differences wrap modulo 2**64, a multiple of 2**32.
    return _xorshift((_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32)


def seed_words(prefix: tuple[int, ...], *columns) -> np.ndarray:
    """PCG64 seed words of `stream(*prefix, *index)` for every index of the
    broadcast integer columns c_1, ..., c_m (each index a single 32-bit
    word; prefix ints may span several words), in one pass: entry i of the
    uint64 result, shaped as the broadcast plus a last axis of 4, is
    `seed_sequence(*prefix, c_1[i], ..., c_m[i]).generate_state(4,
    np.uint64)`.  A tag in the prefix rather than in a column of one value
    gives the same streams, hashed faster.
    """
    columns = [np.asarray(column) for column in columns]
    if any(c.size and (c.dtype.kind not in "iu" or c.min() < 0 or c.max() > _MASK32)
           for c in columns):
        raise ValueError("index columns must hold integers, single 32-bit words in 0..2**32-1")
    entropy = [w for part in prefix for w in _int_words(part)]
    # A trailing axis keeps a 0-d column an array: numpy scalars warn when they wrap.
    entropy += [column.astype(np.uint64)[..., None] for column in columns]
    # SeedSequence.mix_entropy: fill the pool, mix every word into every
    # other, then fold in the entropy beyond the pool.
    hashmix = _HashMix()
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # SeedSequence.generate_state(4, uint64): eight uint32 words, paired
    # little-endian into four uint64 words.
    const = _INIT_B
    halves = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        halves.append(_xorshift(value * const & _MASK32))
    words = np.empty((*np.broadcast_shapes(*(c.shape for c in columns)), 4), dtype=np.uint64)
    for j in range(4):
        words[..., j:j + 1] = halves[2 * j] | (halves[2 * j + 1] << 32)
    return words


# In-place reseating.  Building a PCG64 and its Generator for a stream costs
# about as much as the stream's draw, so every consumer instead reseats one
# module-held PCG64 at the stream's state row: it writes the row's {state,
# inc} over the PCG64 state struct (numpy/random/src/pcg64/pcg64.h) and
# clears its cached half-word.  The struct is numpy-internal, so
# `_shared_rng` checks the write against the public `state` setter and
# a draw once per process and, when they differ, `_reseated` reseats the
# same Generator through that setter instead.
_PCG64_MULT_HI, _PCG64_MULT_LO = 2549297995355413924, 4865540595714422341
_PCG64_MULT = _PCG64_MULT_HI << 64 | _PCG64_MULT_LO


def _mulhi(a: np.ndarray, b) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b of uint64 words (b an int
    or an array that broadcasts against a), from 32-bit halves."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    cross0, cross1 = a0 * b1, a1 * b0
    middle = (a0 * b0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (middle >> 32)


def _mul_add(x_lo, x_hi, m_lo, m_hi, a_lo, a_hi) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) halves of x m + a mod 2**128 for uint64 halves that broadcast
    against each other: the one 128-bit multiply-add of PCG64's seeding and
    of its step (uint64 arithmetic wraps modulo 2**64)."""
    product_lo = x_lo * m_lo
    lo = product_lo + a_lo
    return lo, _mulhi(x_lo, m_lo) + x_lo * m_hi + x_hi * m_lo + a_hi + (lo < product_lo)


def _seed_in_place(words: np.ndarray) -> np.ndarray:
    """Overwrite each row of `seed_words` with the PCG64 state it seeds, in
    one vectorized pass, and return the array.

    PCG64 seeds itself from the words (s_hi, s_lo, i_hi, i_lo) as
    inc = 2 i + 1 and state = ((inc + s) MULT + inc) mod 2**128, done here
    on 64-bit halves (uint64 arithmetic wraps modulo 2**64).  A row becomes
    (state_lo, state_hi, inc_lo, inc_hi): the words of that seeded
    {state, inc} in a little-endian host's memory.
    """
    # Slices, not columns: one stream's words would be numpy scalars, which warn when they wrap.
    s_hi, s_lo, i_hi, i_lo = (words[..., j:j + 1] for j in range(4))
    inc_lo, inc_hi = i_lo << 1 | 1, i_hi << 1 | i_lo >> 63
    t_lo = inc_lo + s_lo
    t_hi = inc_hi + s_hi + (t_lo < inc_lo)
    state_lo, state_hi = _mul_add(t_lo, t_hi, _PCG64_MULT_LO, _PCG64_MULT_HI, inc_lo, inc_hi)
    for j, column in enumerate((state_lo, state_hi, inc_lo, inc_hi)):
        words[..., j:j + 1] = column
    return words


def stream_states(prefix: tuple[int, ...], *columns) -> np.ndarray:
    """PCG64 states of the streams of `seed_words(prefix, *columns)`, in its
    shape; `_reseated` draws from them as (n, 4) rows."""
    return _seed_in_place(seed_words(prefix, *columns))


def _set_state(rng: np.random.Generator, row: np.ndarray) -> None:
    """Reseat `rng` at one state row through the public `bit_generator.state`
    setter, with no cached half-word."""
    state, inc = (int(row[j + 1]) << 64 | int(row[j]) for j in (0, 2))
    rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state, "inc": inc}}


def _reseat_guard(rng: np.random.Generator, state: np.ndarray, half_word: np.ndarray) -> bool:
    """True when writing a state row through `state` and `half_word` reseats
    `rng`, which holds a cached half-word, exactly as `_set_state` does."""
    row = _seed_in_place(np.full((1, 4), 2**64 - 1, dtype=np.uint64))[0]  # every half carries
    reference = np.random.Generator(np.random.PCG64(0))
    _set_state(reference, row)
    state[:] = row
    half_word[0] = 0
    if rng.bit_generator.state != reference.bit_generator.state:
        return False
    return bool(np.array_equal(rng.standard_normal(2), reference.standard_normal(2)))


@functools.cache
def _shared_rng():
    """The module-held Generator and writable uint64 views of its {state, inc}
    and of its (has_uint32, uinteger) word; None for the views when they do
    not read back the public state or their write fails `_reseat_guard`."""
    import ctypes

    rng = np.random.Generator(np.random.PCG64(0))
    # A cached half-word (has_uint32 = 1), for the views and the guard to see.
    rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": 1, "uinteger": 0x5EED}
    public = rng.bit_generator.state
    # pcg64_state: {pcg64_random_t *pcg_state; int has_uint32; uint32_t uinteger}
    address = rng.bit_generator.ctypes.state_address
    header = np.frombuffer((ctypes.c_uint64 * 2).from_address(address), dtype=np.uint64)
    if int(header[1]) != public["has_uint32"] | public["uinteger"] << 32:
        return rng, None
    state = np.frombuffer((ctypes.c_uint64 * 4).from_address(int(header[0])), dtype=np.uint64)
    expected = [public["state"][key] >> shift & (2**64 - 1)
                for key in ("state", "inc") for shift in (0, 64)]
    if state.tolist() != expected:
        return rng, None
    half_word = header[1:]
    return rng, ((state, half_word) if _reseat_guard(rng, state, half_word) else None)


def _reseated(rows: np.ndarray) -> Iterator[np.random.Generator]:
    """A Generator for each state row (`stream_states`), drawing as the
    `stream` that row was derived for.

    Every one is the same module-held Generator, reseated as the next is
    taken, so a consumer must finish with each stream before it takes the
    next.  The reseat writes the row in place or, if that failed its check,
    goes through `_set_state`.
    """
    rng, views = _shared_rng()
    if views is None:
        for row in rows:
            _set_state(rng, row)
            yield rng
        return
    state, half_word = views
    for row in rows:
        state[:] = row
        half_word[0] = 0
        yield rng


# Closed-form outputs.  A PCG64 draw steps the state as the LCG
# s' = (MULT s + inc) mod 2**128 and then outputs XSL-RR of the new state,
# rotr64(hi ^ lo, hi >> 58) (pcg64.h; fixed by NEP 19 as its seeding is).
# So output j (from 0) of a freshly seeded {state, inc} is XSL-RR of
# A_{j+1} state + C_{j+1} inc, where A_k = MULT**k and C_k = sum_{i<k} MULT**i
# (an LCG's jump ahead), and every output of every row is one pass.

def _jumps(outputs: int) -> np.ndarray:
    """uint64 halves A_lo, A_hi, C_lo, C_hi of A_k and C_k for k = 1 .. outputs,
    as the rows of a (4, outputs) array."""
    a, c, jumps = 1, 0, []
    for _ in range(outputs):
        a, c = a * _PCG64_MULT % 2**128, (c * _PCG64_MULT + 1) % 2**128
        jumps.append((a % 2**64, a >> 64, c % 2**64, c >> 64))
    return np.array(jumps, dtype=np.uint64).reshape(outputs, 4).T


def _raw_outputs(rows: np.ndarray, outputs: int) -> np.ndarray:
    """`random_raw(outputs)` of the stream of each state row (`stream_states`),
    as one (len(rows), outputs) uint64 array computed over the whole grid."""
    a_lo, a_hi, c_lo, c_hi = _jumps(outputs)
    state_lo, state_hi, inc_lo, inc_hi = (rows[:, j:j + 1] for j in range(4))
    lo, hi = _mul_add(state_lo, state_hi, a_lo, a_hi, *_mul_add(inc_lo, inc_hi, c_lo, c_hi, 0, 0))
    word, rotation = hi ^ lo, hi >> 58
    return word >> rotation | word << ((64 - rotation) & 63)


def bounded_integers(rows: np.ndarray, bounds, count: int) -> np.ndarray:
    """`integers(0, bounds[i], count)` of the stream of each state row i
    (`stream_states`), as one (len(rows), count) int64 array.

    A Generator draws below a bound n <= 2**32 by Lemire's method: each
    32-bit word w (the low half of a 64-bit output, then its high half)
    gives (w n) >> 32, unless the product's low word is below 2**32 % n,
    when it takes another word.  Here each row's first ceil(count / 2)
    outputs, which a freshly seeded stream reads with no cached half-word,
    are computed in closed form for the whole block at once
    (`_raw_outputs`), and so is the multiply; no row is reseated for them.
    Only a row with a rejected word, or with a bound over 2**32, is reseated
    (`_reseated`) and drawn by `integers` itself.  A bound of 1 gives 0.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.shape != (len(rows),) or (bounds.size and bounds.min() < 1):
        raise ValueError(f"bounds must hold one integer >= 1 for each of the {len(rows)} rows")
    outputs = -(-count // 2)
    raw = _raw_outputs(rows, outputs)
    words = np.stack((raw & _MASK32, raw >> 32), axis=-1).reshape(len(rows), 2 * outputs)[:, :count]
    n = np.minimum(bounds, 2**32).astype(np.uint64)[:, None]
    products = words * n  # below 2**64: both factors are at most 2**32
    picks = (products >> 32).astype(np.int64)
    redraw = np.flatnonzero((bounds > 2**32) | np.any((products & _MASK32) < 2**32 % n, axis=1))
    for i, rng in zip(redraw, _reseated(rows[redraw])):
        picks[i] = rng.integers(0, bounds[i], count)
    return picks
