"""Counter-based random stream derivation.

Every random stream in the library is a pure function of a tuple of
non-negative integers: a user-facing seed, a domain tag, and zero or
more indices (iteration, learner, trial).  Two call sites that build a
stream from the same tuple get bit-identical draws; streams built from
different tuples are statistically independent.  This is what makes
simulated trajectories replayable and lets a sweep add cells without
perturbing the streams of existing ones.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

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
    for part in entropy:
        if part < 0:
            raise ValueError(f"entropy components must be >= 0, got {part}")
    return np.random.SeedSequence(entropy)


def stream(*entropy: int) -> np.random.Generator:
    """Fresh Generator for an entropy tuple.  Pure: same tuple, same draws."""
    return np.random.default_rng(seed_sequence(*entropy))


# Batched derivation.  numpy's SeedSequence hashing and PCG64's seeding
# step are fixed by its stream-compatibility policy (NEP 19), so they are
# reimplemented here to derive many streams' states in one vectorized pass;
# `stream` stays the reference they are tested against.  Constants from
# numpy/random/bit_generator.pyx and numpy/random/src/pcg64/pcg64.h.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _int_words(n: int) -> list[int]:
    """SeedSequence's uint32 words of one entropy int, least significant first."""
    if n < 0:
        raise ValueError(f"entropy components must be >= 0, got {n}")
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


def seed_words(prefix: tuple[int, ...], rows) -> np.ndarray:
    """PCG64 seed words of `stream(*prefix, *row)` for every row, in one pass.

    `rows` is an (n, m) array of indices, each a single 32-bit word;
    prefix ints may span several words.  Column j of the (4, n) uint64
    result equals `seed_sequence(*prefix, *rows[j]).generate_state(4,
    np.uint64)`; `pcg64_states` turns columns into bit-generator states.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or (rows.size and rows.dtype.kind not in "iu"):
        raise ValueError(f"rows must be a 2-d integer array, got shape {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() > _MASK32):
        raise ValueError("index columns must be single 32-bit words in 0..2**32-1")
    entropy = [w for part in prefix for w in _int_words(part)]
    entropy += list(rows.T.astype(np.uint64))
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
    words = np.empty((4, len(rows)), dtype=np.uint64)
    for j in range(4):
        words[j] = halves[2 * j] | (halves[2 * j + 1] << 32)
    return words


def pcg64_states(words: np.ndarray) -> list[dict]:
    """PCG64 bit-generator states seeded by the columns of `seed_words`.

    PCG64's srandom step in 128-bit Python int arithmetic: the first two
    words are the initial state and the last two the stream selector,
    high word first.
    """
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*words.tolist()):
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        })
    return states


def generators(states: Iterable[dict]) -> Iterator[np.random.Generator]:
    """One Generator set to each state in turn.

    The same Generator object is yielded every time, so draw from it
    before asking for the next.
    """
    rng = np.random.Generator(np.random.PCG64(0))  # seed irrelevant: every state replaces it
    for state in states:
        rng.bit_generator.state = state
        yield rng
