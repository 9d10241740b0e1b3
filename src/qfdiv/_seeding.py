"""NumPy's ``SeedSequence`` hash, run once across a chunk of spawn keys.

``SeedSequence(seed, spawn_key=(*prefix, i)).generate_state(4, np.uint64)``
is O'Neill's ``seed_seq_fe`` hash (O'Neill, "PCG", HMC-CS-2014-0905; NumPy
NEP 19): entropy assembly, ``mix_entropy``, then ``generate_state``.  Its
multipliers and steps do not depend on the data, so it runs here as uint32
array arithmetic over every index of a chunk at once.  Every step before
the index word is the same for the whole chunk, so it runs once on Python
ints masked to 32 bits; only the mixing of the index word and the output
are done per row.

``states.substreams`` imports this module on its first call, so importing
qfdiv neither builds the hash nor loads ``numpy.random``.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .errors import StreamsConsumed

POOL_SIZE = 4
# words of generate_state(4, np.uint64) seen as uint32
STATE_WORDS = 8
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
MASK32 = 0xFFFFFFFF


def _words(n):
    """Little-endian uint32 words of a nonnegative int; 0 is one zero word."""
    out = [n & MASK32]
    n >>= 32
    while n:
        out.append(n & MASK32)
        n >>= 32
    return out


# The hash steps take 32-bit words as Python ints or uint32 arrays; the masks
# keep Python ints in range and are no-ops on the arrays, which wrap.


def _hashmix(value, const, mult):
    """One hash step; returns the hashed word and the next multiplier."""
    value = value ^ const
    const = const * mult & MASK32
    value = value * const & MASK32
    return value ^ (value >> XSHIFT), const


def _mix(x, y):
    r = ((x * MIX_MULT_L & MASK32) - (y * MIX_MULT_R & MASK32)) & MASK32
    return r ^ (r >> XSHIFT)


def _entropy(seed, prefix, indices):
    """Entropy columns of ``SeedSequence(seed, spawn_key=(*prefix, i))``: the
    seed's words, zero-padded to the pool size because the spawn key is never
    empty, then the prefix's words, then the index column."""
    run = _words(seed)
    run += [0] * (POOL_SIZE - len(run))
    spawn = [w for part in prefix for w in _words(part)]
    return run + spawn + [indices]


def _pool(entropy):
    """``SeedSequence.mix_entropy`` on entropy columns of at least
    ``POOL_SIZE`` words."""
    const = INIT_A
    pool = []
    for word in entropy[:POOL_SIZE]:
        word, const = _hashmix(word, const, MULT_A)
        pool.append(word)
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                word, const = _hashmix(pool[src], const, MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            word, const = _hashmix(extra, const, MULT_A)
            pool[dst] = _mix(pool[dst], word)
    return pool


def seed_states(seed, prefix, indices):
    """``(B, 4)`` uint64: row b is ``SeedSequence(seed, spawn_key=(*prefix,
    indices[b])).generate_state(4, np.uint64)``.

    ``seed`` and the ``prefix`` parts are nonnegative ints; ``indices`` is a
    ``(B,)`` uint32 array.
    """
    pool = _pool(_entropy(seed, prefix, indices))
    const = INIT_B
    words = []
    for i in range(STATE_WORDS):
        word, const = _hashmix(pool[i % POOL_SIZE], const, MULT_B)
        words.append(word)
    state = np.stack(words, axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Hands a bit generator one precomputed row of ``seed_states``; it
    serves only PCG64's ``generate_state(4, np.uint64)`` request."""

    __slots__ = ("state",)

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


class Generators:
    """One ``Generator(PCG64)`` per index, each seeded from its row of
    ``seed_states`` when iteration reaches it: the sized, one-pass iterable
    that ``states.substreams`` returns."""

    __slots__ = ("_states", "_used")

    def __init__(self, seed, prefix, indices):
        self._states = seed_states(seed, prefix, indices)
        self._used = False

    def __len__(self):
        return len(self._states)

    def __iter__(self):
        if self._used:
            raise StreamsConsumed("these substreams were already iterated; "
                                  "take list(...) to draw from them again")
        self._used = True
        return (Generator(PCG64(_SeedWords(row))) for row in self._states)
