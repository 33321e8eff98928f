"""Deterministic, splittable random streams.

Every experiment is driven by a single master seed. Independent substreams
(one per trial, per pipeline stage, ...) are derived by feeding the master
seed plus an integer path into ``numpy.random.SeedSequence``, so results are
identical no matter how trials are ordered or distributed across workers.

``draw_rows`` computes the first bounded integers of many trials' streams at
once, bit for bit what each trial's own ``stream`` gives: numpy's
SeedSequence hash (O'Neill's seed_seq_fe), PCG64 seeding and its XSL-RR
output (O'Neill 2014), the half-word buffer of ``next_uint32`` and Lemire's
(2019) multiply-shift for each bound, all as array passes over the rows.
Rare rows (a Lemire rejection, a trial id or bound of 2^32 or more) are drawn
by ``stream`` itself, and every call draws its first array row through
``stream`` too and checks it, so a numpy whose streams differ fails loudly.
"""

from __future__ import annotations

import operator

import numpy as np
import numpy.random  # noqa: F401 (numpy loads it lazily; load it here, not in a trial)

# Fixed component tags keep substreams of different pipeline stages disjoint.
WALK = 1
WALK2 = 2
TOUR = 3
SOLUTION = 4
SUBSET = 5
METRIC = 6
TREE = 7


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for a (master seed, path) address.

    The same address always yields the same stream; distinct addresses yield
    statistically independent streams.
    """
    if master_seed < 0 or any(p < 0 for p in path):
        raise ValueError("seed path components must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence((master_seed, *path)))


_M32 = 0xFFFFFFFF
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
# PCG64's 128-bit LCG multiplier, as (high, low) words and the low word's halves.
_PCG_HI, _PCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_PCG_LO1, _PCG_LO0 = np.uint64(0x4385DF64), np.uint64(0x9FCCF645)
_U16, _U32, _U58, _U63 = np.uint32(16), np.uint64(32), np.uint64(58), np.uint64(63)
_LOW32 = np.uint64(_M32)


def draw_rows(master_seed: int, tag: int, trials, bounds) -> np.ndarray:
    """The (len(trials), len(bounds)) int64 array whose row i holds
    ``[g.integers(b) for b in bounds]``, drawn in order from
    ``g = stream(master_seed, tag, trials[i])``. A bound of 1 draws 0 and
    consumes nothing, as in numpy."""
    ids = [operator.index(i) for i in trials]
    bounds = [operator.index(b) for b in bounds]
    if master_seed < 0 or tag < 0 or min(ids, default=0) < 0:
        raise ValueError("seed path components must be nonnegative")
    if min(bounds, default=1) < 1:
        raise ValueError("bounds must be positive")
    out = np.zeros((len(ids), len(bounds)), dtype=np.int64)
    if not ids:
        return out
    if max(bounds, default=1) > _M32:
        flagged = np.ones(len(ids), dtype=bool)
    else:
        flagged = np.array([i > _M32 for i in ids])
        low = np.array([i & _M32 for i in ids], dtype=np.uint32)
        cols = [c for c, b in enumerate(bounds) if b > 1]
        b = np.array([bounds[c] for c in cols], dtype=np.uint64)
        scaled = _uint32_words(_entropy_words(master_seed, tag, low), len(cols)) * b
        out[:, cols] = scaled >> _U32
        # Lemire rejects a leftover below (2^32 - b) mod b and draws again
        flagged |= ((scaled & _LOW32) < (2 ** 32 - b) % b).any(axis=1)
    checked = np.flatnonzero(~flagged)[:1]
    for i in np.concatenate([checked, np.flatnonzero(flagged)]).tolist():
        g = stream(master_seed, tag, ids[i])
        row = [int(g.integers(b)) for b in bounds]
        if not flagged[i] and row != out[i].tolist():
            raise RuntimeError(
                f"draw_rows disagrees with numpy {np.__version__}'s stream at address "
                f"({master_seed}, {tag}, {ids[i]}): {out[i].tolist()} != {row}")
        out[i] = row
    return out


def _entropy_words(master_seed: int, tag: int, trial: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's entropy words for (master_seed, tag, trial), each a
    uint32 array over the rows: every int is split into little-endian 32-bit
    words (0 into one word), and ``trial`` is below 2^32."""
    words = []
    for value in (master_seed, tag):
        words.append(value & _M32)
        while value > _M32:
            value >>= 32
            words.append(value & _M32)
    return [np.full(len(trial), w, dtype=np.uint32) for w in words] + [trial]


def _uint32_words(entropy: list[np.ndarray], count: int) -> np.ndarray:
    """The first ``count`` ``next_uint32`` words of each row's PCG64 stream,
    as a (rows, count) uint64 array."""
    pool = _mix_entropy(entropy)
    # generate_state(4, uint64): 8 hashed pool words, paired little-endian
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _M32
        value *= np.uint32(hash_const)
        state.append((value ^ (value >> _U16)).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (state[2 * j] | state[2 * j + 1] << _U32
                                        for j in range(4))
    # pcg64_set_seed: inc = 2 * initseq + 1, then step, add the seed, step
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> _U63
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    hi, lo = _add128(seed_hi, seed_lo, inc_hi, inc_lo)
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    words = np.empty((len(hi), count + count % 2), dtype=np.uint64)
    for k in range(0, count, 2):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output; next_uint32 hands out its low half, then its high half
        rot, x = hi >> _U58, hi ^ lo
        out = x >> rot | x << (-rot & _U63)
        words[:, k] = out & _LOW32
        words[:, k + 1] = out >> _U32
    return words[:, :count]


def _mix_entropy(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's 4-word pool of each row's entropy words."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _M32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _U16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_L * x - _MIX_R * y
        return result ^ (result >> _U16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step on (high, low) uint64 words: state * MULT + inc,
    mod 2^128. The low words' 128-bit product is built from 32-bit halves."""
    lo1, lo0 = lo >> _U32, lo & _LOW32
    p00, p01 = lo0 * _PCG_LO0, lo0 * _PCG_LO1
    p10, p11 = lo1 * _PCG_LO0, lo1 * _PCG_LO1
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    prod_lo = mid << _U32 | p00 & _LOW32
    prod_hi = (p11 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
               + hi * _PCG_LO + lo * _PCG_HI)
    return _add128(prod_hi, prod_lo, inc_hi, inc_lo)
