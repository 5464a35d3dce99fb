"""Reproducible random substreams for Monte Carlo work.

Every stochastic component derives its generator from a master seed plus a
small integer key, via numpy's ``SeedSequence`` spawn-key mechanism.  The
derivation is frozen: stream ``(seed, purpose, *indices)`` always yields the
same PCG64 state, independent of the order streams are created in.  This is
what makes bootstrap replicates, MCMC chains, and rank-noise draws
bit-reproducible whatever order they are evaluated in.

Purpose constants (first key component):

====================  ===  ========================================
BOOTSTRAP              0   one stream per block of 64 replicates, drawn
                           cell-major
CHAIN                  1   one stream per MCMC chain; per sweep: the theta
                           draw, then for alpha and then for beta (unless
                           every model's prior on it is fixed) one block of
                           uniforms (level, window offset, budget split and
                           12 shrinkage proposals per model), plus one
                           uniform per later shrinkage round of each model
                           still pending
RANK_NOISE             2   one stream per sample for noisy ranking
(retired)              3   once count-synthesis jitter
PREDICTIVE             4   posterior predictive draws
(retired)              5   once synthetic test data
====================  ===  ========================================

Retired keys are never reused, and the others are never renumbered:
renumbering would move every stream.
"""

from __future__ import annotations

import numpy as np

BOOTSTRAP = 0
CHAIN = 1
RANK_NOISE = 2
PREDICTIVE = 4

_MASK64 = (1 << 64) - 1


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for substream ``key`` of master ``seed``.

    ``seed`` must be a nonnegative integer and is reduced modulo 2**64; key
    components must be nonnegative integers.  Identical arguments always
    produce an identical generator.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    ss = np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))
