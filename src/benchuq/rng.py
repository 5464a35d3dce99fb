"""Reproducible random substreams for Monte Carlo work.

Every stochastic component derives its generator from a master seed plus a
small integer key, via numpy's ``SeedSequence`` spawn-key mechanism.  The
derivation is frozen: stream ``(seed, purpose, *indices)`` always yields the
same PCG64 state, independent of the order streams are created in.  This is
what makes bootstrap replicates, BHM draws, and rank-noise draws
bit-reproducible whatever order they are evaluated in.

Purpose constants (first key component):

====================  ===  ========================================
BOOTSTRAP              0   one stream per block of 64 replicates, drawn
                           cell-major
(retired)              1   once one stream per MCMC chain
RANK_NOISE             2   one stream per rank table, drawn sample-major
(retired)              3   once count-synthesis jitter
(retired)              4   once posterior predictive draws
(retired)              5   once synthetic test data
QUADRATURE             6   one stream per BHM chain: one block of uniforms
                           choosing every model's grid cells and jittering
                           them, then the conjugate theta draws
====================  ===  ========================================

Retired keys are never reused, and the others are never renumbered:
renumbering would move every stream.
"""

from __future__ import annotations

import numpy as np

BOOTSTRAP = 0
RANK_NOISE = 2
QUADRATURE = 6

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
