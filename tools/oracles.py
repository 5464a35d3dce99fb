"""Regenerate the frozen high-precision oracle constants used in tests.

Run from the repository root:

    python3 tools/oracles.py

The printed values are copied verbatim into the test suite; tests compare
the production code (double precision, numpy) against these independently
derived numbers rather than against itself.
"""

import mpmath as mp

mp.mp.dps = 50


def log_beta_fn(x, y):
    return mp.loggamma(x) + mp.loggamma(y) - mp.loggamma(x + y)


def log_prior(x, prior):
    """Log hyperprior density up to a constant, as ``benchuq.bhm`` drops it.

    ``("exponential", rate)`` gives log rate - rate x; ``("truncated_normal",
    mu, sigma)`` gives -((x - mu) / sigma)^2 / 2; ``("fixed",)`` gives 0.
    """
    kind, *args = prior
    if kind == "exponential":
        rate = mp.mpf(args[0])
        return mp.log(rate) - rate * x
    if kind == "truncated_normal":
        mu, sigma = (mp.mpf(v) for v in args)
        return -((x - mu) / sigma) ** 2 / 2
    return mp.mpf(0)


def log_posterior(alpha, beta, Y, N, prior_a, prior_b):
    """Arbitrary-precision collapsed log density of one model's (log alpha, log beta).

    sum_j log B(alpha + Y_j, beta + N_j - Y_j) - T log B(alpha, beta)
    + log alpha + log beta + log prior(alpha) + log prior(beta), the density
    in the ``benchuq.bhm`` module docstring.
    """
    alpha, beta = mp.mpf(alpha), mp.mpf(beta)
    out = sum(log_beta_fn(alpha + y, beta + n - y) for y, n in zip(Y, N))
    out -= len(Y) * log_beta_fn(alpha, beta)
    return out + mp.log(alpha) + mp.log(beta) + log_prior(alpha, prior_a) + log_prior(beta, prior_b)


# (case, prior of alpha, prior of beta, (alpha, beta) points) on the table
# with Y = (60, 150, 20) of N = (100, 200, 50).
LOG_POSTERIOR_CASES = (
    ("exponential", ("exponential", "0.0001"), ("exponential", "0.0001"),
     ((2, 1.5), (130, 90))),
    ("truncated-normal", ("truncated_normal", 20, 10), ("truncated_normal", 10, 5),
     ((13, 8), (400, 250))),
    ("fixed-beta", ("exponential", "0.0001"), ("fixed",), ((2, 7), (130, 7))),
)
TABLE = ((60, 150, 20), (100, 200, 50))


def quantile_type7(values, p):
    """Inclusive linear-interpolation quantile, 1-based Hyndman-Fan type 7."""
    s = sorted(mp.mpf(v) for v in values)
    h = (len(s) - 1) * mp.mpf(p)
    lo = int(mp.floor(h))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


if __name__ == "__main__":
    print("# collapsed log posterior, Y = (60, 150, 20), N = (100, 200, 50)")
    for case, prior_a, prior_b, points in LOG_POSTERIOR_CASES:
        for a, b in points:
            v = log_posterior(a, b, *TABLE, prior_a, prior_b)
            print(f"{case} alpha={a} beta={b}: {mp.nstr(v, 18)}")

    print("# percentile interval of {1..100} at level 0.834")
    lo = quantile_type7(range(1, 101), (1 - mp.mpf("0.834")) / 2)
    hi = quantile_type7(range(1, 101), 1 - (1 - mp.mpf("0.834")) / 2)
    print(f"({mp.nstr(lo, 12)}, {mp.nstr(hi, 12)})")
