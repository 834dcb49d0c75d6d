"""A closed-form oracle for `decoding_ratio`.

In sequential mode with no short-range loss, a member can decode only
if the cloud's cellular receptions span the generation, and once they
do, cooperation completes within its budget. So a one-generation
session's ratio is 0 or 1, and with N = ceil(r * g) plan packets, each
delivered with probability 1 - p,

    E[ratio] = sum_k Binom(N, k; 1 - p) * P_span(g, k).

The plan sends distinct nonzero uniform vectors, so the k delivered are
a uniform k-subset of the q^g - 1 nonzero vectors, and P_span(g, k), the
chance that they span GF(q)^g, follows by Moebius inversion over the
subspace lattice (Trullols-Cruces, Barcelo-Ordinas & Fiore, "Exact
Decoding Probability Under Random Linear Network Coding", IEEE Comm.
Letters 2011, with subsets in place of independent draws):

    P_span(g, k) = sum_j (-1)^(g-j) q^C(g-j, 2) [g choose j]_q
                   C(q^j - 1, k) / C(q^g - 1, k),

[g choose j]_q being the Gaussian binomial, q = 256. The simulated mean
must lie within 3 standard errors of the prediction. The error is the
prediction's own Bernoulli one, sqrt(P (1 - P) / sessions): a sample
whose every ratio is 0 has a sample error of 0.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from mscsim.engine import RunSeed
from mscsim.ncc import CooperativeCloud, SessionConfig, run_session
from mscsim.rlnc import Generation

Q = 256
G = 16
LOSS = 0.3


def gaussian_binomial(n: int, k: int, q: int = Q) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def p_span(g: int, k: int, q: int = Q) -> Fraction:
    """Chance that k distinct nonzero uniform vectors span GF(q)^g."""
    total = sum((-1) ** (g - j) * q ** math.comb(g - j, 2)
                * gaussian_binomial(g, j, q) * math.comb(q ** j - 1, k)
                for j in range(g + 1))
    return Fraction(total, math.comb(q ** g - 1, k))


def predicted_ratio(g: int, redundancy: float, loss: float) -> float:
    n = math.ceil(redundancy * g)
    return sum(math.comb(n, k) * (1 - loss) ** k * loss ** (n - k)
               * float(p_span(g, k)) for k in range(g, n + 1))


def test_p_span_on_small_cases():
    for k in range(1, 6):
        assert p_span(1, k) == 1
    assert p_span(2, 1) == 0            # too few vectors to span
    assert p_span(2, 2) == 1 - Fraction(254, 65534)
    assert p_span(G, G - 1) == 0


@pytest.mark.parametrize("members, sessions, redundancy", [
    (1, 2000, 1.0),
    (1, 2000, 1.25),
    (1, 2000, 1.5),
    (4, 500, 1.25),
    (4, 500, 1.5),
])
def test_the_mean_decoding_ratio_matches_the_closed_form(members, sessions,
                                                          redundancy):
    cloud = CooperativeCloud(range(1, members + 1), head_id=1)
    config = SessionConfig((Generation(0, np.zeros((G, 0), np.uint8)),),
                           redundancy=redundancy, cellular_loss=LOSS)
    seed = RunSeed(7)
    channel_rng, coding_rng = seed.channel(), seed.coding()
    ratios = [run_session(cloud, config, channel_rng=channel_rng,
                          coding_rng=coding_rng).decoding_ratio
              for _ in range(sessions)]
    assert set(ratios) <= {0.0, 1.0}
    predicted = predicted_ratio(G, redundancy, LOSS)
    error = math.sqrt(predicted * (1 - predicted) / sessions)
    assert abs(np.mean(ratios) - predicted) <= 3 * error
