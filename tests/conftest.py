import numpy as np
import pytest
from hypothesis import settings

import moelab as ml

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic; deadlines are off because numpy's first calls are slow.
settings.register_profile("moelab", derandomize=True, deadline=None)
settings.load_profile("moelab")


# sparse-2d's truth: k* = 3 on [-1, 1]^2 with a top-2 gate
TRUTH_2D = dict(
    beta0=[-0.5, 0.3, 0.0], beta1=[[4.0, 0.0], [-2.0, 3.5], [0.0, 0.0]],
    a=[[2.0, -1.0], [-1.5, 2.0], [0.5, 0.5]], b=[1.0, -1.0, 0.0], sigma=[0.3, 0.4, 0.5],
)
BOX_2D = [[-1.0, 1.0], [-1.0, 1.0]]


def plain_logsumexp(scores):
    """The masked log-sum-exp over components with plain np.exp, as it was
    before the floor-clamped ``model._exp``: the reference it must equal."""
    m = np.max(scores, axis=0)
    return m + np.log(np.sum(np.exp(scores - m), axis=0))


@pytest.fixture
def bench_truth():
    """The two-component benchmark truth used by the rate experiments."""
    return ml.true_measure(
        beta0=[-8.0, 0.0],
        beta1=[[25.0], [0.0]],
        a=[[-20.0], [20.0]],
        b=[15.0, -5.0],
        sigma=[0.3, 0.4],
    )


def random_measure(rng, k, d=1, pinned=False):
    """A random fitted-style measure; pin the last component on request."""
    beta0 = rng.normal(0.0, 1.0, size=k)
    beta1 = rng.normal(0.0, 2.0, size=(k, d))
    a = rng.normal(0.0, 2.0, size=(k, d))
    b = rng.normal(0.0, 2.0, size=k)
    sigma = np.exp(rng.normal(-0.5, 0.4, size=k))
    if pinned:
        beta0[-1] = 0.0
        beta1[-1] = 0.0
    return ml.MixingMeasure.from_arrays(beta0, beta1, a, b, sigma)


def selected(G, x, K):
    """The region of x: the indices of the gate's nonzero weights there."""
    return tuple(np.flatnonzero(np.isfinite(ml.gate_log_weights(G, np.reshape(x, (1, -1)), K)[:, 0])))
