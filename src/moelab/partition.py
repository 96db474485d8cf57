"""Input-space regions induced by the gating slopes, estimated by Monte Carlo.

A region is identified by the *set* of selected indices, not their order,
matching the subset-based definition of the gate's winning regions.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .model import MixingMeasure, _as_rows, _check_sparsity, _project, _selection_mask

# Draws behind the positive-mass flag of the sweeps and of ``moelab loss``.
MASS_N_MC = 20000


def _selections(sampler, n_mc: int, seed, *gates):
    """Top-K masks, shape (k, n_mc), of each ``(G, K)`` in ``gates`` at the
    same n_mc inputs drawn by ``sampler`` from a fresh rng seeded ``seed``,
    which must be finite.  So must every logit beta1 . x: overflowed logits
    would tie, and NaN ones select more than K components."""
    if n_mc < 1:
        raise InvalidArgumentError("n_mc must be >= 1")
    for G, K in gates:
        _check_sparsity(K, G.k)
    X = _as_rows(sampler(np.random.default_rng(seed), n_mc), gates[0][0].d)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed logit is rejected below
        logits = [_project(G.beta1, X) for G, _ in gates]
    for L in logits:
        bad = ~np.isfinite(L).all(axis=0)
        if bad.any():
            raise InvalidArgumentError(f"the gating logits beta1 . x overflow at the sampled input "
                                       f"{X[np.argmax(bad)].tolist()}")
    return [_selection_mask(L, K) for L, (_, K) in zip(logits, gates)]


def positive_mass_subsets(G: MixingMeasure, K: int, sampler, n_mc: int, seed=0):
    """Selected sets whose estimated region mass clears the measure-zero flag
    of 2/n_mc, i.e. sets chosen at two or more of the n_mc sampled inputs.

    Returns sorted index tuples.  Each selection is counted by its bit code
    in an int64, so k is capped at 63.
    """
    (mask,) = _selections(sampler, n_mc, seed, (G, K))
    if G.k > 63:
        raise InvalidArgumentError(f"positive_mass_subsets needs k <= 63, got k={G.k}")
    bits = 1 << np.arange(G.k)
    codes, counts = np.unique(bits @ mask, return_counts=True)
    return sorted(tuple(np.flatnonzero(code & bits).tolist()) for code in codes[counts >= 2])


def partition_match_rate(G_true: MixingMeasure, G_fit: MixingMeasure, K: int, sampler, n_mc: int,
                         seed=0) -> float:
    """Fraction of sampled x at which the fit's top-K selected set equals the
    truth's.  The sets are compared index by index, so the fit needs the
    truth's number of components, and its input dimension."""
    if (G_fit.k, G_fit.d) != (G_true.k, G_true.d):
        raise InvalidArgumentError(f"partition match needs the truth's k and d, got k={G_fit.k}, d={G_fit.d} "
                                   f"for k*={G_true.k}, d*={G_true.d}")
    true_mask, fit_mask = _selections(sampler, n_mc, seed, (G_true, K), (G_fit, K))
    return float(np.mean(np.all(fit_mask == true_mask, axis=0)))
