"""Input-space regions induced by the gating slopes.

A region is identified by the *set* of selected indices, not their order,
matching the subset-based definition of the gate's winning regions.  Region
volumes are only ever estimated by Monte Carlo; exact polyhedral volumes are
out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import InvalidArgumentError
from .model import MixingMeasure, _selection_mask, gate_log_weights

MAX_REGIONS = 10**6


@dataclass(frozen=True)
class RegionSpec:
    """A K-subset of component indices and its complement."""

    selected: tuple
    complement: tuple

    def __post_init__(self):
        sel = tuple(sorted(int(i) for i in self.selected))
        comp = tuple(sorted(int(i) for i in self.complement))
        if set(sel) & set(comp):
            raise InvalidArgumentError("selected and complement must be disjoint")
        if set(sel) | set(comp) != set(range(len(sel) + len(comp))):
            raise InvalidArgumentError("selected + complement must cover 0..k-1")
        object.__setattr__(self, "selected", sel)
        object.__setattr__(self, "complement", comp)

    @property
    def k(self) -> int:
        return len(self.selected) + len(self.complement)


def region_of(G: MixingMeasure, x, K: int) -> RegionSpec:
    """The region spec whose selected set wins the top-K ranking at x."""
    selected = np.isfinite(gate_log_weights(G, np.reshape(x, (1, -1)), K)[:, 0])
    return RegionSpec(selected=np.flatnonzero(selected), complement=np.flatnonzero(~selected))


def enumerate_regions(k: int, K: int):
    """All C(k, K) region specs in lexicographic order of the selected set."""
    if not 1 <= K <= k:
        raise InvalidArgumentError(f"need 1 <= K <= k, got K={K}, k={k}")
    if comb(k, K) > MAX_REGIONS:
        raise InvalidArgumentError(f"C({k},{K}) exceeds the {MAX_REGIONS} region cap")
    full = set(range(k))
    return [
        RegionSpec(selected=sel, complement=tuple(sorted(full - set(sel))))
        for sel in combinations(range(k), K)
    ]


def region_mass(G: MixingMeasure, spec: RegionSpec, K: int, sampler, n_mc: int, seed=0) -> float:
    """Monte-Carlo estimate of P(X lands in the region of ``spec``).

    Masses below 2/n_mc flag a (near-)measure-zero region.
    """
    if n_mc < 1:
        raise InvalidArgumentError("n_mc must be >= 1")
    rng = np.random.default_rng(seed)
    X = np.asarray(sampler(rng, n_mc), dtype=float)
    mask = _selection_mask(G.beta1 @ X.T, K)
    target = np.zeros(G.k, dtype=bool)
    target[list(spec.selected)] = True
    return float(np.mean(np.all(mask == target[:, None], axis=0)))


def positive_mass_subsets(G: MixingMeasure, K: int, sampler, n_mc: int, seed=0):
    """Selected sets whose estimated region mass clears the measure-zero flag
    of 2/n_mc, i.e. sets chosen at two or more of the n_mc sampled inputs.

    Returns sorted index tuples.  Each selection is counted by its bit code
    in an int64, so k is capped at 63.
    """
    if n_mc < 1:
        raise InvalidArgumentError("n_mc must be >= 1")
    if G.k > 63:
        raise InvalidArgumentError(f"positive_mass_subsets needs k <= 63, got k={G.k}")
    rng = np.random.default_rng(seed)
    X = np.asarray(sampler(rng, n_mc), dtype=float)
    bits = 1 << np.arange(G.k)
    codes, counts = np.unique(bits @ _selection_mask(G.beta1 @ X.T, K), return_counts=True)
    return sorted(tuple(np.flatnonzero(code & bits).tolist()) for code in codes[counts >= 2])


def partition_match_rate(
    G_true: MixingMeasure,
    G_fit: MixingMeasure,
    assignment,
    K: int,
    K_bar: int,
    sampler,
    n_mc: int,
    seed=0,
) -> float:
    """Fraction of sampled x whose fitted selection corresponds to the true one.

    With ``assignment=None`` (exact-specified) the fitted selected set must
    equal the true selected set, so K_bar must equal K.  With a Voronoi
    assignment (over-specified) the fitted set is compared against the union
    of the cells of the true selected components.
    """
    if n_mc < 1:
        raise InvalidArgumentError("n_mc must be >= 1")
    rng = np.random.default_rng(seed)
    X = np.asarray(sampler(rng, n_mc), dtype=float)
    true_mask = _selection_mask(G_true.beta1 @ X.T, K)
    fit_mask = _selection_mask(G_fit.beta1 @ X.T, K_bar)
    if assignment is None:
        if G_fit.k != G_true.k or K_bar != K:
            raise InvalidArgumentError("identity comparison needs k'=k* and K_bar=K")
        return float(np.mean(np.all(fit_mask == true_mask, axis=0)))
    cell_matrix = np.zeros((G_true.k, G_fit.k), dtype=bool)
    for j, cell in enumerate(assignment.cells):
        for i in cell:
            cell_matrix[j, i] = True
    target = cell_matrix.T @ true_mask  # boolean or over the selected cells
    return float(np.mean(np.all(fit_mask == target, axis=0)))
