"""The polynomial equation system governing over-specified convergence rates.

For a cell of size m in dimension d, the system imposes, for every multi-index
pair (eta1, eta2) with 0 <= |eta1| <= r, 0 <= eta2 <= r - |eta1| and
|eta1| + eta2 >= 1:

    sum_i sum_{alpha in J(eta1, eta2)}
        z5_i^2 z1_i^a1 z2_i^a2 z3_i^a3 z4_i^a4 / (a1! a2! a3! a4!)  =  0

where the index set J(eta1, eta2) is scale-doubled: it holds every alpha with a1 + a2 = eta1 and
a3 + 2*a4 = eta2 - |a2|.  One scale order counts as two intercept orders
because the scale derivative of the Gaussian density equals half its second
intercept derivative.  So the (eta1, eta2) residual is the coefficient of
u^eta1 s^eta2 in sum_i z5_i^2 exp(z1_i.u + (z2_i.u) s + z3_i s + z4_i s^2).

A solution is non-trivial when every z5_i is nonzero and at least one z3_i is
nonzero.  rbar(m) is the smallest order r at which no non-trivial solution
exists; the numerical searcher here is an empirical aid only and its failure
to find a solution proves nothing.

The system is held as one coefficient table per (d, r).  The residual vector
is one array evaluation over it, and the search's least-squares solver gets
the exact Jacobian, built from the same table with each exponent lowered in
turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from math import factorial, prod

import numpy as np
from scipy.optimize import least_squares

from .errors import InvalidArgumentError, UnsupportedValueError

EXACT_RBAR = {2: 4, 3: 6}


@dataclass(frozen=True)
class PolySystemInstance:
    """Cell size m, input dimension d and order cap r of one system."""

    m: int
    d: int
    r: int

    def __post_init__(self):
        if self.m < 2 or self.d < 1 or self.r < 1:
            raise InvalidArgumentError("need m >= 2, d >= 1, r >= 1")


@dataclass(frozen=True)
class PolyCandidate:
    """Candidate variables z1..z5; z1, z2 are (m, d), z3..z5 are (m,)."""

    z1: np.ndarray
    z2: np.ndarray
    z3: np.ndarray
    z4: np.ndarray
    z5: np.ndarray

    def __post_init__(self):
        z1 = np.atleast_2d(np.asarray(self.z1, dtype=float))
        z2 = np.atleast_2d(np.asarray(self.z2, dtype=float))
        z3 = np.asarray(self.z3, dtype=float).reshape(-1)
        z4 = np.asarray(self.z4, dtype=float).reshape(-1)
        z5 = np.asarray(self.z5, dtype=float).reshape(-1)
        m = z3.size
        if z1.shape[0] != m or z2.shape[0] != m or z4.size != m or z5.size != m:
            raise InvalidArgumentError("z1..z5 must agree on the number of components")
        if z1.shape != z2.shape:
            raise InvalidArgumentError("z1 and z2 must share their shape")
        for name, arr in (("z1", z1), ("z2", z2), ("z3", z3), ("z4", z4), ("z5", z5)):
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.z3.size

    @property
    def d(self) -> int:
        return self.z1.shape[1]

    def is_nontrivial(self, tol: float = 0.0) -> bool:
        """All z5 nonzero and at least one z3 nonzero (within tol)."""
        return bool(np.all(np.abs(self.z5) > tol) and np.any(np.abs(self.z3) > tol))


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total,
    first coordinate descending."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _equations(d: int, r: int) -> list:
    pure_gate = [(eta1, 0) for s in range(1, r + 1) for eta1 in _compositions(s, d)]
    pure_expert = [(tuple([0] * d), eta2) for eta2 in range(1, r + 1)]
    mixed = [
        (eta1, eta2)
        for s in range(1, r + 1)
        for eta1 in _compositions(s, d)
        for eta2 in range(1, r - s + 1)
    ]
    return pure_gate + pure_expert + mixed


def enumerate_equations(inst: PolySystemInstance):
    """All (eta1, eta2) pairs of the system, in a fixed deterministic order.

    eta1 is a d-tuple.  Order: the pure-eta1 equations by degree, then the
    pure-eta2 ones, then the mixed ones by (|eta1|, eta1, eta2).
    """
    return _equations(inst.d, inst.r)


@lru_cache(maxsize=None)
def _coefficient_table(d: int, r: int):
    """The order-r system in dimension d as one row per term of J.

    Returns ({(eta1, eta2): equation number}, the (2d + 2, terms) exponents
    of (z1_1, z2_1, ..., z1_d, z2_d, z3, z4), each term's alpha! and each
    term's equation number.  Equations run in enumerate_equations order, the
    terms of each in index-set order.  The table does not depend on m.
    """
    eqs = _equations(d, r)
    exps, denoms, rows = [], [], []
    for row, (eta1, eta2) in enumerate(eqs):
        for alpha2 in product(*(range(e + 1) for e in eta1)):
            alpha1 = tuple(e - a for e, a in zip(eta1, alpha2))
            rem = eta2 - sum(alpha2)
            for alpha4 in range(rem // 2 + 1):
                alpha3 = rem - 2 * alpha4
                exps.append((*chain.from_iterable(zip(alpha1, alpha2)), alpha3, alpha4))
                denoms.append(prod(map(factorial, (*alpha1, *alpha2, alpha3, alpha4))))
                rows.append(row)
    index = {eq: i for i, eq in enumerate(eqs)}
    return index, np.array(exps).T, np.array(denoms, dtype=float), np.array(rows)


@lru_cache(maxsize=None)
def _derivative_table(d: int, r: int):
    """The table's derivatives, one slot per differentiation variable.

    Returns (lowered, factors, weights).  Slot c < 2d + 2 is the derivative by
    column c of _coefficient_table: column c's exponent lowered by one (kept
    at 0 where it was 0) and that exponent as the term's multiplier.  The last
    slot is t = log z5, since d(z5^2)/dt = 2 z5^2: exponents unchanged,
    multiplier 2.  lowered is (slots, 2d + 2, terms) and factors (slots,
    terms); weights is the (equations, terms) matrix holding 1 / alpha! where
    the term belongs to the equation and 0 elsewhere.
    """
    _, exps, denoms, rows = _coefficient_table(d, r)
    n_cols, n_terms = exps.shape
    lowered = np.repeat(exps[None], n_cols + 1, axis=0)
    lowered[np.arange(n_cols), np.arange(n_cols)] = np.maximum(exps - 1, 0)
    factors = np.vstack([exps, np.full(n_terms, 2)]).astype(float)
    weights = np.zeros((rows[-1] + 1, n_terms))
    weights[rows, np.arange(n_terms)] = 1.0 / denoms
    return lowered, factors, weights


def _powers(inst: PolySystemInstance, cand: PolyCandidate) -> np.ndarray:
    """(r + 1, 2d + 2, m): every power 0..r of each table column, as ``column ** p``."""
    if cand.m != inst.m or cand.d != inst.d:
        raise InvalidArgumentError("candidate dimensions do not match the instance")
    cols = np.column_stack([np.dstack([cand.z1, cand.z2]).reshape(inst.m, -1), cand.z3, cand.z4]).T
    return np.stack([np.ones_like(cols)] + [cols**p for p in range(1, inst.r + 1)])


def _residuals(inst: PolySystemInstance, cand: PolyCandidate) -> np.ndarray:
    """Every equation's residual, in enumerate_equations order.

    Rounds exactly as summing one equation's terms at a time does: each power
    is ``column ** p`` with an int p, a term multiplies z5^2 by its factors in
    table order, sums over components and is divided by alpha!, and an
    equation adds its terms in index-set order.
    """
    powers = _powers(inst, cand)
    _, exps, denoms, rows = _coefficient_table(inst.d, inst.r)
    powers[:, 0] *= cand.z5**2  # every product starts with z5^2 times its first factor
    terms = np.prod(powers[exps, np.arange(powers.shape[1])[:, None]], axis=0)
    return np.bincount(rows, weights=terms.sum(axis=1) / denoms)


def residual(inst: PolySystemInstance, cand: PolyCandidate, eta1, eta2: int) -> float:
    """Exact left-hand side of the (eta1, eta2) equation at the candidate."""
    eq = (tuple(np.atleast_1d(eta1).tolist()), eta2)
    index = _coefficient_table(inst.d, inst.r)[0]
    if eq not in index:
        raise InvalidArgumentError(
            f"(eta1, eta2) = {eq} is not an equation of the order-{inst.r} system in d={inst.d}"
        )
    return float(_residuals(inst, cand)[index[eq]])


def residual_table(inst, cand):
    """(eta1, eta2, residual) rows in enumeration order."""
    values = _residuals(inst, cand)
    return [(eta1, eta2, float(v)) for (eta1, eta2), v in zip(enumerate_equations(inst), values)]


def max_abs_residual(inst, cand) -> float:
    return float(np.max(np.abs(_residuals(inst, cand))))


def _unpack(inst: PolySystemInstance, vec: np.ndarray) -> PolyCandidate:
    """The candidate at the search vector (z1, z2, z3, z4, t), with z5 = exp(t)."""
    m, d = inst.m, inst.d
    z1, z2, z3, z4, t = np.split(vec, np.cumsum([m * d, m * d, m, m]))
    return PolyCandidate(z1=z1.reshape(m, d), z2=z2.reshape(m, d), z3=z3, z4=z4, z5=np.exp(t))


def _objective(vec: np.ndarray, inst: PolySystemInstance, z3_floor: float) -> np.ndarray:
    """The search's residual vector: every equation, then the z3-floor penalty
    sqrt(max(z3_floor^2 - ||z3||^2, 0))."""
    cand = _unpack(inst, vec)
    slack = z3_floor**2 - float(np.sum(cand.z3**2))
    return np.append(_residuals(inst, cand), np.sqrt(max(slack, 0.0)))


def _jacobian(vec: np.ndarray, inst: PolySystemInstance, z3_floor: float) -> np.ndarray:
    """Exact Jacobian of _objective: (equations + 1, search variables)."""
    cand = _unpack(inst, vec)
    powers = _powers(inst, cand)
    lowered, factors, weights = _derivative_table(inst.d, inst.r)
    # slots[s, j, i]: term j's z5-free product, differentiated by slot s, at component i
    slots = factors[:, :, None] * np.prod(powers[lowered, np.arange(powers.shape[1])[:, None]], axis=1)
    grad = (weights @ slots) * cand.z5**2  # (slots, equations, m)
    n_eqs, m, d = weights.shape[0], inst.m, inst.d
    # slots 0..2d-1 alternate z1_c, z2_c; the search vector holds all of z1,
    # then all of z2, each (m, d) row-major, then z3, z4 and t
    gate = grad[: 2 * d].reshape(d, 2, n_eqs, m).transpose(1, 2, 3, 0).reshape(2, n_eqs, m * d)
    jac = np.zeros((n_eqs + 1, len(vec)))
    jac[:-1] = np.hstack([gate[0], gate[1], grad[2 * d :].transpose(1, 0, 2).reshape(n_eqs, 3 * m)])
    slack = z3_floor**2 - float(np.sum(cand.z3**2))
    if slack > 0.0:
        jac[-1, 2 * m * d : 2 * m * d + m] = -cand.z3 / np.sqrt(slack)
    return jac


SEARCH_TOL = 1e-10  # the largest max |residual| the search accepts
Z3_FLOOR = 0.3  # the search's penalty keeps ||z3|| above this


def search_nontrivial(inst: PolySystemInstance, restarts: int, seed):
    """Randomized multistart search for a verified non-trivial solution.

    z5 is parameterized as exp(t) so it can never vanish (only z5^2 enters the
    equations, so the sign is irrelevant); a penalty keeps ||z3|| above
    ``Z3_FLOOR`` so the minimizer cannot retreat to the trivial z3 = 0 family.
    Each restart runs a bounded trust-region least-squares solve with the
    exact Jacobian from the coefficient table.  Returns the first candidate
    whose exact max |residual| is <= ``SEARCH_TOL`` and whose z3 clears half
    the floor, or None.  Absence of a returned candidate is NOT a proof that
    the system is unsolvable.
    """
    if restarts < 1:
        raise InvalidArgumentError("restarts must be >= 1")
    m, n_gate = inst.m, inst.m * inst.d
    n_vars = 2 * n_gate + 3 * m
    lo = np.full(n_vars, -6.0)
    hi = np.full(n_vars, 6.0)
    lo[2 * n_gate + 2 * m :] = -2.0
    hi[2 * n_gate + 2 * m :] = 2.0

    ss = np.random.SeedSequence(seed)
    for child in ss.spawn(restarts):
        rng = np.random.default_rng(child)
        x0 = np.concatenate(
            [
                rng.normal(0.0, 1.0, size=2 * n_gate),
                rng.normal(0.0, 1.5, size=2 * m),
                rng.uniform(-1.0, 1.0, size=m),
            ]
        )
        sol = least_squares(
            _objective, x0, jac=_jacobian, bounds=(lo, hi), args=(inst, Z3_FLOOR),
            xtol=1e-15, ftol=1e-15, gtol=1e-15,
        )
        cand = _unpack(inst, sol.x)
        if max_abs_residual(inst, cand) <= SEARCH_TOL and cand.is_nontrivial(tol=Z3_FLOOR * 0.5):
            return cand
    # every restart failed verification; report nothing rather than a bad candidate
    return None


def constructive_witness_m2(c: float = 1.0, d: int = 1) -> PolyCandidate:
    """The two-component family z1 = z2 = 0, z3 = (c, -c), z4 = (-c^2/2, -c^2/2),
    z5 = (1, 1).

    With the gating variables zeroed, the (0, eta2) residual is the eta2-th
    coefficient of sum_i exp(z3_i t + z4_i t^2); this choice cancels every
    coefficient through t^3 and leaves -c^4/6 at t^4, so it solves every
    system of order <= 3 but no higher.
    """
    zeros = np.zeros((2, d))
    return PolyCandidate(
        z1=zeros, z2=zeros.copy(),
        z3=np.array([c, -c]),
        z4=np.array([-c * c / 2.0, -c * c / 2.0]),
        z5=np.array([1.0, 1.0]),
    )


def rbar(m: int, policy: str = "exact") -> int:
    """Smallest system order with no non-trivial solution, for a size-m cell.

    ``exact`` serves the published table (4 for m=2, 6 for m=3) and refuses
    anything else; ``conjecture`` returns 2m for every m >= 2.
    """
    if m < 2:
        raise InvalidArgumentError(f"rbar needs m >= 2, got {m}")
    if policy == "exact":
        if m in EXACT_RBAR:
            return EXACT_RBAR[m]
        raise UnsupportedValueError(
            f"no exact rbar value for m={m}; use policy='conjecture' (rbar(m)=2m, conjectural)"
        )
    if policy == "conjecture":
        return 2 * m
    raise InvalidArgumentError(f"unknown rbar policy {policy!r}")


def rbar_fn(policy: str = "exact"):
    """rbar as a function handle for the D2 loss."""
    return lambda m: rbar(m, policy)
