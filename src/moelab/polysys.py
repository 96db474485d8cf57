"""The polynomial equation system governing over-specified convergence rates.

For a cell of size m in dimension d, the system imposes, for every multi-index
pair (eta1, eta2) with 0 <= |eta1| <= r, 0 <= eta2 <= r - |eta1| and
|eta1| + eta2 >= 1:

    sum_i sum_{alpha in J(eta1, eta2)}
        z5_i^2 z1_i^a1 z2_i^a2 z3_i^a3 z4_i^a4 / (a1! a2! a3! a4!)  =  0

Two variants of the index set J are in circulation, differing in how the
scale variable's order is counted:

* ``scale-doubled`` (default): a1 + a2 = eta1 and a3 + 2*a4 = eta2 - |a2|.
  This is what falls out of the derivative bookkeeping, because the scale
  derivative of the Gaussian equals half its second intercept derivative,
  so one scale order is worth two intercept orders.
* ``scale-single``: a1 + a2 = eta1 and a3 + a4 = eta2 - |a2|.

The doubled convention is the default; the other is kept behind the
``convention`` flag for comparison.

A solution is non-trivial when every z5_i is nonzero and at least one z3_i is
nonzero.  rbar(m) is the smallest order r at which no non-trivial solution
exists; the numerical searcher here is an empirical aid only and its failure
to find a solution proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial, prod

import numpy as np
from scipy.optimize import least_squares

from .errors import InvalidArgumentError, UnsupportedValueError

SCALE_DOUBLED = "scale-doubled"
SCALE_SINGLE = "scale-single"

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


def enumerate_equations(inst: PolySystemInstance):
    """All (eta1, eta2) pairs of the system, in a fixed deterministic order.

    eta1 is a d-tuple.  Order: the pure-eta1 equations by degree, then the
    pure-eta2 ones, then the mixed ones by (|eta1|, eta1, eta2).
    """
    pure_gate = [
        (eta1, 0)
        for s in range(1, inst.r + 1)
        for eta1 in _compositions(s, inst.d)
    ]
    pure_expert = [(tuple([0] * inst.d), eta2) for eta2 in range(1, inst.r + 1)]
    mixed = [
        (eta1, eta2)
        for s in range(1, inst.r + 1)
        for eta1 in _compositions(s, inst.d)
        for eta2 in range(1, inst.r - s + 1)
    ]
    return pure_gate + pure_expert + mixed


def _index_set(eta1, eta2: int, convention: str):
    """Yield (alpha1, alpha2, alpha3, alpha4) tuples of J(eta1, eta2)."""
    eta1 = tuple(int(e) for e in eta1)
    ranges = [range(e + 1) for e in eta1]
    for alpha2 in product(*ranges):
        alpha1 = tuple(e - a for e, a in zip(eta1, alpha2))
        rem = eta2 - sum(alpha2)
        if rem < 0:
            continue
        if convention == SCALE_DOUBLED:
            for alpha4 in range(rem // 2 + 1):
                yield alpha1, alpha2, rem - 2 * alpha4, alpha4
        elif convention == SCALE_SINGLE:
            for alpha4 in range(rem + 1):
                yield alpha1, alpha2, rem - alpha4, alpha4
        else:
            raise InvalidArgumentError(f"unknown convention {convention!r}")


def residual(inst: PolySystemInstance, cand: PolyCandidate, eta1, eta2: int, convention: str = SCALE_DOUBLED) -> float:
    """Exact left-hand side of the (eta1, eta2) equation at the candidate."""
    if cand.m != inst.m or cand.d != inst.d:
        raise InvalidArgumentError("candidate dimensions do not match the instance")
    eta1 = tuple(int(e) for e in np.atleast_1d(eta1))
    if len(eta1) != inst.d:
        raise InvalidArgumentError(f"eta1 must have length d={inst.d}")
    total = 0.0
    w = cand.z5**2
    for alpha1, alpha2, alpha3, alpha4 in _index_set(eta1, eta2, convention):
        denom = (
            prod(factorial(c) for c in alpha1)
            * prod(factorial(c) for c in alpha2)
            * factorial(alpha3)
            * factorial(alpha4)
        )
        term = w.copy()
        for c in range(inst.d):
            if alpha1[c]:
                term = term * cand.z1[:, c] ** alpha1[c]
            if alpha2[c]:
                term = term * cand.z2[:, c] ** alpha2[c]
        if alpha3:
            term = term * cand.z3**alpha3
        if alpha4:
            term = term * cand.z4**alpha4
        total += term.sum() / denom
    return float(total)


def residual_table(inst, cand, convention: str = SCALE_DOUBLED):
    """(eta1, eta2, residual) rows in enumeration order."""
    return [
        (eta1, eta2, residual(inst, cand, eta1, eta2, convention))
        for eta1, eta2 in enumerate_equations(inst)
    ]


def max_abs_residual(inst, cand, convention: str = SCALE_DOUBLED) -> float:
    return float(np.max(np.abs([value for _, _, value in residual_table(inst, cand, convention)])))


def search_nontrivial(
    inst: PolySystemInstance,
    restarts: int,
    seed,
    *,
    convention: str = SCALE_DOUBLED,
    tol: float = 1e-10,
    z3_floor: float = 0.3,
):
    """Randomized multistart search for a verified non-trivial solution.

    z5 is parameterized as exp(t) so it can never vanish (only z5^2 enters the
    equations, so the sign is irrelevant); a penalty keeps ||z3|| above a floor
    so the minimizer cannot retreat to the trivial z3 = 0 family.  Returns the
    first candidate whose exact max |residual| is <= tol, or None.  Absence of
    a returned candidate is NOT a proof that the system is unsolvable.
    """
    if restarts < 1:
        raise InvalidArgumentError("restarts must be >= 1")
    m, d = inst.m, inst.d
    eqs = enumerate_equations(inst)
    n_gate = m * d

    def unpack(vec):
        z1 = vec[:n_gate].reshape(m, d)
        z2 = vec[n_gate : 2 * n_gate].reshape(m, d)
        z3 = vec[2 * n_gate : 2 * n_gate + m]
        z4 = vec[2 * n_gate + m : 2 * n_gate + 2 * m]
        z5 = np.exp(vec[2 * n_gate + 2 * m :])
        return PolyCandidate(z1=z1, z2=z2, z3=z3, z4=z4, z5=z5)

    def objective(vec):
        cand = unpack(vec)
        res = [residual(inst, cand, eta1, eta2, convention) for eta1, eta2 in eqs]
        slack = z3_floor**2 - float(np.sum(cand.z3**2))
        res.append(np.sqrt(max(slack, 0.0)))
        return np.array(res)

    n_vars = 2 * n_gate + 2 * m + m
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
        sol = least_squares(objective, x0, bounds=(lo, hi), xtol=1e-15, ftol=1e-15, gtol=1e-15)
        cand = unpack(sol.x)
        if max_abs_residual(inst, cand, convention) <= tol and cand.is_nontrivial(tol=z3_floor * 0.5):
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


def rbar_provenance(m: int, policy: str = "exact") -> str:
    """"exact" if the value comes from the published table, else "conjecture"."""
    rbar(m, policy)
    return "exact" if policy == "exact" or m in EXACT_RBAR else "conjecture"


def rbar_fn(policy: str = "exact"):
    """rbar as a function handle for the D2 loss."""
    return lambda m: rbar(m, policy)
