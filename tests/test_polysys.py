from itertools import product
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import moelab as ml
from moelab.polysys import PolyCandidate, _jacobian, _objective, _residuals, residual_table


def reference_residual(cand, eta1, eta2):
    """One equation's residual, one term of J(eta1, eta2) at a time."""
    total = 0.0
    w = cand.z5**2
    for alpha2 in product(*(range(e + 1) for e in eta1)):
        alpha1 = tuple(e - a for e, a in zip(eta1, alpha2))
        rem = eta2 - sum(alpha2)
        if rem < 0:
            continue
        for alpha4 in range(rem // 2 + 1):
            alpha3 = rem - 2 * alpha4
            denom = (
                prod(factorial(c) for c in alpha1)
                * prod(factorial(c) for c in alpha2)
                * factorial(alpha3)
                * factorial(alpha4)
            )
            term = w.copy()
            for c in range(cand.d):
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


@st.composite
def systems(draw):
    m = draw(st.sampled_from((2, 3)))
    d = draw(st.sampled_from((1, 2)))
    r = draw(st.integers(1, 6))
    values = st.floats(-4.0, 4.0, allow_nan=False)
    z = [draw(arrays(float, shape, elements=values)) for shape in ((m, d), (m, d), m, m, m)]
    return ml.PolySystemInstance(m, d, r), PolyCandidate(*z)


@st.composite
def search_points(draw):
    """A search vector (z1, z2, z3, z4, t) with ||z3|| clear of the 0.3 floor,
    inside it (penalty active) or outside it (penalty zero)."""
    m = draw(st.sampled_from((2, 3, 4)))
    d = draw(st.sampled_from((1, 2)))
    r = draw(st.integers(1, 7))
    inside = draw(st.booleans())
    gate = draw(arrays(float, 2 * m * d, elements=st.floats(-1.5, 1.5)))
    z3 = draw(arrays(float, m, elements=st.floats(0.01, 0.1) if inside else st.floats(0.4, 1.5)))
    z3 *= draw(arrays(float, m, elements=st.sampled_from((-1.0, 1.0))))
    z4 = draw(arrays(float, m, elements=st.floats(-1.5, 1.5)))
    t = draw(arrays(float, m, elements=st.floats(-1.0, 1.0)))
    return ml.PolySystemInstance(m, d, r), np.concatenate([gate, z3, z4, t]), inside


@pytest.fixture
def inst_r4():
    return ml.PolySystemInstance(m=2, d=1, r=4)


class TestEnumerateEquations:
    def test_d1_r1(self):
        inst = ml.PolySystemInstance(m=2, d=1, r=1)
        assert ml.enumerate_equations(inst) == [((1,), 0), ((0,), 1)]

    def test_d1_r2(self):
        inst = ml.PolySystemInstance(m=2, d=1, r=2)
        assert ml.enumerate_equations(inst) == [
            ((1,), 0), ((2,), 0), ((0,), 1), ((0,), 2), ((1,), 1)
        ]

    def test_d2_r1(self):
        inst = ml.PolySystemInstance(m=2, d=2, r=1)
        assert ml.enumerate_equations(inst) == [((1, 0), 0), ((0, 1), 0), ((0, 0), 1)]

    def test_bounds_hold(self):
        inst = ml.PolySystemInstance(m=3, d=2, r=3)
        for eta1, eta2 in ml.enumerate_equations(inst):
            assert 0 <= sum(eta1) <= 3
            assert 0 <= eta2 <= 3 - sum(eta1)
            assert sum(eta1) + eta2 >= 1


class TestResidual:
    def test_all_zero_but_z5(self, inst_r4):
        cand = PolyCandidate(
            z1=np.zeros((2, 1)), z2=np.zeros((2, 1)),
            z3=[0.0, 0.0], z4=[0.0, 0.0], z5=[1.0, 2.0],
        )
        for eta1, eta2 in ml.enumerate_equations(inst_r4):
            assert ml.residual(inst_r4, cand, eta1, eta2) == 0.0

    def test_first_order_gate_equation(self, inst_r4):
        # J((1), 0) contains only alpha1 = 1: residual = sum z5^2 z1
        cand = PolyCandidate(
            z1=[[2.0], [3.0]], z2=np.zeros((2, 1)),
            z3=[1.0, 1.0], z4=[1.0, 1.0], z5=[1.0, 2.0],
        )
        assert ml.residual(inst_r4, cand, (1,), 0) == pytest.approx(1 * 2 + 4 * 3)

    def test_constructive_witness_oracle(self, inst_r4):
        # Frozen oracle: coefficients of sum_i exp(z3_i t + z4_i t^2); every
        # equation through order 3 vanishes and the (0, 4) residual is -c^4/6.
        for c in (1.0, 0.5, 2.0):
            w = ml.constructive_witness_m2(c=c)
            for eta1, eta2 in ml.enumerate_equations(inst_r4):
                got = ml.residual(inst_r4, w, eta1, eta2)
                if sum(eta1) + eta2 <= 3:
                    assert abs(got) <= 1e-12
            assert ml.residual(inst_r4, w, (0,), 4) == pytest.approx(-(c**4) / 6.0, rel=1e-12)

    def test_witness_solves_r3_system(self):
        inst = ml.PolySystemInstance(m=2, d=1, r=3)
        w = ml.constructive_witness_m2()
        assert ml.max_abs_residual(inst, w) <= 1e-12
        assert w.is_nontrivial()

    @pytest.mark.parametrize("seed", range(8))
    def test_z5_square_scaling(self, seed, inst_r4):
        rng = np.random.default_rng(seed)
        cand = PolyCandidate(
            z1=rng.normal(size=(2, 1)), z2=rng.normal(size=(2, 1)),
            z3=rng.normal(size=2), z4=rng.normal(size=2), z5=rng.normal(size=2) + 2.0,
        )
        t = 1.7
        scaled = PolyCandidate(cand.z1, cand.z2, cand.z3, cand.z4, t * cand.z5)
        for eta1, eta2 in ml.enumerate_equations(inst_r4):
            base = ml.residual(inst_r4, cand, eta1, eta2)
            assert ml.residual(inst_r4, scaled, eta1, eta2) == pytest.approx(
                t**2 * base, rel=1e-12, abs=1e-15
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_sign_symmetry(self, seed, inst_r4):
        # negating z1 and z3 flips residuals at odd |eta1| + eta2 when the
        # doubled scale-order pairing is in force
        rng = np.random.default_rng(50 + seed)
        cand = PolyCandidate(
            z1=rng.normal(size=(2, 1)), z2=np.zeros((2, 1)),
            z3=rng.normal(size=2), z4=rng.normal(size=2), z5=rng.normal(size=2) + 2.0,
        )
        flipped = PolyCandidate(-cand.z1, cand.z2, -cand.z3, cand.z4, cand.z5)
        for eta1, eta2 in ml.enumerate_equations(inst_r4):
            sign = -1.0 if (sum(eta1) + eta2) % 2 else 1.0
            base = ml.residual(inst_r4, cand, eta1, eta2)
            assert ml.residual(inst_r4, flipped, eta1, eta2) == pytest.approx(
                sign * base, rel=1e-12, abs=1e-15
            )

    def test_residual_table_covers_all_equations(self, inst_r4):
        w = ml.constructive_witness_m2()
        table = residual_table(inst_r4, w)
        assert len(table) == len(ml.enumerate_equations(inst_r4))

    @pytest.mark.parametrize(
        "eta1, eta2", [((0,), 0), ((5,), 0), ((0,), 5), ((2,), 3), ((1, 0), 0), ((0,), 1.5)]
    )
    def test_pair_outside_the_system_rejected(self, inst_r4, eta1, eta2):
        with pytest.raises(ml.InvalidArgumentError, match="not an equation"):
            ml.residual(inst_r4, ml.constructive_witness_m2(), eta1, eta2)

    def test_candidate_dimensions_checked(self, inst_r4):
        with pytest.raises(ml.InvalidArgumentError, match="dimensions"):
            ml.max_abs_residual(inst_r4, ml.constructive_witness_m2(d=2))

    @pytest.mark.parametrize("m, d, r", [(1, 1, 3), (2, 0, 3), (2, 1, 0)])
    def test_instance_sizes_checked(self, m, d, r):
        with pytest.raises(ml.InvalidArgumentError, match="need m >= 2, d >= 1, r >= 1"):
            ml.PolySystemInstance(m=m, d=d, r=r)

    @pytest.mark.parametrize("z, message", [
        (dict(z3=[1.0, 2.0, 3.0]), "z1..z5 must agree on the number of components"),
        (dict(z5=[1.0]), "z1..z5 must agree on the number of components"),
        (dict(z2=np.zeros((2, 2))), "z1 and z2 must share their shape"),
    ], ids=["z3-long", "z5-short", "z2-wide"])
    def test_candidate_shapes_checked(self, z, message):
        parts = dict(z1=np.zeros((2, 1)), z2=np.zeros((2, 1)), z3=[1.0, -1.0], z4=[0.0, 0.0], z5=[1.0, 1.0])
        with pytest.raises(ml.InvalidArgumentError, match=message):
            PolyCandidate(**{**parts, **z})

    @settings(max_examples=300)
    @given(systems())
    def test_vector_matches_reference_loop_bit_for_bit(self, system):
        inst, cand = system
        want = [reference_residual(cand, eta1, eta2) for eta1, eta2 in ml.enumerate_equations(inst)]
        assert np.array_equal(_residuals(inst, cand), want)


class TestJacobian:
    @settings(max_examples=200)
    @given(search_points())
    def test_matches_central_differences(self, point):
        # At step h the central difference errs by about eps / h + h^2 times
        # the entries' scale, near 1e-10 at h = 1e-6; 1e-7 leaves margin.
        inst, x, inside = point
        h, floor = 1e-6, 0.3
        steps = h * np.eye(len(x))
        want = np.column_stack(
            [(_objective(x + e, inst, floor) - _objective(x - e, inst, floor)) / (2 * h) for e in steps]
        )
        got = _jacobian(x, inst, floor)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-7 * max(1.0, np.max(np.abs(want)))
        # the penalty row is live exactly when ||z3|| is inside the floor
        assert np.any(got[-1] != 0.0) == inside


class TestSearchNontrivial:
    def test_m2_r3_finds_solution(self):
        inst = ml.PolySystemInstance(m=2, d=1, r=3)
        cand = ml.search_nontrivial(inst, restarts=20, seed=1)
        assert cand is not None
        assert ml.max_abs_residual(inst, cand) <= 1e-10
        assert cand.is_nontrivial(tol=1e-3)

    def test_m2_r4_finds_nothing(self):
        # consistent with the known threshold for two components
        inst = ml.PolySystemInstance(m=2, d=1, r=4)
        assert ml.search_nontrivial(inst, restarts=20, seed=1) is None

    def test_m3_r6_finds_nothing(self):
        # consistent with the known threshold for three components
        inst = ml.PolySystemInstance(m=3, d=1, r=6)
        assert ml.search_nontrivial(inst, restarts=20, seed=1) is None

    def test_m4_r7_finds_solution(self):
        # a verified solution shows rbar(4) > 7, consistent with rbar(m) = 2m
        inst = ml.PolySystemInstance(m=4, d=1, r=7)
        cand = ml.search_nontrivial(inst, restarts=20, seed=1)
        assert cand is not None
        assert ml.max_abs_residual(inst, cand) <= 1e-10
        assert cand.is_nontrivial(tol=1e-3)

    def test_m3_r5_finds_solution(self):
        inst = ml.PolySystemInstance(m=3, d=1, r=5)
        cand = ml.search_nontrivial(inst, restarts=60, seed=3)
        assert cand is not None
        assert ml.max_abs_residual(inst, cand) <= 1e-10
        assert cand.is_nontrivial(tol=1e-3)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_needs_a_restart(self, restarts):
        with pytest.raises(ml.InvalidArgumentError, match="restarts must be >= 1"):
            ml.search_nontrivial(ml.PolySystemInstance(m=2, d=1, r=3), restarts=restarts, seed=0)

    def test_deterministic(self):
        inst = ml.PolySystemInstance(m=2, d=1, r=3)
        c1 = ml.search_nontrivial(inst, restarts=5, seed=9)
        c2 = ml.search_nontrivial(inst, restarts=5, seed=9)
        assert c1 is not None and c2 is not None
        assert np.array_equal(c1.z3, c2.z3) and np.array_equal(c1.z5, c2.z5)


class TestRbar:
    def test_exact_table(self):
        assert ml.rbar(2, "exact") == 4
        assert ml.rbar(3, "exact") == 6

    def test_exact_refuses_m4(self):
        with pytest.raises(ml.UnsupportedValueError, match="conjecture"):
            ml.rbar(4, "exact")

    def test_conjecture_is_2m(self):
        for m in (2, 3, 5, 9):
            assert ml.rbar(m, "conjecture") == 2 * m

    def test_m_below_two_rejected(self):
        with pytest.raises(ml.InvalidArgumentError):
            ml.rbar(1, "exact")
