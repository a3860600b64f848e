"""Observable translation layer and the meson catalogue."""

import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cuq.core import BlochState, QubitModel
from cuq.integrate import propagate
from cuq.meson import (BlochParameters, Damping, MesonObservables,
                       UnphysicalObservables, bloch_from_observables,
                       catalogue, catalogue_rows, catalogue_to_csv,
                       catalogue_to_json, classify_damping, flavour_asymmetry,
                       observables_from_bloch)


class TestForwardMap:
    def test_cp_conserving_angles_give_unit_qop(self):
        for theta in (0.0, 180.0):
            o = observables_from_bloch(BlochParameters(0.7, theta, 1.0))
            assert o.q_over_p == pytest.approx(1.0, abs=1e-14)

    def test_qop_extremal_at_right_angles(self):
        # |q/p|^4 = (1+r^2-2r sin th)/(1+r^2+2r sin th): extremes at +-90
        thetas = np.linspace(-179.0, 179.0, 719)
        vals = [observables_from_bloch(BlochParameters(0.4, t, 1.0)).q_over_p
                for t in thetas]
        assert thetas[int(np.argmin(vals))] == pytest.approx(90.0, abs=0.5)
        assert thetas[int(np.argmax(vals))] == pytest.approx(-90.0, abs=0.5)

    def test_oscillatory_splittings(self):
        # z = sqrt(1 - r^2 - 2 i r cos th): for theta = 90 the argument is
        # real positive, so Delta E = 2|E| sqrt(1-r^2), Delta Gamma = 0
        r, E = 0.6, 2.0
        o = observables_from_bloch(BlochParameters(r, 90.0, E))
        assert o.delta_E == pytest.approx(2 * E * np.sqrt(1 - r * r),
                                          rel=1e-14)
        assert o.delta_Gamma == pytest.approx(0.0, abs=1e-14)

    def test_overdamped_perpendicular(self):
        # r > 1, theta = 90: pure decay splitting, no mass splitting
        r, E = 1.5, 1.0
        o = observables_from_bloch(BlochParameters(r, 90.0, E))
        assert o.delta_E == pytest.approx(0.0, abs=1e-14)
        assert abs(o.delta_Gamma) == pytest.approx(4 * E * np.sqrt(r * r - 1),
                                                   rel=1e-14)

    @pytest.mark.parametrize("theta", [90.0, -90.0])
    def test_qop_near_maximal_cp_violation(self, theta):
        # 1 + r^2 -+ 2 r sin(theta) cancels as r -> 1 at +-90 degrees, where
        # |q/p|^{+-2} = (1 - r)/(1 + r)
        r = 1.0 - 1e-9
        o = observables_from_bloch(BlochParameters(r, theta, 1.0))
        assert o.q_over_p ** np.sign(theta) == pytest.approx(
            np.sqrt((1.0 - r) / (1.0 + r)), rel=1e-12)
        r = 1.0 - 1e-6
        src = BlochParameters(r, theta, 1.0)
        got = bloch_from_observables(observables_from_bloch(src)).params
        assert got.E_mag == pytest.approx(1.0, abs=1e-10)
        assert got.r == pytest.approx(r, abs=1e-15)

    def test_infinite_qop_is_unphysical(self):
        # r = 1 at -90 degrees is the mirror of |q/p| = 0 at +90
        for theta in (90.0, -90.0):
            with pytest.raises(UnphysicalObservables):
                observables_from_bloch(BlochParameters(1.0, theta, 1.0))

    @pytest.mark.parametrize("r, theta, E", [(0.5, 45.0, 1e308),
                                             (10.0, 90.0, 1e307)])
    def test_overflowing_observables_name_the_scale(self, r, theta, E):
        # finite input whose Delta E or Delta Gamma is past the largest
        # float; in numpy arithmetic the second would warn first
        with pytest.raises(OverflowError, match=re.escape(f"|E| = {E!r}")):
            observables_from_bloch(BlochParameters(r, theta, E))

    def test_overflowing_r_is_named(self):
        # r |E| = 1e500 is past the float range, and so are the splittings;
        # the product |E| r overflows to inf, which names r and |E|
        with pytest.raises(OverflowError,
                           match=re.escape("r = 1e+300, |E| = 1e+200")):
            observables_from_bloch(BlochParameters(1e300, 180.0, 1e200))

    def test_splitting_invariant(self):
        # Delta E^2 - Delta Gamma^2/4 = 4|E|^2 (1 - r^2) for any angle
        r, E, th = 0.945, 2.64652e-3, 179.6322
        o = observables_from_bloch(BlochParameters(r, th, E))
        lhs = o.delta_E ** 2 - o.delta_Gamma ** 2 / 4
        assert lhs == pytest.approx(4 * E * E * (1 - r * r), rel=1e-12)


class TestInversion:
    @pytest.mark.parametrize("r", [1e-3, 0.1, 0.5, 0.945, 1.5, 20.0, 1e3])
    @pytest.mark.parametrize("theta", [-90.0, 10.0, 90.0, 179.0])
    def test_roundtrip(self, r, theta):
        src = BlochParameters(r, theta, 1.7e-3)
        inv = bloch_from_observables(observables_from_bloch(src))
        got = inv.params if abs(np.cos(np.radians(inv.params.theta_eg_deg))
                                - np.cos(np.radians(theta))) < \
            abs(np.cos(np.radians(inv.mirror.theta_eg_deg))
                - np.cos(np.radians(theta))) else inv.mirror
        # |q/p| ~ 1 + 1/r carries r only to ~eps r^2 once rounded, so above
        # r = 10 the bound turns relative (1e-11)
        assert got.r == pytest.approx(r, abs=1e-10 * max(1.0, r / 10.0))
        assert got.E_mag == pytest.approx(1.7e-3, rel=1e-10)
        assert np.sin(np.radians(got.theta_eg_deg)) == pytest.approx(
            np.sin(np.radians(theta)), abs=1e-9)
        assert np.cos(np.radians(got.theta_eg_deg)) == pytest.approx(
            np.cos(np.radians(theta)), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(np.log(1e-3), np.log(1e3)),
           st.floats(-180.0, 180.0, exclude_min=True),
           st.floats(1e-3, 20.0))
    @example(log_r=1.0, theta=90.0, E=1.0)
    def test_roundtrip_property(self, log_r, theta, E):
        r = float(np.exp(log_r))
        assume(not (r == 1.0 and abs(theta) == 90.0))  # |q/p| is 0 or inf
        o = observables_from_bloch(BlochParameters(r, theta, E))
        inv = bloch_from_observables(o)
        c = np.cos(np.radians(theta))
        got = min((inv.params, inv.mirror),
                  key=lambda p: abs(np.cos(np.radians(p.theta_eg_deg)) - c))
        assert got.r == pytest.approx(r, abs=1e-10 * max(1.0, r / 10.0))
        assert got.E_mag == pytest.approx(E, rel=1e-10)
        # the flipped Delta Gamma is the mirror's input: it must invert to
        # parameters that reproduce it
        flipped = MesonObservables(o.delta_E, -o.delta_Gamma, o.q_over_p)
        back = observables_from_bloch(bloch_from_observables(flipped).params)
        tol = 1e-10 * max(o.delta_E, abs(o.delta_Gamma))
        assert back.delta_E == pytest.approx(flipped.delta_E, abs=tol)
        assert back.delta_Gamma == pytest.approx(flipped.delta_Gamma, abs=tol)
        assert back.q_over_p == pytest.approx(flipped.q_over_p, rel=1e-10)

    @pytest.mark.parametrize("q_over_p", [0.6797919955839504,
                                          1.6797919955839504])
    def test_branch_cut_inverts_to_its_own_side(self, q_over_p):
        # Delta E = 0 lies on z's branch cut: theta = +-90 maps to
        # Delta Gamma > 0, so Delta Gamma < 0 inverts to the float just past
        # 90 degrees, whose forward image reproduces it
        o = MesonObservables(0.0, -10.110632897246857, q_over_p)
        inv = bloch_from_observables(o)
        theta = inv.params.theta_eg_deg
        assert abs(theta) == math.nextafter(90.0, 180.0)
        assert inv.mirror.theta_eg_deg == math.copysign(180.0, theta) - theta
        back = observables_from_bloch(inv.params)
        assert back.delta_E == pytest.approx(0.0, abs=1e-15)
        assert back.delta_Gamma == pytest.approx(o.delta_Gamma, rel=1e-14)
        assert back.q_over_p == pytest.approx(q_over_p, rel=1e-14)

    def test_subnormal_q_over_p_gives_finite_E(self):
        # |E| = Delta E (1 + q^2)/(4q) at theta = 90, with 1/q past the
        # largest float
        inv = bloch_from_observables(MesonObservables(1e-300, 0.0, 1e-310))
        assert inv.params.E_mag == pytest.approx(1e-300 / (4 * 1e-310),
                                                 rel=1e-12)

    def test_underflowing_E_is_named(self):
        # the true |E| is about 1e-340, below the smallest subnormal
        with pytest.raises(OverflowError, match=re.escape(
                "|E| underflows at Delta E = 0.0, "
                "|q/p| = 1.0000000000000002")):
            bloch_from_observables(
                MesonObservables(0.0, 5e-324, 1.0000000000000002))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 1e3),
           st.floats(-1e3, 1e3).filter(lambda x: x == 0.0 or abs(x) >= 1e-6),
           st.floats(0.1, 10.0), st.integers(-600, 600))
    def test_scale_covariant(self, dE, dG, qop, k):
        # Delta E and Delta Gamma carry the unit of |E|: a factor 2^k leaves
        # r and theta as they are and scales |E| by exactly 2^k
        base = MesonObservables(dE, dG, qop)
        scaled = MesonObservables(math.ldexp(dE, k), math.ldexp(dG, k), qop)
        try:
            want = bloch_from_observables(base)
        except UnphysicalObservables:
            with pytest.raises(UnphysicalObservables):
                bloch_from_observables(scaled)
            return
        got = bloch_from_observables(scaled)
        for w, g in ((want.params, got.params), (want.mirror, got.mirror)):
            assert (g.r, g.theta_eg_deg) == (w.r, w.theta_eg_deg)
            assert g.E_mag == math.ldexp(w.E_mag, k)

    def test_overflowing_E_is_named(self):
        # |E| = Delta E (1 + q^2)/(4q) at theta = 90 passes the largest float
        with pytest.raises(OverflowError,
                           match=re.escape("Delta E = 1e+300, |q/p| = 1e-10")):
            bloch_from_observables(MesonObservables(1e300, 0.5, 1e-10))

    def test_mirror_branch_flips_cosine(self):
        inv = bloch_from_observables(
            observables_from_bloch(BlochParameters(0.5, 60.0, 1.0)))
        c1 = np.cos(np.radians(inv.params.theta_eg_deg))
        c2 = np.cos(np.radians(inv.mirror.theta_eg_deg))
        assert c1 == pytest.approx(-c2, abs=1e-12)

    def test_zero_gamma_splitting_forces_cuq_branch(self):
        o = MesonObservables(delta_E=1.0, delta_Gamma=0.0, q_over_p=0.9)
        inv = bloch_from_observables(o)
        assert inv.forced_cuq_branch
        assert abs(np.sin(np.radians(inv.params.theta_eg_deg))) == \
            pytest.approx(1.0, abs=1e-12)

    def test_no_mixing_has_no_parameterisation(self):
        # Delta Gamma = 0 with |q/p| = 1 leaves r = 0 as the only root
        with pytest.raises(UnphysicalObservables):
            bloch_from_observables(MesonObservables(1.0, 0.0, 1.0))

    @pytest.mark.parametrize("qop", [1e-5, 1e-3, 3e3])
    def test_strong_cp_violation_near_r_one(self, qop):
        # Delta Gamma = 0 forces theta = +-90, where |q/p|^2 = |1-r|/(1+r)
        # and Delta E = 2|E| sqrt(1-r^2); 1 - r is far below 1 - |q/p|^4
        r = abs(1.0 - qop ** 2) / (1.0 + qop ** 2)
        got = bloch_from_observables(MesonObservables(1.0, 0.0, qop)).params
        assert got.r == pytest.approx(r, abs=1e-15)
        assert got.E_mag == pytest.approx((1.0 + qop ** 2) / (4.0 * qop),
                                          rel=1e-12)

    @pytest.mark.parametrize("fields", [
        (np.inf, 0.1, 1.0), (1.0, np.nan, 1.0), (1.0, 0.1, np.inf),
        (np.nan, 0.0, 1.0)])
    def test_rejects_non_finite_observables(self, fields):
        # a plain ValueError (bad input), not UnphysicalObservables
        with pytest.raises(ValueError, match="finite") as info:
            MesonObservables(*fields)
        assert not isinstance(info.value, UnphysicalObservables)

    @pytest.mark.parametrize("fields", [
        (np.inf, 90.0, 1.0), (0.5, np.nan, 1.0), (0.5, 90.0, np.inf),
        (0.5, -np.inf, 1.0)])
    def test_rejects_non_finite_parameters(self, fields):
        with pytest.raises(ValueError, match="finite") as info:
            BlochParameters(*fields)
        assert not isinstance(info.value, UnphysicalObservables)

    @pytest.mark.parametrize("r", [0.0, -1.0, -5e-324])
    def test_rejects_non_positive_r(self, r):
        with pytest.raises(ValueError, match="r must be positive and finite"):
            BlochParameters(r, 90.0, 1.0)

    def test_rejects_unphysical(self):
        with pytest.raises(UnphysicalObservables):
            MesonObservables(delta_E=-1.0, delta_Gamma=0.0, q_over_p=1.0)
        with pytest.raises(UnphysicalObservables):
            MesonObservables(delta_E=1.0, delta_Gamma=0.0, q_over_p=-0.5)


EPS = np.finfo(float).eps
# The textbook rates against `propagate`, as the absolute error of b_3 in
# eps times (1 + |Delta Gamma t/2| + |Delta E t|) max(|q/p|^2, |p/q|^2):
# the first factor is the rounded phases of cosh and cos, the second the
# flip weight, which grows next to the exceptional point r = 1, theta =
# +-90, where cosh - cos cancels and `propagate`'s U turns a rounding into
# a phase error.  Over 80,000 draws from the ranges below (four seeds,
# with r and theta within 1e-16 to 1e-2 and 1e-14 to 1 of the special
# points), the worst case was 2.49, so the bound has a headroom of 2.0;
# the catalogue cases reach 1.7.
LOY_BOUND = 5.0


def _loy_error(o, r, theta, E, pole, taus):
    """The largest error of `propagate`'s b_3 from the pole against the
    Lee-Oehme-Yang asymmetry of the observables o, in units of its bound.

    The state tagged at `pole` (+1 is M0bar, -1 is M0) stays with weight
    cosh(Delta Gamma t/2) + cos(Delta E t) and flips with k (cosh - cos),
    k = |p/q|^2 from M0bar and |q/p|^2 from M0, at t = tau/(2 r |E|)."""
    taus = np.asarray(taus, dtype=float)
    got = propagate(QubitModel.from_angle(r, theta, degrees=True),
                    [0.0, 0.0, pole], taus)[:, 2]
    t = taus / (2.0 * r * E)
    x, y = o.delta_Gamma * t / 2.0, o.delta_E * t
    k = o.q_over_p ** (-2.0 * pole)
    stay, flip = np.cosh(x) + np.cos(y), k * (np.cosh(x) - np.cos(y))
    want = pole * (stay - flip) / (stay + flip)
    cond = (1.0 + np.abs(x) + np.abs(y)) * max(k, 1.0 / k)
    return np.max(np.abs(got - want) / (LOY_BOUND * EPS * cond))


def _near(points, width):
    return st.tuples(st.sampled_from(points),
                     st.floats(-width, width)).map(sum)


class TestAsymmetry:
    def test_reads_third_component(self):
        s = BlochState(b=[0.1, -0.2, 0.45])
        assert flavour_asymmetry(s) == pytest.approx(0.45)

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x),
                     _near([1.0], 1e-2)),
           st.one_of(st.floats(-180.0, 180.0, exclude_min=True),
                     _near([0.0, 90.0, -90.0, 180.0], 1e-3)),
           st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x),
           st.sampled_from([1.0, -1.0]), st.floats(0.0, 100.0))
    def test_dynamics_give_the_textbook_rates(self, r, theta, E, pole, t):
        # t is tau in units of min(r, 1), the time the state turns in
        assume(not (r == 1.0 and abs(theta) == 90.0))  # |q/p| is 0 or inf
        o = observables_from_bloch(BlochParameters(r, theta, E))
        assert _loy_error(o, r, theta, E, pole, [t * min(r, 1.0)]) <= 1.0

    @pytest.mark.parametrize("entry", catalogue(), ids=lambda e: e.name)
    def test_catalogue_dynamics_give_the_printed_rates(self, entry):
        # both branches: the textbook rates read Delta Gamma through cosh
        inv = bloch_from_observables(entry.observables)
        for p in (inv.params, inv.mirror):
            taus = np.linspace(0.0, 100.0 * min(p.r, 1.0), 201)
            for pole in (1.0, -1.0):
                assert _loy_error(entry.observables, p.r, p.theta_eg_deg,
                                  p.E_mag, pole, taus) <= 1.0


class TestDamping:
    def test_classification(self):
        assert classify_damping(0.5) is Damping.OSCILLATORY
        assert classify_damping(2.0) is Damping.OVERDAMPED
        assert classify_damping(1.0) is Damping.CRITICAL
        # exact: the neighbours of 1 are an oscillating CUQ and an
        # overdamped model with a stationary state
        assert classify_damping(1.0 + 1e-13) is Damping.OVERDAMPED
        assert classify_damping(1.0 - 5e-13) is Damping.OSCILLATORY
        # the domain is 0 < r < inf, as for every r
        for r in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                classify_damping(r)


class TestCatalogue:
    def test_systems_present(self):
        names = [e.name for e in catalogue()]
        assert names == ["K0", "D0", "Bd0", "Bs0"]

    def test_k0_values(self):
        k0 = catalogue()[0]
        assert k0.bloch.r == pytest.approx(0.945)
        assert k0.bloch.theta_eg_deg == pytest.approx(179.6322)
        assert k0.bloch.E_mag == pytest.approx(2.64652e-3)
        assert k0.observables.delta_E == pytest.approx(0.005293)
        assert classify_damping(k0.bloch.r) is Damping.OSCILLATORY

    def test_damping_classes(self):
        by_name = {e.name: classify_damping(e.bloch.r) for e in catalogue()}
        assert by_name["K0"] is Damping.OSCILLATORY
        assert by_name["D0"] is Damping.OVERDAMPED
        assert by_name["Bd0"] is Damping.OSCILLATORY
        assert by_name["Bs0"] is Damping.OSCILLATORY

    def test_csv_roundtrip(self):
        rows = list(csv.DictReader(io.StringIO(catalogue_to_csv())))
        assert len(rows) == 4
        assert float(rows[3]["delta_E"]) == pytest.approx(17.765)
        assert float(rows[1]["r"]) == pytest.approx(1.5)
        # every float at full repr precision, in the row dicts' order
        assert rows == [{k: str(v) for k, v in row.items()}
                        for row in catalogue_rows()]

    def test_json_roundtrip(self):
        rows = json.loads(catalogue_to_json())
        assert rows[0]["system"] == "K0"
        assert rows[2]["theta_eg_deg"] == pytest.approx(-90.0)
