"""State types and the evolution vector field."""

import dataclasses
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cuq.analytic import AsymptoticBranch, asymptotic_state
from cuq.core import (BlochState, DensityMatrix, QubitModel, _float_field,
                      _is_cuq, bloch_derivative, density_evolution_rhs,
                      density_from_bloch, purity_rate)

SIGMA = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, 1]],
], dtype=complex)
SIGMA[2] = np.array([[1, 0], [0, -1]], dtype=complex)


def random_model(rng, r=None):
    e = rng.standard_normal(3)
    e /= np.linalg.norm(e)
    g = rng.standard_normal(3)
    g -= (g @ e) * e * rng.uniform(0, 1)  # arbitrary angle, not axis-aligned
    g /= np.linalg.norm(g)
    return QubitModel(e=e, gamma=g,
                      r=rng.uniform(0.05, 2.0) if r is None else r)


class TestBlochState:
    def test_magnitude(self):
        s = BlochState(b=[0.3, 0.0, 0.4])
        assert np.linalg.norm(s.b) == pytest.approx(0.5)

    def test_rejects_exterior_point(self):
        with pytest.raises(ValueError):
            BlochState(b=[1.1, 0.0, 0.0])


class TestQubitModel:
    def test_rejects_non_unit_vectors(self):
        with pytest.raises(ValueError):
            QubitModel(e=[1, 0, 0], gamma=[0, 2, 0], r=0.5)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            QubitModel(e=[1, 0, 0], gamma=[0, 1, 0], r=0.0)

    @pytest.mark.parametrize("field", ["r"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, -1.0])
    def test_rejects_scale_outside_zero_to_inf(self, field, value):
        with pytest.raises(ValueError, match=field):
            QubitModel(e=[1, 0, 0], gamma=[0, 1, 0], **{field: value})

    def test_from_angle_takes_degrees_by_keyword_only(self):
        # an old positional |E| argument must not be read as degrees=1.0
        with pytest.raises(TypeError):
            QubitModel.from_angle(0.5, 60.0, 1.0)

    def test_from_angle_builds_planar_basis(self):
        m = QubitModel.from_angle(0.5, 60.0, degrees=True)
        assert np.allclose(m.e, [1, 0, 0])
        assert np.arccos(m.e @ m.gamma) == pytest.approx(np.pi / 3)
        assert np.allclose(np.cross(m.e, m.gamma), m.e_cross_gamma)

    @pytest.mark.parametrize("theta, gamma", [
        (0.0, [1.0, 0.0, 0.0]), (90.0, [0.0, 1.0, 0.0]),
        (-90.0, [0.0, -1.0, 0.0]), (180.0, [-1.0, 0.0, 0.0]),
        (-180.0, [-1.0, 0.0, 0.0]), (270.0, [0.0, -1.0, 0.0]),
        (360.0, [1.0, 0.0, 0.0]), (450.0, [0.0, 1.0, 0.0])])
    def test_from_angle_is_exact_at_right_angles(self, theta, gamma):
        # cos 90 and sin 180 of the radians are 6.1e-17 and 1.2e-16
        g = QubitModel.from_angle(0.5, theta, degrees=True).gamma
        assert np.array_equal(g, gamma)
        assert not np.signbit(g[g == 0.0]).any()  # no -0.0

    def test_from_angle_keeps_the_bits_within_45_degrees(self):
        thetas = np.concatenate([[0.0, 45.0, -45.0, 1e-300, 44.999999999],
                                 np.random.default_rng(2).uniform(-45, 45, 500)])
        for theta in thetas:
            g = QubitModel.from_angle(0.5, theta, degrees=True).gamma
            th = np.radians(theta)
            assert g[0] == np.cos(th) and g[1] == np.sin(th), theta

    @pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("degrees", [True, False])
    def test_from_angle_rejects_non_finite_angle(self, theta, degrees):
        with pytest.raises(ValueError, match="theta_eg"):
            QubitModel.from_angle(0.5, theta, degrees=degrees)

    def test_e_cross_gamma_follows_replace(self):
        # the cached value belongs to the instance, not to the class
        m = QubitModel.from_angle(0.5, 90.0, degrees=True)
        assert np.array_equal(m.e_cross_gamma, [0.0, 0.0, 1.0])
        flipped = dataclasses.replace(m, gamma=-m.gamma)
        assert np.array_equal(flipped.e_cross_gamma, [0.0, 0.0, -1.0])
        assert np.array_equal(m.e_cross_gamma, [0.0, 0.0, 1.0])
        assert not m.e_cross_gamma.flags.writeable


class TestBlochDerivative:
    def test_perpendicular_reference_values(self):
        # db/dtau = -(1/r) e x b + gamma - (b.gamma) b, worked by hand at
        # b = gamma for e = x, gamma = y, r = 0.5
        m = QubitModel.from_angle(0.5, 90.0, degrees=True)
        d = bloch_derivative(BlochState(b=m.gamma), m)
        # -(1/r) e x gamma = (0,0,-2); gamma - (b.gamma) b = 0
        assert np.allclose(d, [0.0, 0.0, -2.0], atol=1e-15)

    def test_purity_identity(self):
        # [TRIVIAL] b . db/dtau = (gamma.b)(1 - |b|^2), 30 random draws
        rng = np.random.default_rng(7)
        for _ in range(30):
            m = random_model(rng)
            b = rng.standard_normal(3)
            b *= rng.uniform(0, 1) / np.linalg.norm(b)
            s = BlochState(b=b)
            lhs = float(b @ bloch_derivative(s, m))
            rhs = float((m.gamma @ b) * (1.0 - b @ b))
            assert lhs == pytest.approx(rhs, abs=1e-13)
            assert purity_rate(s, m) == pytest.approx(2.0 * rhs, abs=1e-13)

    def test_matches_expanded_cross_product(self):
        # the field's float form, with e/r rounded once per model, against
        # -(e x b)/r written out component by component, to rounding, for r
        # over six decades
        rng = np.random.default_rng(5)
        eps = np.finfo(float).eps
        for r in 10.0 ** rng.uniform(-3.0, 3.0, 40):
            m = random_model(rng, r=r)
            b = rng.standard_normal(3)
            b *= rng.uniform(0, 1) / np.linalg.norm(b)
            (e1, e2, e3), (b1, b2, b3), g = m.e, b, m.gamma
            exb = np.array([e2 * b3 - e3 * b2, e3 * b1 - e1 * b3,
                            e1 * b2 - e2 * b1])
            want = -exb / r + g - (b1 * g[0] + b2 * g[1] + b3 * g[2]) * b
            got = np.array(_float_field(m)(*b.tolist()))
            assert np.max(np.abs(got - want)) <= 8.0 * eps * (1.0 + 1.0 / r)
            assert np.array_equal(got, bloch_derivative(BlochState(b), m))

    def test_pure_states_stay_on_sphere(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_model(rng)
            b = rng.standard_normal(3)
            b /= np.linalg.norm(b)
            d = bloch_derivative(BlochState(b=b), m)
            assert abs(b @ d) < 1e-13


# e.gamma is 4.7e-18 exactly; a BLAS dot rounds it to 0 on some kernels
_E_NEAR = [0.5480490242187147, 0.08491493293201506, 0.8321248230993149]
_G_NEAR = [-0.18631166352311612, -0.9574481187642297, 0.22041112474212027]

# hashes the field, the purity rate and the CUQ decision on inputs built
# without BLAS (math.hypot normalises), so only cuq's own arithmetic differs
_KERNEL_SCRIPT = """
import hashlib, math, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from cuq.analytic import asymptotic_state
from cuq.core import (BlochState, QubitModel, _is_cuq, bloch_derivative,
                      purity_rate)

rng = np.random.default_rng(27)
h = hashlib.sha256()
for _ in range(3000):
    m = QubitModel.from_angle(rng.uniform(0.02, 3.0), rng.uniform(0.0, 6.3))
    s = BlochState(rng.uniform(-0.57, 0.57, 3))
    h.update(bloch_derivative(s, m).tobytes())
    h.update(purity_rate(s, m).hex().encode())
models = [QubitModel(e=E_NEAR, gamma=G_NEAR, r=0.5)]
for _ in range(1000):
    e = rng.standard_normal(3)
    g = np.cross(e, rng.standard_normal(3))
    models.append(QubitModel(e=e / math.hypot(*e), gamma=g / math.hypot(*g),
                             r=rng.uniform(0.1, 3.0)))
for m in models:
    h.update(f"{_is_cuq(m)} {asymptotic_state(m).branch.value};".encode())
print(h.hexdigest())
"""

# hashes the DP5 oracle's steps, dense output and interpolant for three
# models, one CUQ, one general and one overdamped
_ORACLE_SCRIPT = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from cuq.core import QubitModel
from cuq.integrate import evolve

h = hashlib.sha256()
for r, theta in ((0.85, 90.0), (0.3, 40.0), (2.0, 120.0)):
    m = QubitModel.from_angle(r, theta, degrees=True)
    traj = evolve(m, [0.3, -0.2, 0.5], 20.0)
    for a in (traj.taus, traj.bs, traj.dense,
              traj.interpolate(np.linspace(0.0, 20.0, 257))):
        h.update(a.tobytes())
print(h.hexdigest())
"""


class TestBlasKernelIndependence:
    def test_near_perpendicular_model_is_general(self):
        m = QubitModel(e=_E_NEAR, gamma=_G_NEAR, r=0.5)
        assert not _is_cuq(m)
        assert asymptotic_state(m).branch is AsymptoticBranch.GENERAL

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                        reason="OPENBLAS_CORETYPE names x86-64 kernels")
    def test_field_and_cuq_decision_match_under_nehalem_kernel(self):
        # the older kernel is set in the child's environment only
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_CORETYPE"}
        script = f"E_NEAR, G_NEAR = {_E_NEAR!r}, {_G_NEAR!r}\n{_KERNEL_SCRIPT}"
        out = [subprocess.run([sys.executable, "-c", script, src],
                              env=child, capture_output=True, text=True,
                              check=True).stdout
               for child in (env, {**env, "OPENBLAS_CORETYPE": "Nehalem"})]
        assert out[0] == out[1]

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                        reason="OPENBLAS_CORETYPE names x86-64 kernels")
    def test_oracle_matches_under_nehalem_kernel_and_without_avx2(self):
        # no BLAS call or SIMD loop sets a DP5 step's bits.  Each setting
        # acts in the child only; with every dispatched SIMD feature
        # disabled numpy runs its baseline loops, which lack AVX2
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
        out = [subprocess.run([sys.executable, "-c", _ORACLE_SCRIPT, src],
                              env={**env, **child}, capture_output=True,
                              text=True, check=True).stdout
               for child in ({}, {"OPENBLAS_CORETYPE": "Nehalem"},
                             {"NPY_DISABLE_CPU_FEATURES": " ".join(simd)})]
        assert out[0] == out[1] == out[2]


class TestDensityMatrix:
    def test_roundtrip_bloch(self):
        b = np.array([0.2, -0.3, 0.5])
        rho = density_from_bloch(BlochState(b=b))
        assert np.allclose(rho.bloch_vector, b, atol=1e-14)
        assert rho.purity == pytest.approx(0.5 * (1 + b @ b))
        assert DensityMatrix(np.diag([0.75, 0.25])).purity == 0.625

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.1, 0.0], [0.0, -0.1]], dtype=complex))


class TestDensityEvolutionConsistency:
    """The matrix-level equation must reproduce the Bloch vector field.

    [DERIVED] oracle: decompose drho/dtau over the Pauli basis and compare
    with bloch_derivative componentwise for random models and states.
    """

    def test_pauli_decomposition_matches(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = random_model(rng)
            b = rng.standard_normal(3)
            b *= rng.uniform(0, 1) / np.linalg.norm(b)
            state = BlochState(b=b)
            rhs = density_evolution_rhs(density_from_bloch(state), m)
            db_matrix = np.array([np.trace(rhs @ SIGMA[i]).real
                                  for i in range(3)])
            assert np.allclose(db_matrix, bloch_derivative(state, m),
                               atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_model(rng)
            b = rng.standard_normal(3)
            b *= rng.uniform(0, 1) / np.linalg.norm(b)
            rhs = density_evolution_rhs(
                density_from_bloch(BlochState(b=b)), m)
            assert abs(np.trace(rhs)) < 1e-13
