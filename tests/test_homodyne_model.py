import sys
from math import pi, sqrt

import numpy as np
import pytest
from scipy.special import eval_hermite, factorial
from scipy.stats import chi2

from photonsub import fock_core as fc
from photonsub import homodyne_model as hm
from photonsub import parallel
from oracles import (quadrature_operator, quadrature_vector, rank_one_vectors,
                     sequential_sample_batch)


def povm_matrix(x, theta, n_c):
    """Rank-1 homodyne projector |x_theta><x_theta| on one truncated mode."""
    v = quadrature_vector(x, theta, n_c)
    return np.outer(v, v.conj())


def vector_density(state, x1, x2, th1, th2):
    """<v1 v2| rho |v1 v2> per point, from the oracle's rank-one vectors."""
    v = rank_one_vectors(x1, x2, th1, th2, state.n_c)
    return ((v.conj() @ state.matrix) * v).sum(axis=1).real


class TestWavefunction:
    def test_ground_state_at_origin(self):
        assert hm.hermite_functions(0, 0.0)[0] == pytest.approx(pi ** -0.25)

    def test_odd_parity_vanishes_at_origin(self):
        assert hm.hermite_functions(1, 0.0)[1] == pytest.approx(0.0, abs=1e-300)

    def test_normalization_by_quadrature(self):
        x = np.arange(-8.0, 8.0 + 1e-9, 1e-3)
        psi6 = hm.hermite_functions(6, x)[6]
        assert np.trapezoid(psi6 ** 2, x) == pytest.approx(1.0, abs=1e-6)

    def test_matches_scipy_hermite(self):
        x = np.linspace(-4, 4, 101)
        for n in (0, 1, 3, 7):
            ref = (eval_hermite(n, x) * np.exp(-x * x / 2)
                   / sqrt(2.0 ** n * factorial(n) * sqrt(pi)))
            np.testing.assert_allclose(hm.hermite_functions(n, x)[n], ref,
                                       atol=1e-12)

    def test_overflow_free_high_order(self):
        x = np.linspace(-10, 10, 201)
        vals = hm.hermite_functions(60, x)
        assert np.all(np.isfinite(vals))


class TestPovm:
    def test_zero_phase_real_symmetric(self):
        el = povm_matrix(0.7, 0.0, 6)
        assert np.abs(el.imag).max() == 0.0
        np.testing.assert_allclose(el, el.T, atol=1e-15)

    def test_entry_phases(self):
        th = 0.9
        el = povm_matrix(0.3, th, 5)
        mag = np.abs(el)
        mask = mag > 1e-14
        expect = np.exp(-1j * th * (np.arange(6)[:, None] - np.arange(6)[None, :]))
        ratio = np.ones_like(el)
        ratio[mask] = el[mask] / mag[mask]
        signs = np.sign(el.real * expect.real + el.imag * expect.imag)
        np.testing.assert_allclose((ratio * signs)[mask], expect[mask], atol=1e-12)

    def test_completeness_by_quadrature(self):
        # integral of Pi(x, theta) dx approximates the identity
        n_c = 6
        x = np.arange(-8.0, 8.0, 2e-3)
        psi = hm.hermite_functions(n_c, x)
        gram = (psi * 2e-3) @ psi.T
        np.testing.assert_allclose(gram, np.eye(n_c + 1), atol=1e-6)

    def test_completeness_n8(self):
        n_c = 8
        x = np.arange(-8.0, 8.0, 1e-3)
        psi = hm.hermite_functions(n_c, x)
        gram = (psi * 1e-3) @ psi.T
        np.testing.assert_allclose(gram, np.eye(n_c + 1), atol=1e-6)

    def test_rank_one_psd(self):
        w = np.linalg.eigvalsh(povm_matrix(-1.2, 2.1, 5))
        assert w[0] > -1e-14
        assert np.sum(w > 1e-12) == 1


class TestJointProbability:
    def test_vacuum_gaussian(self):
        v = fc.TwoModeState.vacuum(6)
        for x1, x2 in ((0.0, 0.0), (0.5, -0.3), (1.2, 1.2)):
            expect = np.exp(-x1 ** 2 - x2 ** 2) / pi
            assert vector_density(v, x1, x2, 0.3, 1.1)[0] == pytest.approx(
                expect, rel=1e-12)

    def test_normalization_2d(self):
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, eta1=0.55, eta2=0.50,
                                n_sub=1, m_sub=1)
        st = fc.lossy_subtracted_state(m, n_c=6)
        x = np.arange(-8.0, 8.0, 0.05)
        d = st.n_c + 1
        psi = hm.hermite_functions(st.n_c, x)
        gb = np.einsum("ng,mg->gnm", psi, psi).reshape(x.size, d * d)
        q = st.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        total = np.real(gb @ q @ gb.T).sum() * 0.05 ** 2
        assert total == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("n_c", [1, 2, 6])
    def test_pair_coordinates_match_the_vector_density(self, n_c):
        # alpha1^T K alpha2 at random states and points equals the complex
        # <v1 v2| rho |v1 v2> of the oracle's rank-one vectors
        rng = np.random.default_rng(40 + n_c)
        d = (n_c + 1) ** 2
        pc = hm.PairCoordinates(n_c)
        for _ in range(5):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = a @ a.conj().T
            st = fc.TwoModeState(n_c, rho / np.trace(rho).real)
            k = pc.density(st.matrix)
            for x1, x2, th1, th2 in zip(*rng.normal(size=(2, 8)),
                                        *rng.random((2, 8)) * 2 * pi):
                p = pc.alpha(x1, th1) @ k @ pc.alpha(x2, th2)
                assert p == pytest.approx(
                    vector_density(st, x1, x2, th1, th2)[0], rel=1e-12)

    def test_tmsv_squeezed_sum_quadrature(self):
        # under the phi=0 (-tanh r) convention the *sum* quadrature is
        # squeezed at theta1 = theta2 = 0: Var((x1+x2)/sqrt(2)) = e^{-2r}/2.
        # The moment oracle below is the arbiter of that sign choice.
        r = 0.3
        m = fc.SubtractionModel(r=r, R1=0.0, R2=0.0)
        st = fc.pure_subtracted_state(m, n_c=14)
        d = st.n_c + 1
        x_op = quadrature_operator(0.0, st.n_c)
        ident = np.eye(d)
        xx = np.kron(x_op, ident) @ np.kron(ident, x_op)
        x1sq = np.kron(x_op @ x_op, ident)
        x2sq = np.kron(ident, x_op @ x_op)
        var_sum = 0.5 * np.real(np.trace(st.matrix @ (x1sq + x2sq + 2 * xx)))
        var_diff = 0.5 * np.real(np.trace(st.matrix @ (x1sq + x2sq - 2 * xx)))
        assert var_sum == pytest.approx(np.exp(-2 * r) / 2, abs=1e-6)
        assert var_diff == pytest.approx(np.exp(+2 * r) / 2, abs=1e-4)


class TestSampler:
    def test_vacuum_statistics(self):
        v = fc.TwoModeState.vacuum(4)
        s = hm.QuadratureSampler(v)
        rng = np.random.default_rng(11)
        th = rng.random(100_000) * 2 * pi
        x1, x2 = s.sample_batch(th, rng.random(th.size) * 2 * pi, rng)
        assert x1.var() == pytest.approx(0.5, abs=0.01)
        assert x2.var() == pytest.approx(0.5, abs=0.01)
        assert abs(x1.mean()) < 3 * sqrt(0.5 / th.size)
        assert abs(x2.mean()) < 3 * sqrt(0.5 / th.size)

    def test_determinism(self):
        v = fc.TwoModeState.vacuum(3)
        s = hm.QuadratureSampler(v)
        out1 = s.sample_batch(np.ones(64) * 0.3, np.ones(64) * 0.9,
                              np.random.default_rng(5))
        out2 = s.sample_batch(np.ones(64) * 0.3, np.ones(64) * 0.9,
                              np.random.default_rng(5))
        np.testing.assert_array_equal(out1[0], out2[0])
        np.testing.assert_array_equal(out1[1], out2[1])

    def test_chi_square_against_analytic_density(self):
        # fixed phases, nominal (1,1) state: binned GOF on the x1 marginal of
        # the sampled pairs against the analytic joint density
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, eta1=0.55, eta2=0.50,
                                n_sub=1, m_sub=1)
        st = fc.lossy_subtracted_state(m, n_c=6)
        s = hm.QuadratureSampler(st)
        rng = np.random.default_rng(21)
        n = 100_000
        th1, th2 = 0.4, 1.7
        x1, x2 = s.sample_batch(np.full(n, th1), np.full(n, th2), rng)
        edges = np.linspace(-3.5, 3.5, 36)
        grid2 = np.arange(-6.0, 6.0, 0.02)
        # analytic joint integrated over x2 and over each x1 bin
        a, b = np.meshgrid(0.5 * (edges[:-1] + edges[1:]), grid2, indexing="ij")
        dens = vector_density(st, a.ravel(), b.ravel(), th1, th2).reshape(
            a.shape).sum(axis=1) * 0.02
        probs = dens * np.diff(edges)
        counts, _ = np.histogram(x1, bins=edges)
        inside = counts.sum()
        expected = probs / probs.sum() * inside
        keep = expected > 10
        stat = ((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        dof = keep.sum() - 1
        p = 1 - chi2.cdf(stat, dof)
        assert p > 0.01

    def test_marginal_variance_matches_operator_moment(self):
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, eta1=0.55, eta2=0.50,
                                n_sub=1, m_sub=1)
        st = fc.lossy_subtracted_state(m, n_c=6)
        s = hm.QuadratureSampler(st)
        rng = np.random.default_rng(3)
        n = 200_000
        th1 = 1.1
        x1, _ = s.sample_batch(np.full(n, th1), rng.random(n) * 2 * pi, rng)
        d = st.n_c + 1
        x_op = quadrature_operator(th1, st.n_c)
        xsq = np.kron(x_op @ x_op, np.eye(d))
        var_true = np.real(np.trace(st.matrix @ xsq))
        # 5 sigma statistical bound on the sample variance
        se = var_true * sqrt(2.0 / n)
        assert abs(x1.var() - var_true) < 5 * se + 1e-3

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("n", [3 * hm.DRAW_BLOCK + 77, 47])
    def test_draws_equal_the_sequential_loop(self, monkeypatch, workers, n):
        # uniforms read up front and COMPUTE_BLOCK tasks on any number of
        # workers, switching threads often, give the draws of one
        # DRAW_BLOCK block at a time; 47 draws fill part of one task
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, eta1=0.55,
                                eta2=0.50, n_sub=1, m_sub=1)
        s = hm.QuadratureSampler(fc.lossy_subtracted_state(m, n_c=6))
        phases = np.random.default_rng(8).random((2, n)) * 2 * pi
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = s.sample_batch(*phases, np.random.default_rng(13))
        finally:
            sys.setswitchinterval(interval)
        want = sequential_sample_batch(s, *phases, np.random.default_rng(13))
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_grid_mass_guard(self):
        # |14,14> reaches past the grid's +/-6: it holds 0.9963 of the mass
        st = fc.TwoModeState.vacuum(14)
        st.matrix[0, 0] = 0.0
        st.matrix[st.index(14, 14), st.index(14, 14)] = 1.0
        with pytest.raises(hm.GridMassError, match="holds 0.9963"):
            hm.QuadratureSampler(st)


class TestPhaseDrive:
    def test_origin(self):
        d = hm.PhaseDrive(ramp_frequency_hz=1000.0)
        (theta,), (code,), (in_ramp,) = d.evaluate([0])
        assert theta == 0.0
        assert code == hm.ADC_CODE_MIN
        assert in_ramp

    def test_flyback_fraction(self):
        d = hm.PhaseDrive(ramp_frequency_hz=10_000.0)
        t = np.arange(d.period_samples * 50)
        _, _, in_ramp = d.evaluate(t)
        frac = 1.0 - in_ramp.mean()
        assert frac == pytest.approx(0.001, rel=0.1)

    def test_code_range_and_monotone_ramp(self):
        d = hm.PhaseDrive(ramp_frequency_hz=10_000.0)
        t = np.arange(d.period_samples * 3)
        _, code, in_ramp = d.evaluate(t)
        assert code.min() >= hm.ADC_CODE_MIN
        assert code.max() <= hm.ADC_CODE_MAX
        ramp_codes = code[: d.ramp_samples]
        assert np.all(np.diff(ramp_codes) >= 0)
        fly = code[d.ramp_samples:d.period_samples]
        assert np.all(np.diff(fly) < 0)

    def test_code_phase_round_trip(self):
        d = hm.PhaseDrive(ramp_frequency_hz=1000.0)
        t = np.arange(0, d.period_samples, 97)
        theta, code, in_ramp = d.evaluate(t)
        back = d.theta_from_code(code[in_ramp])
        err = np.abs(back - theta[in_ramp])
        err = np.minimum(err, 2 * pi - err)
        assert err.max() < 2 * pi / 16384 + 1e-9

    def test_joint_phase_histogram_near_uniform(self):
        # 1 kHz + 10 kHz drives: sum and difference phases cover 2 pi with
        # max/min bin ratio below 1.5 over 0.1-rad bins
        da = hm.PhaseDrive(ramp_frequency_hz=1000.0)
        db = hm.PhaseDrive(ramp_frequency_hz=10_000.0)
        rng = np.random.default_rng(7)
        t = rng.integers(0, 100_000_000, size=400_000)
        tha, _, oka = da.evaluate(t)
        thb, _, okb = db.evaluate(t)
        ok = oka & okb
        bins = np.arange(0, 2 * pi + 0.1, 0.1)
        for joint in ((tha[ok] + thb[ok]) % (2 * pi),
                      (tha[ok] - thb[ok]) % (2 * pi)):
            counts, _ = np.histogram(joint, bins=bins)
            assert counts.max() / counts.min() < 1.5
