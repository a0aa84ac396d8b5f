from dataclasses import replace
from math import pi

import numpy as np
import pytest

from photonsub import fock_core as fc
from photonsub import ng_metrics as ng
from photonsub import tomography as tg
from photonsub.homodyne_model import QuadratureSampler
from oracles import r_operator_from_vectors, rank_one_vectors


def _dataset_from_state(state, n, seed, n_c=None):
    rng = np.random.default_rng(seed)
    th1 = rng.random(n) * 2 * pi
    th2 = rng.random(n) * 2 * pi
    x1, x2 = QuadratureSampler(state).sample_batch(th1, th2, rng)
    return tg.TomographyDataset(x1, x2, th1, th2,
                                n_c=state.n_c if n_c is None else n_c)


def _vectors(data):
    return rank_one_vectors(data.x1, data.x2, data.theta1, data.theta2,
                            data.n_c)


@pytest.fixture(scope="module")
def vacuum_data():
    return _dataset_from_state(fc.TwoModeState.vacuum(2), 10_000, seed=1)


class TestDataset:
    def test_size_warning_below_dsquared(self):
        with pytest.warns(UserWarning, match="below D"):
            tg.TomographyDataset(np.zeros(3), np.zeros(3),
                                 np.zeros(3), np.zeros(3), n_c=2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            tg.TomographyDataset(np.array([np.nan]), np.zeros(1),
                                 np.zeros(1), np.zeros(1), n_c=0)

    def test_rejects_phase_out_of_range(self):
        with pytest.raises(ValueError):
            tg.TomographyDataset(np.zeros(1), np.zeros(1),
                                 np.array([7.0]), np.zeros(1), n_c=0)

    def test_canonical_order_is_permutation_invariant(self):
        rng = np.random.default_rng(0)
        cols = [rng.random(50), rng.random(50),
                rng.random(50) * 2 * pi, rng.random(50) * 2 * pi]
        a = tg.TomographyDataset(*cols, n_c=1)
        perm = rng.permutation(50)
        b = tg.TomographyDataset(*(c[perm] for c in cols), n_c=1)
        np.testing.assert_array_equal(a.x1, b.x1)
        np.testing.assert_array_equal(a.theta2, b.theta2)


class TestROperator:
    def test_single_record_uniform_state(self):
        with pytest.warns(UserWarning, match="below D"):
            data = tg.TomographyDataset(np.array([0.4]), np.array([-0.2]),
                                        np.array([0.3]), np.array([1.0]), n_c=2)
        d = 9
        rho = fc.TwoModeState(2, np.eye(d, dtype=complex) / d)
        r, floored = tg.r_operator(rho, data)
        assert floored == 0
        v = _vectors(data)[0]
        pi1 = np.outer(v, v.conj())
        expect = d * pi1 / np.trace(pi1).real
        np.testing.assert_allclose(r, expect, atol=1e-10)

    def test_hermitian_psd(self, vacuum_data):
        rho = fc.TwoModeState(2, np.eye(9, dtype=complex) / 9)
        r, _ = tg.r_operator(rho, vacuum_data)
        np.testing.assert_allclose(r, r.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(r)[0] > -1e-9

    def test_r_approaches_identity_for_true_state(self):
        # data drawn from rho itself: R/N -> I as N grows
        st = fc.TwoModeState.vacuum(2)
        dist = []
        for n in (1000, 10_000, 100_000):
            data = _dataset_from_state(st, n, seed=n)
            r, _ = tg.r_operator(st, data)
            dist.append(np.linalg.norm(r / n - np.eye(9), ord=2))
        assert dist[2] < dist[1] < dist[0]

    def test_floor_failure_raises(self):
        # extreme quadrature tails are zero-probability for any truncated
        # state; more than 1% of them must abort
        rng = np.random.default_rng(2)
        n = 500
        x1 = rng.normal(0, 0.7, n)
        x2 = rng.normal(0, 0.7, n)
        x1[:10] = 7.5
        x2[:10] = -7.5
        data = tg.TomographyDataset(x1, x2, np.zeros(n), np.zeros(n), n_c=2)
        rho = fc.TwoModeState(2, np.eye(9, dtype=complex) / 9)
        with pytest.raises(tg.RegularizationError):
            tg.r_operator(rho, data)


    @pytest.mark.parametrize("n_c", [1, 2, 6])
    def test_matches_complex_vector_formula(self, n_c):
        # random full-rank state; a few records far in the tails need the
        # probability floor, and both paths floor the same ones
        rng = np.random.default_rng(30 + n_c)
        d = (n_c + 1) ** 2
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a @ a.conj().T
        rho = fc.TwoModeState(n_c, rho / np.trace(rho).real)
        n = 3000
        x1, x2 = rng.normal(0, 0.8, (2, n))
        x1[:6] = 9.0
        data = tg.TomographyDataset(x1, x2, rng.random(n) * 2 * pi,
                                    rng.random(n) * 2 * pi, n_c=n_c)
        r, floored = tg.r_operator(rho, data)
        ref, _, ref_floored = r_operator_from_vectors(rho.matrix,
                                                      _vectors(data))
        assert floored == ref_floored > 0
        assert np.abs(r - ref).max() <= 1e-12 * np.abs(ref).max()


class TestStep:
    def test_trace_preserved(self, vacuum_data):
        rho = fc.TwoModeState(2, np.eye(9, dtype=complex) / 9)
        nxt, repairs = tg.rrhor_step(rho, vacuum_data)
        assert nxt.trace() == pytest.approx(1.0, abs=1e-12)
        assert repairs in (0, 1)
        nxt.validate()

    def test_step_matches_first_reconstruct_iteration(self, vacuum_data):
        # one shared update: bit-identical, not merely close
        rho = fc.TwoModeState(2, np.eye(9, dtype=complex) / 9)
        nxt, _ = tg.rrhor_step(rho, vacuum_data)
        with pytest.warns(UserWarning, match="stopping bound"):
            rep = tg.reconstruct(vacuum_data, max_iterations=1)
        np.testing.assert_array_equal(nxt.matrix, rep.rho.matrix)

    def test_fixed_point_on_complete_basis(self):
        # single-phase complete POVM with frequencies matching rho's
        # predictions exactly: one photon-number-diagonal mode pair
        n_c = 1
        d = 4
        diag = np.array([0.55, 0.2, 0.15, 0.1])
        rho = fc.TwoModeState(n_c, np.diag(diag).astype(complex))
        # dense grid of quadrature pairs weighted by predicted probability
        # emulated by many samples at the predicted density: instead check
        # stationarity through the R operator directly: R rho R ~ rho at
        # the true state for exact frequencies; use a fine quadrature grid
        xs = np.arange(-5, 5, 0.05) + 0.025
        X1, X2 = np.meshgrid(xs, xs)
        x1 = X1.ravel()
        x2 = X2.ravel()
        th = np.zeros_like(x1)
        data = tg.TomographyDataset(x1, x2, th, th, n_c=n_c)
        v = _vectors(data)
        p = np.einsum("ij,ij->i", v.conj() @ rho.matrix, v).real
        # weighted R with frequencies = predictions: R = sum_i w_i Pi_i/p_i
        # = sum_i Pi_i * dx^2 ~ identity on the truncated space
        r = (v.conj().T * (p * 0.05 * 0.05 / p)) @ v
        np.testing.assert_allclose(r, np.eye(d), atol=1e-4)
        rho2 = r @ rho.matrix @ r / np.trace(r @ rho.matrix @ r).real
        np.testing.assert_allclose(rho2, rho.matrix, atol=1e-3)

    def test_likelihood_nondecreasing_benign_case(self, vacuum_data):
        # the update is not guaranteed monotone in general; assert it only
        # for this benign vacuum dataset over ten steps
        rho = fc.TwoModeState(2, np.eye(9, dtype=complex) / 9)
        v = _vectors(vacuum_data)
        ll_first = None
        ll_last = None
        for _ in range(10):
            p = np.einsum("ij,ij->i", v.conj() @ rho.matrix, v).real
            ll = np.log(np.clip(p, 1e-300, None)).sum()
            if ll_first is None:
                ll_first = ll
            ll_last = ll
            rho, _ = tg.rrhor_step(rho, vacuum_data)
        assert ll_last >= ll_first


class TestReconstruct:
    def test_vacuum_reconstruction(self):
        # the exact MLE at D=49, N=1e4 spreads ~3% weight into noise modes
        # (likelihood-preferred over the true vacuum); the derived oracle
        # value is F ~ 0.971, approaching 1 as N grows
        st = fc.TwoModeState.vacuum(6)
        data = _dataset_from_state(st, 10_000, seed=3)
        rep = tg.reconstruct(data, max_iterations=600)
        f = ng.uhlmann_fidelity(rep.rho, st)
        assert f > 0.96
        assert rep.converged
        assert rep.rho.trace() == pytest.approx(1.0, abs=1e-10)
        rep.rho.validate()

    def test_tmsv_self_consistency(self):
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, eta1=0.55, eta2=0.50)
        st = fc.lossy_subtracted_state(m, n_c=6)
        data = _dataset_from_state(st, 10_000, seed=4)
        rep = tg.reconstruct(data, max_iterations=1200)
        assert ng.uhlmann_fidelity(rep.rho, st) > 0.97

    def test_empty_dataset_rejected(self):
        with pytest.warns(UserWarning, match="below D"):
            data = tg.TomographyDataset(np.zeros(0), np.zeros(0),
                                        np.zeros(0), np.zeros(0), n_c=1)
        with pytest.raises(ValueError):
            tg.reconstruct(data)

    def test_nonconvergence_flagged(self, vacuum_data):
        with pytest.warns(UserWarning, match="stopping bound"):
            rep = tg.reconstruct(vacuum_data, max_iterations=2)
        assert not rep.converged
        assert rep.iterations == 2

    @pytest.mark.slow
    def test_accelerated_matches_plain_loop_in_half_the_iterations(self):
        # nominal (1,1) state; the plain reference iterates rrhor_step from
        # the maximally mixed state until the same stopping bound
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, eta1=0.55,
                                eta2=0.50, n_sub=1, m_sub=1)
        st = fc.lossy_subtracted_state(m, n_c=6)
        data = _dataset_from_state(st, 10_000, seed=11)
        n, eps = data.size, 1e-6
        rep = tg.reconstruct(data, epsilon=eps)
        assert rep.converged
        r, _ = tg.r_operator(rep.rho, data)
        assert np.linalg.eigvalsh(r)[-1] - n < eps * n

        rho = fc.TwoModeState(6, np.eye(49, dtype=complex) / 49)
        for plain_iterations in range(1, 2001):
            r, _ = tg.r_operator(rho, data)
            if np.linalg.eigvalsh(r)[-1] - n < eps * n:
                break
            rho, _ = tg.rrhor_step(rho, data)
        else:
            pytest.fail("plain RρR did not reach the stopping bound")
        assert ng.uhlmann_fidelity(rep.rho, st) == pytest.approx(
            ng.uhlmann_fidelity(rho, st), abs=1e-3)
        assert ng.log_negativity(rep.rho) == pytest.approx(
            ng.log_negativity(rho), abs=1e-3)
        assert rep.iterations <= plain_iterations // 2

    def test_permutation_invariance_bit_identical(self):
        st = fc.TwoModeState.vacuum(1)
        rng = np.random.default_rng(9)
        n = 400
        th1 = rng.random(n) * 2 * pi
        th2 = rng.random(n) * 2 * pi
        x1, x2 = QuadratureSampler(st).sample_batch(th1, th2, rng)
        perm = rng.permutation(n)
        with pytest.warns(UserWarning, match="stopping bound"):
            rep_a = tg.reconstruct(
                tg.TomographyDataset(x1, x2, th1, th2, n_c=1), max_iterations=40)
        with pytest.warns(UserWarning, match="stopping bound"):
            rep_b = tg.reconstruct(
                tg.TomographyDataset(x1[perm], x2[perm], th1[perm], th2[perm],
                                     n_c=1),
                max_iterations=40)
        np.testing.assert_array_equal(rep_a.rho.matrix, rep_b.rho.matrix)

    def test_offladder_elements_small(self):
        # photon-number-ladder-diagonal state: off-ladder coherences of the
        # reconstruction stay within the 5/sqrt(N) noise scale
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, eta1=0.55, eta2=0.50)
        st = fc.lossy_subtracted_state(m, n_c=3)
        n = 20_000
        data = _dataset_from_state(st, n, seed=5)
        rep = tg.reconstruct(data, max_iterations=800)
        d = 4
        bound = 5.0 / np.sqrt(n)
        for i1 in range(d):
            for j1 in range(d):
                for i2 in range(d):
                    for j2 in range(d):
                        if (i1 - i2) == (j1 - j2):
                            continue
                        val = abs(rep.rho.matrix[i1 * d + j1, i2 * d + j2])
                        assert val < bound


class TestRollingVariance:
    def _make(self, state, n, seed):
        rng = np.random.default_rng(seed)
        th1 = rng.random(n) * 2 * pi
        th2 = rng.random(n) * 2 * pi
        x1, x2 = QuadratureSampler(state).sample_batch(th1, th2, rng)
        return tg.TomographyDataset(x1, x2, th1, th2, n_c=state.n_c)

    def test_vacuum_flat_half(self):
        data = self._make(fc.TwoModeState.vacuum(2), 6000, seed=6)
        phase, var = rolling = tg.rolling_variance(data, window=500)
        assert var.shape == phase.shape
        assert np.all(np.abs(var - 0.5) < 0.12)
        assert var.mean() == pytest.approx(0.5, abs=0.02)

    def test_squeezing_contrast_grows_with_subtraction(self):
        m00 = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, eta1=0.55, eta2=0.50)
        m11 = replace(m00, n_sub=1, m_sub=1)
        d00 = self._make(fc.lossy_subtracted_state(m00, 6), 8000, seed=7)
        d11 = self._make(fc.lossy_subtracted_state(m11, 6), 8000, seed=8)
        _, v00 = tg.rolling_variance(d00, window=500)
        _, v11 = tg.rolling_variance(d11, window=500)
        contrast00 = 10 * np.log10(v00.max() / v00.min())
        contrast11 = 10 * np.log10(v11.max() / v11.min())
        assert contrast11 > contrast00

    def test_window_exceeding_size_rejected(self):
        data = self._make(fc.TwoModeState.vacuum(1), 100, seed=9)
        with pytest.raises(ValueError):
            tg.rolling_variance(data, window=101)
