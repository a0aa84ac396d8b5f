from dataclasses import replace
from math import log2, sqrt, tanh

import numpy as np
import pytest
from scipy.linalg import sqrtm

from photonsub import fock_core as fc
from photonsub import ng_metrics as ng
import landscape
from oracles import closed_form_log_negativity

NOMINAL_00 = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, eta1=0.55, eta2=0.50)
NOMINAL_11 = replace(NOMINAL_00, n_sub=1, m_sub=1)


@pytest.fixture(scope="module")
def nominal_states():
    return (fc.lossy_subtracted_state(NOMINAL_00, n_c=10),
            fc.lossy_subtracted_state(NOMINAL_11, n_c=10))


class TestUhlmannFidelity:
    def test_self_fidelity_is_one(self, nominal_states):
        s00, s11 = nominal_states
        assert ng.uhlmann_fidelity(s00, s00) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_projector(self):
        v = fc.TwoModeState.vacuum(4)
        assert ng.uhlmann_fidelity(v, fc.TwoModeState.vacuum(4)) == pytest.approx(1.0)

    def test_pure_target_reduces_to_overlap(self, nominal_states):
        s00, _ = nominal_states
        vac = fc.TwoModeState.vacuum(10)
        assert ng.uhlmann_fidelity(s00, vac) == pytest.approx(
            s00.population(0, 0), rel=1e-10)

    def test_against_scipy_sqrtm_oracle(self, nominal_states):
        s00, s11 = nominal_states
        sq = sqrtm(s00.matrix)
        ref = np.real(np.trace(sqrtm(sq @ s11.matrix @ sq))) ** 2
        assert ng.uhlmann_fidelity(s00, s11) == pytest.approx(ref, abs=1e-8)

    def test_symmetry(self, nominal_states):
        s00, s11 = nominal_states
        assert ng.uhlmann_fidelity(s00, s11) == pytest.approx(
            ng.uhlmann_fidelity(s11, s00), abs=1e-10)

    def test_cutoff_mismatch_rejected(self, nominal_states):
        s00, _ = nominal_states
        with pytest.raises(ValueError):
            ng.uhlmann_fidelity(s00, fc.TwoModeState.vacuum(4))

    def test_non_psd_rejected(self):
        bad = fc.TwoModeState.vacuum(2)
        bad.matrix[1, 1] = -0.5
        bad.matrix[0, 0] = 1.5
        with pytest.raises(ValueError):
            ng.uhlmann_fidelity(bad, fc.TwoModeState.vacuum(2))


class TestLogNegativity:
    def test_product_state_is_ppt(self):
        assert ng.log_negativity(fc.TwoModeState.vacuum(5)) == 0.0

    def test_pure_ladder_closed_form(self):
        # lambda = 0.25 via r chosen so tanh(r)(1-R)=0.25 with R=0.
        # At n_c=10 the ladder amplitude tail lam^11 limits agreement to
        # ~7e-7; the infinite closed form is approached as n_c grows.
        lam = 0.25
        m = fc.SubtractionModel(r=np.arctanh(lam), R1=0.0, R2=0.0)
        st = fc.pure_subtracted_state(m, n_c=10)
        target = log2((1 + lam) / (1 - lam))
        assert ng.log_negativity(st) == pytest.approx(target, abs=1e-6)
        st16 = fc.pure_subtracted_state(m, n_c=16)
        assert ng.log_negativity(st16) == pytest.approx(target, abs=1e-8)

    def test_trace_norm_equals_schmidt_sum(self):
        # exact identity on the truncated ladder: ||rho_PT||_1 = (sum |a_k|)^2
        lam = 0.25
        m = fc.SubtractionModel(r=np.arctanh(lam), R1=0.0, R2=0.0)
        st = fc.pure_subtracted_state(m, n_c=10)
        amps = np.sqrt([st.population(k, k) for k in range(11)])
        assert ng.log_negativity(st) == pytest.approx(
            2 * np.log2(amps.sum()), abs=1e-10)

    def test_nominal_lossy_values(self, nominal_states):
        s00, s11 = nominal_states
        assert ng.log_negativity(s00) == pytest.approx(0.34, abs=0.01)
        assert ng.log_negativity(s11) == pytest.approx(0.55, abs=0.01)

    def test_transpose_mode_choice_irrelevant(self, nominal_states):
        _, s11 = nominal_states
        assert ng.log_negativity(s11, mode=1) == pytest.approx(
            ng.log_negativity(s11, mode=2), abs=1e-12)

    def test_local_phase_invariance(self, nominal_states):
        _, s11 = nominal_states
        d = s11.n_c + 1
        ph = np.kron(np.exp(1j * 0.7 * np.arange(d)),
                     np.exp(1j * 1.3 * np.arange(d)))
        rot = fc.TwoModeState(s11.n_c, ph[:, None] * s11.matrix * ph.conj()[None, :])
        assert ng.log_negativity(rot) == pytest.approx(
            ng.log_negativity(s11), abs=1e-10)


class TestClosedFormLogNegativity:
    def test_zero_squeezing(self):
        assert closed_form_log_negativity(0.0, subtracted=False) == 0.0
        assert closed_form_log_negativity(0.0, subtracted=True) == 0.0

    def test_subtraction_gain_nonnegative(self):
        for lam in np.linspace(0.0, 0.95, 40):
            gain = (closed_form_log_negativity(lam, True)
                    - closed_form_log_negativity(lam, False))
            assert gain == pytest.approx(
                log2((1 + lam) ** 2 / (1 + lam ** 2)), abs=1e-12)
            assert gain >= 0.0

    def test_against_numeric_pt(self):
        # the (k+1) lam^k ladder converges slowly at lam=0.464: the n_c=12
        # truncation shifts E_N by ~1e-3, shrinking as the cutoff grows
        lam = 0.464
        m = fc.SubtractionModel(r=np.arctanh(lam / 0.9), R1=0.1, R2=0.1,
                                n_sub=1, m_sub=1)
        assert m.effective_squeezing == pytest.approx(lam, abs=1e-12)
        target = closed_form_log_negativity(lam, subtracted=True)
        st = fc.pure_subtracted_state(m, n_c=12)
        assert ng.log_negativity(st) == pytest.approx(target, abs=2e-3)
        # exact Schmidt-sum identity on the same truncated state
        amps = np.sqrt([st.population(k, k) for k in range(13)])
        assert ng.log_negativity(st) == pytest.approx(
            2 * np.log2(amps.sum()), abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            closed_form_log_negativity(1.0, subtracted=False)


class TestFock11Closed:
    def test_max_f00_quarter(self):
        fmax, lam_star = landscape.max_fidelity_over_lambda(eta=1.0, n=0)
        assert fmax == pytest.approx(0.25, abs=1e-9)
        assert lam_star == pytest.approx(1 / sqrt(2), abs=1e-4)

    def test_max_f11(self):
        fmax, lam_star = landscape.max_fidelity_over_lambda(eta=1.0, n=1)
        assert fmax == pytest.approx(8 / 27 * (316 - 119 * sqrt(7)), abs=1e-9)
        assert lam_star == pytest.approx(sqrt((sqrt(7) - 2) / 3), abs=1e-4)

    def test_zero_squeezing_zero_fidelity(self):
        for n in (0, 1, 2):
            assert ng.fock11_fidelity_closed(0.0, 0.8, n) == 0.0

    def test_matches_lossy_state_element(self):
        # cross-module check of the general loss sum against the closed form
        for eta in (1.0, 0.8, 0.55):
            for n in (0, 1, 2):
                m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14,
                                        eta1=eta, eta2=eta, n_sub=n, m_sub=n)
                st = fc.lossy_subtracted_state(m, n_c=10)
                lam = m.effective_squeezing
                assert st.population(1, 1) == pytest.approx(
                    ng.fock11_fidelity_closed(lam, eta, n), abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ng.fock11_fidelity_closed(1.2, 1.0, 1)
        with pytest.raises(ValueError):
            ng.fock11_fidelity_closed(0.3, 1.4, 1)
        with pytest.raises(ValueError):
            ng.fock11_fidelity_closed(0.3, 1.0, 3)

    def test_minimal_transmissivities(self):
        assert landscape.minimal_transmissivity(1) == pytest.approx(
            0.83, abs=0.01)
        assert landscape.minimal_transmissivity(2) == pytest.approx(
            0.77, abs=0.01)

    def test_lambda_crossings(self):
        lo, hi = landscape.witness_lambda_crossings(eta=1.0, n=1)
        assert lo == pytest.approx(0.30, abs=0.005)
        assert hi == pytest.approx(0.63, abs=0.005)


class TestWitness:
    def _state_with_f11(self, f):
        d = 3
        m = np.zeros((d * d, d * d), dtype=complex)
        m[d + 1, d + 1] = f
        m[0, 0] = 1 - f
        return fc.TwoModeState(2, m)

    @pytest.mark.parametrize("f,expect", [
        (0.20, ng.StellarRankClass.RANK0_PLUS),
        (0.30, ng.StellarRankClass.RANK1_PLUS),
        (0.60, ng.StellarRankClass.RANK2_PLUS),
    ])
    def test_classification(self, f, expect):
        res = ng.witness(self._state_with_f11(f))
        assert res.rank_class is expect
        assert res.fidelity_11 == pytest.approx(f)

    def test_boundaries(self):
        eps = 1e-6
        assert ng.witness(self._state_with_f11(0.25 - eps)).rank_class is \
            ng.StellarRankClass.RANK0_PLUS
        assert ng.witness(self._state_with_f11(0.25 + eps)).rank_class is \
            ng.StellarRankClass.RANK1_PLUS
        assert ng.witness(self._state_with_f11(0.532 - eps)).rank_class is \
            ng.StellarRankClass.RANK1_PLUS
        assert ng.witness(self._state_with_f11(0.532 + eps)).rank_class is \
            ng.StellarRankClass.RANK2_PLUS

    def test_nominal_states_are_rank0(self, nominal_states):
        _, s11 = nominal_states
        assert ng.witness(s11).rank_class is ng.StellarRankClass.RANK0_PLUS

    def test_lossless_optimal_state_is_rank1(self):
        lam = 0.464
        m = fc.SubtractionModel(r=np.arctanh(lam / 0.9), R1=0.1, R2=0.1,
                                n_sub=1, m_sub=1)
        st = fc.pure_subtracted_state(m, n_c=10)
        assert ng.witness(st).rank_class is ng.StellarRankClass.RANK1_PLUS


class TestContourTable:
    def test_format_and_values(self):
        txt = ng.contour_table(0.5)
        lines = [l for l in txt.splitlines() if l and not l.startswith("#")]
        # n = 0, 1, 2 over lambda 0, 0.5 and eta 0, 0.5, 1
        assert len(lines) == 3 * 2 * 3
        for line in lines:
            cols = line.split()
            assert len(cols) == 4
            n, lam, eta, f = int(cols[0]), float(cols[1]), float(cols[2]), float(cols[3])
            assert f == pytest.approx(ng.fock11_fidelity_closed(lam, eta, n), abs=1e-8)
