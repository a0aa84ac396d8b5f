import io
import struct
import warnings
from dataclasses import replace
from math import comb, cosh, sqrt, tanh

import numpy as np
import pytest

from photonsub import fock_core as fc
from oracles import (
    beamsplitter_unitary,
    circuit_oracle,
    CutoffTooSmallError,
    kraus_lossy_state,
    naive_coefficient,
    naive_norm_sq,
    pure_ladder_amplitudes,
)

NOMINAL = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, eta1=0.55, eta2=0.50,
                            n_sub=1, m_sub=1)


class TestSubtractionModel:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            fc.SubtractionModel(r=-0.1, R1=0.1, R2=0.1)
        with pytest.raises(ValueError):
            fc.SubtractionModel(r=0.3, R1=1.2, R2=0.1)
        with pytest.raises(ValueError):
            fc.SubtractionModel(r=0.3, R1=0.1, R2=0.1, eta1=-0.01)
        with pytest.raises(ValueError):
            fc.SubtractionModel(r=0.3, R1=0.1, R2=0.1, n_sub=-1)

    def test_derived_quantities(self):
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14)
        assert m.t_r == pytest.approx(tanh(0.3))
        assert m.effective_squeezing == pytest.approx(tanh(0.3) * 0.86)
        assert 0 <= m.effective_squeezing < 1


class TestCoefficient:
    def test_k000_closed_form(self):
        # c_{k,0,0} = (-t_r)^k (1-R_S)^k
        for RS in (0.05, 0.14, 0.5):
            m = fc.SubtractionModel(r=0.3, R1=RS, R2=RS)
            for k in range(6):
                assert fc.subtraction_coefficient(k, m) == pytest.approx(
                    (-tanh(0.3)) ** k * (1 - RS) ** k, abs=1e-15)

    def test_below_signature_is_zero(self):
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, n_sub=1, m_sub=1)
        assert fc.subtraction_coefficient(0, m) == 0.0

    def test_k11_closed_form(self):
        # c_{k,1,1} = k (-t_r)^k (1-R_S)^{k-1} R_S
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, n_sub=1, m_sub=1)
        tr = tanh(0.3)
        for k in (1, 2, 5):
            expect = k * (-tr) ** k * 0.86 ** (k - 1) * 0.14
            assert fc.subtraction_coefficient(k, m) == pytest.approx(expect, rel=1e-12)

    def test_against_circuit_oracle_amplitudes(self):
        # the oracle's projected ladder carries (-1)^(n+m) sqrt(1-t^2) c_k
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, n_sub=1, m_sub=1)
        st = circuit_oracle(m, n_c=6)
        psi = st.oracle_pure_amplitudes
        pref = (-1) ** 2 * sqrt(1 - tanh(0.3) ** 2)
        for k in range(1, 8):
            got = psi[k - 1, k - 1] / pref
            assert got == pytest.approx(fc.subtraction_coefficient(k, m), abs=1e-12)

    def test_table(self):
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, n_sub=1, m_sub=1)
        tab = np.array([fc.subtraction_coefficient(k, m) for k in range(11)])
        assert tab[0] == 0.0
        # alternating sign of the nonzero entries
        nz = tab[1:]
        assert np.all(np.sign(nz) == [(-1) ** k for k in range(1, 11)])


class TestNormalization:
    def test_00_closed_form(self):
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14)
        tr2 = tanh(0.3) ** 2
        assert fc.normalization_sq(m) == pytest.approx(1 / (1 - tr2 * 0.86 ** 2), rel=1e-14)

    def test_no_subtraction_recovers_tmsv_norm(self):
        m = fc.SubtractionModel(r=0.3, R1=0.0, R2=0.0)
        assert fc.normalization_sq(m) == pytest.approx(cosh(0.3) ** 2, rel=1e-13)

    def test_11_closed_equals_series(self):
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, n_sub=1, m_sub=1)
        closed = fc.normalization_sq(m)
        assert closed == pytest.approx(naive_norm_sq(1, 1, 0.3, 0.14, 0.14), rel=1e-12)

    def test_series_path_unequal_reflectivities(self):
        m = fc.SubtractionModel(r=0.45, R1=0.10, R2=0.22, n_sub=1, m_sub=2)
        assert fc.normalization_sq(m) == pytest.approx(
            naive_norm_sq(1, 2, 0.45, 0.10, 0.22), rel=1e-12)

    def test_divergence_guard(self):
        class Unclamped(fc.SubtractionModel):
            @property
            def effective_squeezing(self):
                return 1.0

        with pytest.raises(fc.DivergenceError):
            fc.normalization_sq(Unclamped(r=50.0, R1=0.0, R2=0.0))


class TestSuccessProbability:
    def test_00_closed_form(self):
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14)
        tr2 = tanh(0.3) ** 2
        assert fc.success_probability(m) == pytest.approx(
            (1 - tr2) / (1 - tr2 * 0.86 ** 2), rel=1e-13)

    def test_zero_reflectivity_kills_subtraction(self):
        m = fc.SubtractionModel(r=0.3, R1=0.0, R2=0.0, n_sub=1, m_sub=1)
        assert fc.success_probability(m) == 0.0

    def test_probabilities_sum_to_one(self):
        base = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14)
        total = sum(fc.success_probability(replace(base, n_sub=n, m_sub=m))
                    for n in range(21) for m in range(21))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestPureState:
    def test_00_is_reduced_tmsv(self):
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14)
        st = fc.pure_subtracted_state(m, n_c=8)
        lam = m.effective_squeezing
        pops = np.array([st.population(k, k) for k in range(9)])
        expect = (1 - lam ** 2) * lam ** (2 * np.arange(9))
        np.testing.assert_allclose(pops, expect / expect.sum(), atol=1e-12)

    def test_trace_one(self):
        st = fc.pure_subtracted_state(
            fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, n_sub=1, m_sub=1), n_c=6)
        assert st.trace() == pytest.approx(1.0, abs=1e-12)
        st.validate()

    def test_11_populations_quadratic_ladder(self):
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, n_sub=1, m_sub=1)
        st = fc.pure_subtracted_state(m, n_c=6)
        lam = m.effective_squeezing
        pops = np.array([st.population(k, k) for k in range(7)])
        expect = (np.arange(7) + 1.0) ** 2 * lam ** (2 * np.arange(7))
        np.testing.assert_allclose(pops / pops[0], expect / expect[0], atol=1e-10)

    def test_matches_circuit_oracle(self):
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, n_sub=1, m_sub=1)
        st = fc.pure_subtracted_state(m, n_c=6)
        orc = circuit_oracle(m, n_c=6)
        np.testing.assert_allclose(st.matrix, orc.matrix, atol=1e-12)

    def test_requires_unit_transmissivity(self):
        with pytest.raises(ValueError):
            fc.pure_subtracted_state(NOMINAL, n_c=6)

    def test_zero_probability_signature(self):
        m = fc.SubtractionModel(r=0.0, R1=0.14, R2=0.14, n_sub=1, m_sub=1)
        with pytest.raises(fc.ZeroProbabilityError):
            fc.pure_subtracted_state(m, n_c=6)

    def test_no_weight_inside_the_cutoff(self):
        # every ladder term |k-3, k> has k >= 3 photons in mode 2
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, n_sub=3, m_sub=0)
        with pytest.warns(fc.TruncationWarning), \
                pytest.raises(fc.ZeroProbabilityError):
            fc.pure_subtracted_state(m, n_c=2)

    def test_truncation_warning(self):
        m = fc.SubtractionModel(r=1.4, R1=0.01, R2=0.01)
        with pytest.warns(fc.TruncationWarning):
            fc.pure_subtracted_state(m, n_c=2)


class TestLossyState:
    def test_unit_eta_reduces_to_pure(self):
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, n_sub=1, m_sub=1)
        lossy = fc.lossy_subtracted_state(m, n_c=6)
        # the projector on the ladder amplitudes inside the cutoff
        v = pure_ladder_amplitudes(1, 1, m.r, m.R1, m.R2, dw=7).ravel()
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(lossy.matrix, np.outer(v, v), atol=1e-12)

    def test_full_loss_gives_vacuum(self):
        m = fc.SubtractionModel(r=0.3, R1=0.14, R2=0.14, eta1=0.0, eta2=0.0,
                                n_sub=1, m_sub=1)
        st = fc.lossy_subtracted_state(m, n_c=4)
        np.testing.assert_allclose(st.matrix, fc.TwoModeState.vacuum(4).matrix,
                                   atol=1e-12)

    def test_nominal_state_against_kraus_oracle(self):
        st = fc.lossy_subtracted_state(NOMINAL, n_c=6)
        psi = pure_ladder_amplitudes(1, 1, 0.3, 0.14, 0.14, dw=30)
        ref = kraus_lossy_state(psi, 0.55, 0.50, n_c=6)
        np.testing.assert_allclose(st.matrix, ref, atol=1e-10)
        st.validate()

    def test_against_circuit_oracle(self):
        st = fc.lossy_subtracted_state(NOMINAL, n_c=6)
        orc = circuit_oracle(NOMINAL, n_c=6)
        np.testing.assert_allclose(st.matrix, orc.matrix, atol=1e-10)


class TestCircuitOracle:
    def test_zero_reflectivity_is_identity(self):
        m = fc.SubtractionModel(r=0.3, R1=0.0, R2=0.0)
        st = circuit_oracle(m, n_c=6)
        lam = tanh(0.3)
        pops = np.array([st.population(k, k) for k in range(7)])
        expect = (1 - lam ** 2) * lam ** (2 * np.arange(7))
        np.testing.assert_allclose(pops, expect / expect.sum(), atol=1e-12)

    @pytest.mark.parametrize("convention, sign", [("subtract", -1), ("loss", 1)],
                             ids=["subtract", "loss"])
    def test_beamsplitter_binomial_amplitudes(self, convention, sign):
        # <k-n, n|U|k, 0> = sign^n sqrt(C(k,n) (1-R)^(k-n) R^n)
        R = 0.14
        dim = 9
        u = beamsplitter_unitary(np.arcsin(sqrt(R)), dim, convention)
        for k in range(dim):
            for n in range(k + 1):
                amp = u[(k - n) * dim + n, k * dim + 0]
                expect = sign ** n * sqrt(comb(k, n) * (1 - R) ** (k - n) * R ** n)
                assert amp == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("dim", [30, 33])
    def test_beamsplitter_orthogonal(self, dim):
        # real and orthogonal to rounding on every block, truncated ones too
        u = beamsplitter_unitary(np.pi / 4, dim)
        assert np.abs(u @ u.T - np.eye(dim * dim)).max() <= 1e-13

    def test_success_probability_matches(self):
        st = circuit_oracle(NOMINAL, n_c=6)
        assert st.oracle_success_probability == pytest.approx(
            fc.success_probability(NOMINAL), rel=1e-10)

    def test_cutoff_guard(self):
        with pytest.raises(CutoffTooSmallError):
            circuit_oracle(NOMINAL, n_c=2, n_c_work=3)


@pytest.mark.slow
class TestCrossValidationGrid:
    """Closed forms vs circuit and Kraus oracles over the parameter grid."""

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.6])
    @pytest.mark.parametrize("R", [0.05, 0.14, 0.5])
    def test_norms_and_probabilities(self, r, R):
        for n in range(3):
            for m in range(3):
                mdl = fc.SubtractionModel(r=r, R1=R, R2=R, n_sub=n, m_sub=m)
                c2 = fc.normalization_sq(mdl)
                assert c2 == pytest.approx(naive_norm_sq(n, m, r, R, R), rel=1e-12)
                for k in range(max(n, m), max(n, m) + 6):
                    assert fc.subtraction_coefficient(k, mdl) == pytest.approx(
                        naive_coefficient(k, n, m, r, R, R), abs=1e-14)

    @pytest.mark.parametrize("eta", [1.0, 0.8, 0.5])
    @pytest.mark.parametrize("r", [0.1, 0.3, 0.6])
    @pytest.mark.filterwarnings("ignore::photonsub.fock_core.TruncationWarning")
    def test_lossy_equals_both_oracles(self, r, eta):
        # high-r corners legitimately discard >1e-3 weight at n_c=6; the
        # truncation warning is the contract, not a failure
        R = 0.14
        for n, m in [(0, 0), (1, 1), (2, 1), (2, 2)]:
            mdl = fc.SubtractionModel(r=r, R1=R, R2=R, eta1=eta, eta2=eta,
                                      n_sub=n, m_sub=m)
            st = fc.lossy_subtracted_state(mdl, n_c=6)
            orc = circuit_oracle(mdl, n_c=6)
            np.testing.assert_allclose(st.matrix, orc.matrix, atol=1e-10)
            psi = pure_ladder_amplitudes(n, m, r, R, R, dw=34)
            ref = kraus_lossy_state(psi, eta, eta, n_c=6)
            np.testing.assert_allclose(st.matrix, ref, atol=1e-10)
            st.validate()


class TestStateContainer:
    def test_vacuum(self):
        v = fc.TwoModeState.vacuum(3)
        assert v.population(0, 0) == 1.0
        assert v.trace() == pytest.approx(1.0)
        v.validate()

    def test_index_order_row_major(self):
        st = fc.TwoModeState.vacuum(2)
        assert st.index(1, 2) == 1 * 3 + 2

    def test_dump_round_trip(self, tmp_path):
        st = fc.lossy_subtracted_state(NOMINAL, n_c=4)
        p = tmp_path / "state.tms"
        st.save(p)
        back = fc.TwoModeState.load(p)
        assert back.n_c == 4
        assert back.truncation_weight == st.truncation_weight
        np.testing.assert_array_equal(back.matrix, st.matrix)

    def test_dump_rejects_garbage(self):
        with pytest.raises(ValueError):
            fc.TwoModeState.from_dump(b"not a dump at all")

    @pytest.mark.parametrize("raw, match", [
        (b"TMST\x01\x02\x00", "not a two-mode state dump"),
        (fc.TwoModeState.vacuum(2).dump()[:-1], "a cutoff-2 dump has"),
        (fc.TwoModeState.vacuum(2).dump() + b"\x00", "a cutoff-2 dump has"),
        (b"TMST\x01" + struct.pack("<Id", 60000, 0.0), "above 20"),
        (fc.TwoModeState(1, np.full((4, 4), np.inf)).dump(), "non-finite"),
        (b"TMST\x01" + struct.pack("<Id", 0, np.nan) + bytes(16),
         "non-finite"),
        (fc.TwoModeState(1, np.diag([1.5e308, 1.5e308, -1.5e308, -1.5e308])
                         .astype(complex)).dump(), "oversized"),
    ], ids=["short header", "truncated", "trailing byte", "huge cutoff",
            "inf entries", "nan weight", "overflowing entries"])
    def test_dump_refuses_malformed(self, raw, match):
        with pytest.raises(ValueError, match=match):
            fc.TwoModeState.from_dump(raw)

    def test_validate_catches_bad_trace(self):
        st = fc.TwoModeState.vacuum(2)
        st.matrix[0, 0] = 2.0
        with pytest.raises(ValueError):
            st.validate()
