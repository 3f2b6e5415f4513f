"""Gate-count formulas and circuit-fidelity estimates."""

import math

import pytest

from gridamp import (
    ErrorRates,
    GenParams,
    alpha_from_formulas,
    alpha_general,
    alpha_square,
    count_gates,
    cz_layer,
    fidelity_report,
    g1_formula,
    g2_formula,
    generate,
)


class TestGateFormulas:
    def test_g2_headline_value(self):
        assert g2_formula(8, 8, 40) == 560

    def test_g2_zero_depth(self):
        assert g2_formula(5, 7, 0) == 0

    def test_g1_headline_value(self):
        assert g1_formula(8, 8, 40) == 5 * (192 - 17) - 16 == 859

    def test_g1_zero_depth_edge_case(self):
        assert g1_formula(4, 4, 0) == -4.0  # asymptotic formula, reported as-is

    def test_g2_exact_on_full_periods(self):
        for m, n, d in [(2, 2, 8), (4, 6, 16), (8, 8, 24)]:
            _, g2 = count_gates(generate(GenParams(m, n, d, seed=1)))
            assert g2 == g2_formula(m, n, d)

    def test_g2_deviation_bounded_off_period(self):
        # between full periods the formula interpolates; the error stays
        # under one cycle's worth of CZs
        for m, n in [(3, 4), (5, 5), (6, 4)]:
            biggest_layer = max(len(cz_layer(k, m, n)) for k in range(1, 9))
            for d in range(0, 17):
                _, g2 = count_gates(generate(GenParams(m, n, d, seed=0)))
                assert abs(g2 - g2_formula(m, n, d)) <= biggest_layer

    def test_g1_formula_approximates_exact_count(self):
        g1_exact, _ = count_gates(generate(GenParams(7, 7, 32, seed=5)))
        approx = g1_formula(7, 7, 32) + 49  # plus the Hadamard layer
        assert abs(g1_exact - approx) / g1_exact < 0.02


class TestAlpha:
    def test_zero_rates_give_unit_fidelity(self):
        rates = ErrorRates(0, 0, 0, 0)
        assert alpha_general(100, 100, 49, rates) == 1.0

    def test_init_and_measurement_only(self):
        rates = ErrorRates.from_two_qubit_rate(0.005)
        assert abs(alpha_general(0, 0, 1, rates) - math.exp(-0.01)) < 1e-15

    def test_monotone_decreasing(self):
        rates = ErrorRates.from_two_qubit_rate(0.005)
        base = alpha_general(100, 100, 49, rates)
        assert alpha_general(200, 100, 49, rates) < base
        assert alpha_general(100, 200, 49, rates) < base
        assert alpha_general(100, 100, 64, rates) < base
        assert alpha_square(49, 40, 0.006) < alpha_square(49, 40, 0.005)
        assert alpha_square(49, 48, 0.005) < alpha_square(49, 40, 0.005)
        assert alpha_square(64, 40, 0.005) < alpha_square(49, 40, 0.005)

    def test_zero_error_square(self):
        assert alpha_square(49, 40, 0.0) == 1.0

    def test_headline_square_value(self):
        assert abs(alpha_square(49, 40, 0.005) - math.exp(-2.938375)) < 1e-9

    def test_formula_composition_matches_square_form(self):
        rates = ErrorRates.from_two_qubit_rate(0.005)
        for mn in (6, 7, 8):
            for d in (8, 16, 24, 40):
                a = alpha_from_formulas(mn, mn, d, rates)
                b = alpha_square(mn * mn, d, 0.005)
                assert abs(a - b) / b < 1e-6

    def test_non_square_warns(self):
        with pytest.warns(UserWarning):
            alpha_square(12, 8, 0.005)

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ErrorRates(eps1=0.1, eps2=1.5, eps_init=0, eps_mes=0)


class TestReport:
    def test_report_without_circuit(self):
        r = fidelity_report(6, 6, 16, ErrorRates.from_two_qubit_rate(0.005))
        assert r.g2 == g2_formula(6, 6, 16)
        assert r.g1_exact is None
        assert 0 < r.alpha_general <= 1
        assert 0 < r.alpha_square <= 1

    def test_report_with_circuit_uses_exact_counts(self):
        c = generate(GenParams(6, 6, 16, seed=2))
        rates = ErrorRates.from_two_qubit_rate(0.005)
        r = fidelity_report(6, 6, 16, rates, c)
        g1x, g2x = count_gates(c)
        assert (r.g1_exact, r.g2_exact) == (g1x, g2x)
        assert r.alpha_general == alpha_general(g1x, g2x, 36, rates)

    def test_negative_formula_counts_as_zero(self):
        # the asymptotic g1 is -2.25 at 3x3x0; the report and alpha count 0,
        # so alpha agrees with the exact count of the Hadamard layer alone
        rates = ErrorRates.from_two_qubit_rate(0.005)
        r = fidelity_report(3, 3, 0, rates)
        exact = fidelity_report(3, 3, 0, rates, generate(GenParams(3, 3, 0, seed=0)))
        assert g1_formula(3, 3, 0) == -2.25 and r.g1 == 0.0
        assert r.alpha_general == exact.alpha_general == alpha_from_formulas(3, 3, 0, rates)

    def test_rectangular_report_has_no_square_alpha(self):
        r = fidelity_report(4, 5, 8, ErrorRates.from_two_qubit_rate(0.005))
        assert r.alpha_square is None
