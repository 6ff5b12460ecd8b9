"""Tests for the linear-algebra kernel."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import linalg
from repro.exceptions import ConvergenceError, ValidationError


class TestGaussSeidel:
    def test_solves_diagonally_dominant_system(self):
        a = np.array([[4.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 4.0]])
        b = np.array([2.0, 6.0, 2.0])
        x = linalg.gauss_seidel(a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-10)

    def test_agrees_with_direct_solver(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.0, 1.0, size=(6, 6))
        a += np.diag(a.sum(axis=1) + 1.0)  # force diagonal dominance
        b = rng.uniform(-1.0, 1.0, size=6)
        x_iterative = linalg.gauss_seidel(a, b)
        x_direct = linalg.solve_linear(a, b, method="direct")
        np.testing.assert_allclose(x_iterative, x_direct, atol=1e-9)

    def test_respects_initial_guess_shape(self):
        a = np.eye(2) * 2.0
        with pytest.raises(ValidationError):
            linalg.gauss_seidel(a, np.ones(2), x0=np.ones(3))

    def test_rejects_zero_diagonal(self):
        a = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValidationError):
            linalg.gauss_seidel(a, np.ones(2))

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValidationError):
            linalg.gauss_seidel(np.ones((2, 3)), np.ones(2))

    def test_rejects_mismatched_rhs(self):
        with pytest.raises(ValidationError):
            linalg.gauss_seidel(np.eye(3), np.ones(2))

    def test_raises_convergence_error_when_divergent(self):
        # Spectral radius of the iteration matrix > 1.
        a = np.array([[1.0, 2.0], [3.0, 1.0]])
        with pytest.raises(ConvergenceError):
            linalg.gauss_seidel(a, np.ones(2), max_iterations=50)

    def test_rejects_non_positive_max_iterations(self):
        # Regression: max_iterations=0 used to skip the sweep loop and
        # crash on the unbound `residual` instead of being rejected.
        with pytest.raises(ValidationError):
            linalg.gauss_seidel(np.eye(2), np.ones(2), max_iterations=0)
        with pytest.raises(ValidationError):
            linalg.gauss_seidel(np.eye(2), np.ones(2), max_iterations=-3)

    def test_steady_state_rejects_non_positive_max_iterations(self):
        q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        with pytest.raises(ValidationError):
            linalg.steady_state_distribution(
                q, method="gauss_seidel", max_iterations=0
            )


class TestSolveLinear:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            linalg.solve_linear(np.eye(2), np.ones(2), method="qr")

    def test_singular_system_reported(self):
        singular = np.ones((2, 2))
        with pytest.raises(ValidationError):
            linalg.solve_linear(singular, np.ones(2), method="direct")


class TestGeneratorValidation:
    def test_accepts_valid_generator(self):
        q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        result = linalg.validate_generator_matrix(q)
        np.testing.assert_array_equal(result, q)

    def test_rejects_negative_off_diagonal(self):
        q = np.array([[-1.0, 1.0], [-0.5, 0.5]])
        with pytest.raises(ValidationError):
            linalg.validate_generator_matrix(q)

    def test_rejects_nonzero_row_sums(self):
        q = np.array([[-1.0, 0.5], [2.0, -2.0]])
        with pytest.raises(ValidationError):
            linalg.validate_generator_matrix(q)


class TestSteadyState:
    def _two_state_generator(self, forward: float, backward: float):
        return np.array(
            [[-forward, forward], [backward, -backward]]
        )

    def test_two_state_closed_form(self):
        q = self._two_state_generator(1.0, 3.0)
        pi = linalg.steady_state_distribution(q)
        np.testing.assert_allclose(pi, [0.75, 0.25], atol=1e-12)

    def test_gauss_seidel_matches_direct(self):
        rng = np.random.default_rng(7)
        n = 5
        rates = rng.uniform(0.1, 2.0, size=(n, n))
        np.fill_diagonal(rates, 0.0)
        q = rates - np.diag(rates.sum(axis=1))
        direct = linalg.steady_state_distribution(q, method="direct")
        iterative = linalg.steady_state_distribution(q, method="gauss_seidel")
        np.testing.assert_allclose(direct, iterative, atol=1e-8)

    def test_distribution_normalized_and_nonnegative(self):
        q = self._two_state_generator(0.2, 0.8)
        pi = linalg.steady_state_distribution(q)
        assert pi.min() >= 0.0
        assert pi.sum() == pytest.approx(1.0)

    def test_single_state_chain(self):
        pi = linalg.steady_state_distribution(np.zeros((1, 1)))
        np.testing.assert_array_equal(pi, [1.0])

    def test_balance_equations_hold(self):
        rng = np.random.default_rng(11)
        rates = rng.uniform(0.0, 1.0, size=(4, 4))
        np.fill_diagonal(rates, 0.0)
        q = rates - np.diag(rates.sum(axis=1))
        pi = linalg.steady_state_distribution(q)
        np.testing.assert_allclose(pi @ q, np.zeros(4), atol=1e-10)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            linalg.steady_state_distribution(np.zeros((2, 2)), method="x")


class TestStochasticValidation:
    def test_accepts_stochastic_matrix(self):
        p = np.array([[0.3, 0.7], [1.0, 0.0]])
        np.testing.assert_allclose(
            linalg.validate_stochastic_matrix(p), p
        )

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValidationError):
            linalg.validate_stochastic_matrix(
                np.array([[0.5, 0.4], [0.0, 1.0]])
            )

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            linalg.validate_stochastic_matrix(
                np.array([[-0.1, 1.1], [0.0, 1.0]])
            )


class TestScipyIsImportedOnUse:
    def test_cli_and_service_import_without_scipy(self):
        # Only Gauss-Seidel and the sparse availability solver use scipy;
        # importing the entry points must not pay its start-up cost.
        code = (
            "import sys, repro.cli, repro.service\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.split('.')[0] == 'scipy'))"
        )
        source_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [source_root] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert result.stdout.strip() == "[]"
