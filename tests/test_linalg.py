import numpy as np
import pytest

from riskbudget.linalg import (
    InsufficientHistory,
    NotPositiveDefinite,
    cholesky,
    covariance,
    nearest_psd,
    symmetric_eig,
)


def random_pd(n, rng, jitter=0.05):
    a = rng.standard_normal((n, n))
    c = a.T @ a / n + jitter * np.eye(n)
    return 0.5 * (c + c.T)


class TestCholesky:
    def test_identity(self):
        r = cholesky(np.eye(3))
        assert np.allclose(r, np.eye(3))

    def test_diagonal_square_roots(self):
        r = cholesky(np.array([[4.0, 0.0], [0.0, 9.0]]))
        assert np.allclose(r, np.array([[2.0, 0.0], [0.0, 3.0]]))

    def test_reconstruction_random_pd(self):
        rng = np.random.default_rng(7)
        c = random_pd(10, rng)
        r = cholesky(c)
        err = np.linalg.norm(r.T @ r - c) / np.linalg.norm(c)
        assert err <= 1e-10
        assert np.all(np.diag(r) > 0)
        assert np.allclose(r, np.triu(r))

    @pytest.mark.parametrize("n", [2, 5, 16, 64, 128])
    def test_roundtrip_dims(self, n):
        rng = np.random.default_rng(n)
        c = random_pd(n, rng)
        r = cholesky(c)
        assert np.linalg.norm(r.T @ r - c) <= 1e-10 * np.linalg.norm(c)

    def test_not_positive_definite_reports_pivot(self):
        c = np.diag([1.0, 1.0, -1.0, 1.0])
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(c)
        assert exc.value.pivot == 2

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            cholesky(np.ones((2, 3)))


class TestSymmetricEig:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 30])
    def test_matches_lapack(self, n):
        rng = np.random.default_rng(n + 100)
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        w, v = symmetric_eig(a)
        w_ref = np.linalg.eigvalsh(a)
        assert np.allclose(w, w_ref, atol=1e-10 * max(1.0, np.linalg.norm(a)))
        assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-10 * max(1.0, np.linalg.norm(a)))
        assert np.allclose(v.T @ v, np.eye(n), atol=1e-12)

    def test_zero_matrix(self):
        w, v = symmetric_eig(np.zeros((4, 4)))
        assert np.all(w == 0)
        assert np.allclose(v, np.eye(4))


class TestNearestPsd:
    def test_identity_on_pd_input(self):
        rng = np.random.default_rng(3)
        c = random_pd(5, rng)
        out = nearest_psd(c, eps=0.0)
        assert np.linalg.norm(out - c) <= 1e-10 * np.linalg.norm(c)

    def test_known_2x2_clip(self):
        # eigenvalues 3 and -1; clipping the negative one gives the
        # constant matrix 1.5 * ones
        c = np.array([[1.0, 2.0], [2.0, 1.0]])
        out = nearest_psd(c, eps=0.0)
        assert np.allclose(out, np.full((2, 2), 1.5), atol=1e-12)

    def test_output_choleskyable_after_lift(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(2, 9)
            x = rng.standard_normal((n, n))
            out = nearest_psd(x, eps=1e-10)
            cholesky(out + 1e-10 * np.eye(n))

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        for eps in (0.0, 1e-8):
            x = rng.standard_normal((6, 6))
            once = nearest_psd(x, eps)
            twice = nearest_psd(once, eps)
            assert np.linalg.norm(twice - once) <= 1e-10 * max(1.0, np.linalg.norm(once))

    def test_matches_eigenvalue_clipping_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            x = rng.standard_normal((n, n))
            b = 0.5 * (x + x.T)
            w, v = np.linalg.eigh(b)
            oracle = (v * np.maximum(w, 0.0)) @ v.T
            out = nearest_psd(x, eps=0.0)
            assert np.linalg.norm(out - oracle) <= 1e-9

    def test_local_optimality_small(self):
        # no PSD matrix in a perturbation grid around the output is closer
        # to the symmetrized input in Frobenius norm
        rng = np.random.default_rng(14)
        for n in (2, 3):
            x = rng.standard_normal((n, n))
            b = 0.5 * (x + x.T)
            out = nearest_psd(x, eps=0.0)
            best = np.linalg.norm(out - b)
            for _ in range(200):
                d = rng.standard_normal((n, n)) * 0.05
                cand = out + 0.5 * (d + d.T)
                if np.linalg.eigvalsh(cand)[0] < 0:
                    continue
                assert np.linalg.norm(cand - b) >= best - 1e-9

    def test_min_eigenvalue_floor(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((7, 7))
        eps = 1e-6
        out = nearest_psd(x, eps)
        assert np.linalg.eigvalsh(out)[0] >= eps - 1e-12

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            nearest_psd(np.eye(2), eps=-1.0)


class TestCovariance:
    def test_identical_series_rank_one(self):
        r = np.array([[0.01, 0.01], [-0.02, -0.02], [0.005, 0.005]])
        c = covariance(r)
        assert np.allclose(c[0, 1], c[0, 0])
        assert np.allclose(c, c[0, 0] * np.ones((2, 2)))
        assert np.linalg.matrix_rank(c) == 1

    def test_single_asset_hand_value(self):
        c = covariance(np.array([0.01, -0.01]))
        assert np.allclose(c, [[2e-4]])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(21)
        r = rng.standard_normal((12, 3)) * 0.02
        c = covariance(r)
        t, n = r.shape
        means = [sum(r[:, j]) / t for j in range(n)]
        oracle = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                s = 0.0
                for k in range(t):
                    s += (r[k, i] - means[i]) * (r[k, j] - means[j])
                oracle[i, j] = s / (t - 1)
        assert np.allclose(c, oracle, atol=1e-15)

    def test_output_symmetric_psd(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            r = rng.standard_normal((rng.integers(2, 20), rng.integers(1, 6)))
            c = covariance(r)
            assert np.array_equal(c, c.T)
            assert np.linalg.eigvalsh(c)[0] >= -1e-12

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            covariance(np.array([[0.01, 0.02]]))

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 1, 1)])
    def test_panel_of_more_than_two_axes_is_named(self, shape):
        with pytest.raises(ValueError) as exc:
            covariance(np.zeros(shape))
        assert str(exc.value) == f"returns must be a 2-d panel, got shape {shape}"
