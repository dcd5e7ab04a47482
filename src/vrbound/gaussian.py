"""Diagonal and full-covariance Gaussian distributions.

A small container used throughout the package: the two distributions compared
by the divergence routines, the mean-field variational approximations, and
the exact posteriors of the linear-Gaussian models. Covariances are validated
at construction (positive variances, or a symmetric matrix whose Cholesky
factorization succeeds), so downstream code can rely on SPD inputs. The log
density whitens the residuals into z, by the standard deviations or by a
solve with the Cholesky factor, and is the standard normal's of z
(``autodiff.std_normal_logpdf_rows``) minus half the log-determinant.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


class GaussianDist:
    """Multivariate Gaussian with either diagonal or full covariance."""

    def __init__(self, mean, *, variances=None, cov=None):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        if self.mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("mean must be finite")
        if (variances is None) == (cov is None):
            raise ValueError("provide exactly one of variances= or cov=")
        d = self.mean.shape[0]
        if variances is not None:
            v = np.atleast_1d(np.asarray(variances, dtype=float))
            if v.shape != (d,):
                raise ValueError(f"variances must have shape ({d},), got {v.shape}")
            if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
                raise ValueError("variances must be finite and strictly positive")
            self._variances = v
            self._cov = None
            self._chol = None
            self._logdet = float(np.sum(np.log(v)))
        else:
            c = np.asarray(cov, dtype=float)
            if c.shape != (d, d):
                raise ValueError(f"cov must have shape ({d}, {d}), got {c.shape}")
            if not np.all(np.isfinite(c)):
                raise ValueError("cov must be finite")
            # |c - c'| of opposite signs near the float range overflows to
            # inf, which fails the test as it should
            with np.errstate(over="ignore"):
                if not np.allclose(c, c.T, rtol=1e-10, atol=1e-12):
                    raise ValueError("cov must be symmetric")
            if not np.array_equal(c, c.T):
                c = 0.5 * c + 0.5 * c.T  # halved first, so that no sum overflows
            try:
                chol = np.linalg.cholesky(c)
            except np.linalg.LinAlgError as exc:
                raise ValueError("cov must be positive definite") from exc
            self._variances = None
            self._cov = c
            self._chol = chol
            self._logdet = float(2.0 * np.sum(np.log(np.diag(chol))))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def diagonal(cls, mean, variances) -> "GaussianDist":
        return cls(mean, variances=variances)

    @classmethod
    def full(cls, mean, cov) -> "GaussianDist":
        return cls(mean, cov=cov)

    @classmethod
    def standard(cls, dim: int) -> "GaussianDist":
        return cls(np.zeros(dim), variances=np.ones(dim))

    # ------------------------------------------------------------------
    # properties

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self._variances is not None

    @property
    def variances(self) -> np.ndarray:
        """Marginal variances (the covariance diagonal)."""
        if self._variances is not None:
            return self._variances
        return np.diag(self._cov)

    @property
    def cov(self) -> np.ndarray:
        """Dense covariance matrix."""
        if self._cov is not None:
            return self._cov
        return np.diag(self._variances)

    @property
    def log_det_cov(self) -> float:
        return self._logdet

    def precision(self) -> np.ndarray:
        """Dense inverse covariance."""
        if self._variances is not None:
            return np.diag(1.0 / self._variances)
        identity = np.eye(self.dim)
        half = np.linalg.solve(self._chol, identity)
        return half.T @ half

    # ------------------------------------------------------------------
    # evaluation and sampling

    def logpdf(self, x) -> np.ndarray | float:
        """Log density at ``x`` with shape (d,), giving a float, or (..., d),
        giving one value per point. A full covariance's solve takes each
        (n, d) matrix of points, one after the other, whatever the leading
        axes. A point whose -|z|^2 / 2 lies below the float range gets
        -inf, without a warning."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points must have {self.dim} columns")
        # a point whose residual or whitened coordinates leave the float
        # range gets -inf, its correctly rounded value
        with np.errstate(over="ignore"):
            diff = pts - self.mean
            if self._variances is not None:
                z = diff / np.sqrt(self._variances)
            else:
                # contiguous rows, whose sums of squares are each row's own
                z = np.linalg.solve(self._chol, np.swapaxes(diff, -1, -2))
                z = np.ascontiguousarray(np.swapaxes(z, -1, -2))
                # such a point makes NaN of 0 * inf in the solve
                z[np.isnan(z) & ~np.isnan(diff).any(axis=-1, keepdims=True)] = np.inf
            out = ad.std_normal_logpdf_rows(z)
            # a row whose |z|^2 overflows, and |z|^2 / 2 may not: 4 times z / 2's
            big = np.isneginf(out) & np.isfinite(z).all(axis=-1)
            out[big] = 4.0 * ad.std_normal_logpdf_rows(z[big] * 0.5)
        out -= 0.5 * self._logdet
        return float(out[0]) if single else out

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` samples, shape (n, d)."""
        z = rng.standard_normal((n, self.dim))
        if self._variances is not None:
            return self.mean + z * np.sqrt(self._variances)
        return self.mean + z @ self._chol.T

    def __repr__(self) -> str:  # pragma: no cover
        kind = "diag" if self.is_diagonal else "full"
        return f"GaussianDist(dim={self.dim}, {kind})"
