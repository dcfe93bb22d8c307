"""Dense symmetric linear algebra kernel.

Everything downstream (Laplacians, edge counts, frames) funnels through
these few operations, so semantics are pinned here once: symmetrization on
ingestion, the PSD verdict (A <= B in the Loewner order iff is_psd(B - A))
and every cutoff a tolerance becomes (the rules in ``Tolerances``; no other
module writes one).  All functions are pure and deterministic:
``numpy.linalg.eigh`` uses a fixed LAPACK driver with no randomized
pivoting, so identical input bits give identical output.

Each public check validates its argument once: one ``as_symmetric`` and one
solve, the PSD verdict and the kernel count taken from the same eigenvalues.
Callers inside the package pass them arrays already validated (graph
weights, frame projections, assembled operators): ``as_symmetric`` returns a
finite, exactly symmetric S, and (S + S^T)/2 of such an S has S's bits, so
that one pass changes no value and no verdict.

A graph's k x k blocks (its edge weights, its degree blocks) are solved as
one (m, k, k) stack: one ``eigvalsh`` per graph for the PSD verdicts and one
``eigh`` for the D_v^(+/2), not one call per block.  numpy solves a stack
one matrix at a time with the LAPACK routine it uses for a single matrix,
so each block gets the bits a per-block call gives it; the elementwise
steps and the batched ``matmul`` are bitwise the per-block ones as well.
The single-matrix functions (``as_symmetric``, ``pseudo_sqrt_inv``,
``spectral_norm``) are the one-element case of the stacked helpers, and a
stack raises the error a per-block loop would raise first.

A graph's kn x kn operators are not solved here but once, in
``operators.OperatorBundle``; ``kernel_dim_of_values`` counts dim ker L
from the bundle's ``laplacian_values``, and ``kernel_dim`` is the same
count for a matrix given as such.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import (
    DimMismatchError,
    MwgError,
    NonFiniteError,
    NotPsdError,
    NotSymmetricError,
)


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances used across the package.

    sym_tol bounds |M - M^T| entrywise.  The others become cutoffs by four
    rules, each written once, below, at a scale (top: a largest eigenvalue):
    - PSD floor (is_psd, kernel_dim): min eig >= -psd_tol * max(1, ||M||_2);
    - zero cutoff (kernel_dim, vol(G)'s singularity, Cheeger boundary
      ranks): a value <= rank_rel_tol * max(1, top) counts as zero;
    - keep cutoff, unfloored (pseudo_sqrt_inv, sheaf edge factors,
      rigid_motions, eta's multiplicity of d): keep > rank_rel_tol * max(top, 0);
    - residual allowance (projection, tightness, regularity and sheaf
      factorization checks): resid_tol * max(1, scale); the truss residual
      is divided by max(1, ||L||_2) and compared with resid_tol.
    The max(1, .) floors make three rules absolute below unit scale."""

    sym_tol: float = 1e-9
    psd_tol: float = 1e-9
    rank_rel_tol: float = 1e-10
    resid_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{f.name} must be finite and >= 0, got {value}")


DEFAULT_TOL = Tolerances()


def _symmetrize(arr: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, int, MwgError | None]:
    """as_symmetric of every matrix of an (m, k, k) stack at once.

    Returns the symmetrized stack, the index of the first matrix that
    as_symmetric rejects (m when none) and the error it raises for that one.
    """
    arr_t = arr.transpose(0, 2, 1)
    finite = np.isfinite(arr).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):  # inf - inf in matrices rejected as non-finite
        gap = np.abs(arr - arr_t).max(axis=(1, 2), initial=0.0)
    symmetric = finite & (gap <= tol.sym_tol)
    # only matrices that pass both checks are summed, so an overflow warning
    # comes from a matrix a per-matrix loop would sum too
    sym = np.add(arr, arr_t, out=np.zeros_like(arr), where=symmetric[:, None, None]) / 2.0
    # entries beyond ~9e307 overflow the sum
    bad = ~symmetric | ~np.isfinite(sym).all(axis=(1, 2))
    if not bad.any():
        return sym, len(arr), None
    first = int(np.argmax(bad))
    if finite[first] and not symmetric[first]:
        error = NotSymmetricError(
            f"asymmetry {float(gap[first]):.3e} exceeds sym_tol {tol.sym_tol:.3e}")
    else:
        error = NonFiniteError("matrix contains NaN or Inf entries")
    return sym, first, error


def as_symmetric(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Validate and canonically symmetrize a square matrix.

    Asymmetry beyond ``sym_tol`` is an error, not silently fixed; within
    tolerance the matrix is stored as (M + M^T)/2, which must be finite too.
    """
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {arr.shape}")
    sym, _, error = _symmetrize(arr[None], tol)
    if error is not None:
        raise error
    return sym[0]


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """spectral_norm of every matrix of an (m, r, c) stack, from one SVD call."""
    if stack.size == 0:
        return np.zeros(len(stack))
    return np.linalg.norm(stack, 2, axis=(1, 2))


def spectral_norm(m) -> float:
    """Operator 2-norm. For the symmetric matrices used here, max |eigenvalue|."""
    return float(_spectral_norms(np.asarray(m, dtype=float)[None])[0])


def _psd_verdicts(sym: np.ndarray, psd_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of every matrix of an already symmetrized
    (m, k, k) stack, from one eigvalsh, and whether each minimum is
    >= -psd_tol * max(1, ||M||)."""
    if sym.size == 0:
        return np.zeros(sym.shape[:2]), np.ones(len(sym), dtype=bool)
    values = np.linalg.eigvalsh(sym)
    return values, _values_psd(values, psd_tol)


def _values_psd(values: np.ndarray, psd_tol: float) -> np.ndarray:
    """The is_psd verdict of every row of an (m, k) array of ascending
    eigenvalues, k >= 1."""
    norm = np.maximum(np.abs(values[:, 0]), np.abs(values[:, -1]))
    return values[:, 0] >= -psd_tol * np.maximum(1.0, norm)


def _checked_psd(arr: np.ndarray, tol: Tolerances, not_psd: Callable[[int], str]) -> np.ndarray:
    """as_symmetric and the is_psd verdict of every matrix of an (m, k, k)
    stack, with one eigvalsh.

    Raises what a loop over the matrices in order would raise first: the
    error as_symmetric raises, or NotPsdError(not_psd(i)) for matrix i.
    """
    sym, first_bad, error = _symmetrize(arr, tol)
    psd = _psd_verdicts(sym[:first_bad], tol.psd_tol)[1]
    if not psd.all():
        raise NotPsdError(not_psd(int(np.argmin(psd))))
    if error is not None:
        raise error
    return sym


def is_psd(m, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the minimum eigenvalue is >= -psd_tol * max(1, ||M||)."""
    return bool(_psd_verdicts(as_symmetric(m, tol)[None], tol.psd_tol)[1][0])


def _pseudo_sqrt_inv(arr: np.ndarray, tol: Tolerances) -> np.ndarray:
    """pseudo_sqrt_inv of every matrix of an (m, k, k) stack: the verdicts
    of _checked_psd (eigvalsh, as is_psd: eigh's could flip one), one eigh."""
    sym = _checked_psd(arr, tol, lambda _: "pseudo_sqrt_inv requires a PSD matrix")
    if sym.size == 0:
        return sym
    values, vectors = np.linalg.eigh(sym)
    keep = values > keep_cutoff(values[:, -1:], tol)
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.maximum(values, 1e-300)), 0.0)
    result = (vectors * inv_sqrt[:, None, :]) @ vectors.transpose(0, 2, 1)
    return (result + result.transpose(0, 2, 1)) / 2.0


def pseudo_sqrt_inv(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the square root of a PSD matrix.

    Eigenvalues above ``keep_cutoff(lambda_max)`` map to lambda^(-1/2), the
    rest to zero, in the eigenbasis of M.
    """
    return _pseudo_sqrt_inv(as_symmetric(m, tol)[None], tol)[0]


def kernel_dim(m, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of eigenvalues of a PSD matrix at or below zero_cutoff(lambda_max)."""
    return kernel_dim_of_values(np.linalg.eigvalsh(as_symmetric(m, tol)), tol)


def kernel_dim_of_values(values: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """kernel_dim, PSD check included, from the ascending eigenvalues of a
    symmetric matrix already solved, such as an ``OperatorBundle``'s
    ``laplacian_values``."""
    if values.size == 0:
        return 0
    if not _values_psd(values[None], tol.psd_tol)[0]:
        raise NotPsdError("kernel_dim requires a PSD matrix")
    return int(np.sum(values <= zero_cutoff(float(values[-1]), tol)))


# the rules of Tolerances (the PSD floor is _values_psd); top may be an array


def zero_cutoff(top, tol: Tolerances):
    return tol.rank_rel_tol * np.maximum(1.0, top)


def keep_cutoff(top, tol: Tolerances):
    return tol.rank_rel_tol * np.maximum(top, 0.0)


def residual_scale(scale: float) -> float:
    return max(1.0, scale)


def residual_allowance(scale: float, tol: Tolerances) -> float:
    return tol.resid_tol * residual_scale(scale)


def is_projection(P: np.ndarray, tol: Tolerances) -> bool:
    """||P^2 - P||_2 within the residual allowance at ||P||_2, for symmetric P."""
    return not spectral_norm(P @ P - P) > residual_allowance(spectral_norm(P), tol)
