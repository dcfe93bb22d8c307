import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from mwgraph.errors import (
    DimMismatchError,
    NonFiniteError,
    NotPsdError,
    NotSymmetricError,
)
from mwgraph import linalg
from mwgraph.linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_symmetric,
    is_psd,
    kernel_dim,
    kernel_dim_of_values,
    pseudo_sqrt_inv,
)

from conftest import FRAME_A, FRAME_B, FRAME_C, count_calls, random_psd


def test_tolerances_defaults():
    tol = Tolerances()
    assert tol.psd_tol == 1e-9
    assert tol.resid_tol == 1e-8
    assert tol.rank_rel_tol == 1e-10
    assert tol.sym_tol == 1e-9
    assert [f.name for f in dataclasses.fields(tol)] == [
        "sym_tol", "psd_tol", "rank_rel_tol", "resid_tol"]


def test_tolerances_reject_negative():
    with pytest.raises(ValueError):
        Tolerances(psd_tol=-1.0)
    with pytest.raises(ValueError):
        Tolerances(resid_tol=float("nan"))


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Tolerances)])
def test_tolerances_check_every_field(name):
    with pytest.raises(ValueError, match=name):
        Tolerances(**{name: -1.0})
    with pytest.raises(ValueError, match=name):
        Tolerances(**{name: float("inf")})


def test_as_symmetric_averages_within_tolerance():
    m = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
    sym = as_symmetric(m)
    assert np.allclose(sym, sym.T)
    assert sym[0, 1] == pytest.approx(2.0 + 5e-13)


def test_as_symmetric_rejects_asymmetry():
    with pytest.raises(NotSymmetricError):
        as_symmetric([[0.0, 1.0], [0.0, 0.0]])


def test_as_symmetric_rejects_nonsquare():
    with pytest.raises(DimMismatchError):
        as_symmetric(np.zeros((2, 3)))


def test_as_symmetric_rejects_nan():
    for check in (as_symmetric, is_psd, kernel_dim, pseudo_sqrt_inv):
        with pytest.raises(NonFiniteError):
            check([[np.nan, 0.0], [0.0, 1.0]])


def test_as_symmetric_rejects_overflowing_sum():
    # finite entries beyond ~9e307 overflow (M + M^T)/2; kernel_dim no
    # longer symmetrizes twice, so as_symmetric must catch it
    with np.errstate(over="ignore"):
        for check in (as_symmetric, is_psd, kernel_dim, pseudo_sqrt_inv):
            with pytest.raises(NonFiniteError):
                check([[1e308, 0.0], [0.0, 1.0]])


def test_is_psd_zero():
    assert is_psd(np.zeros((3, 3)))


def test_is_psd_indefinite():
    assert not is_psd(np.diag([1.0, -1.0]))


def test_is_psd_frame_matrices():
    for mat in (FRAME_A, FRAME_B, FRAME_C):
        assert is_psd(mat)


def test_pseudo_sqrt_inv_identity():
    assert np.allclose(pseudo_sqrt_inv(np.eye(3)), np.eye(3))


def test_pseudo_sqrt_inv_diag():
    out = pseudo_sqrt_inv(np.diag([4.0, 0.0]))
    assert np.allclose(out, np.diag([0.5, 0.0]))


def test_pseudo_sqrt_inv_scalar_multiple():
    out = pseudo_sqrt_inv(1.5 * np.eye(2))
    assert np.allclose(out, np.sqrt(2.0 / 3.0) * np.eye(2))


def test_pseudo_sqrt_inv_rejects_indefinite():
    with pytest.raises(NotPsdError):
        pseudo_sqrt_inv(np.diag([1.0, -1.0]))


def test_pseudo_sqrt_inv_projector_property(rng):
    # M^(+/2) M M^(+/2) is the orthogonal projector onto im(M)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        rank = int(rng.integers(0, k + 1))
        m = random_psd(rng, k, rank) if rank else np.zeros((k, k))
        half = pseudo_sqrt_inv(m)
        proj = half @ m @ half
        assert np.abs(proj @ proj - proj).max() <= 1e-8
        assert kernel_dim(proj) == kernel_dim(m)


def test_loewner_zero_below_psd(rng):
    # A <= B in the Loewner order iff is_psd(B - A)
    for _ in range(20):
        m = random_psd(rng, 3)
        assert is_psd(m - np.zeros((3, 3)))


def test_loewner_identity_cases():
    assert is_psd(2 * np.eye(2) - np.eye(2))
    assert not is_psd(np.eye(2) - 2 * np.eye(2))


def test_loewner_incomparable_pair():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert not is_psd(b - a)
    assert not is_psd(a - b)


def test_loewner_reads_psd_tol():
    zero, below = np.zeros((2, 2)), np.diag([1.0, -1e-12])
    assert is_psd(below - zero)
    assert not is_psd(below - zero, Tolerances(psd_tol=0.0))


def test_loewner_reflexive_transitive(rng):
    for _ in range(30):
        k = int(rng.integers(1, 4))
        a = random_psd(rng, k)
        assert is_psd(a - a)
        b = a + random_psd(rng, k)
        c = b + random_psd(rng, k)
        assert is_psd(b - a) and is_psd(c - b)
        assert is_psd(c - a)


def test_kernel_dim_identity():
    assert kernel_dim(np.eye(4)) == 0


def test_kernel_dim_zero_matrix():
    assert kernel_dim(np.zeros((4, 4))) == 4


def test_kernel_dim_single_edge_laplacian():
    # L = [[W, -W], [-W, W]] with W = a; oracle: direct eigendecomposition
    L = np.block([[FRAME_A, -FRAME_A], [-FRAME_A, FRAME_A]])
    values = np.linalg.eigvalsh(L)
    oracle = int(np.sum(values <= 1e-10 * max(1.0, values[-1])))
    assert oracle == 3
    assert kernel_dim(L) == 3


def test_kernel_plus_rank(rng):
    for _ in range(40):
        k = int(rng.integers(1, 6))
        rank = int(rng.integers(0, k + 1))
        m = random_psd(rng, k, rank) if rank else np.zeros((k, k))
        assert kernel_dim(m) == k - rank


def test_rank_cutoff_is_relative():
    # scaling must not change the detected rank
    m = np.diag([1.0, 1e-16])
    assert kernel_dim(m) == 1
    assert kernel_dim(1e12 * m) == 1


def reference_kernel_dim(m, tol=DEFAULT_TOL):
    """kernel_dim as it was before the shared solve: it symmetrized the
    matrix again for the PSD verdict and solved it twice."""
    sym = as_symmetric(m, tol)
    again = as_symmetric(sym, tol)
    if again.size:
        values = np.linalg.eigvalsh(again)
        norm = max(abs(float(values[0])), abs(float(values[-1])))
        if float(values[0]) < -tol.psd_tol * max(1.0, norm):
            raise NotPsdError("kernel_dim requires a PSD matrix")
    if sym.size == 0:
        return 0
    return kernel_dim_of_values(np.linalg.eigvalsh(sym), tol)


def _borderline_matrices(rng):
    """PSD, rank-deficient, slightly indefinite, asymmetric-within-tolerance,
    tiny, huge and empty matrices."""
    yield np.zeros((0, 0))
    for _ in range(60):
        k = int(rng.integers(1, 6))
        rank = int(rng.integers(0, k + 1))
        m = random_psd(rng, k, rank) if rank else np.zeros((k, k))
        scale = 10.0 ** float(rng.integers(-12, 13))
        yield scale * m
        yield scale * (m - 1e-12 * np.eye(k))
        noise = rng.normal(size=(k, k)) * 1e-12
        yield m + noise


@pytest.mark.parametrize("psd_tol", [1e-9, 1e-30, 0.0])
def test_kernel_dim_and_rank_match_two_pass_reference(rng, psd_tol):
    tol = Tolerances(psd_tol=psd_tol)
    raised = 0
    for m in _borderline_matrices(rng):
        try:
            expected = reference_kernel_dim(m, tol)
        except NotPsdError as exc:
            raised += 1
            with pytest.raises(NotPsdError) as got:
                kernel_dim(m, tol)
            assert str(got.value) == str(exc)
            continue
        assert kernel_dim(m, tol) == expected
    assert raised > 0


@pytest.mark.parametrize("check", [is_psd, kernel_dim])
def test_checks_symmetrize_and_solve_once(monkeypatch, rng, check):
    sym = count_calls(monkeypatch, "as_symmetric", linalg)
    solves = count_calls(monkeypatch, "eigvalsh", np.linalg)
    check(random_psd(rng, 4, 2))
    assert (len(sym), len(solves)) == (1, 1)


def test_not_psd_messages():
    bad = np.diag([1.0, -1.0])
    for check, message in ((kernel_dim, "kernel_dim requires a PSD matrix"),
                           (pseudo_sqrt_inv, "pseudo_sqrt_inv requires a PSD matrix")):
        with pytest.raises(NotPsdError) as exc:
            check(bad)
        assert str(exc.value) == message


def test_kernel_dim_of_values_checks_psd():
    # every caller passes the eigenvalues of a PSD matrix, so the count
    # applies the PSD floor, as kernel_dim does
    assert kernel_dim_of_values(np.array([-1e-12, 0.0, 1.0])) == 2
    with pytest.raises(NotPsdError, match="kernel_dim requires a PSD matrix"):
        kernel_dim_of_values(np.array([-1e-3, 0.0, 1.0]))
    assert kernel_dim_of_values(np.zeros(0), Tolerances(psd_tol=0.0)) == 0


def test_pseudo_sqrt_inv_verdict_from_eigvalsh(monkeypatch):
    # the verdict is eigvalsh's, the values eigh's: one of each, one symmetrization
    sym = count_calls(monkeypatch, "as_symmetric", linalg)
    verdicts = count_calls(monkeypatch, "eigvalsh", np.linalg)
    solves = count_calls(monkeypatch, "eigh", np.linalg)
    pseudo_sqrt_inv(np.diag([4.0, 0.0]))
    assert (len(sym), len(verdicts), len(solves)) == (1, 1, 1)


# --- one home for the tolerance rules -------------------------------------------

TOLERANCE_FIELDS = ("rank_rel_tol", "resid_tol", "psd_tol")
# (module, function, what) -> why that site may stay outside linalg
CUTOFF_EXCEPTIONS = {
    ("cli.py", "cmd_truss", ".resid_tol"):
        "truss_rigidity's residual is already divided by linalg.residual_scale, "
        "so the verdict compares it with resid_tol itself",
}


class _CutoffSites(ast.NodeVisitor):
    """(function, what) for each tolerance read, each max(1.0, .) floor and
    each atol= or rtol= keyword (an allclose or isclose cutoff)."""

    def __init__(self):
        self.functions = ["<module>"]
        self.sites = []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Attribute(self, node):
        if node.attr in TOLERANCE_FIELDS:
            self.sites.append((self.functions[-1], f".{node.attr}"))
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        floored = any(isinstance(arg, ast.Constant) and type(arg.value) is float
                      and arg.value == 1.0 for arg in node.args)
        if name in ("max", "maximum") and floored:
            self.sites.append((self.functions[-1], f"{name}(1.0, .)"))
        for keyword in node.keywords:
            if keyword.arg in ("atol", "rtol"):
                self.sites.append((self.functions[-1], f"{keyword.arg}="))
        self.generic_visit(node)


def test_only_linalg_turns_tolerances_into_cutoffs():
    # every rule that makes a tolerance a cutoff lives in linalg (see the
    # Tolerances docstring); no other module reads a tolerance field, writes
    # its own max(1, .) floor or passes an absolute or relative tolerance
    package = Path(linalg.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        sites = _CutoffSites()
        sites.visit(ast.parse(path.read_text(), str(path)))
        found.update((path.name, function, what) for function, what in sites.sites)
    assert found - set(CUTOFF_EXCEPTIONS) == set()
    assert set(CUTOFF_EXCEPTIONS) <= found, "an exception no longer needed"
