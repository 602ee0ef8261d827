"""Static condensation to one SPD system, its iterative solve, and recovery.

With the Gram matrix diagonal (c > 0), the gradient and multiplier unknowns
eliminate exactly from the three-block system

    [ R + rK   -rW^T    -B^T ] [ u     ]   [ f ]
    [ -rW    alpha*A+rM  D   ] [ sigma ] = [ 0 ]
    [ -B       D         0   ] [ phi   ]   [ 0 ]

leaving the reduced operator S = T + T^T, with G_k = D^-1 B_k and

    T = (R + rK)/2 + G_k^T V_k,   V_k = (alpha*K + rM) G_k/2 - r W_k

summed over components (G_k^T V_k + V_k^T G_k = G_k^T (alpha*K + rM) G_k
- r (W_k^T G_k + G_k^T W_k)). It is symmetric to the last bit and, for
admissible data, positive definite. The stabilization weight r is
consistent and fixed to 1; it is kept as a module constant so its effect
can be probed in tests.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import NoConvergenceError, SingularSystemError

STABILIZATION_R = 1.0


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the Jacobi-preconditioned CG solve of the reduced system."""

    rtol: float = 1e-10
    max_iter: int = None  # defaults to 10 * n

    def __post_init__(self):
        if not 0.0 < self.rtol < 1.0:
            raise ValueError("rtol must lie in (0, 1)")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class ReducedOperator:
    """Explicit sparse reduced operator and its block composition.

    `apply` evaluates the same operator as the composition of the original
    blocks. The two agree up to rounding in the explicit products;
    the composition preserves the kernel identities (constants, linears)
    to machine precision even for extreme alpha, so the solver uses it for
    residual refinement. `kernel` holds the vertex values of 1, x_1, ..,
    x_d, a basis of the affine functions, on which the alpha-term vanishes.
    """

    matrix: sp.csr_matrix
    apply: object
    kernel: np.ndarray


@dataclass(frozen=True)
class SolutionTriple:
    """Smoother coefficients with recovered gradient and multiplier."""

    u: np.ndarray
    sigma: np.ndarray  # (d, n)
    phi: np.ndarray    # (d, n)


def condense(blocks, alpha, r=STABILIZATION_R):
    """Eliminate gradient and multiplier unknowns into one SPD operator.

    Forms S = T + T^T (module docstring) with one sparse product, G^T V of
    the stacked G_k and V_k; S_ij and S_ji add the same two numbers.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    c = blocks.gram_diag
    if np.any(c <= 0):
        raise SingularSystemError("Gram diagonal has a nonpositive entry")
    dinv = 1.0 / c
    G = [sp.csr_matrix(Bk.multiply(dinv[:, None])) for Bk in blocks.B]
    half_inner = 0.5 * (alpha * blocks.K + r * blocks.mass)
    V = sp.vstack([half_inner @ Gk - r * Wk for Gk, Wk in zip(G, blocks.W)], format="csr")
    T = 0.5 * (blocks.R + r * blocks.K) + sp.vstack(G, format="csr").T @ V
    S = T + T.T
    # the sum was built in a buffer of nnz(T) + nnz(T^T) entries; keep nnz
    nnz = S.nnz
    S = sp.csr_matrix((S.data[:nnz].copy(), S.indices[:nnz].copy(), S.indptr), S.shape)

    R, K, mass = blocks.R, blocks.K, blocks.mass
    B, W = blocks.B, blocks.W
    dim = blocks.dim

    def apply(u):
        out = R @ u + r * (K @ u)
        for k in range(dim):
            s = dinv * (B[k] @ u)
            out -= r * (W[k].T @ s)
            out -= B[k].T @ (dinv * (r * (W[k] @ u)))
            out += B[k].T @ (dinv * (alpha * (K @ s) + r * (mass @ s)))
        return out

    kernel = np.column_stack([np.ones(blocks.n), blocks.mesh.vertices])
    return ReducedOperator(matrix=S, apply=apply, kernel=kernel)


def _pcg(S, rhs, minv, abs_tol, max_iter):
    """Plain preconditioned CG; returns (x, iterations, achieved residual norm)."""
    x = np.zeros(S.shape[0])
    res = rhs.copy()
    rnorm = np.linalg.norm(res)
    if rnorm <= abs_tol:
        return x, 0, rnorm
    p = z = minv * res
    rz = res @ z
    for it in range(1, max_iter + 1):
        Sp = S @ p
        pSp = p @ Sp
        if pSp <= 0.0:
            raise SingularSystemError(
                "conjugate gradients broke down; operator not positive definite"
            )
        step = rz / pSp
        x += step * p
        res -= step * Sp
        rnorm = np.linalg.norm(res)
        if rnorm <= abs_tol:
            return x, it, rnorm
        z = minv * res
        rz_new = res @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, max_iter, rnorm


def solve_reduced(op, f, cfg=None, return_stats=False):
    """Solve the reduced SPD system by Jacobi-preconditioned CG.

    CG runs on the explicitly assembled operator; the solution is then
    polished by iterative refinement against the residual of the block
    composition `op.apply`, which removes the rounding bias of the explicit
    products at large alpha. If refinement stalls above rtol, one Galerkin
    step on the operator's `kernel` (the affine functions) removes the
    error hidden below that floor.

    Raises NoConvergenceError (carrying the last relative residual) when the
    iteration cap is hit, and SingularSystemError when the operator turns
    out not to be positive definite (inadmissible data).
    """
    cfg = cfg or SolverConfig()
    S = op.matrix
    n = S.shape[0]
    f = np.asarray(f, dtype=float).ravel()
    if f.shape[0] != n:
        raise ValueError("right-hand side length does not match operator")
    fnorm = np.linalg.norm(f)
    if fnorm == 0.0:
        u = np.zeros(n)
        return (u, {"iterations": 0, "residual": 0.0}) if return_stats else u
    diag = S.diagonal()
    if np.any(diag <= 0):
        raise SingularSystemError("nonpositive diagonal; operator not SPD")
    minv = 1.0 / diag
    max_iter = cfg.max_iter if cfg.max_iter is not None else 10 * n
    abs_tol = cfg.rtol * fnorm

    x, total, rnorm = _pcg(S, f, minv, abs_tol, max_iter)
    if rnorm > abs_tol:
        raise NoConvergenceError(
            f"CG did not reach rtol={cfg.rtol:g} in {max_iter} iterations "
            f"(residual {rnorm / fnorm:.3e})",
            residual=rnorm / fnorm,
            iterations=total,
        )
    # Best-effort polish: the composition can be applied more accurately
    # than the explicit products were formed, but it also has its own
    # rounding floor, so refine only while it clearly helps.
    rel = np.linalg.norm(f - op.apply(x)) / fnorm
    for _ in range(4):
        if rel <= cfg.rtol or total >= max_iter:
            break
        res = f - op.apply(x)
        # a twentieth of the residual, but no tighter than half of rtol: a
        # residual just above rtol needs only a small reduction
        target = max(0.05 * np.linalg.norm(res), 0.5 * abs_tol)
        delta, used, _ = _pcg(S, res, minv, target, max_iter - total)
        total += used
        candidate = x + delta
        new_rel = np.linalg.norm(f - op.apply(candidate)) / fnorm
        if new_rel >= 0.5 * rel:
            if new_rel < rel:
                x, rel = candidate, new_rel
            break
        x, rel = candidate, new_rel
    if rel > cfg.rtol:
        x = _correct_on_kernel(op, f, x)
        rel = np.linalg.norm(f - op.apply(x)) / fnorm
    stats = {"iterations": total, "residual": float(rel)}
    return (x, stats) if return_stats else x


def _correct_on_kernel(op, f, x):
    """Galerkin correction of x on the affine kernel of the alpha-term.

    At large alpha the rounding of the alpha-term sets a floor under the
    residual norm that refinement cannot pass, and the error left in the
    affine functions, which only the data term fixes, hides below it. The
    alpha-term vanishes on them, so the projection of the composition
    residual onto them carries no such floor: one coarse-space step
    (Nicolaides 1987) removes that error.
    """
    Z = op.kernel
    coarse = Z.T @ np.column_stack([op.apply(z) for z in Z.T])
    try:
        step = scipy.linalg.solve(coarse, Z.T @ (f - op.apply(x)), assume_a="pos")
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "reduced operator is singular on the affine functions"
        ) from exc
    return x + Z @ step


def recover_gradient(B, gram_diag, u):
    """Recovered gradient sigma_k = D^-1 B_k u, shape (d, n).

    This is the dual-moment quasi-projection of the broken gradient of u,
    the one recovery operator of both the fit and the study.
    """
    if np.any(gram_diag <= 0):
        raise SingularSystemError("Gram diagonal has a nonpositive entry")
    dinv = 1.0 / gram_diag
    u = np.asarray(u, dtype=float).ravel()
    return np.stack([dinv * (Bk @ u) for Bk in B])


def recover_auxiliary(blocks, u, alpha, r=STABILIZATION_R):
    """Back-substitute the gradient and multiplier from the block rows.

    sigma_k = D^-1 B_k u, phi_k = D^-1 (r W_k u - (alpha K + r M) sigma_k).
    """
    u = np.asarray(u, dtype=float).ravel()
    sigma = recover_gradient(blocks.B, blocks.gram_diag, u)
    dinv = 1.0 / blocks.gram_diag
    inner = (alpha * blocks.K + r * blocks.mass).tocsr()
    phi = np.stack([
        dinv * (r * (Wk @ u) - inner @ sk) for Wk, sk in zip(blocks.W, sigma)
    ])
    return SolutionTriple(u=u, sigma=sigma, phi=phi)
