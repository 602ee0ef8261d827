"""Static condensation to one SPD system, its iterative solve, and recovery.

With the Gram matrix diagonal (c > 0), the gradient and multiplier unknowns
eliminate exactly from the three-block system

    [ R + rK   -rW^T    -B^T ] [ u     ]   [ f ]
    [ -rW    alpha*A+rM  D   ] [ sigma ] = [ 0 ]
    [ -B       D         0   ] [ phi   ]   [ 0 ]

leaving the reduced operator S = R + S_h, with G_k = D^-1 B_k and the
data-free part S_h = T + T^T,

    T = rK/2 + G_k^T V_k,   V_k = (alpha*K + rM) G_k/2 - r W_k

summed over components (G_k^T V_k + V_k^T G_k = G_k^T (alpha*K + rM) G_k
- r (W_k^T G_k + G_k^T W_k)). Only R = P^T P depends on the data. The
stabilization weight r is consistent and fixed to 1; it is kept as a
module constant so its effect can be probed in tests.

S_h depends only on the grid, and away from the boundary it is translation
invariant: every element of one type has the same local blocks (per-type
geometry), an interior dual is the same glue of them everywhere, and a
boundary dual reaches two cells inward and no further. So a row of S_h
depends only on its vertex's class along each axis: depth 0, 1 or 2 from
either side, or interior (depth 3 and more). `condense` forms T + T^T once
on a reference grid of min(c_k, 6) cells per axis with the mesh's own cell
widths, which holds a vertex of every class, and copies the row of each
vertex's class to every vertex, its columns moved by the real grid's
strides. Up to the rounding of the reference widths, that is the formula
on the whole mesh. The grid and the row copy are `assembly._reference_tiling`,
the one tile map of the package, which builds the mesh-only blocks too.

The alpha-term A = sum_k G_k^T K G_k and the rest of S_h vanish on the
affine functions Z (for affine z, G_k z is the constant d_k z), so S Z = R Z
exactly. `solve_reduced` deflates CG on Z through that exact image: the
affine part of the solution comes from a (d+1)-sized solve with Z^T R Z,
which carries no alpha, and CG runs only on the part S-orthogonal to Z.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import _element_blocks, _reference_tiling
from .errors import NoConvergenceError, SingularSystemError

STABILIZATION_R = 1.0


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the deflated, Jacobi-preconditioned CG solve.

    `rtol` bounds the returned relative residual |f - W c - S y| / |f| of the
    split iterate x = Z c + y (see `solve_reduced`); the recursion runs to
    rtol/2 so that rounding between it and the split residual fits below
    rtol. `max_iter` caps the CG iterations.
    """

    rtol: float = 1e-10
    max_iter: int = None  # defaults to 10 * n

    def __post_init__(self):
        if not 0.0 < self.rtol < 1.0:
            raise ValueError("rtol must lie in (0, 1)")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class ReducedOperator:
    """Explicit sparse reduced operator, its affine kernel and its image.

    `kernel` holds the vertex values of 1 and (x_k - centre_k) / extent_k
    over the domain box: a basis of the affine functions, on which the
    alpha-term vanishes. Centring and scaling keep Z^T R Z well conditioned
    however far the domain lies from the origin. `kernel_image` is S Z,
    computed exactly as R Z; the solver uses it in place of `matrix @ kernel`,
    whose alpha-term rounding grows with alpha.

    `apply` evaluates S as the composition of the original blocks, an
    independent evaluation for checks to compare with (the energy identity
    of the acceptance tests, the bench's residual check); the solver does
    not use it.
    """

    matrix: sp.csr_matrix
    apply: object
    kernel: np.ndarray
    kernel_image: np.ndarray


@dataclass(frozen=True)
class SolutionTriple:
    """Smoother coefficients with recovered gradient and multiplier."""

    u: np.ndarray
    sigma: np.ndarray  # (d, n)
    phi: np.ndarray    # (d, n)


def condense(blocks, alpha, r=STABILIZATION_R):
    """Eliminate gradient and multiplier unknowns into one SPD operator.

    Returns S = R + S_h, with S_h tiled from the reference grid (module
    docstring). Tiling is exact because per-type geometry gives every
    element of one type the same local blocks and a boundary dual reaches
    only two cells inward, so a row depends only on its vertex's class. The
    reference S_h = T + T^T is symmetric to the last bit, since S_ij and S_ji
    add the same two numbers, and the tiled S keeps that symmetry.

    Raises ValueError unless alpha is finite and positive, and
    SingularSystemError when the Gram diagonal has a nonpositive entry.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if np.any(blocks.gram_diag <= 0):
        raise SingularSystemError("Gram diagonal has a nonpositive entry")
    ref, tile = _reference_tiling(blocks.mesh)
    S = blocks.R + tile(_reference_operator(ref, alpha, r))
    # the sum was built in a buffer of nnz(R) + nnz(S_h) entries; keep nnz
    nnz = S.nnz
    S = sp.csr_matrix((S.data[:nnz].copy(), S.indices[:nnz].copy(), S.indptr), S.shape)

    dinv = 1.0 / blocks.gram_diag
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

    domain = blocks.mesh.domain
    centre = 0.5 * (domain.lower + domain.upper)
    kernel = np.column_stack([
        np.ones(blocks.n), (blocks.mesh.vertices - centre) / domain.extents
    ])
    return ReducedOperator(matrix=S, apply=apply, kernel=kernel,
                           kernel_image=blocks.R @ kernel)


def _reference_operator(mesh, alpha, r):
    """S_h = T + T^T (module docstring) of the mesh's blocks, with R = 0."""
    K, mass, c, B, W = _element_blocks(mesh)
    G = [sp.csr_matrix(Bk.multiply((1.0 / c)[:, None])) for Bk in B]
    half_inner = 0.5 * (alpha * K + r * mass)
    V = sp.vstack([half_inner @ Gk - r * Wk for Gk, Wk in zip(G, W)], format="csr")
    T = 0.5 * r * K + sp.vstack(G, format="csr").T @ V
    return (T + T.T).tocsr()


def solve_reduced(op, f, cfg=None, return_stats=False):
    """Solve the reduced SPD system by Jacobi-preconditioned CG deflated on
    the affine kernel (Nicolaides 1987; Saad, Yeung, Erhel & Guyomarc'h 2000).

    The iterate is x = Z c + y, with Z = `op.kernel` and W = S Z its exact
    image. c = E^-1 Z^T f, E = Z^T W, leaves a residual orthogonal to Z; CG
    on y then projects each direction S-orthogonal to Z, p -= Z E^-1 W^T p,
    which keeps every later residual orthogonal to Z. S is applied only to
    p, never to Z. The recursion stops at rtol/2, and the returned residual
    is the split one, |f - W c - S y| / |f|.

    Raises NoConvergenceError (carrying the last relative residual) when the
    iteration cap is hit, and SingularSystemError when the operator, or
    Z^T R Z, turns out not to be positive definite (inadmissible data) or
    the operator is not finite (a NaN or infinite diagonal or p^T S p).
    """
    cfg = cfg or SolverConfig()
    S, Z, W = op.matrix, op.kernel, op.kernel_image
    n = S.shape[0]
    f = np.asarray(f, dtype=float).ravel()
    if f.shape[0] != n:
        raise ValueError("right-hand side length does not match operator")
    fnorm = np.linalg.norm(f)
    if fnorm == 0.0:
        u = np.zeros(n)
        return (u, {"iterations": 0, "residual": 0.0}) if return_stats else u
    diag = S.diagonal()
    if not (np.all(diag > 0) and np.all(np.isfinite(diag))):
        raise SingularSystemError("nonpositive or non-finite diagonal; operator not SPD")
    minv = 1.0 / diag
    max_iter = cfg.max_iter if cfg.max_iter is not None else 10 * n
    try:
        E = scipy.linalg.cho_factor(Z.T @ W)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "reduced operator is singular on the affine functions"
        ) from exc
    coarse = scipy.linalg.cho_solve(E, W.T)

    c = scipy.linalg.cho_solve(E, Z.T @ f)
    y = np.zeros(n)
    res = f - W @ c
    z = minv * res
    p = z - Z @ (coarse @ z)
    rz = res @ z
    it = 0
    while (rnorm := np.linalg.norm(res)) > 0.5 * cfg.rtol * fnorm:
        if it == max_iter:
            raise NoConvergenceError(
                f"CG did not reach rtol={cfg.rtol:g} in {max_iter} iterations "
                f"(residual {rnorm / fnorm:.3e})",
                residual=rnorm / fnorm,
                iterations=it,
            )
        it += 1
        Sp = S @ p
        pSp = p @ Sp
        if not 0.0 < pSp < np.inf:
            raise SingularSystemError(
                "conjugate gradients broke down; operator not positive definite or "
                "not finite"
            )
        step = rz / pSp
        y += step * p
        res -= step * Sp
        np.multiply(minv, res, out=z)
        rz_new = res @ z
        p *= rz_new / rz
        p += z
        p -= Z @ (coarse @ p)
        rz = rz_new
    rel = np.linalg.norm(f - W @ c - S @ y) / fnorm
    x = Z @ c + y
    stats = {"iterations": it, "residual": float(rel)}
    return (x, stats) if return_stats else x


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
