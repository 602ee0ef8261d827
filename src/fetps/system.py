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

The constant interior stencil also gives the preconditioner. Jacobi needs
O(h^-2) CG iterations on this fourth-order operator. Where that is the cost
that dominates (a fine 2D grid with the curvature term well above the data
term), `condense` replaces it by the inverse of the interior stencil plus
the mean data term, diagonalized by the FFT on a periodic grid (multilevel
circulant preconditioning; R. Chan & Ng, SIAM Review 1996). The choice is
made from the problem alone; see `_fourier_preconditioner`.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import REFERENCE_CELLS, _element_blocks, _reference_tiling
from .errors import NoConvergenceError, SingularSystemError

STABILIZATION_R = 1.0

# Where `condense` gives S the Fourier-symbol preconditioner: a 2D grid of at
# least FOURIER_MIN_CELLS cells per axis, a Gershgorin condition estimate of
# the interior row of S of at least FOURIER_MIN_KAPPA, and a row sum of S_h
# (zero in exact arithmetic) within FOURIER_ROUNDING of the data term's, so
# that the stencil's symbol is not lost in rounding. Jacobi is faster
# elsewhere: on coarser grids, on data-dominated fits and in 3D, where more
# than half of the vertices lie in a boundary class.
FOURIER_MIN_CELLS = 48
FOURIER_MIN_KAPPA = 1.5e3
FOURIER_ROUNDING = 1e-2
# Points the periodic grid adds to the vertex grid on each axis, before it
# is rounded up to a 5-smooth length.
FOURIER_PADDING = 32


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the deflated, preconditioned CG solve.

    `rtol` bounds the returned relative residual |f - W c - S y| / |f| of the
    split iterate x = Z c + y (see `solve_reduced`); the recursion runs to
    rtol/2 so that rounding between it and the split residual fits below
    rtol. `max_iter`, an int >= 1, caps the CG iterations. The
    preconditioner is not a setting: `condense` chooses it from the problem.
    """

    rtol: float = 1e-10
    max_iter: int = None  # defaults to 10 * n

    def __post_init__(self):
        if not 0.0 < self.rtol < 1.0:
            raise ValueError("rtol must lie in (0, 1)")
        if self.max_iter is not None and (
                type(self.max_iter) is not int or self.max_iter < 1):
            raise ValueError(f"max_iter must be an int >= 1, got {self.max_iter!r}")


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

    `precondition` maps a residual to its preconditioned direction: the
    Fourier-symbol preconditioner where `condense` found that it wins, else
    None, and the solver uses Jacobi.
    """

    matrix: sp.csr_matrix
    apply: object
    kernel: np.ndarray
    kernel_image: np.ndarray
    precondition: object = None

    @property
    def preconditioner(self):
        """Name of the preconditioner the solver uses: "jacobi" or "fourier"."""
        return "jacobi" if self.precondition is None else "fourier"


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

    From the interior row of the reference S_h and mass matrix, it also
    builds the Fourier-symbol preconditioner where that beats Jacobi
    (`_fourier_preconditioner`); elsewhere `precondition` is None and no FFT
    is computed.

    Raises ValueError unless alpha is finite and positive, and
    SingularSystemError when the Gram diagonal has a nonpositive entry.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if np.any(blocks.gram_diag <= 0):
        raise SingularSystemError("Gram diagonal has a nonpositive entry")
    ref, tile = _reference_tiling(blocks.mesh)
    S_h, ref_mass = _reference_operator(ref, alpha, r)
    S = blocks.R + tile(S_h)
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
    return ReducedOperator(
        matrix=S, apply=apply, kernel=kernel, kernel_image=blocks.R @ kernel,
        precondition=_fourier_preconditioner(blocks.mesh, blocks.P.shape[0], S_h, ref_mass))


def _reference_operator(mesh, alpha, r):
    """S_h = T + T^T (module docstring) of the mesh's blocks, with R = 0, and
    the mass matrix it was formed from."""
    K, mass, c, B, W = _element_blocks(mesh)
    G = [sp.csr_matrix(Bk.multiply((1.0 / c)[:, None])) for Bk in B]
    half_inner = 0.5 * (alpha * K + r * mass)
    V = sp.vstack([half_inner @ Gk - r * Wk for Gk, Wk in zip(G, W)], format="csr")
    T = 0.5 * r * K + sp.vstack(G, format="csr").T @ V
    return (T + T.T).tocsr(), mass


def _fourier_preconditioner(mesh, n_data, S_h, mass):
    """The Fourier-symbol preconditioner of S, or None where Jacobi wins.

    S_h and mass are the reference-grid matrices. Away from the boundary S_h
    is one stencil s_o, keyed by grid offset o: the row of the reference
    vertex of index 3 on every axis. The data term of n_data sites spread
    over the domain has mean rho M, rho = n_data / |Omega|, with the stencil
    m_o of the same mass row. The FFT diagonalizes s_o + rho m_o on a
    periodic grid of g_k >= c_k + 1 + FOURIER_PADDING points per axis. Its
    symbol is real, as the stencil is symmetric, and positive: S_h is
    semidefinite and M definite; clipping the S_h part at 0 drops its
    rounding. The preconditioner zero-pads a vertex-grid vector into the
    periodic grid, divides by the symbol and cuts back: E^T C^-1 E, with E
    the zero extension, which is SPD.

    The rule reads only the interior row, so where it picks Jacobi no FFT is
    computed: see the FOURIER_* constants.
    """
    cells = np.asarray(mesh.cells_per_axis)
    if mesh.dim != 2 or cells.min() < FOURIER_MIN_CELLS:
        return None
    mid = REFERENCE_CELLS // 2
    ref_shape = (REFERENCE_CELLS + 1,) * mesh.dim
    centre = np.ravel_multi_index((mid,) * mesh.dim, ref_shape)

    def interior_row(a):
        row = slice(a.indptr[centre], a.indptr[centre + 1])
        offsets = np.stack(np.unravel_index(a.indices[row], ref_shape)) - mid
        return offsets, a.data[row]

    (s_offsets, s), (m_offsets, m) = interior_row(S_h), interior_row(mass)
    rho = n_data / np.prod(mesh.domain.extents)
    data_sum = rho * m.sum()
    if not (data_sum > 0
            and abs(s.sum()) <= FOURIER_ROUNDING * data_sum
            and np.abs(s).sum() + data_sum >= FOURIER_MIN_KAPPA * data_sum):
        return None

    shape = tuple(cells + 1)
    periodic = tuple(_fast_length(k + FOURIER_PADDING) for k in shape)
    axes = tuple(range(mesh.dim))

    def symbol(offsets, values):
        kernel = np.zeros(periodic)
        kernel[tuple(offsets % np.array(periodic)[:, None])] = values
        return np.fft.rfftn(kernel).real

    lam = np.maximum(symbol(s_offsets, s), 0.0) + rho * symbol(m_offsets, m)
    cut = tuple(slice(0, k) for k in shape)

    def precondition(res):
        # rfftn zero-pads to the periodic grid itself
        spectrum = np.fft.rfftn(res.reshape(shape), s=periodic, axes=axes)
        spectrum /= lam
        return np.fft.irfftn(spectrum, s=periodic, axes=axes)[cut].ravel()

    return precondition


def _fast_length(n):
    """The smallest 5-smooth integer >= n, a fast FFT length."""
    powers = np.arange(int(math.log2(n)) + 2)
    smooth = (2.0 ** powers[:, None, None] * 3.0 ** powers[:, None] * 5.0 ** powers).ravel()
    return int(smooth[smooth >= n].min())


def solve_reduced(op, f, cfg=None, return_stats=False):
    """Solve the reduced SPD system by preconditioned CG deflated on the
    affine kernel (Nicolaides 1987; Saad, Yeung, Erhel & Guyomarc'h 2000).

    The iterate is x = Z c + y, with Z = `op.kernel` and W = S Z its exact
    image. c = E^-1 Z^T f, E = Z^T W, leaves a residual orthogonal to Z; CG
    on y then projects each direction S-orthogonal to Z, p -= Z E^-1 W^T p,
    which keeps every later residual orthogonal to Z. S is applied only to
    p, never to Z. The recursion stops at rtol/2, and the returned residual
    is the split one, |f - W c - S y| / |f|.

    The preconditioner is `op.precondition`, or Jacobi when that is None.
    With the Fourier preconditioner of `condense`, rounding lets Z^T res
    drift away from 0 and the iteration diverges, so after each residual
    update the drift dc = E^-1 Z^T res moves into the affine part: c += dc,
    res -= W dc (the A-DEF2 form of Tang, Nabben, Vuik & Erlangga, J. Sci.
    Comput. 2009). The Jacobi iteration does without it. The stats name the
    preconditioner used.

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
        stats = {"iterations": 0, "residual": 0.0, "preconditioner": op.preconditioner}
        return (u, stats) if return_stats else u
    diag = S.diagonal()
    if not (np.all(diag > 0) and np.all(np.isfinite(diag))):
        raise SingularSystemError("nonpositive or non-finite diagonal; operator not SPD")
    precondition = op.precondition
    if precondition is None:
        minv, jacobi = 1.0 / diag, np.empty(n)

        def precondition(res):
            # in place: the loop is done with z before it asks for the next
            return np.multiply(minv, res, out=jacobi)
    max_iter = cfg.max_iter if cfg.max_iter is not None else 10 * n
    try:
        E = scipy.linalg.cho_factor(Z.T @ W)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "reduced operator is singular on the affine functions"
        ) from exc
    coarse = scipy.linalg.cho_solve(E, W.T)
    drift = None if op.precondition is None else scipy.linalg.cho_solve(E, Z.T)

    c = scipy.linalg.cho_solve(E, Z.T @ f)
    y = np.zeros(n)
    res = f - W @ c
    z = precondition(res)
    p = z - Z @ (coarse @ z)
    rz = res @ z
    it = 0
    while (rnorm := np.linalg.norm(res)) > 0.5 * cfg.rtol * fnorm:
        if it >= max_iter:
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
        if drift is not None:
            dc = drift @ res
            c += dc
            res -= W @ dc
        z = precondition(res)
        rz_new = res @ z
        p *= rz_new / rz
        p += z
        p -= Z @ (coarse @ p)
        rz = rz_new
    rel = np.linalg.norm(f - W @ c - S @ y) / fnorm
    x = Z @ c + y
    stats = {"iterations": it, "residual": float(rel), "preconditioner": op.preconditioner}
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
