"""Why the dual basis matters: diagonal Gram matrix and exact condensation.

The dual basis is biorthogonal to the nodal basis, so the coupling matrix
between the gradient unknown and the multiplier is diagonal. That turns the
block elimination of both vector unknowns into diagonal scaling, and the
reduced system agrees with a dense solve of the full three-block system to
machine precision. The demo exits with status 1 if it does not.
"""

import sys

import numpy as np
import scipy.sparse as sp

from fetps import (
    Domain,
    ScatteredData,
    assemble_gram_full,
    assemble_system,
    build_structured_mesh,
    condense,
    make_element_pair,
    recover_auxiliary,
    solve_reduced,
)
from fetps.system import STABILIZATION_R, SolverConfig

# ----------------------------------------------------------------------
# the reference-triangle pair: duals are affine, peak value 3 at their node
pair = make_element_pair("triangle")
print("dual basis at the reference triangle corners:")
print(pair.dual_eval(pair.nodes))

# ----------------------------------------------------------------------
# the assembled coupling is diagonal on any mesh
domain = Domain(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
mesh = build_structured_mesh(domain, (6, 6), "simplex")
gram = assemble_gram_full(mesh)
diag = gram.diagonal()
off = abs(gram - sp.diags(diag))
print(f"\nGram matrix on a 6x6 triangle mesh: {gram.shape[0]} rows, "
      f"max off-diagonal {off.data.max() if off.nnz else 0.0:.1e}, "
      f"min diagonal {diag.min():.3e}")

# ----------------------------------------------------------------------
# condensed solve vs a dense solve of the full three-block system
#
#   [ R + rK   -rW^T    -B^T ] [ u     ]   [ f ]
#   [ -rW    alpha*K+rM  D   ] [ sigma ] = [ 0 ]
#   [ -B       D         0   ] [ phi   ]   [ 0 ]
rng = np.random.default_rng(1)
pts = rng.uniform(0, 1, (30, 2))
data = ScatteredData(pts, np.sin(3 * pts[:, 0]) * pts[:, 1])
blocks = assemble_system(mesh, data)
alpha = 1e-2

op = condense(blocks, alpha)
u = solve_reduced(op, blocks.f, SolverConfig(rtol=1e-12))
triple = recover_auxiliary(blocks, u, alpha)

n, d, r = blocks.n, mesh.dim, STABILIZATION_R
D = sp.diags(blocks.gram_diag)
grid = [[None] * (1 + 2 * d) for _ in range(1 + 2 * d)]
grid[0][0] = blocks.R + r * blocks.K
for k in range(d):
    grid[0][1 + k] = -r * blocks.W[k].T
    grid[0][1 + d + k] = -blocks.B[k].T
    grid[1 + k][0] = -r * blocks.W[k]
    grid[1 + k][1 + k] = alpha * blocks.K + r * blocks.mass
    grid[1 + k][1 + d + k] = D
    grid[1 + d + k][0] = -blocks.B[k]
    grid[1 + d + k][1 + k] = D
full = sp.bmat(grid).toarray()
rhs = np.zeros(len(full))
rhs[:n] = blocks.f
dense = np.linalg.solve(full, rhs)

print(f"\nreduced system: {n} unknowns (full three-block system: {len(full)})")
worst = 0.0
for name, ours, ref in (("u", triple.u, dense[:n]),
                        ("sigma", triple.sigma.ravel(), dense[n:(1 + d) * n]),
                        ("phi", triple.phi.ravel(), dense[(1 + d) * n:])):
    rel = np.linalg.norm(ours - ref) / np.linalg.norm(ref)
    worst = max(worst, rel)
    print(f"  {name:5s} relative difference vs dense solve: {rel:.2e}")
if worst > 1e-8:
    sys.exit(f"FAIL: condensed and dense solves differ by {worst:.2e} > 1e-8")
