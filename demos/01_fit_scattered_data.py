"""Fit a smoothing spline to noisy scattered samples of the Franke surface.

Demonstrates the core workflow: build a mesh, sample data, fit, evaluate
the smoother and its recovered gradient on a grid, and export artifacts.
"""

import numpy as np

from fetps import (
    Domain,
    FitConfig,
    Smoother,
    build_structured_mesh,
    fit,
    get_field,
)
from fetps.study import sample_scattered

# ----------------------------------------------------------------------
# problem setup: 2000 noisy samples of the Franke surface on the unit square
domain = Domain(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
field = get_field("franke", 2)
data = sample_scattered(field, domain, n=2000, seed=42, noise=0.02)

mesh = build_structured_mesh(domain, (32, 32), "simplex")
print(f"mesh: {mesh}")
print(f"data: {data.n} points, value range "
      f"[{data.values.min():.3f}, {data.values.max():.3f}]")

# ----------------------------------------------------------------------
# fit; alpha balances data fidelity against curvature of the recovered
# gradient field
smoother = fit(data, mesh, FitConfig(alpha=1e-4))
print(f"fit: {smoother.iterations} CG iterations, "
      f"residual {smoother.residual:.2e}")

misfit = smoother.evaluate(data.points) - data.values
print(f"rms data misfit: {np.sqrt(np.mean(misfit ** 2)):.4f} "
      f"(noise sigma was 0.02)")

# ----------------------------------------------------------------------
# evaluate on a grid and compare against the true surface
gx, gy = np.meshgrid(np.linspace(0, 1, 41), np.linspace(0, 1, 41))
grid = np.column_stack([gx.ravel(), gy.ravel()])
values = smoother.evaluate(grid)
gradients = smoother.evaluate_gradient(grid)
truth = field.value(grid)
print(f"max |u_h - franke| on grid: {np.abs(values - truth).max():.4f}")
print(f"max |sigma_h - grad franke|: "
      f"{np.abs(gradients - field.gradient(grid)).max():.4f}")

# ----------------------------------------------------------------------
# persistence: the model round-trips through JSON
smoother.save("franke_model.json")
loaded = Smoother.load("franke_model.json")
same = (np.array_equal(loaded.evaluate(grid), values)
        and np.array_equal(loaded.evaluate_gradient(grid), gradients))
print(f"saved model to franke_model.json; the reloaded model agrees bit for bit: {same}")
