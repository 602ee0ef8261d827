"""The public surface of `fetps` and the numpy-only read path."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import fetps
import fetps.smoother
from fetps.fields import ScatteredData, get_field
from fetps.mesh import Domain, build_structured_mesh

PUBLIC_NAMES = [
    "AnalyticField", "BiorthogonalityError", "CATALOG", "DataFormatError", "Domain",
    "ElementPair", "FitConfig", "Mesh", "NoConvergenceError", "OutOfDomainError",
    "QuadratureRule", "ReducedOperator", "ScatteredData", "SingularSystemError",
    "Smoother", "SolutionTriple", "SolverConfig", "StudyConfig", "StudyRow",
    "SystemBlocks", "assemble_data_term", "assemble_grad_coupling",
    "assemble_gram_diagonal", "assemble_gram_full", "assemble_mass",
    "assemble_stiffness", "assemble_system", "assembly", "build_structured_mesh",
    "condense", "elements", "energy_norm", "energy_norm_difference", "errors",
    "estimate_orders", "evaluation_matrix", "fe_value", "fields", "fit",
    "functional_value", "get_field", "lagrange_interpolate", "locate_points",
    "ls_order", "make_element_pair", "mesh", "mesh_to_dict", "quadrature",
    "quasi_project", "quasi_project_gradient", "recover_auxiliary", "refine_uniform",
    "run_study", "smoother", "solve_reduced", "study", "system",
]


def test_public_names():
    assert sorted(fetps.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(fetps, name) is not None
    namespace = {}
    exec("from fetps import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert fetps.Smoother is fetps.smoother.Smoother
    assert fetps.fit is fetps.smoother.fit
    # the old import paths name the same objects, not copies
    assert fetps.ScatteredData is fetps.fields.ScatteredData is fetps.assembly.ScatteredData
    assert fetps.study.sample_scattered is fetps.fields.sample_scattered
    with pytest.raises(AttributeError, match="no_such_name"):
        fetps.no_such_name


# Runs in a fresh interpreter: load, evaluate and `fetps eval` a model and
# `fetps synth` samples, then check that no scipy module was imported;
# `fetps.fit` then imports it.
READ_PATH = textwrap.dedent("""
    import sys
    import numpy as np
    import fetps
    from fetps.cli import main

    model, query, out = sys.argv[1:]
    s = fetps.Smoother.load(model)
    pts = np.full((3, 2), 0.5)
    s.evaluate(pts)
    s.evaluate_gradient(pts)
    s.evaluate_with_gradient(pts)
    assert main(["eval", "--model", model, "--query", query, "--out", out]) == 0
    assert main(["synth", "--field", "franke", "--domain", "0,0,1,1", "--n", "20",
                 "--out", out + ".synth.csv"]) == 0

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    assert not scipy_modules(), scipy_modules()
    fetps.fit
    assert "scipy.sparse" in scipy_modules()
""")


def test_read_path_imports_no_scipy(tmp_path):
    mesh = build_structured_mesh(Domain(np.zeros(2), np.ones(2)), (6, 6), "simplex")
    pts = np.random.default_rng(3).uniform(0, 1, (40, 2))
    s = fetps.fit(ScatteredData(pts, get_field("franke", 2).value(pts)), mesh,
                  fetps.FitConfig(alpha=1e-2))
    s.save(tmp_path / "model.json")
    (tmp_path / "query.csv").write_text("x,y\n0.25,0.75\n0.5,0.5\n")
    src = str(Path(fetps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", READ_PATH, str(tmp_path / "model.json"),
         str(tmp_path / "query.csv"), str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 3
