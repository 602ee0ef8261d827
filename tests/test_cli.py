import csv
import json

import numpy as np
import pytest

from fetps.cli import main
from fetps.errors import DataFormatError
from fetps.smoother import Smoother


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def synth(capsys, tmp_path, name="pts.csv", field="franke", n=120, seed=7,
          noise=0.0, domain="0,0,1,1"):
    out = tmp_path / name
    code, payload, _ = run_cli(
        capsys, "synth", "--field", field, "--domain", domain,
        "--n", str(n), "--seed", str(seed), "--noise", str(noise),
        "--out", str(out),
    )
    assert code == 0
    return out, payload


def test_synth_deterministic(capsys, tmp_path):
    a, _ = synth(capsys, tmp_path, name="a.csv", noise=0.01)
    b, _ = synth(capsys, tmp_path, name="b.csv", noise=0.01)
    assert a.read_bytes() == b.read_bytes()


def test_synth_zero_noise_equals_field(capsys, tmp_path):
    out, _ = synth(capsys, tmp_path, noise=0.0)
    from fetps.fields import get_field

    rows = list(csv.DictReader(out.open()))
    pts = np.array([[float(r["x"]), float(r["y"])] for r in rows])
    vals = np.array([float(r["value"]) for r in rows])
    assert np.array_equal(vals, get_field("franke", 2).value(pts))


def test_synth_warns_for_inadmissible_count(capsys, tmp_path):
    out = tmp_path / "tiny.csv"
    code, payload, err = run_cli(
        capsys, "synth", "--field", "linear", "--domain", "0,0,1,1",
        "--n", "2", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    assert "warning" in payload
    assert "affinely independent" in payload["warning"]


def test_synth_unknown_field(capsys, tmp_path):
    code, payload, _ = run_cli(
        capsys, "synth", "--field", "nope", "--domain", "0,0,1,1",
        "--n", "5", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert payload["error"]["type"] == "input"


@pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
def test_synth_rejects_negative_or_non_finite_noise(capsys, tmp_path, noise):
    out = tmp_path / "noisy.csv"
    code, payload, _ = run_cli(
        capsys, "synth", "--field", "franke", "--domain", "0,0,1,1",
        "--n", "20", "--noise", noise, "--out", str(out),
    )
    assert code == 2
    assert payload["error"]["type"] == "input"
    assert not out.exists()


def test_fit_eval_pipeline(capsys, tmp_path):
    pts, _ = synth(capsys, tmp_path, n=150, seed=3)
    model = tmp_path / "model.json"
    code, payload, _ = run_cli(
        capsys, "fit", "--input", str(pts), "--domain", "0,0,1,1",
        "--cells", "12,12", "--kind", "simplex", "--alpha", "1e-3",
        "--out", str(model),
    )
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["n_data"] == 150
    assert payload["residual"] < 1e-9
    assert payload["converged"] is True
    assert payload["preconditioner"] == "jacobi"
    assert model.exists()

    out = tmp_path / "eval.csv"
    code, payload, _ = run_cli(
        capsys, "eval", "--model", str(model), "--query", str(pts),
        "--out", str(out),
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 150
    assert set(rows[0]) == {"x", "y", "value", "grad_x", "grad_y"}

    # re-evaluation at the fit sites matches the stored evaluation path
    s = Smoother.load(model)
    qpts = np.array([[float(r["x"]), float(r["y"])] for r in rows])
    vals = np.array([float(r["value"]) for r in rows])
    grads = np.array([[float(r["grad_x"]), float(r["grad_y"])] for r in rows])
    assert np.abs(vals - s.evaluate(qpts)).max() < 1e-10
    assert np.abs(grads - s.evaluate_gradient(qpts)).max() < 1e-10


def test_fit_eval_pipeline_on_negative_domain(capsys, tmp_path):
    # a comma list that starts with a minus is a value, not an option
    domain = "-1,2,0.5,4"
    pts, _ = synth(capsys, tmp_path, n=150, seed=3, domain=domain)
    model = tmp_path / "model.json"
    code, payload, _ = run_cli(
        capsys, "fit", "--input", str(pts), "--domain", domain,
        "--cells", "5,13", "--alpha", "1e-3", "--out", str(model),
    )
    assert code == 0
    assert payload["converged"] is True
    code, payload, _ = run_cli(
        capsys, "eval", "--model", str(model), "--query", str(pts),
        "--out", str(tmp_path / "eval.csv"),
    )
    assert code == 0
    assert payload["n_points"] == 150


def test_fit_and_eval_accept_a_byte_order_mark(capsys, tmp_path):
    # spreadsheet "CSV UTF-8" export starts the file with EF BB BF
    data, _ = synth(capsys, tmp_path, name="data.csv", n=80, seed=5, noise=0.01)
    query, _ = synth(capsys, tmp_path, name="query.csv", n=30, seed=6)
    results = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        tag = "bom" if prefix else "plain"
        data_in = tmp_path / f"data_{tag}.csv"
        query_in = tmp_path / f"query_{tag}.csv"
        data_in.write_bytes(prefix + data.read_bytes())
        query_in.write_bytes(prefix + query.read_bytes())
        model, out = tmp_path / f"model_{tag}.json", tmp_path / f"eval_{tag}.csv"
        code, fitted, _ = run_cli(
            capsys, "fit", "--input", str(data_in), "--domain", "0,0,1,1",
            "--cells", "8,8", "--alpha", "1e-3", "--out", str(model),
        )
        assert code == 0
        code, evaluated, _ = run_cli(
            capsys, "eval", "--model", str(model), "--query", str(query_in),
            "--out", str(out),
        )
        assert code == 0
        del fitted["model"], evaluated["output"]
        results.append((fitted, evaluated, model.read_bytes(), out.read_bytes()))
    assert results[1] == results[0]
    assert results[0][1]["n_points"] == 30


def test_usage_error_prints_json(capsys):
    code, payload, err = run_cli(capsys, "fit")
    assert code == 2
    assert payload["error"]["type"] == "input"
    assert "--input" in payload["error"]["message"]
    assert err.startswith("usage:")


def test_fit_outputs_are_byte_identical(capsys, tmp_path):
    pts, _ = synth(capsys, tmp_path, n=80, seed=11, noise=0.02)
    models = []
    for name in ("m1.json", "m2.json"):
        model = tmp_path / name
        code, *_ = run_cli(
            capsys, "fit", "--input", str(pts), "--domain", "0,0,1,1",
            "--cells", "8,8", "--alpha", "1e-3", "--out", str(model),
        )
        assert code == 0
        models.append(model.read_bytes())
    assert models[0] == models[1]


def test_fit_meets_rtol_at_large_alpha(capsys, tmp_path):
    # before kernel deflation the solve stalled above the default rtol here
    pts, _ = synth(capsys, tmp_path, n=5000, seed=7)
    code, payload, err = run_cli(
        capsys, "fit", "--input", str(pts), "--domain", "0,0,1,1",
        "--cells", "16,16", "--kind", "simplex", "--alpha", "1e6",
        "--out", str(tmp_path / "m.json"),
    )
    assert code == 0
    assert payload["residual"] <= 1e-10
    assert payload["converged"] is True
    assert "warn" not in err.lower()


def test_fit_reports_the_fourier_preconditioner(capsys, tmp_path):
    # a stiff fit on a fine 2D grid takes the Fourier-symbol preconditioner
    pts, _ = synth(capsys, tmp_path, n=5000, seed=1)
    code, payload, err = run_cli(
        capsys, "fit", "--input", str(pts), "--domain", "0,0,1,1",
        "--cells", "64,64", "--alpha", "1", "--out", str(tmp_path / "m.json"),
    )
    assert code == 0
    assert payload["preconditioner"] == "fourier"
    assert payload["converged"] is True
    assert "warn" not in err.lower()


def test_fit_flags_residual_above_rtol(capsys, tmp_path, stalled_solve):
    pts, _ = synth(capsys, tmp_path)
    code, payload, err = run_cli(
        capsys, "fit", "--input", str(pts), "--domain", "0,0,1,1",
        "--cells", "8,8", "--alpha", "1e-3", "--out", str(tmp_path / "m.json"),
    )
    assert code == 0
    assert payload["residual"] > 1e-10
    assert payload["converged"] is False
    warning_lines = [line for line in err.splitlines() if "warn" in line.lower()]
    assert len(warning_lines) == 1
    assert warning_lines[0].startswith("warning: ") and "above rtol" in warning_lines[0]


@pytest.mark.parametrize("alpha,domain", [
    ("inf", "0,0,1,1"),
    ("nan", "0,0,1,1"),
    ("1e-3", "0,0,1,inf"),
    ("1e-3", "nan,0,1,1"),
])
def test_fit_rejects_non_finite_alpha_or_domain(capsys, tmp_path, alpha, domain):
    pts, _ = synth(capsys, tmp_path, n=500, seed=7)
    model = tmp_path / "m.json"
    code, payload, _ = run_cli(
        capsys, "fit", "--input", str(pts), "--domain", domain,
        "--cells", "8,8", "--alpha", alpha, "--out", str(model),
    )
    assert code == 2
    assert payload["error"]["type"] == "input"
    assert not model.exists()


def test_fit_constant_self_check(capsys, tmp_path):
    pts = tmp_path / "const.csv"
    with pts.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "value"])
        rng = np.random.default_rng(0)
        for p in rng.uniform(0, 1, (25, 2)):
            writer.writerow([f"{p[0]:.17g}", f"{p[1]:.17g}", "4.25"])
    code, payload, _ = run_cli(
        capsys, "fit", "--input", str(pts), "--domain", "0,0,1,1",
        "--cells", "8,8", "--alpha", "1e-2", "--out", str(tmp_path / "m.json"),
    )
    assert code == 0
    assert payload["self_check_constant_deviation"] < 1e-8


def test_fit_missing_value_column(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0.1,0.2\n")
    code, payload, _ = run_cli(
        capsys, "fit", "--input", str(bad), "--domain", "0,0,1,1",
        "--cells", "4,4", "--alpha", "1", "--out", str(tmp_path / "m.json"),
    )
    assert code == 2
    assert payload["error"]["line"] == 1


def test_fit_reports_bad_row_line(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,value\n0.1,0.2,1.0\n0.3,oops,2.0\n")
    code, payload, _ = run_cli(
        capsys, "fit", "--input", str(bad), "--domain", "0,0,1,1",
        "--cells", "4,4", "--alpha", "1", "--out", str(tmp_path / "m.json"),
    )
    assert code == 2
    assert payload["error"]["line"] == 3


def test_eval_empty_query(capsys, tmp_path):
    pts, _ = synth(capsys, tmp_path, n=40, seed=5)
    model = tmp_path / "model.json"
    code, *_ = run_cli(
        capsys, "fit", "--input", str(pts), "--domain", "0,0,1,1",
        "--cells", "6,6", "--alpha", "1e-2", "--out", str(model),
    )
    assert code == 0
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    out = tmp_path / "out.csv"
    code, payload, _ = run_cli(
        capsys, "eval", "--model", str(model), "--query", str(empty),
        "--out", str(out),
    )
    assert code == 0
    assert payload["n_points"] == 0
    assert out.read_text().strip() == "x,y,value,grad_x,grad_y"


def test_eval_out_of_domain_rows(capsys, tmp_path):
    pts, _ = synth(capsys, tmp_path, n=40, seed=5)
    model = tmp_path / "model.json"
    run_cli(capsys, "fit", "--input", str(pts), "--domain", "0,0,1,1",
            "--cells", "6,6", "--alpha", "1e-2", "--out", str(model))
    query = tmp_path / "q.csv"
    query.write_text("x,y\n0.5,0.5\n1.5,0.5\n0.2,0.2\n9,9\n")
    code, payload, _ = run_cli(
        capsys, "eval", "--model", str(model), "--query", str(query),
        "--out", str(tmp_path / "o.csv"),
    )
    assert code == 3
    assert payload["error"]["type"] == "domain"
    assert payload["error"]["indices"] == [1, 3]


def test_eval_non_finite_query_rows(capsys, tmp_path):
    pts, _ = synth(capsys, tmp_path, n=40, seed=5)
    model = tmp_path / "model.json"
    run_cli(capsys, "fit", "--input", str(pts), "--domain", "0,0,1,1",
            "--cells", "6,6", "--alpha", "1e-2", "--out", str(model))
    query = tmp_path / "q.csv"
    query.write_text("x,y\n0.5,0.5\nnan,0.5\n0.2,inf\n")
    out = tmp_path / "o.csv"
    code, payload, _ = run_cli(
        capsys, "eval", "--model", str(model), "--query", str(query), "--out", str(out),
    )
    assert code == 3
    assert payload["error"]["type"] == "domain"
    assert payload["error"]["indices"] == [1, 2]
    assert not out.exists()


def test_eval_corrupt_model(capsys, tmp_path):
    model = tmp_path / "corrupt.json"
    model.write_text("{\"nope\": 1}")
    query = tmp_path / "q.csv"
    query.write_text("x,y\n0.5,0.5\n")
    code, payload, _ = run_cli(
        capsys, "eval", "--model", str(model), "--query", str(query),
        "--out", str(tmp_path / "o.csv"),
    )
    assert code == 2
    assert payload["error"]["type"] == "input"


def test_eval_truncated_model(capsys, tmp_path):
    pts, _ = synth(capsys, tmp_path, n=40, seed=5)
    model = tmp_path / "model.json"
    code, *_ = run_cli(
        capsys, "fit", "--input", str(pts), "--domain", "0,0,1,1",
        "--cells", "6,6", "--alpha", "1e-2", "--out", str(model),
    )
    assert code == 0
    data = json.loads(model.read_text())
    data["u"] = data["u"][:-3]
    model.write_text(json.dumps(data))
    code, payload, _ = run_cli(
        capsys, "eval", "--model", str(model), "--query", str(pts),
        "--out", str(tmp_path / "o.csv"),
    )
    assert code == 2
    assert payload["error"]["type"] == "input"


def eval_model_file(capsys, tmp_path, text):
    model = tmp_path / "model.json"
    model.write_text(text)
    query = tmp_path / "q.csv"
    query.write_text("x,y\n0.5,0.5\n")
    return run_cli(capsys, "eval", "--model", str(model), "--query", str(query),
                   "--out", str(tmp_path / "o.csv"))


def test_eval_model_with_infinite_iterations(capsys, tmp_path):
    pts, _ = synth(capsys, tmp_path, n=40, seed=5)
    model = tmp_path / "fitted.json"
    code, *_ = run_cli(
        capsys, "fit", "--input", str(pts), "--domain", "0,0,1,1",
        "--cells", "6,6", "--alpha", "1e-2", "--out", str(model),
    )
    assert code == 0
    data = json.loads(model.read_text())
    data["diagnostics"]["iterations"] = float("inf")  # written as Infinity
    code, payload, err = eval_model_file(capsys, tmp_path, json.dumps(data))
    assert code == 2
    assert payload["error"]["type"] == "input"
    assert "Traceback" not in err


def test_eval_deeply_nested_model(capsys, tmp_path):
    # nesting past the JSON decoder's recursion limit
    code, payload, err = eval_model_file(capsys, tmp_path, "[" * 200_000 + "]" * 200_000)
    assert code == 2
    assert payload["error"]["type"] == "input"
    assert "Traceback" not in err


def test_eval_model_not_an_object(capsys, tmp_path):
    code, payload, _ = eval_model_file(capsys, tmp_path, "[1, 2]")
    assert code == 2
    assert payload["error"]["type"] == "input"


def test_eval_version_1_model_with_inconsistent_mesh(capsys, tmp_path):
    # vertices and elements that disagree with the 2x2 grid; before the
    # mesh was rebuilt from its grid, eval died with an IndexError
    data = {
        "format": "fetps-smoother", "version": 1, "alpha": 1.0,
        "mesh": {"kind": "simplex", "dim": 2,
                 "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                 "elements": [[0, 1, 2]],
                 "structured": {"lower": [0.0, 0.0], "upper": [1.0, 1.0],
                                "cells_per_axis": [2, 2]}},
        "u": [0.0, 1.0, 2.0],
        "sigma": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        "phi": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    }
    with pytest.raises(DataFormatError):
        Smoother.from_dict(data)
    code, payload, _ = eval_model_file(capsys, tmp_path, json.dumps(data))
    assert code == 2
    assert payload["error"]["type"] == "input"


def test_study_linear_field_small(capsys, tmp_path):
    out_csv = tmp_path / "study.csv"
    code, payload, err = run_cli(
        capsys, "study", "--field", "linear", "--domain", "0,0,1,1",
        "--levels", "3", "--base-cells", "4", "--alpha", "1e-2",
        "--n-data", "50", "--seed", "2", "--out-csv", str(out_csv),
    )
    assert code == 0
    assert payload["status"] == "ok"
    assert len(payload["rows"]) == 3
    for row in payload["rows"]:
        for col, val in row["errors"].items():
            assert val < 1e-8
    # CSV table written alongside
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 3
    assert "qh_l2" in rows[0]
    # human table on stderr
    assert "level" in err


def test_study_superconvergence_column_quads(capsys, tmp_path):
    code, payload, _ = run_cli(
        capsys, "study", "--field", "sin-product", "--domain", "0,0,1,1",
        "--levels", "3", "--base-cells", "8", "--kind", "parallelotope",
        "--columns", "superconvergence",
    )
    assert code == 0
    orders = [r["orders"].get("superconvergence") for r in payload["rows"]]
    assert orders[0] is None
    assert all(1.8 <= o <= 2.2 for o in orders[1:])


def test_study_help_lists_every_column(capsys):
    # the help is a literal, so that building the parser imports no study code
    from fetps.study import ALL_COLUMNS

    with pytest.raises(SystemExit):
        main(["study", "--help"])
    assert ",".join(ALL_COLUMNS) in capsys.readouterr().out


def test_study_rejects_bad_levels(capsys):
    code, payload, _ = run_cli(
        capsys, "study", "--field", "linear", "--domain", "0,0,1,1",
        "--levels", "2",
    )
    assert code == 2


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_study_rejects_non_finite_alpha(capsys, alpha):
    code, payload, _ = run_cli(
        capsys, "study", "--field", "linear", "--domain", "0,0,1,1",
        "--levels", "3", "--alpha", alpha, "--columns", "superconvergence",
    )
    assert code == 2
    assert payload["error"]["type"] == "input"


@pytest.mark.parametrize("n_data", ["0", "2"])
def test_study_rejects_too_few_data_before_any_level(capsys, tmp_path, n_data):
    out_csv = tmp_path / "study.csv"
    code, payload, _ = run_cli(
        capsys, "study", "--field", "linear", "--domain", "0,0,1,1",
        "--levels", "3", "--base-cells", "2", "--n-data", n_data,
        "--out-csv", str(out_csv),
    )
    assert code == 2
    assert payload["error"]["type"] == "input"
    assert "rows" not in payload
    assert not out_csv.exists()


def test_domain_parse_errors(capsys, tmp_path):
    code, payload, _ = run_cli(
        capsys, "synth", "--field", "linear", "--domain", "0,0,1",
        "--n", "5", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
