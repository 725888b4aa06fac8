import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qest.cli import main


def run_cli(args, tmp_path=None):
    return main(list(args))


class TestBounds:
    def test_fisher_weight_constant_nine(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        code = run_cli(["bounds", "--weight", "qfi", "--dir", "1,1,1",
                        "--rmax", "0.99", "--rstep", "0.11", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "r,c,cT,discrepancy"
        for line in lines[1:]:
            r, c, ct, disc = (float(v) for v in line.split(","))
            assert c == pytest.approx(9.0, abs=1e-10)
            assert disc < 1e-6

    def test_identity_weight_limits(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = run_cli(["bounds", "--weight", "identity", "--dir", "1,1,1",
                        "--rmax", "0.95", "--out", str(out)])
        assert code == 0
        rows = [[float(v) for v in line.split(",")]
                for line in out.read_text().strip().split("\n")[1:]]
        # r = 0 row: c = cT for any rotational weight
        assert rows[0][1] == pytest.approx(rows[0][2], abs=1e-12)
        # cT stays below 9 and approaches 6, c approaches 4 from above
        assert rows[-1][1] < rows[0][1]
        assert rows[-1][2] < rows[0][2]

    def test_csv_roundtrip_precision(self, tmp_path):
        out = tmp_path / "bounds.csv"
        run_cli(["bounds", "--weight", "custom", "--f", "2", "--g", "0.5",
                 "--dir", "0.3,-1,0.5", "--rmax", "0.9", "--out", str(out)])
        from qest.bounds import RotWeight, c_opt_closed
        w = RotWeight(2.0, 0.5)
        for line in out.read_text().strip().split("\n")[1:]:
            r_txt, c_txt = line.split(",")[:2]
            assert float(c_txt) == c_opt_closed(w, float(r_txt))

    def test_zero_direction_usage_error(self, capsys):
        assert run_cli(["bounds", "--dir", "0,0,0"]) == 2
        assert capsys.readouterr().err == "error: direction must be nonzero\n"

    @pytest.mark.parametrize("value", ["4e-200,4e-200,4e-200", "1e200,1e200,1e200"])
    def test_tiny_or_huge_direction_is_its_unit_vector(self, value, tmp_path, capsys, recwarn):
        for weight in (["qfi"], ["custom", "--f", "2", "--g", "0.5"]):
            for name, direction in (("got", value), ("want", "1,1,1")):
                assert run_cli(["bounds", "--weight", *weight, "--dir", direction,
                                "--out", str(tmp_path / f"{name}.csv")]) == 0
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert capsys.readouterr().err == ""
        assert [str(w.message) for w in recwarn] == []

    def test_custom_weight_needs_both_values(self, capsys):
        assert run_cli(["bounds", "--weight", "custom", "--f", "1"]) == 2
        assert capsys.readouterr().err == "error: --weight custom requires --f and --g\n"

    @pytest.mark.parametrize("values", [["--f", "0", "--g", "0.5"], ["--f", "2", "--g", "0"]])
    def test_zero_custom_value_is_a_usage_error(self, values, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--weight", "custom", *values, "--out", str(out)]) == 2
        assert "weight values must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_custom_value_is_a_usage_error(self, value, tmp_path, capsys, recwarn):
        out = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--weight", "custom", "--f", value, "--g", "1",
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: weight values must be positive and finite\n"
        assert [str(w.message) for w in recwarn] == []
        assert not out.exists()

    @pytest.mark.parametrize("values", [["--f", "1e308", "--g", "1"],
                                        ["--f", "1", "--g", "1e308"]])
    def test_overflowing_custom_merit_is_a_usage_error(self, values, tmp_path, capsys,
                                                       recwarn):
        out = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--weight", "custom", *values, "--rmax", "0.1",
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: merit overflows for these weight values\n"
        assert [str(w.message) for w in recwarn] == []
        assert not out.exists()

    def test_large_custom_weight_passes_the_scaled_gate(self, tmp_path, capsys, recwarn):
        # merits of order 1e300 carry rounding gaps of order 1e292
        out = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--weight", "custom", "--f", "1", "--g", "1e300",
                        "--rmax", "0.1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert [str(w.message) for w in recwarn] == []
        rows = [[float(v) for v in line.split(",")]
                for line in out.read_text().strip().split("\n")[1:]]
        assert max(row[3] for row in rows) > 1e-6

    def test_order_one_gap_still_fails(self, tmp_path, capsys, monkeypatch):
        from qest import bounds
        closed = bounds.c_opt_closed
        monkeypatch.setattr(bounds, "c_opt_closed", lambda w, r: closed(w, r) + 1e-5)
        assert run_cli(["bounds", "--weight", "qfi", "--rmax", "0.5",
                        "--out", str(tmp_path / "bounds.csv")]) == 1
        assert "closed-form/numeric discrepancy 1." in capsys.readouterr().err

    def test_qfi_weight_at_radius_one_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--weight", "qfi", "--rmax", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: radius 1.0 outside [0, 1)\n"
        assert not out.exists()


class TestSimulate:
    def test_determinism_across_runs_and_threads(self, tmp_path):
        args = ["simulate", "--x0", "0.55,0.55,0.55", "--weight", "qfi",
                "--m", "150", "--reps", "4", "--seed", "7",
                "--estimator", "both"]
        env_keep = os.environ.get("QEST_THREADS")
        try:
            os.environ["QEST_THREADS"] = "1"
            run_cli(args + ["--out", str(tmp_path / "a")])
            os.environ["QEST_THREADS"] = "8"
            run_cli(args + ["--out", str(tmp_path / "b")])
        finally:
            if env_keep is None:
                os.environ.pop("QEST_THREADS", None)
            else:
                os.environ["QEST_THREADS"] = env_keep
        for kind in ("tomography", "adaptive"):
            first = (tmp_path / f"a_{kind}.csv").read_bytes()
            second = (tmp_path / f"b_{kind}.csv").read_bytes()
            assert first == second

    def test_single_estimator_json(self, tmp_path):
        code = run_cli(["simulate", "--x0", "0.2,0.1,0.3", "--weight", "identity",
                        "--m", "400", "--reps", "400", "--seed", "3",
                        "--estimator", "tomo", "--format", "json",
                        "--out", str(tmp_path / "mc")])
        assert code == 0
        doc = json.loads((tmp_path / "mc_tomography.json").read_text())
        assert doc["estimator"] == "tomography"
        x0 = np.array([0.2, 0.1, 0.3])
        assert doc["cTomo"] == pytest.approx(3 * (3 - float(x0 @ x0)))
        # converging toward the tomography line (5 standard errors)
        assert abs(doc["meanSq"][-1] - doc["cTomo"]) <= 5 * doc["seSq"][-1]

    def test_dotted_out_name_is_kept(self, tmp_path, capsys):
        assert run_cli(["simulate", "--m", "20", "--reps", "2", "--estimator", "tomo",
                        "--svg", "--out", str(tmp_path / "run.v1")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v1_tomography.csv",
                                                              "run.v1_tomography.svg"]

    def test_bad_config_exit_code(self, capsys):
        assert run_cli(["simulate", "--x0", "1.5,0,0"]) == 2
        assert capsys.readouterr().err == ("error: x0 must be a Stokes vector strictly "
                                           "inside the ball\n")

    @pytest.mark.parametrize("matrix", ["nope", "[[1,2],[3]]", '{"a": 1}', '[[1, "x"]]'])
    def test_malformed_weight_matrix_names_the_flag(self, matrix, tmp_path, capsys):
        assert run_cli(["simulate", "--weight", "custom", "--weight-matrix", matrix,
                        "--out", str(tmp_path / "mc")]) == 2
        assert capsys.readouterr() == ("", "error: --weight-matrix expects a JSON 3x3 matrix "
                                           f"of numbers, got {matrix!r}\n")
        assert list(tmp_path.iterdir()) == []

    def test_custom_weight_needs_a_matrix(self, capsys):
        assert run_cli(["simulate", "--weight", "custom"]) == 2
        assert capsys.readouterr().err == "error: --weight custom requires --weight-matrix\n"

    @pytest.mark.parametrize("matrix", ["[[8e307, 0, 0], [0, 8e307, 0], [0, 0, 8e307]]",
                                        "[[8e307, 0, 0], [0, 1, 0], [0, 0, 1]]"])
    def test_overflowing_custom_merit_is_a_usage_error(self, matrix, tmp_path, capsys,
                                                       recwarn):
        out = tmp_path / "mc"
        assert run_cli(["simulate", "--x0", "0.1,0.2,0.3", "--weight", "custom",
                        "--weight-matrix", matrix, "--m", "20", "--reps", "2",
                        "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: merit overflows for these weight values\n")
        assert [str(w.message) for w in recwarn] == []
        assert list(tmp_path.iterdir()) == []

    def test_uncertified_solves_warn(self, tmp_path, capsys, monkeypatch):
        import qest.simulate as simulate
        monkeypatch.setenv("QEST_THREADS", "1")
        args = ["simulate", "--m", "3000", "--reps", "2", "--seed", "5",
                "--estimator", "adaptive"]
        assert run_cli(args + ["--out", str(tmp_path / "clean")]) == 0
        assert "warning" not in capsys.readouterr().err

        certified = []
        solve = simulate.mle_maximize

        def every_other_uncertified(*a, **kw):
            x, ok = solve(*a, **kw)
            certified.append(ok)
            return x, ok and len(certified) % 2 == 0

        monkeypatch.setattr(simulate, "mle_maximize", every_other_uncertified)
        assert run_cli(args + ["--out", str(tmp_path / "failing")]) == 0
        assert all(certified)
        n_failed = (len(certified) + 1) // 2
        assert (f"warning: {n_failed} likelihood maximization solves were not certified"
                in capsys.readouterr().err)
        assert ((tmp_path / "clean_adaptive.csv").read_bytes()
                == (tmp_path / "failing_adaptive.csv").read_bytes())

    def test_update_every_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--update-every", "2"])
        assert exc.value.code == 2
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"update-every": 1}))
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--config", str(config)])
        assert exc.value.code == 2


class TestIndicatrix:
    def test_identity_unit_circle(self, tmp_path):
        out = tmp_path / "ind.csv"
        code = run_cli(["indicatrix", "--x", "0,0,0", "--weight", "identity",
                        "--plane", "1,2", "--n", "36", "--out", str(out)])
        assert code == 0
        rows = [[float(v) for v in line.split(",")]
                for line in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 36
        for v1, v2 in rows:
            assert np.hypot(v1, v2) == pytest.approx(1.0, abs=1e-12)

    def test_qfi_at_origin_unit_circle(self, tmp_path):
        out = tmp_path / "ind.csv"
        run_cli(["indicatrix", "--x", "0,0,0", "--weight", "qfi",
                 "--plane", "1,2", "--n", "12", "--out", str(out)])
        for line in out.read_text().strip().split("\n")[1:]:
            v1, v2 = (float(v) for v in line.split(","))
            assert np.hypot(v1, v2) == pytest.approx(1.0, abs=1e-12)

    def test_bad_plane_exit_code(self, capsys):
        assert run_cli(["indicatrix", "--x", "0.1,0,0", "--plane", "1,7"]) == 2
        assert capsys.readouterr().err == ("error: --plane 1,7 is not two different axes "
                                           "among 1,2,3\n")

    @pytest.mark.parametrize("plane, err", [
        ("x,1", "--plane expects two comma-separated integers axis,axis, got 'x,1'"),
        ("1,2,3", "--plane expects two comma-separated integers axis,axis, got '1,2,3'"),
        ("2", "--plane expects two comma-separated integers axis,axis, got '2'"),
        ("1.5,2", "--plane expects two comma-separated integers axis,axis, got '1.5,2'"),
        ("1,1", "--plane 1,1 is not two different axes among 1,2,3"),
        ("0,2", "--plane 0,2 is not two different axes among 1,2,3"),
    ])
    def test_bad_plane_names_the_flag(self, plane, err, tmp_path, capsys):
        out = tmp_path / "ind.csv"
        assert run_cli(["indicatrix", "--x", "0.1,0,0", "--plane", plane,
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    def test_point_outside_the_ball(self, capsys):
        assert run_cli(["indicatrix", "--x", "0.9,0.9,0"]) == 2
        assert capsys.readouterr().err == "error: point must lie strictly inside the unit ball\n"


class TestMub:
    def test_dump_overlaps(self, tmp_path):
        out = tmp_path / "mub3.json"
        code = run_cli(["mub", "--q", "3", "--dump", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["bases"]) == 4
        assert doc["maxOverlapDefect"] <= 1e-9
        assert len(doc["tomographyPovm"]["elements"]) == 12

    def test_bounds_sweep_dominance(self, tmp_path):
        out = tmp_path / "mub3.csv"
        code = run_cli(["mub", "--q", "3", "--bounds", "--rmax", "0.8",
                        "--rstep", "0.1", "--out", str(out)])
        assert code == 0
        rows = [[float(v) for v in line.split(",")]
                for line in out.read_text().strip().split("\n")[1:]]
        for _, cgm, ct in rows:
            assert ct >= cgm - 1e-9

    def test_unsupported_dimension(self, capsys):
        assert run_cli(["mub", "--q", "7", "--dump"]) == 2
        assert capsys.readouterr().err == "error: no mutually unbiased bases table for q=7\n"

    @pytest.mark.parametrize("value", ["1,2,3", "x,1", "1", "1.5,1"])
    def test_malformed_dir_names_the_flag(self, value, tmp_path, capsys):
        out = tmp_path / "mub3.csv"
        assert run_cli(["mub", "--q", "3", "--bounds", "--dir", value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: --dir expects two comma-separated integers basis,vector, "
                       f"got {value!r}\n")
        assert not out.exists()

    def test_dir_out_of_range_names_the_flag(self, capsys):
        assert run_cli(["mub", "--q", "3", "--bounds", "--dir", "5,1"]) == 2
        assert capsys.readouterr().err == "error: --dir 5,1 out of range for q=3\n"

    @pytest.mark.parametrize("flags", [[], ["--dump", "--bounds"]])
    def test_exactly_one_action_required(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["mub", "--q", "3", *flags])
        assert exc.value.code == 2


class TestVectorArguments:
    @pytest.mark.parametrize("flag", [["simulate", "--x0"], ["bounds", "--dir"],
                                      ["indicatrix", "--weight", "identity", "--x"]])
    @pytest.mark.parametrize("value", ["0.1,0.2", "nan,0,0", "0,inf,0", "a,b,c", "1,,2"])
    def test_bad_vector_is_a_usage_error(self, flag, value, tmp_path, capsys):
        assert run_cli([*flag, value, "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: expected 3 comma-separated finite numbers, got {value!r}\n"
        assert list(tmp_path.iterdir()) == []


class TestSweepSizes:
    @pytest.mark.parametrize("args", [
        ["bounds", "--rstep", "0"],
        ["bounds", "--rstep", "-0.1"],
        ["bounds", "--rstep", "nan"],
        ["mub", "--q", "3", "--bounds", "--rstep", "0"],
        ["mub", "--q", "3", "--bounds", "--rstep", "-0.1"],
        ["indicatrix", "--n", "0"],
        ["indicatrix", "--n", "-5"],
    ])
    def test_non_positive_sweep_is_a_usage_error(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2
        assert "expected a positive" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["bounds", "--rmax", "-1"],
        ["bounds", "--rmax", "-0.01"],
        ["mub", "--q", "3", "--bounds", "--rmax", "0.01"],
        ["mub", "--q", "3", "--bounds", "--rstep", "0.2", "--rmax", "0.1"],
        ["mub", "--q", "3", "--bounds", "--rstep", "2", "--rmax", "2"],
    ])
    def test_empty_sweep_is_a_usage_error(self, args, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli(args + ["--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["bounds", "--rmax", "-1"],
        ["mub", "--q", "3", "--bounds", "--rmax", "0.01"],
    ])
    def test_empty_sweep_with_svg_leaves_no_file(self, args, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(args + ["--svg", "--out", str(out)]) == 2
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_bounds_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--suite", "bounds", "--seed", "1",
                        "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS" in captured.out
        report = json.loads(out.read_text())
        assert all(item["passed"] for item in report)


class TestConfigFile:
    def test_config_replaces_flags(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"weight": "qfi", "rmax": 0.5, "rstep": 0.25}))
        out = tmp_path / "bounds.csv"
        code = run_cli(["bounds", "--config", str(config), "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 3  # r in {0, 0.25, 0.5}
        assert float(rows[-1].split(",")[1]) == pytest.approx(9.0, abs=1e-10)


class TestSvg:
    def test_bounds_svg_written(self, tmp_path):
        out = tmp_path / "bounds.csv"
        run_cli(["bounds", "--weight", "identity", "--rmax", "0.9",
                 "--out", str(out), "--svg"])
        svg = (tmp_path / "bounds.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "qest.cli", "mub",
                               "--q", "7", "--dump"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
