import json
import math

import pytest

from riskclaim.cli import main, reevaluate_solution


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def solve_and_reevaluate(args, tmp_path, capsys):
    out_path = tmp_path / "solution.json"
    code, _, _ = run(["solve", *args, "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    got_price, got_risk = reevaluate_solution(doc)
    assert got_price == pytest.approx(doc["v"] + doc["budget_residual"], abs=1e-12)
    assert got_risk == pytest.approx(doc["risk"], abs=1e-12)


class TestSolve:
    def test_avar_diversified(self, capsys):
        code, out, _ = run(
            ["solve", "--measure", "avar:0.75", "--density", "uniform:0,2", "--v", "0.9"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["beta"] == pytest.approx(0.6, abs=1e-6)
        assert doc["risk"] == pytest.approx(13.0 / 15.0, abs=1e-6)
        assert doc["regime"] == "diversified"

    def test_zero_budget(self, capsys):
        code, out, _ = run(
            ["solve", "--measure", "avar:0.75", "--density", "uniform:0,2", "--v", "0"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payoff"]["variant"] == "constant"
        assert doc["risk"] == 0.0

    def test_two_level_interior(self, capsys):
        code, out, _ = run(
            ["solve", "--measure", "rho_k:twolevel:0.6,0.5", "--density", "uniform:0,2", "--v", "0.7"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["x_star"] > 0.0

    def test_roundtrip_reevaluation(self, tmp_path, capsys):
        solve_and_reevaluate(
            ["--measure", "avar:0.75", "--density", "uniform:0,2", "--v", "0.9"], tmp_path, capsys
        )

    def test_shifted_roundtrip_reevaluation(self, tmp_path, capsys):
        solve_and_reevaluate(
            ["--measure", "shifted:exp:1:0.5:1", "--density", "uniform:0,2", "--v", "0.5"],
            tmp_path,
            capsys,
        )

    def test_steep_shifted_loss_does_not_overflow(self, capsys):
        # ess sup phi = 1/lam: the constant claim v is optimal, so R = v
        code, out, _ = run(
            ["solve", "--measure", "shifted:exp:20:0.5:1", "--density", "uniform:0,2", "--v", "0.3"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["risk"] == pytest.approx(0.3, abs=1e-9)

    def test_rho_k_clipped_level_roundtrip_reevaluation(self, tmp_path, capsys):
        # the optimum sits in the classical regime with its middle level clipped to 0
        density = (
            "plq:0.0:0.03963684956512371,0.2698572049658772:0.603138316776217,"
            "0.52112720162866:1.1243182961978844,0.9038466715409064:1.5948953092067237,"
            "1.0:2.0637246139047787"
        )
        solve_and_reevaluate(
            ["--measure", "rho_k:twolevel:0.28299700002383676,0.7853064289932463",
             "--density", density, "--v", "0.961914882520597"],
            tmp_path,
            capsys,
        )

    @pytest.mark.parametrize(
        "measure, density, extra",
        [
            # small money units: the budget root must stop relative to v
            ("robust:pow:2:0.75", "uniform:0,2", ["--cap", "1e-6", "--v", "2e-7"]),
            ("robust:exp:0.000001:0.75", "uniform:0,2", ["--v", "0.2"]),
            ("robust:pow:2:0.75", "plq:0:0.2,0.5:0.8,1:2.2", ["--cap", "1e-6", "--v", "9e-7"]),
            # a density whose mean is 1 - 1e-9: the tail costs Phi(1) - Phi, not 1 - Phi
            ("avar:0.5", "uniform:0.5,1.499999999", ["--v", "1e-10"]),
            ("rho_k:twolevel:0.6,0.5", "uniform:0.5,1.499999999", ["--v", "1e-10"]),
        ],
    )
    def test_budget_binds_relative_to_v(self, measure, density, extra, capsys):
        code, out, _ = run(["solve", "--measure", measure, "--density", density, *extra], capsys)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["budget_residual"]) <= 1e-9 * doc["v"]

    def test_var_budget_binds_when_the_mean_is_below_one(self, capsys):
        # the zero-risk VaR claim is the digital above b, near ess sup phi; the
        # budget binds to 1e-9 v or, at this tiny v, to the price change of one
        # float step of b (phi has density 1/(hi - lo) there)
        code, out, _ = run(
            ["solve", "--measure", "var:0.5", "--density", "uniform:0.5,1.499999999",
             "--v", "1e-10"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        b = doc["params"]["b"]
        one_step = b * math.ulp(b) / (1.499999999 - 0.5)
        assert doc["risk"] == 0.0
        assert abs(doc["budget_residual"]) <= max(1e-9 * doc["v"], one_step)

    def test_missing_option_is_config_error(self, capsys):
        code, _, err = run(["solve", "--measure", "avar:0.75", "--v", "0.5"], capsys)
        assert code == 1
        assert "config error" in err

    def test_bad_measure_is_config_error(self, capsys):
        code, _, err = run(
            ["solve", "--measure", "bogus:1", "--density", "uniform:0,2", "--v", "0.5"], capsys
        )
        assert code == 1

    def test_solver_error_exit_code(self, capsys):
        # discrete density routed to a closed-form solver
        code, _, err = run(
            [
                "solve",
                "--measure",
                "robust:exp:1:0.5",
                "--density",
                "plq:0:1,1:1",
                "--v",
                "0.5",
            ],
            capsys,
        )
        assert code == 2
        assert "solver error" in err

    def test_overflowing_loss_is_solver_error(self, capsys):
        code, _, err = run(
            ["solve", "--measure", "robust:exp:1:0.75", "--density", "uniform:0,2",
             "--cap", "1000", "--v", "400"],
            capsys,
        )
        assert code == 2
        assert "overflows" in err

    @pytest.mark.parametrize(
        "loss, cap, v",
        [("pow:2", "1e200", "5e199"), ("pow:2", "1e160", "5e159"), ("pow:3", "1e200", "5e199")],
    )
    def test_overflowing_power_loss_is_solver_error(self, capsys, loss, cap, v):
        # the risk is past the float range: no "risk": Infinity, no traceback
        code, out, err = run(
            ["solve", "--measure", f"robust:{loss}:0.75", "--density", "uniform:0,2",
             "--cap", cap, "--v", v],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "overflows" in err


class TestCurve:
    def test_avar_curve(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(
            [
                "curve",
                "--measure",
                "avar:0.75",
                "--density",
                "uniform:0,2",
                "--grid",
                "0:1:11",
                "--out",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "v,risk,regime,beta_or_xstar"
        assert len(lines) == 12
        rows = [line.split(",") for line in lines[1:]]
        risks = [float(r[1]) for r in rows]
        assert risks[0] == 0.0 and risks[-1] == 1.0
        regimes = [r[2] for r in rows]
        assert regimes[8] == "diversified" and regimes[5] == "classical"  # flip at v_lam
        checks = json.loads((tmp_path / "curve.csv.checks.json").read_text())
        assert checks["monotone"] and checks["convexity"] == "ok"

    def test_two_point_grid(self, capsys):
        code, out, _ = run(
            ["curve", "--measure", "avar:0.75", "--density", "uniform:0,2", "--grid", "0:1:2"],
            capsys,
        )
        assert code == 0
        lines = [l for l in out.splitlines() if "," in l and not l.startswith("{")]
        risks = [float(l.split(",")[1]) for l in lines[1:3]]
        assert risks == pytest.approx([0.0, 1.0])

    def test_failed_points_marked_na(self, tmp_path, capsys):
        # atom densities cannot feed the closed-form solver: every point fails
        atoms = tmp_path / "atoms.csv"
        atoms.write_text("value,prob\n0.5,0.5\n1.5,0.5\n")
        out_path = tmp_path / "na.csv"
        code, _, _ = run(
            [
                "curve",
                "--measure",
                "avar:0.75",
                "--density",
                f"atoms:{atoms}",
                "--grid",
                "0.2:0.8:3",
                "--out",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert all(line.endswith("NA,NA,NA") for line in lines[1:])
        checks = json.loads((tmp_path / "na.csv.checks.json").read_text())
        assert len(checks["failed_points"]) == 3

    def test_var_curve_skips_convexity(self, tmp_path, capsys):
        out_path = tmp_path / "var.csv"
        code, _, _ = run(
            [
                "curve",
                "--measure",
                "var:0.25",
                "--density",
                "uniform:0,2",
                "--grid",
                "0:1:9",
                "--out",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        checks = json.loads((tmp_path / "var.csv.checks.json").read_text())
        assert checks["convexity"].startswith("skipped")


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(
            [
                "verify",
                "--measure",
                "avar:0.75",
                "--density",
                "uniform:0,2",
                "--v",
                "0.9",
                "--n",
                "2000",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] and report["gap"] <= 2e-3

    def test_linear_weight_flat_case(self, capsys):
        steps = ",".join(f"{i/256}:{(2*i+1)/256}" for i in range(256))
        code, out, _ = run(
            [
                "verify",
                "--measure",
                f"rho_k:steps:{steps}",
                "--density",
                "uniform:0,2",
                "--v",
                "0.7",
                "--n",
                "500",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["solver_risk"] == pytest.approx(0.7, abs=1e-4)
        assert report["oracle_risk"] == pytest.approx(0.7, abs=1e-3)

    def test_controlled_failure(self, capsys):
        code, out, err = run(
            [
                "verify",
                "--measure",
                "avar:0.75",
                "--density",
                "uniform:0,2",
                "--v",
                "0.5",
                "--n",
                "2",
                "--tol",
                "1e-6",
            ],
            capsys,
        )
        assert code == 3
        assert "verification failed" in err

    def test_env_var_sets_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("RISKCLAIM_TOL", "1e-9")
        code, _, _ = run(
            ["verify", "--measure", "avar:0.75", "--density", "uniform:0,2", "--v", "0.5",
             "--n", "50"],
            capsys,
        )
        assert code == 3  # coarse grid cannot meet 1e-9

    def test_bad_env_tolerance_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("RISKCLAIM_TOL", "abc")
        code, _, err = run(
            ["verify", "--measure", "avar:0.75", "--density", "uniform:0,2", "--v", "0.5"], capsys
        )
        assert code == 1
        assert "config error" in err

    def test_rejects_var_measure(self, capsys):
        code, _, _ = run(
            ["verify", "--measure", "var:0.25", "--density", "uniform:0,2", "--v", "0.5"], capsys
        )
        assert code == 1

    def test_scaled_cap(self, capsys):
        code, out, _ = run(
            [
                "verify",
                "--measure",
                "avar:0.75",
                "--density",
                "uniform:0,2",
                "--v",
                "1.8",
                "--cap",
                "2",
                "--n",
                "500",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"]
        assert report["solver_risk"] == pytest.approx(2 * 13.0 / 15.0, abs=1e-6)

    def test_robust_measure(self, capsys):
        code, out, _ = run(
            [
                "verify",
                "--measure",
                "robust:exp:1:0.75",
                "--density",
                "uniform:0,2",
                "--v",
                "0.6",
                "--n",
                "400",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["pass"]


class TestInspect:
    def test_dump(self, capsys):
        code, out, _ = run(["inspect", "--density", "uniform:0,2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["mean"] == pytest.approx(1.0)
        assert doc["continuous_strictly_increasing"]
        assert doc["quantile_table"]["values"][10] == pytest.approx(1.0)

    def test_reports_issues(self, capsys):
        code, out, _ = run(["inspect", "--density", "uniform:0,3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["issues"][0]["code"] == "mean"


class TestConfigFile:
    def test_flags_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"measure": "avar:0.75", "density": "uniform:0,2", "v": 0.9})
        )
        code, out, _ = run(["solve", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["risk"] == pytest.approx(13.0 / 15.0, abs=1e-6)

    def test_explicit_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": "avar:0.75", "density": "uniform:0,2", "v": 0.9}))
        code, out, _ = run(["solve", "--config", str(cfg), "--v", "0.5"], capsys)
        assert code == 0
        assert json.loads(out)["risk"] == pytest.approx((1 - math.sqrt(0.5)) / 0.75, abs=1e-6)

    def test_explicit_flag_at_its_default_wins(self, tmp_path, capsys):
        cfg = tmp_path / "cap.json"
        cfg.write_text(json.dumps({"cap": 2.0}))
        code, out, _ = run(
            ["solve", "--config", str(cfg), "--cap", "1", "--measure", "avar:0.75",
             "--density", "uniform:0,2", "--v", "0.5"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["cap"] == 1.0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        code, _, err = run(["solve", "--config", str(cfg)], capsys)
        assert code == 1

    @pytest.mark.parametrize("key", ["tol", "n", "v", "cap"])
    def test_untyped_value_is_config_error(self, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "abc"}))
        code, _, err = run(
            ["verify", "--config", str(cfg), "--measure", "avar:0.75", "--density",
             "uniform:0,2", "--v", "0.5", "--n", "50"],
            capsys,
        )
        assert code == 1
        assert "config error" in err

    def test_numeric_strings_convert(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": "1e-9", "n": "50"}))
        code, out, _ = run(
            ["verify", "--config", str(cfg), "--measure", "avar:0.75", "--density",
             "uniform:0,2", "--v", "0.5"],
            capsys,
        )
        assert code == 3  # read as numbers: a 50-atom grid cannot meet 1e-9
        assert json.loads(out)["n_atoms"] == 50
