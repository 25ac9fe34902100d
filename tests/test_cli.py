from dataclasses import replace

import numpy as np
import pytest

from impulsedde import cli
from impulsedde.cli import (
    ConfigError,
    load_config,
    read_trajectory_csv,
    run,
    write_trajectory_csv,
)

PAPER_YAML = """
seed: 42
output_path: {out}
problem:
  name: paper_example
  parameters:
    L_G: 0.01
discretization:
  step: 2.0e-3
picard:
  tolerance: 1.0e-10
  max_iterations: 200
"""


@pytest.fixture()
def paper_cfg(tmp_path):
    out = tmp_path / "traj.csv"
    path = tmp_path / "paper.yaml"
    path.write_text(PAPER_YAML.format(out=out))
    return str(path), str(out)


class TestLoadConfig:
    def test_roundtrip(self, paper_cfg):
        cfg_path, out = paper_cfg
        cfg = load_config(cfg_path)
        assert cfg.problem_name == "paper_example"
        assert cfg.parameters == {"L_G": 0.01}
        assert cfg.step == 2e-3
        assert cfg.seed == 42
        assert cfg.output_path == out

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: {name: paper_example}\ndiscretizaton: {step: 1.0e-3}\n")
        with pytest.raises(ConfigError, match="discretizaton"):
            load_config(str(path))

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: {name: paper_example}\npicard: {tol: 1.0e-10}\n")
        with pytest.raises(ConfigError, match="picard.tol"):
            load_config(str(path))

    def test_negative_step_names_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: {name: paper_example}\ndiscretization: {step: -1}\n")
        with pytest.raises(ConfigError, match="discretization.step"):
            load_config(str(path))

    def test_missing_problem_name(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("discretization: {step: 1.0e-3}\n")
        with pytest.raises(ConfigError, match="problem.name"):
            load_config(str(path))


class TestCertify:
    def test_pass_exit_zero(self, paper_cfg, capsys):
        code = run(["certify", "--config", paper_cfg[0]])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        lhs = float(out.split("lhs = ")[1].split()[0])
        assert 0.2955 <= lhs <= 0.2957

    def test_fail_exit_three(self, tmp_path, capsys):
        path = tmp_path / "f.yaml"
        path.write_text("problem:\n  name: paper_example\n  parameters: {L_G: 0.05}\n")
        code = run(["certify", "--config", str(path)])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_exit_code_matches_token(self, paper_cfg, capsys):
        code = run(["certify", "--config", paper_cfg[0]])
        token = "PASS" if code == 0 else "FAIL"
        assert token in capsys.readouterr().out


class TestSolve:
    def test_csv_schema_and_jump_row(self, paper_cfg, capsys):
        cfg_path, out = paper_cfg
        assert run(["solve", "--config", cfg_path]) == 0
        t, seg, right, vals = read_trajectory_csv(out)
        with open(out) as fh:
            header = fh.readline().strip()
        assert header == "t,segment_index,is_right_limit,w_0"
        # one extra right-limit row at the impulse time
        at_impulse = np.where((t == 1.0) & (right == 1))[0]
        assert len(at_impulse) == 1
        # zero-length window: the jump column value matches the left value
        left = vals[(t == 1.0) & (right == 0) & (seg == 0)][0]
        assert vals[at_impulse[0]] == pytest.approx(left, abs=1e-12)
        assert set(np.unique(seg)) == {-1, 0, 1}

    def test_round_trip_exact(self, paper_cfg):
        cfg_path, out = paper_cfg
        run(["solve", "--config", cfg_path])
        t, seg, right, vals = read_trajectory_csv(out)
        import impulsedde

        cfg = load_config(cfg_path)
        entry = impulsedde.get_entry("paper_example")
        problem, _ = entry.instantiate(**cfg.parameters)
        traj, _ = impulsedde.solve_mild(problem, cfg.discretization, cfg.picard)
        write_trajectory_csv(out, traj)
        t2, _, _, vals2 = read_trajectory_csv(out)
        assert np.array_equal(t, t2)
        assert np.array_equal(vals, vals2)  # 17 significant digits round-trip

    def test_deterministic_output(self, paper_cfg, tmp_path):
        cfg_path, out = paper_cfg
        run(["solve", "--config", cfg_path])
        first = open(out, "rb").read()
        out2 = tmp_path / "again.csv"
        run(["solve", "--config", cfg_path, "--out", str(out2)])
        assert first == open(out2, "rb").read()

    def test_missing_output_path(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("problem: {name: pure_semigroup}\n")
        assert run(["solve", "--config", str(path)]) == 2

    def test_bad_config_exit_two(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: {name: paper_example}\ndiscretization: {step: -1}\n")
        assert run(["solve", "--config", str(path)]) == 2

    def test_nonconvergence_exit_four(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text(
            "output_path: " + str(tmp_path / "o.csv") + "\n"
            "problem: {name: parameter_family}\n"
            "discretization: {step: 5.0e-3}\n"
            "picard: {tolerance: 1.0e-14, max_iterations: 1}\n"
        )
        assert run(["solve", "--config", str(path)]) == 4
        assert "segment" in capsys.readouterr().err

    def test_non_finite_solve_exit_four(self, tmp_path, capsys, monkeypatch):
        # no catalog parameter reaches a stiff generator, so serve one under a new name
        entry = cli.get_entry("pure_semigroup")
        stiff = replace(entry.problem, generator=[[-400.0]])
        monkeypatch.setattr(cli, "get_entry", lambda name: replace(
            entry, problem=stiff, factory=lambda: (stiff, entry.lipschitz)))
        path = tmp_path / "c.yaml"
        path.write_text(
            "output_path: " + str(tmp_path / "o.csv") + "\n"
            "problem: {name: stiff_semigroup}\n"
            "discretization: {step: 1.0e-2}\n"
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["solve", "--config", str(path)]) == 4
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


class TestOtherCommands:
    def test_apriori_with_solve(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("problem: {name: parameter_family}\ndiscretization: {step: 5.0e-3}\n")
        assert run(["apriori", "--config", str(path), "--with-solve"]) == 0
        out = capsys.readouterr().out
        assert "DOMINATED" in out

    def test_bound_empirical_initial(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("problem: {name: parameter_family}\ndiscretization: {step: 5.0e-3}\n")
        code = run(["bound", "--config", str(path), "--kind", "initial",
                    "--gap", "0.05", "--empirical"])
        assert code == 0
        assert "DOMINATED" in capsys.readouterr().out

    def test_bound_parameter_requires_family(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("problem: {name: method_of_steps}\n")
        code = run(["bound", "--config", str(path), "--kind", "parameter",
                    "--rho-gap", "0.1", "--empirical"])
        assert code == 2

    def test_inequality_campaign(self, tmp_path, capsys):
        out = tmp_path / "campaign.csv"
        code = run(["inequality", "--samples", "3", "--seed", "11", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# generator=philox4x64"
        assert lines[1] == "# seed=11"
        assert lines[3] == "instance_id,t_max_violation,max_violation,num_impulses,bound_at_horizon"
        assert len(lines) == 7

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_inequality_without_samples_is_usage_error(self, samples, capsys):
        assert run(["inequality", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert "--samples must be >= 1" in captured.err
        assert "max violation" not in captured.out

    def test_compare(self, tmp_path, capsys):
        a = tmp_path / "a.yaml"
        a.write_text("problem: {name: parameter_family}\ndiscretization: {step: 5.0e-3}\n")
        b = tmp_path / "b.yaml"
        b.write_text(
            "problem:\n  name: parameter_family\n  parameters: {rho: 1.2}\n"
            "discretization: {step: 5.0e-3}\n"
        )
        assert run(["compare", "--config", str(a), "--config-b", str(b)]) == 0
        out = capsys.readouterr().out
        assert "sigma_diff" in out and "segment 0" in out

    def test_usage_error_exit_two(self):
        assert run(["solve"]) == 2
        assert run(["frobnicate"]) == 2

    def test_unknown_problem_name_exit_two(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("problem: {name: nonexistent_entry}\n")
        assert run(["certify", "--config", str(path)]) == 2
        assert "problem.name" in capsys.readouterr().err
