import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from impulsedde import Discretization, DivergenceError, PicardControl, cli
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

    @pytest.mark.parametrize("rule", ["simpson", "trapezoid"])
    def test_quadrature_key_is_unknown(self, tmp_path, capsys, rule):
        # the trapezoid rule is the only one, so the config names none
        path = tmp_path / "bad.yaml"
        path.write_text(f"problem: {{name: paper_example}}\ndiscretization: {{quadrature: {rule}}}\n")
        with pytest.raises(ConfigError, match="^unknown key: discretization.quadrature$"):
            load_config(str(path))
        assert run(["inequality", "--config", str(path), "--samples", "1"]) == 2
        captured = capsys.readouterr()
        assert "discretization.quadrature" in captured.err and "Traceback" not in captured.err
        assert "max violation" not in captured.out

    def test_negative_step_names_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: {name: paper_example}\ndiscretization: {step: -1}\n")
        with pytest.raises(ConfigError, match="discretization.step"):
            load_config(str(path))

    @pytest.mark.parametrize("step", [".inf", ".nan"])
    def test_non_finite_step_exit_two(self, tmp_path, capsys, step):
        path = tmp_path / "bad.yaml"
        path.write_text(f"problem: {{name: paper_example}}\ndiscretization: {{step: {step}}}\n")
        assert run(["inequality", "--config", str(path), "--samples", "3", "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert "discretization.step" in captured.err
        assert "max violation" not in captured.out

    @pytest.mark.parametrize("tolerance", [".inf", ".nan"])
    def test_non_finite_tolerance_exit_two(self, tmp_path, capsys, tolerance):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: {name: windowed_impulse}\ndiscretization: {step: 5.0e-3}\n"
                        f"picard: {{tolerance: {tolerance}}}\n")
        out = tmp_path / "traj.csv"
        assert run(["solve", "--config", str(path), "--out", str(out)]) == 2
        assert "picard.tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_problem_name(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("discretization: {step: 1.0e-3}\n")
        with pytest.raises(ConfigError, match="problem.name"):
            load_config(str(path))

    @pytest.mark.parametrize("section, key", [
        ("problem: {name: paper_example, parameters: [1, 2]}", "problem.parameters"),
        ("problem: {name: paper_example, parameters: {L_G: true}}", "problem.parameters.L_G"),
        ("problem: {name: paper_example}\ndiscretization: {step: abc}", "discretization.step"),
        ("problem: {name: paper_example}\nseed: abc", "seed"),
        ("problem: {name: paper_example}\npicard: {max_iterations: 2.5}", "picard.max_iterations"),
    ])
    def test_wrong_type_exit_two(self, tmp_path, capsys, section, key):
        path = tmp_path / "bad.yaml"
        path.write_text(section + "\n")
        with pytest.raises(ConfigError, match=key):
            load_config(str(path))
        assert run(["certify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert key in captured.err and "Traceback" not in captured.err
        assert "certificate" not in captured.out

    @pytest.mark.parametrize("section, key", [
        ("picard: {max_iterations: 0}", "picard.max_iterations"),
        ("picard: {initial_iterate: x}", "picard.initial_iterate"),
        ("seed: -3", "seed"),
    ])
    def test_out_of_range_exit_two(self, tmp_path, capsys, section, key):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: {name: paper_example}\n" + section + "\n")
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            load_config(str(path))
        assert run(["inequality", "--config", str(path), "--samples", "1"]) == 2
        captured = capsys.readouterr()
        assert key in captured.err and "Traceback" not in captured.err
        assert "max violation" not in captured.out

    def test_negative_seed_flag_exit_two(self, capsys):
        assert run(["inequality", "--samples", "1", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--seed must be >= 0, got -1" in captured.err
        assert "max violation" not in captured.out

    def test_output_path_must_be_a_string(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: {name: pure_semigroup}\ndiscretization: {step: 5.0e-2}\n"
                        "output_path: 1\n")
        assert run(["solve", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "output_path must be of type str" in captured.err
        assert captured.out == ""  # nothing written to file descriptor 1

    def test_number_read_as_string_by_yaml_is_a_number(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("problem: {name: paper_example}\ndiscretization: {step: 1e-3}\n")
        assert load_config(str(path)).step == 1e-3

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("problem: {name: paper_example}\npicard: {tolerance: 1}\n")
        cfg = load_config(str(path))
        assert cfg.discretization == Discretization()
        assert cfg.picard == PicardControl(tolerance=1.0)
        assert type(cfg.picard.tolerance) is float


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
        # no catalog parameter reaches an exploding generator, so serve one under a
        # new name: e^{400 t} overflows before the horizon 2
        entry = cli.get_entry("pure_semigroup")
        stiff = replace(entry.problem, generator=[[400.0]])
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

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("problem: {name: windowed_impulse}\ndiscretization: {step: 5.0e-3}\n")
        out = tmp_path / "missing" / "a.csv"
        assert run(["solve", "--config", str(path), "--out", str(out)]) == 2
        assert "config error: cannot write" in capsys.readouterr().err


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

    @pytest.mark.parametrize("empirical", [False, True], ids=["theoretical", "empirical"])
    @pytest.mark.parametrize("problem", ["windowed_impulse", "parameter_family"])
    def test_bound_function(self, tmp_path, capsys, problem, empirical):
        path = tmp_path / "c.yaml"
        path.write_text(f"problem: {{name: {problem}}}\ndiscretization: {{step: 5.0e-3}}\n")
        args = ["bound", "--config", str(path), "--kind", "function",
                "--p-gap", "0.02", "--j-gap", "0.01", "--n-gap", "0.005"]
        assert run(args + ["--empirical"] * empirical) == 0
        out = capsys.readouterr().out
        assert out.startswith("theoretical function bound = ")
        assert ("-> DOMINATED" in out) == empirical

    def test_bound_parameter_requires_family(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("problem: {name: method_of_steps}\n")
        code = run(["bound", "--config", str(path), "--kind", "parameter",
                    "--rho-gap", "0.1", "--empirical"])
        assert code == 2

    @pytest.mark.parametrize("gap, message", [
        (["--rho-gap", "0.7"], "parameter_family.rho=1.7 outside [0.5, 1.5]"),
        (["--mu-gap", "0.6"], "parameter_family.mu=1.6 outside [0.5, 1.5]"),
    ])
    def test_bound_empirical_gap_outside_the_family_exit_two(self, tmp_path, capsys, gap, message):
        # the perturbed problem is built before the theoretical bound is printed
        path = tmp_path / "c.yaml"
        path.write_text("problem: {name: parameter_family}\ndiscretization: {step: 5.0e-3}\n")
        assert run(["bound", "--config", str(path), "--kind", "parameter", "--empirical"] + gap) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and message in captured.err

    @pytest.mark.parametrize("problem, args", [
        ("paper_example", ["--kind", "initial", "--gap", "nan"]),
        ("paper_example", ["--kind", "initial", "--gap", "inf"]),
        ("parameter_family", ["--kind", "parameter", "--rho-gap", "nan"]),
        ("paper_example", ["--kind", "function", "--p-gap", "nan"]),
        # the gap is checked before the perturbed problem is built, so it is
        # reported rather than the family's range
        ("parameter_family", ["--kind", "parameter", "--rho-gap", "nan", "--empirical"]),
        ("parameter_family", ["--kind", "parameter", "--mu-gap", "inf", "--empirical"]),
    ])
    def test_bound_non_finite_gap_exit_two(self, tmp_path, capsys, problem, args):
        path = tmp_path / "c.yaml"
        path.write_text(f"problem: {{name: {problem}}}\n")
        assert run(["bound", "--config", str(path)] + args) == 2
        captured = capsys.readouterr()
        assert "bound not evaluable" in captured.err
        assert "theoretical" not in captured.out
        if "--empirical" in args:
            assert "parameter gaps must be finite" in captured.err
            assert "outside" not in captured.err

    def test_inequality_campaign(self, tmp_path, capsys):
        out = tmp_path / "campaign.csv"
        code = run(["inequality", "--samples", "3", "--seed", "11", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# generator=philox4x64"
        assert lines[1] == "# seed=11"
        assert lines[3] == "instance_id,t_max_violation,max_violation,num_impulses,bound_at_horizon"
        assert len(lines) == 7

    def test_inequality_takes_seed_and_step_from_the_config(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("seed: 5\nproblem: {name: paper_example}\ndiscretization: {step: 2.0e-3}\n")
        out = tmp_path / "campaign.csv"
        assert run(["inequality", "--config", str(path), "--samples", "2", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:3] == ["# seed=5", "# step=0.002"]
        assert "(tolerance 4.001e-05)" in capsys.readouterr().out

    def test_inequality_unwritable_out_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "b.csv"
        assert run(["inequality", "--samples", "2", "--out", str(out)]) == 2
        assert "config error: cannot write" in capsys.readouterr().err

    def test_inequality_divergence_exit_four(self, capsys, monkeypatch):
        def diverge(inst, grid):
            raise DivergenceError("maximal-solution sweep overflowed")

        monkeypatch.setattr(cli, "maximal_solution", diverge)
        assert run(["inequality", "--samples", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.err == "solver failure: maximal-solution sweep overflowed\n"
        assert "max violation" not in captured.out

    def test_inequality_campaign_squares_without_pow(self, capsys, monkeypatch):
        # random instances square sin by one multiplication, never through libm pow
        def no_pow(*args, **kwargs):
            raise AssertionError("np.float_power called")

        monkeypatch.setattr(np, "float_power", no_pow)
        assert run(["inequality", "--samples", "3", "--seed", "0"]) == 0
        assert "max violation over 3 instances" in capsys.readouterr().out

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

    @pytest.mark.parametrize("name_a, name_b, message", [
        ("windowed_impulse", "parameter_family", "different dimensions"),
        ("paper_example", "pure_semigroup", "different impulse structure"),
        ("parameter_family", "paper_example", "different impulse structure"),
    ])
    def test_compare_incomparable_exits_two_before_solving(self, name_a, name_b, message,
                                                           tmp_path, capsys, monkeypatch):
        solves = []
        solve_mild = cli.solve_mild
        monkeypatch.setattr(cli, "solve_mild", lambda *a: solves.append(a) or solve_mild(*a))
        paths = []
        for name in (name_a, name_b):
            paths.append(tmp_path / f"{name}.yaml")
            paths[-1].write_text(f"problem: {{name: {name}}}\ndiscretization: {{step: 5.0e-3}}\n")
        assert run(["compare", "--config", str(paths[0]), "--config-b", str(paths[1])]) == 2
        assert f"configs are not comparable: trajectories have {message}" in capsys.readouterr().err
        assert solves == []

    def test_usage_error_exit_two(self):
        assert run(["solve"]) == 2
        assert run(["frobnicate"]) == 2

    def test_unknown_problem_name_exit_two(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("problem: {name: nonexistent_entry}\n")
        assert run(["certify", "--config", str(path)]) == 2
        assert "problem.name" in capsys.readouterr().err


def test_runtime_does_not_import_scipy():
    # scipy is a test dependency only; a process that imports the CLI, solves an
    # n = 2 problem and bounds its semigroup must never load it
    code = (
        "import sys, impulsedde.cli\n"
        "from impulsedde import Discretization, PicardControl, get_entry, operator_norm_bound, solve_mild\n"
        "p = get_entry('windowed_impulse').problem\n"
        "assert p.dimension == 2\n"
        "solve_mild(p, Discretization(step=5e-3), PicardControl())\n"
        "operator_norm_bound(p.generator, p.horizon)\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_runtime_does_not_import_numpy_ma(tmp_path):
    # a plain np.unique imports numpy.ma; the dependence check, the
    # campaign and compare build their grids without it
    config = tmp_path / "window.yaml"
    config.write_text("problem: {name: windowed_impulse}\ndiscretization: {step: 5.0e-3}\n")
    code = (
        "import contextlib, io, sys, impulsedde.cli\n"
        "from impulsedde import (Discretization, PicardControl, check_dependence, get_entry,\n"
        "                        operator_norm_bound)\n"
        "from impulsedde.model import as_state, with_history\n"
        "entry = get_entry('windowed_impulse')\n"
        "p = entry.problem\n"
        "q = with_history(p, lambda t: as_state(p.history(t), 2) + 0.01)\n"
        "sg = operator_norm_bound(p.generator, p.horizon)\n"
        "check_dependence('initial', p, q, entry.lipschitz, sg, Discretization(step=5e-3),\n"
        "                 PicardControl())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert impulsedde.cli.run(['inequality', '--samples', '2']) == 0\n"
        f"    assert impulsedde.cli.run(['compare', '--config', {str(config)!r},\n"
        f"                               '--config-b', {str(config)!r}]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma'])\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_campaign_does_not_import_yaml():
    # yaml is read only by `load_config`; a campaign without --config must not load it
    code = (
        "import contextlib, io, sys, impulsedde.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert impulsedde.cli.run(['inequality', '--samples', '2']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('yaml', '_yaml'))\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_one_parser_per_process_keeps_no_state_between_runs(capsys):
    # a seed given to one run, and a usage error after a parsed --seed, must not
    # reach the next run: the last campaign runs at the default seed 0
    assert cli._build_parser() is cli._build_parser()
    runs = [["inequality", "--samples", "2", "--seed", "3"],
            ["inequality", "--seed", "5", "--samples", "x"],
            ["inequality", "--samples", "2"]]
    in_process = []
    for argv in runs:
        code = run(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = []
    for argv in runs:
        done = subprocess.run([sys.executable, "-m", "impulsedde.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in in_process] == [0, 2, 0]
    assert in_process[2][1] != in_process[0][1]
    assert run(["inequality", "--samples", "2", "--seed", "0"]) == 0
    assert capsys.readouterr().out == in_process[2][1]
