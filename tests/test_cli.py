import json

import numpy as np
import pytest

import cubetoss as ct
from cubetoss.cli import EXIT_CONFIG, EXIT_DIVERGENCE, main
from cubetoss.synthetic import make_dataset, random_toss_states, sliding_toss_states


def write_dataset(tmp_path, n=3, seed=70, params=None, duration=0.3, sliding=False):
    params = params or ct.param_preset("cube-drake")
    geom, inertia = ct.cube_geometry(), ct.cube_inertial()
    maker = sliding_toss_states if sliding else random_toss_states
    truths = make_dataset(maker(n, geom, seed=seed), params, inertia, geom, ct.SimConfig(), duration)
    d = tmp_path / "dataset"
    d.mkdir(exist_ok=True)
    for i, t in enumerate(truths):
        ct.save_trajectory(t, d / f"toss_{i:03d}.csv")
    return d, truths


def test_simulate_writes_trajectory(tmp_path):
    d, truths = write_dataset(tmp_path, n=1)
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--preset", "cube-drake", "--x0", str(d / "toss_000.csv"),
               "--out", str(out)])
    assert rc == 0
    sim = ct.load_trajectory(out)
    assert len(sim) == len(truths[0])
    assert sim.rate_hz == pytest.approx(148.0)


def test_simulate_deterministic_bytes(tmp_path):
    d, _ = write_dataset(tmp_path, n=1)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--preset", "cube-bullet-style", "--x0", str(d / "toss_000.csv")]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_rate_downsample_protocol(tmp_path):
    d, _ = write_dataset(tmp_path, n=1)
    out = tmp_path / "sim.csv"
    full = tmp_path / "full.csv"
    rc = main(["simulate", "--preset", "cube-drake", "--x0", str(d / "toss_000.csv"),
               "--rate", "1480", "--downsample", "10", "--duration", "0.5",
               "--out", str(out), "--full-out", str(full)])
    assert rc == 0
    sim = ct.load_trajectory(out)
    assert sim.rate_hz == pytest.approx(148.0)
    fullt = ct.load_trajectory(full)
    assert fullt.rate_hz == pytest.approx(1480.0)
    assert np.array_equal(fullt.pos[::10], sim.pos)


def test_simulate_divergence_exit_code(tmp_path):
    d, _ = write_dataset(tmp_path, n=1)
    out = tmp_path / "sim.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["simulate", "--model", "compliant", "--mu", "0", "--k", "1e200",
                   "--b", "1e200", "--x0", str(d / "toss_000.csv"), "--out", str(out)])
    assert rc == EXIT_DIVERGENCE
    marker = out.with_suffix(".partial.json")
    assert marker.exists()
    assert "step_index" in json.loads(marker.read_text())


def test_simulate_convex_iteration_cap_exit_code(tmp_path, capsys):
    """A convex solve that hits its iteration cap is a divergence: exit 3 and a marker."""
    d, _ = write_dataset(tmp_path, n=1)
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--preset", "cube-mujoco-style", "--solver-iters", "1",
               "--x0", str(d / "toss_000.csv"), "--out", str(out)])
    assert rc == EXIT_DIVERGENCE
    marker = json.loads(out.with_suffix(".partial.json").read_text())
    assert "convex contact solve stopped at residual" in marker["error"]
    assert "after 1 iterations" in marker["error"]
    assert marker["step_index"] >= 1
    assert "convex contact solve" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_replay_reports_zero(tmp_path):
    d, _ = write_dataset(tmp_path, n=3)
    out = tmp_path / "res.json"
    rc = main(["evaluate", "--preset", "cube-drake", "--dataset", str(d), "--out", str(out)])
    assert rc == 0
    doc = ct.ResultsDocument.load(out)
    assert doc.command == "evaluate"
    assert doc.results["config_error"]["mean"] < 1e-10
    assert doc.results["position_error_pct"]["mean"] < 1e-6
    assert doc.results["n_diverged"] == 0
    assert len(doc.results["per_trajectory"]) == 3


def test_evaluate_population_std_hand_computed(tmp_path):
    """Three tosses at off parameters: sigma follows the population formula."""
    d, _ = write_dataset(tmp_path, n=3, seed=71)
    out = tmp_path / "res.json"
    rc = main(["evaluate", "--preset", "cube-drake", "--mu", "0.6", "--dataset", str(d),
               "--out", str(out)])
    assert rc == 0
    doc = ct.ResultsDocument.load(out)
    vals = [e["config_error"] for e in doc.results["per_trajectory"]]
    mean = sum(vals) / 3.0
    sigma = (sum((v - mean) ** 2 for v in vals) / 3.0) ** 0.5
    assert doc.results["config_error"]["mean"] == pytest.approx(mean, rel=1e-12)
    assert doc.results["config_error"]["std"] == pytest.approx(sigma, rel=1e-12)


def test_identify_budget_one_returns_single_point(tmp_path):
    d, _ = write_dataset(tmp_path, n=2)
    out = tmp_path / "res.json"
    rc = main(["identify", "--dataset", str(d), "--model", "compliant", "--budget", "1",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    doc = ct.ResultsDocument.load(out)
    assert doc.results["n_evaluations"] == 1
    assert len(doc.results["history"]) == 1
    assert doc.results["loss"] == doc.results["history"][0]["loss"]


def test_identify_writes_cube_domain_and_has_no_preset_flag(tmp_path):
    """identify searches the cube domain; --preset, a parameter source elsewhere, is an unknown flag here."""
    d, _ = write_dataset(tmp_path, n=2)
    out = tmp_path / "res.json"
    args = ["identify", "--dataset", str(d), "--model", "compliant", "--budget", "4", "--out", str(out)]
    with pytest.raises(SystemExit) as err:
        main(args + ["--preset", "cube"])
    assert err.value.code == 2
    assert not out.exists()
    assert main(args) == 0
    dom = ct.ResultsDocument.load(out).config["domain"]
    assert dom["mu"] == {"lower": 0.0, "upper": 1.0, "log": False}
    assert dom["k"] == {"lower": 1e2, "upper": 1e5, "log": True}
    assert dom["b"] == {"lower": 0.0, "upper": 2.0, "log": False}


def test_sweep_baseline_is_the_configured_params(tmp_path):
    """results.baseline repeats config.params whole, d_interp included."""
    d, _ = write_dataset(tmp_path, n=1, seed=73, duration=0.05)
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--preset", "cube-mujoco-style", "--d-interp", "0.8", "--dataset", str(d),
                 "--axes", "mu", "--grid", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["params"]["d_interp"] == 0.8
    assert doc["results"]["baseline"] == doc["config"]["params"]


def test_sweep_single_point_matches_evaluate(tmp_path):
    """A 1-point grid sits at the baseline, so its loss equals evaluate's mean."""
    d, _ = write_dataset(tmp_path, n=2, seed=72)
    res_eval = tmp_path / "eval.json"
    res_sweep = tmp_path / "sweep.json"
    args = ["--preset", "cube-drake", "--mu", "0.5", "--dataset", str(d)]
    assert main(["evaluate", *args, "--out", str(res_eval)]) == 0
    assert main(["sweep", *args, "--axes", "mu", "--grid", "1", "--out", str(res_sweep)]) == 0
    doc = ct.ResultsDocument.load(res_sweep)
    eval_doc = ct.ResultsDocument.load(res_eval)
    assert len(doc.results["losses"]) == 1
    assert doc.results["axes"][0]["values"] == [0.5]
    assert doc.results["losses"][0] == eval_doc.results["config_error"]["mean"]


def test_sweep_grid_rows(tmp_path):
    d, _ = write_dataset(tmp_path, n=2, seed=73, duration=0.2)
    out = tmp_path / "sweep.json"
    csv = tmp_path / "sweep.csv"
    rc = main(["sweep", "--preset", "cube-drake", "--dataset", str(d),
               "--axes", "k,b", "--log", "k", "--grid", "3",
               "--out", str(out), "--csv", str(csv)])
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "k,b,loss,diverged"
    assert len(lines) == 1 + 9
    doc = ct.ResultsDocument.load(out)
    assert np.array(doc.results["losses"]).shape == (3, 3)
    axes = {a["name"]: a for a in doc.results["axes"]}
    assert axes["k"]["log"] is True
    assert axes["k"]["values"][0] == pytest.approx(1e2)
    assert axes["k"]["values"][-1] == pytest.approx(1e5)


def test_sweep_log_scaled_axis_is_log_spaced_and_labelled(tmp_path):
    """k is log-scaled in the cube domain: its grid is log-spaced and says so, with or without --log k."""
    d, _ = write_dataset(tmp_path, n=1, seed=73, duration=0.05)
    docs = []
    for i, extra in enumerate(([], ["--log", "k"])):
        out = tmp_path / f"sweep{i}.json"
        assert main(["sweep", "--preset", "cube-drake", "--dataset", str(d), "--axes", "k", "--grid", "3",
                     *extra, "--out", str(out)]) == 0
        docs.append(out.read_bytes())
    doc = json.loads(docs[0])
    assert doc["config"]["log"] == ["k"]
    assert doc["results"]["axes"] == [{"name": "k", "log": True, "values": [100.0, 3162.2776601683795, 1e5]}]
    assert docs[0] == docs[1]


def test_config_error_exit_codes(tmp_path):
    d, _ = write_dataset(tmp_path, n=1)
    assert main(["evaluate", "--dataset", str(d), "--out", str(tmp_path / "r.json")]) == EXIT_CONFIG
    assert main(["evaluate", "--preset", "nope", "--dataset", str(d),
                 "--out", str(tmp_path / "r.json")]) == EXIT_CONFIG
    assert main(["evaluate", "--preset", "cube-drake", "--dataset", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "r.json")]) == EXIT_CONFIG


def test_solver_iters_must_be_positive(tmp_path, capsys):
    d, _ = write_dataset(tmp_path, n=1, duration=0.05, sliding=True)
    for iters in ("0", "-1"):
        out = tmp_path / f"sim{iters}.csv"
        rc = main(["simulate", "--preset", "cube-bullet-style", "--x0", str(d / "toss_000.csv"),
                   "--solver-iters", iters, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "solver_iters" in capsys.readouterr().err
        assert not out.exists()
    rc = main(["evaluate", "--preset", "cube-mujoco-style", "--dataset", str(d),
               "--solver-iters", "0", "--out", str(tmp_path / "r.json")])
    assert rc == EXIT_CONFIG


def test_flags_without_effect_on_the_model_exit_2(tmp_path, capsys):
    """--d-interp weights only the regularized_convex model and --solver-iters caps only the iterative
    solvers: given with any other model, each is a configuration error that names the model."""
    d, _ = write_dataset(tmp_path, n=1, duration=0.05)
    x0 = str(d / "toss_000.csv")
    out = tmp_path / "out.json"
    cases = [
        (["simulate", "--preset", "cube-drake", "--d-interp", "0.8", "--x0", x0], "--d-interp", "compliant"),
        (["evaluate", "--preset", "cube-bullet-style", "--d-interp", "0.8", "--dataset", str(d)],
         "--d-interp", "rigid_pgs"),
        (["sweep", "--preset", "cube-drake", "--d-interp", "0.8", "--dataset", str(d), "--axes", "mu",
          "--grid", "1"], "--d-interp", "compliant"),
        (["simulate", "--model", "compliant", "--mu", "0.1", "--k", "1e4", "--b", "0.4", "--solver-iters", "50",
          "--x0", x0], "--solver-iters", "compliant"),
        (["evaluate", "--preset", "cube-drake", "--solver-iters", "50", "--dataset", str(d)],
         "--solver-iters", "compliant"),
        (["identify", "--model", "compliant", "--solver-iters", "50", "--budget", "2", "--dataset", str(d)],
         "--solver-iters", "compliant"),
    ]
    for argv, flag, model in cases:
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG, argv
        err = capsys.readouterr().err
        assert flag in err and model in err, argv
        assert not out.exists()
    for argv in (["evaluate", "--preset", "cube-bullet-style", "--solver-iters", "50", "--dataset", str(d)],
                 ["evaluate", "--preset", "cube-mujoco-style", "--solver-iters", "50", "--d-interp", "0.8",
                  "--dataset", str(d)]):
        assert main([*argv, "--out", str(out)]) == 0, argv


def test_params_file_d_interp_without_effect_exits_2(tmp_path, capsys):
    """A params file that sets d_interp for a model other than regularized_convex is the same configuration
    error as --d-interp with it: exit 2, naming the file and the model, and nothing written."""
    d, _ = write_dataset(tmp_path, n=1, duration=0.05)
    x0 = str(d / "toss_000.csv")
    out = tmp_path / "out.json"
    for model in ("compliant", "rigid_pgs"):
        cfg = tmp_path / f"{model}.cfg"
        cfg.write_text(f"model = {model}\nmu = 0.1\nk = 1e4\nb = 0.4\nd_interp = 0.5\n")
        for argv in (["simulate", "--params", str(cfg), "--x0", x0],
                     ["evaluate", "--params", str(cfg), "--dataset", str(d)]):
            assert main([*argv, "--out", str(out)]) == EXIT_CONFIG, argv
            err = capsys.readouterr().err
            assert "d_interp" in err and str(cfg) in err and model in err, argv
            assert not out.exists()
    cfg = tmp_path / "convex.cfg"
    cfg.write_text("model = regularized_convex\nmu = 0.1\nk = 3300\nb = 45\nd_interp = 0.5\n")
    assert main(["evaluate", "--params", str(cfg), "--dataset", str(d), "--out", str(out)]) == 0


def test_rate_must_be_positive_and_finite(tmp_path, capsys):
    d, _ = write_dataset(tmp_path, n=1, duration=0.05)
    for rate in ("0", "-1480", "inf", "nan"):
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--preset", "cube-drake", "--x0", str(d / "toss_000.csv"),
                   "--rate", rate, "--out", str(out)])
        assert rc == EXIT_CONFIG, rate
        assert "--rate" in capsys.readouterr().err
        assert not out.exists()


def test_params_file(tmp_path):
    d, _ = write_dataset(tmp_path, n=1)
    cfg = tmp_path / "drake_cube.cfg"
    cfg.write_text("# identified compliant parameters\nmodel = compliant\nmu = 0.10\nk = 10800\nb = 0.4\n")
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--model", "compliant", "--params", str(cfg),
               "--x0", str(d / "toss_000.csv"), "--out", str(out)])
    assert rc == 0
    assert main(["simulate", "--model", "rigid_pgs", "--params", str(cfg),
                 "--x0", str(d / "toss_000.csv"), "--out", str(out)]) == EXIT_CONFIG
    # identical to the preset run
    out2 = tmp_path / "sim2.csv"
    assert main(["simulate", "--preset", "cube-drake", "--x0", str(d / "toss_000.csv"),
                 "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_params_precedence(tmp_path):
    """The base comes from --preset, else --params, else --model/--mu/--k/--b; then the flags override it."""
    d, _ = write_dataset(tmp_path, n=1, duration=0.05)
    cfg = tmp_path / "convex.cfg"
    cfg.write_text("model = regularized_convex\nmu = 0.3\nk = 2000\nb = 50\nd_interp = 0.5\n")
    cases = [
        (["--preset", "cube-mujoco-style", "--params", str(cfg)],
         {"model": "regularized_convex", "mu": 0.22, "k": 3300.0, "b": 45.0, "d_interp": 0.9}),
        (["--params", str(cfg)],
         {"model": "regularized_convex", "mu": 0.3, "k": 2000.0, "b": 50.0, "d_interp": 0.5}),
        (["--params", str(cfg), "--mu", "0.4", "--d-interp", "0.7"],
         {"model": "regularized_convex", "mu": 0.4, "k": 2000.0, "b": 50.0, "d_interp": 0.7}),
        (["--preset", "cube-mujoco-style", "--params", str(cfg), "--k", "1000", "--b", "30",
          "--d-interp", "0.6"],
         {"model": "regularized_convex", "mu": 0.22, "k": 1000.0, "b": 30.0, "d_interp": 0.6}),
        (["--model", "regularized_convex", "--mu", "0.1", "--k", "500", "--b", "20"],
         {"model": "regularized_convex", "mu": 0.1, "k": 500.0, "b": 20.0, "d_interp": 0.9}),
    ]
    for i, (flags, expected) in enumerate(cases):
        out = tmp_path / f"res{i}.json"
        assert main(["evaluate", *flags, "--dataset", str(d), "--out", str(out)]) == 0, flags
        assert ct.ResultsDocument.load(out).config["params"] == expected, flags


def test_params_file_rejects_unknown_key(tmp_path, capsys):
    d, _ = write_dataset(tmp_path, n=1)
    cfg = tmp_path / "convex.cfg"
    cfg.write_text("model = regularized_convex\nmu = 0.1\nk = 3300\nb = 45\nd-interp = 0.5\n")
    rc = main(["simulate", "--params", str(cfg), "--x0", str(d / "toss_000.csv"),
               "--out", str(tmp_path / "sim.csv")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 5" in err and "'d-interp'" in err
    assert not (tmp_path / "sim.csv").exists()


def test_params_file_takes_only_key_equals_value_lines(tmp_path, capsys):
    d, _ = write_dataset(tmp_path, n=1, duration=0.05)
    cfg = tmp_path / "convex.cfg"
    cfg.write_text("model = regularized_convex\nmu = 0.1\nk: 3300\nb = 45\n")
    rc = main(["simulate", "--params", str(cfg), "--x0", str(d / "toss_000.csv"),
               "--out", str(tmp_path / "sim.csv")])
    assert rc == EXIT_CONFIG
    assert "line 3: expected key=value" in capsys.readouterr().err
    assert not (tmp_path / "sim.csv").exists()


def test_params_file_rejects_non_numeric_value(tmp_path, capsys):
    d, _ = write_dataset(tmp_path, n=1)
    cfg = tmp_path / "convex.cfg"
    cfg.write_text("model = regularized_convex\nmu = 0.1\nk = abc\nb = 45\n")
    rc = main(["simulate", "--params", str(cfg), "--x0", str(d / "toss_000.csv"),
               "--out", str(tmp_path / "sim.csv")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(cfg) in err and "line 3" in err and "'abc'" in err
    assert not (tmp_path / "sim.csv").exists()


def test_identify_train_subset_reports_holdout(tmp_path):
    d, _ = write_dataset(tmp_path, n=4, seed=75, duration=0.2)
    out = tmp_path / "res.json"
    rc = main(["identify", "--dataset", str(d), "--model", "compliant", "--budget", "8",
               "--train", "2", "--seed", "1", "--out", str(out)])
    assert rc == 0
    doc = ct.ResultsDocument.load(out)
    assert doc.results["holdout_loss"] is not None
    assert doc.config["train"] == 2


def test_workers_do_not_change_results(tmp_path):
    d, _ = write_dataset(tmp_path, n=3, seed=74)
    outs = []
    for i, workers in enumerate(("1", "2")):
        out = tmp_path / f"res{i}.json"
        rc = main(["evaluate", "--preset", "cube-mujoco-style", "--dataset", str(d),
                   "--workers", workers, "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_workers_env_var_override(tmp_path, monkeypatch):
    d, _ = write_dataset(tmp_path, n=2, seed=76, duration=0.2)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["evaluate", "--preset", "cube-drake", "--dataset", str(d)]
    monkeypatch.setenv("CUBETOSS_WORKERS", "2")
    assert main(args + ["--out", str(out1)]) == 0
    monkeypatch.delenv("CUBETOSS_WORKERS")
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_contact_params_must_be_finite(tmp_path, capsys):
    """A NaN or infinite mu, k or b is a configuration error, not a rollout."""
    d, _ = write_dataset(tmp_path, n=1, duration=0.05, sliding=True)
    out = tmp_path / "sim.csv"
    for preset, override in (("cube-mujoco-style", "--mu=nan"), ("cube-bullet-style", "--k=inf"),
                             ("cube-drake", "--b=nan"), ("cube-drake", "--mu=-inf")):
        rc = main(["simulate", "--preset", preset, override, "--x0", str(d / "toss_000.csv"),
                   "--out", str(out)])
        assert rc == EXIT_CONFIG, (preset, override)
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


def test_margin_and_slip_tolerance_validated(tmp_path, capsys):
    d, _ = write_dataset(tmp_path, n=1, duration=0.05, sliding=True)
    out = tmp_path / "sim.csv"
    cases = [("--margin", v, "activation_margin") for v in ("-1", "nan", "inf")]
    cases += [("--slip-tol", v, "slip_tolerance") for v in ("0", "-1", "nan", "inf")]
    for flag, value, name in cases:
        rc = main(["simulate", "--preset", "cube-drake", flag, value, "--x0", str(d / "toss_000.csv"),
                   "--out", str(out)])
        assert rc == EXIT_CONFIG, (flag, value)
        assert name in capsys.readouterr().err
        assert not out.exists()
    assert main(["simulate", "--preset", "cube-drake", "--margin", "0", "--x0", str(d / "toss_000.csv"),
                 "--out", str(out)]) == 0


def test_simulate_duration_must_be_positive_and_finite(tmp_path, capsys):
    d, _ = write_dataset(tmp_path, n=1, duration=0.05)
    out = tmp_path / "sim.csv"
    for duration in ("0", "-0.1", "inf", "nan"):
        rc = main(["simulate", "--preset", "cube-drake", "--x0", str(d / "toss_000.csv"),
                   "--duration", duration, "--out", str(out)])
        assert rc == EXIT_CONFIG, duration
        assert "--duration" in capsys.readouterr().err
        assert not out.exists()


def test_workers_must_be_positive(tmp_path, monkeypatch, capsys):
    d, _ = write_dataset(tmp_path, n=1, duration=0.05)
    out = tmp_path / "r.json"
    args = ["evaluate", "--preset", "cube-drake", "--dataset", str(d), "--out", str(out)]
    for workers in ("0", "-2"):
        assert main(args + ["--workers", workers]) == EXIT_CONFIG
        assert "--workers" in capsys.readouterr().err
    for env in ("0", "two"):
        monkeypatch.setenv("CUBETOSS_WORKERS", env)
        assert main(args) == EXIT_CONFIG
        assert "CUBETOSS_WORKERS" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + ["--workers", "1"]) == 0  # the flag wins over the environment


def test_sweep_rejects_bad_grid_and_axes(tmp_path, capsys):
    d, _ = write_dataset(tmp_path, n=1, duration=0.05)
    out = tmp_path / "sweep.json"
    base = ["sweep", "--preset", "cube-drake", "--dataset", str(d), "--out", str(out)]
    cases = [
        (["--axes", "mu", "--grid", "0"], "--grid"),
        (["--axes", "mu", "--grid", "-3"], "--grid"),
        (["--axes", "mu,mu", "--grid", "2"], "distinct"),
        (["--axes", "mu", "--log", "mu,q", "--grid", "2"], "log axes"),
    ]
    for extra, message in cases:
        assert main(base + extra) == EXIT_CONFIG, extra
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_simulate_arithmetic_divergence_exit_code(tmp_path, capsys):
    """A math domain error inside a step is a divergence at that step: exit 3 and a marker."""
    q = np.array([0.9, 0.1, 0.3, 0.2])
    x0 = ct.Trajectory(148.0, [[0.0, 0.0, 0.049]], [q / np.linalg.norm(q)], [[0.3, 0.0, -1.0]], [[1.0, 2.0, 3.0]])
    ct.save_trajectory(x0, tmp_path / "x0.csv")
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--preset", "cube-drake", "--mu", "0", "--k", "1e150", "--b", "1e100",
               "--x0", str(tmp_path / "x0.csv"), "--duration", "0.5", "--out", str(out)])
    assert rc == EXIT_DIVERGENCE
    marker = json.loads(out.with_suffix(".partial.json").read_text())
    assert marker == {"error": "simulation diverged at step 1: math domain error", "step_index": 1}
    assert "math domain error" in capsys.readouterr().err
    assert not out.exists()
