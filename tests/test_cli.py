"""Command-line interface: exit codes, artifacts, manifest bookkeeping."""
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import stackmfg
from stackmfg import cli, incentive, leader, odeint, sim
from stackmfg.model import MatrixTrajectory, save_config


def read_json(path):
    return json.loads(path.read_text())


def test_validate_benchmark_ok(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "all assumptions hold" in out
    assert "BAD" not in out


def test_python_m_stackmfg_runs_the_cli(tmp_path):
    # the package the tests import runs as a module
    src = str(Path(stackmfg.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "stackmfg", "validate"],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "all assumptions hold" in done.stdout


def test_validate_reports_matching_size(square, tmp_path, capsys):
    # one informational line; the bundled config's overdetermined system
    # leaves the verdict and the exit code as they are
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert ("info matching system: 2 conditions, 1 unknowns "
            "(overdetermined)") in out
    assert "all assumptions hold" in out
    path = tmp_path / "square.json"
    save_config(square, path)
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert ("info matching system: 2 conditions, 2 unknowns (square)"
            in capsys.readouterr().out)


def test_validate_rejects_broken_config(table1, tmp_path, capsys):
    bad = tmp_path / "r1zero.json"
    save_config(table1.with_updates(R1=0.0), bad)
    assert cli.main(["validate", "--config", str(bad)]) == 1
    assert "ValueError" in capsys.readouterr().err


def test_missing_config_is_parse_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["validate", "--config", missing]) == 1
    assert "ParseError" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_gamma_hat_writes_trace(tmp_path, capsys):
    out = tmp_path / "gh"
    assert cli.main(["gamma-hat", "--out", str(out), "--tol", "100"]) == 0
    assert "gamma_hat" in capsys.readouterr().out
    trace = (out / "gamma_hat_trace.csv").read_text().splitlines()
    assert trace[0] == "gamma,solvable,t_escape"
    assert len(trace) > 10
    man = read_json(out / "manifest.json")
    assert man["status"] == "ok"
    # the stage's work counters sit next to its wall time
    stage = [s for s in man["stages"] if s["name"] == "gamma-hat"]
    assert stage[0]["probes"] == len(trace) - 1
    assert 1 <= stage[0]["passes"] < stage[0]["probes"]
    # benchmark gamma sits far below the critical level
    assert any("not below the run gamma" in w for w in man["warnings"])


def test_solve_leader_artifacts(tmp_path, capsys):
    out = tmp_path / "lead"
    assert cli.main(["solve-leader", "--out", str(out)]) == 0
    for name in ("config.json", "riccati_blocks.csv", "gains.csv",
                 "summary.json", "manifest.json"):
        assert (out / name).exists()
    man = read_json(out / "manifest.json")
    digest = hashlib.sha256((out / "config.json").read_bytes()).hexdigest()
    assert man["config_sha256"] == digest
    assert set(man["outputs"]) >= {"config.json", "riccati_blocks.csv",
                                   "gains.csv", "summary.json"}
    summary = read_json(out / "summary.json")
    assert summary["V0"] == pytest.approx(9.13192977848486, rel=1e-9)
    checks = summary["checks"]
    assert checks["riccati_residual_ok"]
    assert checks["pi1_p2_ok"] and checks["assembled_ok"]
    assert checks["stationarity_ok"]
    header = (out / "riccati_blocks.csv").read_text().splitlines()[0]
    assert header.startswith("t,") and "P1" in header
    # both systems march the doubled grid to t = 0
    stage = [s for s in man["stages"] if s["name"] == "solve-leader"]
    steps = 2 * (len((out / "gains.csv").read_text().splitlines()) - 2)
    assert {k: stage[0][k] for k in ("block_rk4_steps",
                                     "assembled_rk4_steps")} == \
        dict(block_rk4_steps=steps, assembled_rk4_steps=steps)


def test_solve_incentive_benchmark_reports_failure(tmp_path, capsys):
    # overdetermined matching: exit 3 with the partial sweep on disk
    out = tmp_path / "inc"
    assert cli.main(["solve-incentive", "--out", str(out)]) == 3
    assert "incentive solved: False" in capsys.readouterr().out
    summary = read_json(out / "summary.json")
    assert summary["incentive"]["solved"] is False
    assert summary["incentive"]["converged_nodes"] == 111
    assert not summary["incentive"]["matching_ok"]
    man = read_json(out / "manifest.json")
    assert man["status"] == "ok"            # the command itself completed
    assert any("no solution" in w for w in man["warnings"])
    header = (out / "incentive_series.csv").read_text().splitlines()[0]
    assert "match_residual" in header and "newton_converged" in header
    _assert_incentive_work(out, conditions=2, unknowns=1)


def test_solve_incentive_square_succeeds(square, tmp_path):
    cfg = tmp_path / "square.json"
    save_config(square, cfg)
    out = tmp_path / "sq"
    assert cli.main(["solve-incentive", "--config", str(cfg),
                     "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["incentive"]["solved"] is True
    assert summary["incentive"]["matching_ok"] is True
    assert summary["incentive"]["decoupling_ok"] is True
    # the cleared seed already clears the conditions at every node, so no
    # Gauss-Newton run forms JtJ or tries a step
    iters = _assert_incentive_work(out, conditions=2, unknowns=2)
    assert iters == 0


def test_solve_incentive_records_the_library_relation_verdict(
        square, square_sol, tmp_path, monkeypatch):
    # a Theta - Psi defect above 1e-6 but within the library's
    # 1e-6 * (1 + max|Theta|): the check passes, and the stage says so
    dtheta, inc = square_sol.dtheta, square_sol.inc
    theta_max = float(np.max(np.abs(dtheta.Theta.values)))
    assert theta_max > 0.1
    psi = dtheta.Psi.values.copy()
    psi[len(psi) // 2] += incentive.RELATION_TOL * (1.0 + 0.5 * theta_max)
    shifted = replace(dtheta, Psi=MatrixTrajectory(dtheta.grid, psi))
    gap = shifted.theta_psi_gap
    assert (incentive.RELATION_TOL < gap
            < incentive.RELATION_TOL * (1.0 + theta_max))
    assert incentive.solve_sigma_phi_psi(square, square_sol.blocks, shifted,
                                         inc) is shifted
    monkeypatch.setattr(incentive, "solve_cc_incentive",
                        lambda p, blocks: (shifted, inc))
    cfg = tmp_path / "square.json"
    save_config(square, cfg)
    out = tmp_path / "sq"
    assert cli.main(["solve-incentive", "--config", str(cfg),
                     "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")["incentive"]
    assert summary["decoupling_ok"] is True
    assert summary["theta_psi_gap"] == gap


def _assert_incentive_work(out, conditions, unknowns):
    # 2 mF n matching conditions against mL mF unknowns, and the Newton
    # iterations the series reports node by node; returns their total
    stage = [s for s in read_json(out / "manifest.json")["stages"]
             if s["name"] == "solve-incentive"]
    assert len(stage) == 1
    lines = (out / "incentive_series.csv").read_text().splitlines()
    col = lines[0].split(",").index("newton_iters")
    iters = sum(int(float(row.split(",")[col])) for row in lines[1:])
    assert {k: stage[0][k] for k in ("matching_conditions",
                                     "matching_unknowns", "newton_iters")} \
        == dict(matching_conditions=conditions, matching_unknowns=unknowns,
                newton_iters=iters)
    # the chain [Delta, Theta, Sigma, Phi, Psi] is marched once
    assert stage[0]["rk4_steps"] == len(lines) - 2
    # one stop rule per node, converged unless the leash or MAX_ITER ended
    # the chosen run, or the node has no minimum
    stops = stage[0]["newton_stops"]
    col = lines[0].split(",").index("newton_converged")
    converged = sum(row.split(",")[col] == "true" for row in lines[1:])
    assert set(stops) == set(incentive.STOP_RULES)
    assert sum(stops.values()) == len(lines) - 1
    assert len(lines) - 1 - sum(stops[s] for s in (
        "leash", "max_iter", "no_minimum")) == converged
    return iters


def test_simulate_small_run(tmp_path, capsys):
    out = tmp_path / "simout"
    assert cli.main(["simulate", "--out", str(out), "--n", "6",
                     "--paths", "4"]) == 0
    for name in ("limit_states.csv", "controls.csv",
                 "population_states.csv", "costs.csv", "summary.json"):
        assert (out / name).exists()
    summary = read_json(out / "summary.json")
    assert summary["costs"]["population"]["mode"] == "incentive"
    assert summary["costs"]["limit"]["n_paths"] == 4
    assert len(summary["saddle"]["entries"]) == 8
    # summary.json serializes the report dataclasses
    entry = {f.name for f in fields(sim.SaddleEntry)}
    assert all(set(e) == entry for e in summary["saddle"]["entries"])
    lines = (out / "costs.csv").read_text().splitlines()
    assert lines[0] == "system,J0_mean,J0_stderr,n_paths"
    assert lines[1].startswith("limit,") and lines[2].startswith("population,")


def test_sweep_n_and_env_seed_override(tmp_path, monkeypatch):
    args = ["sweep-n", "--ns", "4,8,16", "--paths", "4"]
    out_a = tmp_path / "a"
    assert cli.main(args + ["--out", str(out_a), "--seed", "42"]) == 0
    # environment beats the flag: --seed 7 must still reproduce seed 42
    monkeypatch.setenv("STACKMFG_SEED", "42")
    out_b = tmp_path / "b"
    assert cli.main(args + ["--out", str(out_b), "--seed", "7"]) == 0
    assert (out_a / "sweep.csv").read_bytes() == \
        (out_b / "sweep.csv").read_bytes()
    man = read_json(out_b / "manifest.json")
    assert man["flags"]["seed"] == 42
    rows = (out_a / "sweep.csv").read_text().splitlines()
    assert rows[0] == "series,N,gap,stderr"
    assert sum(r.startswith("mean_field") for r in rows) == 3
    assert sum(r.startswith("optimality") for r in rows) == 3
    point = {f.name for f in fields(sim.SweepPoint)}
    sweeps = read_json(out_a / "summary.json")
    assert [set(pt) for sw in sweeps.values() for pt in sw["points"]] == \
        [point] * 6


@pytest.mark.parametrize("name", ["square", "n2"])
def test_reproduce_paper_passes_every_check_where_theory_holds(
        name, request, tmp_path, capsys):
    # square matching, certified gamma: the whole check list holds, on the
    # config's own grid; n2 runs the n = 2 path end to end
    cfg = tmp_path / "config.json"
    save_config(request.getfixturevalue(name), cfg)
    out = tmp_path / "out"
    assert cli.main(["reproduce-paper", "--config", str(cfg), "--out",
                     str(out), "--seed", "42", "--threads", "1"]) == 0
    checks = read_json(out / "summary.json")["checks"]
    assert len(checks) == 11
    assert [k for k, ok in checks.items() if not ok] == []


def test_reproduce_paper_fail_path(table1, tmp_path, capsys):
    # blocks escape at gamma=2: the pipeline must stop at solve-leader,
    # leave a FAILED manifest and still write the partial summary
    cfg = tmp_path / "g2.json"
    save_config(table1.with_updates(gamma=2.0), cfg)
    out = tmp_path / "rp"
    assert cli.main(["reproduce-paper", "--config", str(cfg),
                     "--out", str(out)]) == 1
    assert "failed at stage solve-leader" in capsys.readouterr().err
    man = read_json(out / "manifest.json")
    assert man["status"] == "FAILED"
    assert man["failed_stage"] == "solve-leader"
    assert "RuntimeError" in man["error"]
    summary = read_json(out / "summary.json")
    assert "gamma_hat" in summary       # earlier stages did land
    assert "V0" not in summary
    # the certificate escapes at gamma=2, so the concavity stage counts
    # that march down to its escape node, then the march at the top of the
    # bracket, which reaches t = 0
    p = table1.with_updates(gamma=2.0)
    escape = leader.solve_concavity(p).escape
    M = p.grid_steps
    stage = [s for s in man["stages"] if s["name"] == "concavity"]
    assert summary["concavity"]["solvable_at_run_gamma"] is False
    assert stage[0]["rk4_steps"] == (M - escape.node) + M


def test_unparsable_env_override_names_the_variable(monkeypatch, capsys):
    monkeypatch.setenv("STACKMFG_SEED", "abc")
    assert cli.main(["validate"]) == 1
    err = capsys.readouterr().err
    assert "STACKMFG_SEED" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_seed_and_threads_default_in_the_parser():
    args = cli.build_parser().parse_args(["simulate"])
    assert args.seed == 42 and args.threads == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--threads", "0", "--n", "6", "--paths", "4"],
    ["solve-leader", "--grid-steps", "0"],
    ["solve-leader", "--gamma", "0"],
    ["sweep-n", "--seed", "-1", "--ns", "4,8,16"],
    ["gamma-hat", "--threads", "0"],
    ["solve-leader", "--threads", "0"],
    ["gamma-hat", "--tol", "0"],
], ids=["threads", "grid-steps", "gamma", "seed", "gamma-hat-threads",
        "solve-leader-threads", "gamma-hat-tol"])
def test_zero_valued_flags_reach_the_checks(argv, tmp_path, capsys):
    out = tmp_path / "z"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert "ValueError" in capsys.readouterr().err
    assert not out.exists()             # refused before any stage ran


def test_zero_threads_from_the_environment_is_refused(monkeypatch, capsys):
    monkeypatch.setenv("STACKMFG_THREADS", "0")
    assert cli.main(["validate"]) == 1
    assert "ValueError" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep-n", "--ns", "4,8", "--paths", "4"],
    ["sweep-n", "--ns", "4,16,8", "--paths", "4"],
    ["simulate", "--n", "0", "--paths", "4"],
], ids=["two-sizes", "not-increasing", "n-zero"])
def test_bad_flags_fail_before_any_solve(argv, tmp_path, capsys):
    out = tmp_path / "bad"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (out / "riccati_blocks.csv").exists()


def test_stage_failure_leaves_failed_manifest(tmp_path, capsys):
    # simulate stops in its solve-leader stage the way reproduce-paper does
    out = tmp_path / "simfail"
    assert cli.main(["simulate", "--gamma", "2", "--n", "6", "--paths", "4",
                     "--out", str(out)]) == 1
    man = read_json(out / "manifest.json")
    assert capsys.readouterr().err.strip().splitlines() == [
        f"simulate failed at stage solve-leader: {man['error']}"]
    assert man["status"] == "FAILED"
    assert man["failed_stage"] == "solve-leader"
    assert man["error"].startswith("RuntimeError: block Riccati")
    assert [s["name"] for s in man["stages"]] == ["config", "solve-leader"]
    assert set(man["outputs"]) | {"manifest.json"} == \
        {f.name for f in out.iterdir()}


def test_cross_check_escape_fails_only_where_it_is_written(
        tmp_path, capsys, monkeypatch):
    # an assembled cross-check that escapes while the blocks do not: the
    # stage that writes the leader checks fails on it, and a command that
    # writes none never marches it
    def escaping(p, gamma):
        shape = (2 * p.n, 2 * p.n)
        return odeint.OdeProblem(shapes=(shape,),
                                 rhs=lambda t, P: np.full_like(P, 1e12),
                                 boundary=(np.zeros(shape),))

    monkeypatch.setattr(leader, "assembled_problem", escaping)
    out = tmp_path / "lead"
    assert cli.main(["solve-leader", "--grid-steps", "40",
                     "--out", str(out)]) == 1
    man = read_json(out / "manifest.json")
    assert capsys.readouterr().err.strip().splitlines() == [
        f"solve-leader failed at stage solve-leader: {man['error']}"]
    assert man["status"] == "FAILED"
    assert man["failed_stage"] == "solve-leader"
    assert man["error"].startswith(
        "RuntimeError: assembled 2n x 2n cross-check escapes")
    assert set(man["outputs"]) | {"manifest.json"} == \
        {f.name for f in out.iterdir()}
    out = tmp_path / "inc"
    assert cli.main(["solve-incentive", "--grid-steps", "40",
                     "--out", str(out)]) == 3
    stage = [s for s in read_json(out / "manifest.json")["stages"]
             if s["name"] == "solve-leader"]
    assert stage[0]["block_rk4_steps"] == 80
    assert "assembled_rk4_steps" not in stage[0]


STAGED_RUNS = {
    "gamma-hat": (["gamma-hat", "--tol", "100"], 0,
                  ["config", "gamma-hat"]),
    "solve-leader": (["solve-leader"], 0, ["config", "solve-leader"]),
    "solve-incentive": (["solve-incentive"], 3,
                        ["config", "solve-leader", "solve-incentive"]),
    "simulate": (["simulate", "--n", "6", "--paths", "4"], 0,
                 ["config", "solve-leader", "solve-incentive", "simulate"]),
    "sweep-n": (["sweep-n", "--ns", "4,8,16", "--paths", "4"], 0,
                ["config", "solve-leader", "sweep-n"]),
}


@pytest.mark.parametrize("name", sorted(STAGED_RUNS))
def test_manifest_lists_outputs_and_repeats(name, tmp_path, capsys):
    argv, code, stages = STAGED_RUNS[name]
    out = tmp_path / name
    argv = argv + ["--grid-steps", "40", "--seed", "7", "--out", str(out)]
    manifests = []
    for _ in range(2):
        assert cli.main(argv) == code
        man = read_json(out / "manifest.json")
        assert set(man["outputs"]) | {"manifest.json"} == \
            {f.name for f in out.iterdir()}
        assert len(man["outputs"]) == len(set(man["outputs"]))
        assert [s["name"] for s in man["stages"]] == stages
        assert all(s["wall_s"] >= 0 for s in man["stages"])
        for key in ("started", "finished"):
            del man[key]
        for s in man["stages"]:
            del s["wall_s"]
        manifests.append(man)
    assert manifests[0] == manifests[1]


def test_sweep_stage_records_exact_mean_field_gap(table1, tmp_path):
    # the manifest sets each N's Monte Carlo gap beside sup_k tr Pi_k / N;
    # sweep.csv holds the same Monte Carlo gaps
    out = tmp_path / "sw"
    assert cli.main(["sweep-n", "--ns", "4,8,16", "--paths", "4",
                     "--grid-steps", "40", "--seed", "7",
                     "--out", str(out)]) == 0
    stage = [s for s in read_json(out / "manifest.json")["stages"]
             if s["name"] == "sweep-n"]
    rows = [r.split(",") for r in
            (out / "sweep.csv").read_text().splitlines()[1:]]
    mc = {int(r[1]): float(r[2]) for r in rows if r[0] == "mean_field"}
    p = table1.with_updates(grid_steps=40)
    assert [(g["N"], g["monte_carlo"], g["exact"])
            for g in stage[0]["mean_field_gaps"]] == [
        (N, pytest.approx(mc[N], rel=1e-15),
         sim.exact_mean_field_gap(p, N)) for N in (4, 8, 16)]


def test_simulation_stages_record_their_work(tmp_path):
    # 40 steps over 4 paths: 160 path-steps per run.  simulate: the limit,
    # the population (6 followers stored, streams: common, 6 summed, 6
    # stored) and the saddle battery's 5 limit runs; sweep-n: the limit,
    # one pass over 16 followers' streams, then 3 populations that step
    # no follower individually
    runs = {
        "simulate": (["simulate", "--n", "6", "--paths", "4"],
                     dict(path_steps=7 * 160, follower_steps=6 * 160,
                          streams_read=4 + 4 * 13 + 5 * 4)),
        "sweep-n": (["sweep-n", "--ns", "4,8,16", "--paths", "4"],
                    dict(path_steps=4 * 160, follower_steps=0,
                         streams_read=4 + 4 * 16 + 3 * 4)),
    }
    for name, (argv, work) in runs.items():
        out = tmp_path / name
        assert cli.main(argv + ["--grid-steps", "40", "--seed", "7",
                                "--out", str(out)]) == 0
        stage = [s for s in read_json(out / "manifest.json")["stages"]
                 if s["name"] == name]
        assert len(stage) == 1
        assert {k: stage[0][k] for k in work} == work
