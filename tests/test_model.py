"""Parameter container, assumption checks, and config round-trips."""
import json

import numpy as np
import pytest

from stackmfg import cli
from stackmfg.model import (DimensionError, MatrixTrajectory, ModelParams,
                            ParseError, TimeGrid, load_config, save_config,
                            validate_assumptions)


def test_benchmark_config_loads_scalar_dims(table1):
    assert (table1.n, table1.mL, table1.mF, table1.nv) == (1, 1, 1, 1)
    assert table1.A.shape == (1, 1)
    assert table1.A[0, 0] == 0.3
    assert table1.gamma == 5.0
    assert table1.T == 10.0
    assert table1.grid_steps == 1000
    # vectors come out flat
    assert table1.xi.shape == (1,)
    assert table1.x0init[0] == 1.0


def test_config_round_trip_bitwise(table1, tmp_path):
    out = tmp_path / "copy.json"
    save_config(table1, out)
    q = load_config(out)
    for name in ("A", "B", "R0", "Qt", "Gamma1t", "xi"):
        assert np.array_equal(getattr(table1, name), getattr(q, name))
    assert q.T == table1.T and q.gamma == table1.gamma
    # and the decimal text itself is stable under a second round trip
    out2 = tmp_path / "copy2.json"
    save_config(q, out2)
    assert out.read_text() == out2.read_text()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_config(tmp_path / "nope.json")


def test_load_config_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(bad)


def test_load_config_missing_key(tmp_path, benchmark_path):
    raw = json.loads(open(benchmark_path).read())
    del raw["leader_cost"]["Q"]
    f = tmp_path / "missing.json"
    f.write_text(json.dumps(raw))
    with pytest.raises(ParseError):
        load_config(f)


@pytest.mark.parametrize("edit", [
    lambda raw: raw.update(dimensions=[1, 1, 1, 1]),
    lambda raw: raw["dimensions"].update(n=None),
    lambda raw: raw.update(leader_dynamics=[]),
    lambda raw: raw.update(horizon=[10.0]),
    lambda raw: raw.update(grid_steps=100.5),
    lambda raw: raw["dimensions"].update(nv=1.5),
    lambda raw: raw["leader_cost"].update(Q={"value": 1.0}),
], ids=["dimensions-list", "dimension-null", "section-list", "horizon-list",
        "grid-steps-fraction", "dimension-fraction", "matrix-object"])
def test_malformed_config_is_one_line(edit, tmp_path, benchmark_path,
                                      capsys):
    raw = json.loads(open(benchmark_path).read())
    edit(raw)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(raw))
    assert cli.main(["validate", "--config", str(f)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("ParseError: ")


def test_shape_mismatch_raises(table1):
    with pytest.raises(DimensionError):
        table1.with_updates(B=[[1.0], [2.0]])    # 2x1 against n = 1


def test_nonfinite_entry_raises(table1):
    with pytest.raises(ValueError):
        table1.with_updates(A=float("nan"))


def test_asymmetric_weight_raises():
    p = dict(n=2, mL=1, mF=1, nv=1,
             A=np.eye(2), B=[[0.1], [0.0]], F=np.zeros((2, 2)),
             H=[[0.1], [0.0]], E=[[0.1], [0.0]], C=np.zeros((2, 2)),
             D=[[0.1], [0.0]], At=np.eye(2), Bt=[[0.1], [0.0]],
             Ft=np.zeros((2, 2)), Ht=[[0.1], [0.0]], Sigma=np.eye(2),
             Q=[[1.0, 0.3], [0.0, 1.0]], Gamma1=np.zeros((2, 2)),
             R0=1.0, R1=1.0, R2=1.0, Gamma2=np.zeros((2, 2)), G=np.eye(2),
             Qt=np.eye(2), Gamma1t=np.zeros((2, 2)), R0t=1.0, R1t=1.0,
             Gamma2t=np.zeros((2, 2)), Gt=np.eye(2),
             xi=[1.0, 0.0], x0init=[0.0, 0.0], T=1.0, gamma=1.0,
             grid_steps=10)
    with pytest.raises(ValueError, match="symmetric"):
        ModelParams(**p)


def test_large_weight_skew_within_construction_rule_round_trips(n2, tmp_path):
    # a skew of 1e-8 on entries near 6e4 is within SYM_TOL relative to the
    # largest entry; validation applies the same rule, so load_config
    # accepts what ModelParams built
    R0 = 1e5 * n2.R0
    R0[0, 1] += 1e-8
    p = n2.with_updates(R0=R0)
    f = tmp_path / "skew.json"
    save_config(p, f)
    q = load_config(f)
    assert np.array_equal(q.R0, p.R0)
    a2 = {c.name: c for c in validate_assumptions(q)}["A2_symmetric_weights"]
    assert a2.passed and a2.margin == -abs(R0[0, 1] - R0[1, 0])


def test_zero_control_weight_rejected_at_load(table1, tmp_path):
    f = tmp_path / "r1zero.json"
    save_config(table1.with_updates(R1=0.0), f)
    with pytest.raises(ValueError, match="assumptions"):
        load_config(f)


def test_validate_benchmark_all_pass(table1):
    report = validate_assumptions(table1)
    assert report.ok
    by_name = {c.name: c for c in report}
    assert by_name["A3_R2_pd"].margin == pytest.approx(0.4, abs=1e-12)


def test_validate_negative_q_fails(table1):
    report = validate_assumptions(table1.with_updates(Q=-1.0))
    assert not report.ok
    bad = {c.name: c for c in report.failures}
    assert bad["A3_Q_psd"].margin == pytest.approx(-1.0, abs=1e-12)


def test_validate_psd_terminal_weight_only(table1):
    # Gt barely psd with a large Gamma2t is fine: no strict bound on Gt
    report = validate_assumptions(table1.with_updates(Gt=0.01, Gamma2t=1.0))
    assert report.ok


def test_validate_is_pure(table1):
    assert validate_assumptions(table1) == validate_assumptions(table1)


def test_grid_uniformity():
    g = TimeGrid(10.0, 1000)
    assert g.h * g.steps == pytest.approx(10.0, abs=1e-14)
    nodes = g.nodes
    assert nodes.shape == (1001,)
    assert np.all(np.diff(nodes) > 0)
    with pytest.raises(ValueError):
        TimeGrid(10.0, 3)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 100)


def test_trajectory_shape_terminal_and_guards():
    g = TimeGrid(1.0, 4)
    vals = np.arange(5, dtype=float).reshape(5, 1, 1)
    tr = MatrixTrajectory(g, vals)
    assert tr.shape == (1, 1)
    assert tr.terminal[0, 0] == 4.0
    with pytest.raises(ValueError):
        MatrixTrajectory(g, np.full((5, 1, 1), np.nan))
    with pytest.raises(DimensionError):
        MatrixTrajectory(g, np.zeros((4, 1, 1)))


def test_params_immutable(table1):
    with pytest.raises(ValueError):
        table1.A[0, 0] = 99.0
