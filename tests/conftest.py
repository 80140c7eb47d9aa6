"""Shared fixtures.

The benchmark pipeline (blocks, gains, incentive sweep, decoupled chain,
Monte Carlo batteries) is solved once per session; the synthetic fixtures
cover the square-matching case (mL = 2n, so the matching conditions are
exactly solvable), the same case with n = 2 and matrix diffusion, and the
decoupled limit.
"""
from importlib.resources import files
from types import SimpleNamespace

import numpy as np
import pytest

from stackmfg import cli, incentive, leader, odeint, sim
from stackmfg.leader import BlockRiccatiSolution
from stackmfg.model import ModelParams, load_config

BENCHMARK_PATH = str(files("stackmfg").joinpath("configs/benchmark.json"))


@pytest.fixture(scope="session")
def benchmark_path() -> str:
    return BENCHMARK_PATH


@pytest.fixture(scope="session")
def table1() -> ModelParams:
    return load_config(BENCHMARK_PATH)


@pytest.fixture(scope="session")
def blocks1(table1) -> BlockRiccatiSolution:
    sol = leader.solve_block_riccati(table1)
    assert isinstance(sol, BlockRiccatiSolution)
    return sol


@pytest.fixture(scope="session")
def march_assembled():
    """The assembled 2n x 2n cross-check of a block solution, marched over
    its doubled grid and read at the published nodes: the marched reference
    beside the pipeline's identity check, which never marches it.
    march_assembled(p, blocks) -> (M+1, 2n, 2n)."""
    def march(p, blocks):
        res = odeint.integrate(leader.assembled_problem(p, blocks.gamma),
                               blocks.fine_grid)
        assert res.ok
        return res.trajectories[0].values[::2]
    return march


@pytest.fixture(scope="session")
def gains1(table1, blocks1):
    return leader.leader_gains(blocks1, table1)


@pytest.fixture(scope="session")
def inc1(table1, blocks1):
    """Benchmark incentive sweep with the outcome recorded either way.

    The matching system is overdetermined here (2 conditions, 1 unknown),
    so the sweep is expected to miss the tolerance; the best-effort
    solution still feeds the decoupled chain."""
    try:
        dtheta, inc = incentive.solve_cc_incentive(table1, blocks1)
        return SimpleNamespace(solved=True, dtheta=dtheta, inc=inc,
                               worst=float(inc.match_residual.max()))
    except incentive.NoIncentiveSolution as err:
        dtheta, inc = err.partial
        return SimpleNamespace(solved=False, dtheta=dtheta, inc=inc,
                               worst=err.worst_residual)


@pytest.fixture(scope="session")
def spp1(table1, blocks1, inc1):
    return incentive.solve_sigma_phi_psi(table1, blocks1, inc1.dtheta,
                                         inc1.inc)


@pytest.fixture(scope="session")
def fg1(table1, blocks1, inc1, spp1):
    return incentive.follower_gains(table1, blocks1, inc1.inc, inc1.dtheta,
                                    spp1)


def square_params() -> ModelParams:
    # mL = 2n makes the cleared matching system square and solvable; D and
    # Ht are kept non-parallel so it stays well conditioned
    return ModelParams(
        n=1, mL=2, mF=1, nv=1,
        A=0.1, B=[[0.4, 0.3]], F=0.2, H=0.3, E=0.2, C=0.3, D=[[0.5, -0.25]],
        At=0.1, Bt=0.4, Ft=0.1, Ht=[[0.45, -0.3]], Sigma=0.3,
        Q=0.5, Gamma1=0.5, R0=[[0.5, 0.0], [0.0, 0.4]], R1=0.6, R2=0.5,
        Gamma2=0.1, G=0.4,
        Qt=0.3, Gamma1t=0.5, R0t=[[0.3, 0.0], [0.0, 0.25]], R1t=0.5,
        Gamma2t=0.2, Gt=0.3,
        xi=1.0, x0init=0.8, T=2.0, gamma=10.0, grid_steps=200,
    )


def n2_square_params() -> ModelParams:
    # n = 2 with mL = 2n, so the incentive matching is square and solvable
    return ModelParams(
        n=2, mL=4, mF=1, nv=2,
        A=[[-0.2, 0.1], [0.05, -0.3]],
        B=[[0.4, 0.1, 0.0, 0.2], [0.0, 0.3, 0.2, -0.1]],
        F=[[0.1, 0.0], [0.05, 0.1]], H=[[0.3], [0.1]],
        E=[[0.2, 0.0], [0.1, 0.2]], C=[[0.2, 0.05], [0.0, 0.1]],
        D=[[0.3, -0.1, 0.05, 0.0], [0.1, 0.2, 0.0, -0.15]],
        At=[[-0.1, 0.05], [0.0, -0.2]], Bt=[[0.4], [0.2]],
        Ft=[[0.1, 0.0], [0.0, 0.05]],
        Ht=[[0.45, -0.3, 0.1, 0.05], [0.1, 0.2, -0.25, 0.3]],
        Sigma=[[0.3, 0.05], [-0.1, 0.2]],
        Q=[[0.5, 0.1], [0.1, 0.4]], Gamma1=[[0.5, 0.0], [0.1, 0.4]],
        R0=np.diag([0.5, 0.4, 0.6, 0.45]), R1=0.6,
        R2=[[0.5, 0.0], [0.0, 0.6]], Gamma2=[[0.1, 0.0], [0.0, 0.2]],
        G=[[0.4, 0.0], [0.0, 0.3]], Qt=[[0.3, 0.0], [0.0, 0.25]],
        Gamma1t=[[0.5, 0.1], [0.0, 0.4]],
        R0t=np.diag([0.3, 0.25, 0.35, 0.2]), R1t=0.5,
        Gamma2t=[[0.2, 0.0], [0.0, 0.1]], Gt=[[0.3, 0.0], [0.0, 0.2]],
        xi=[1.0, -0.5], x0init=[0.8, 0.3], T=1.0, gamma=10.0, grid_steps=50,
    )


def drawn_params(seed: int, n: int, mL: int, mF: int, nv: int) -> ModelParams:
    """A random config of the given dimensions, drawn the way the multidim
    benchmark draws its base: N(0, 0.4^2) coefficients, state weights
    M M' + 0.1 I and control weights M M' + 0.5 I.  Nothing about it is
    certified; it feeds right-hand sides at drawn states, not solves."""
    rng = np.random.default_rng(seed)

    def mat(r, c):
        return 0.4 * rng.standard_normal((r, c))

    def gram(k, floor):
        M = mat(k, k)
        return M @ M.T + floor * np.eye(k)

    return ModelParams(
        n=n, mL=mL, mF=mF, nv=nv,
        A=mat(n, n), B=mat(n, mL), F=mat(n, n), H=mat(n, mF), E=mat(n, nv),
        C=mat(n, n), D=mat(n, mL), At=mat(n, n), Bt=mat(n, mF),
        Ft=mat(n, n), Ht=mat(n, mL), Sigma=mat(n, n), Q=gram(n, 0.1),
        Gamma1=mat(n, n), R0=gram(mL, 0.5), R1=gram(mF, 0.5),
        R2=gram(nv, 0.5), Gamma2=mat(n, n), G=gram(n, 0.1), Qt=gram(n, 0.1),
        Gamma1t=mat(n, n), R0t=gram(mL, 0.5), R1t=gram(mF, 0.5),
        Gamma2t=mat(n, n), Gt=gram(n, 0.1), xi=mat(1, n)[0],
        x0init=mat(1, n)[0], T=2.0, gamma=10.0, grid_steps=40,
    )


def _solve_chain(p: ModelParams) -> SimpleNamespace:
    blocks = leader.solve_block_riccati(p)
    assert isinstance(blocks, BlockRiccatiSolution)
    gains = leader.leader_gains(blocks, p)
    dtheta, inc = incentive.solve_cc_incentive(p, blocks)
    spp = incentive.solve_sigma_phi_psi(p, blocks, dtheta, inc)
    fg = incentive.follower_gains(p, blocks, inc, dtheta, spp)
    return SimpleNamespace(blocks=blocks, gains=gains, dtheta=dtheta,
                           inc=inc, spp=spp, fg=fg)


@pytest.fixture(scope="session")
def square() -> ModelParams:
    return square_params()


@pytest.fixture(scope="session")
def square_sol(square):
    return _solve_chain(square)


@pytest.fixture(scope="session")
def n2() -> ModelParams:
    return n2_square_params()


@pytest.fixture(scope="session")
def n2_sol(n2):
    return _solve_chain(n2)


@pytest.fixture(scope="session")
def drawn_md() -> ModelParams:
    """A drawn config of the multidim benchmark's dimensions."""
    return drawn_params(7, n=2, mL=4, mF=1, nv=2)


@pytest.fixture(scope="session")
def drawn_n3() -> ModelParams:
    """A drawn config with n = 3 and a matrix L (mL = mF = 2)."""
    return drawn_params(7, n=3, mL=2, mF=2, nv=1)


@pytest.fixture(scope="session")
def decoupled(table1) -> ModelParams:
    return table1.with_updates(H=0.0, Ht=0.0, Bt=0.0, F=0.0, Ft=0.0,
                               Gamma1=0.0, Gamma2=0.0)


# Monte Carlo batteries shared between the acceptance suite and the module
# tests; common seed so the sweep data is reusable for the ratio checks.

@pytest.fixture(scope="session")
def limit_costs(table1, blocks1, gains1):
    cfg = sim.SimConfig(N=1, n_paths=2000, master_seed=42)
    bundle = sim.simulate_limit(table1, gains1, cfg)
    return sim.eval_costs(bundle, table1,
                          V0=leader.leader_value(blocks1, table1))


@pytest.fixture(scope="session")
def saddle2000(table1, gains1):
    return sim.saddle_check(table1, gains1,
                            sim.SimConfig(N=1, n_paths=2000, master_seed=42))


@pytest.fixture(scope="session")
def sweeps(table1, gains1):
    """Mean-field and optimality-gap reports from one population run per N."""
    cfg = sim.SimConfig(N=1, n_paths=200, master_seed=42)
    return sim.sweep_gaps(table1, gains1, [10, 40, 160, 640], cfg)


@pytest.fixture(scope="session")
def mf_sweep(sweeps):
    return sweeps[0]


@pytest.fixture(scope="session")
def opt_sweep(sweeps):
    return sweeps[1]


@pytest.fixture(scope="session")
def reproduce_threads1(tmp_path_factory):
    """The default-grid seed-42 reproduce-paper run at one thread, made
    once for criterion 11's thread comparison and the default-grid digest
    test: its argv, exit code and output directory."""
    argv = ["reproduce-paper", "--seed", "42", "--threads", "1"]
    out = tmp_path_factory.mktemp("reproduce") / "threads1"
    code = cli.main(argv + ["--out", str(out)])
    return SimpleNamespace(argv=argv, code=code, out=out)
