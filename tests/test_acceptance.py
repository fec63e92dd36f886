"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria tolerances are pinned here; nothing is deferred to later calibration.
The desk-scale learning comparison (criterion 8) trains eight full agents and
dominates the suite's runtime (a few minutes on a desktop CPU).
"""

import time

import numpy as np
import pytest

from equipomdp import autodiff as ad
from equipomdp.agent import (
    OracleQPolicy,
    RecurrentPolicy,
    a2c_loss_gradcheck,
    a2c_update,
    benchmark_agent_config,
    benchmark_env_config,
    collect_rollouts,
    equivariance_residuals,
    evaluate,
    run_equivariance_suite,
    start_carry,
    steps_to_threshold,
    train,
)
from equipomdp.envs import CarFlag2d, CarFlag2dConfig, export_pomdp
from equipomdp.groups import (
    C4,
    MIRROR as FLIP,
    direct_sum,
    grid_rep,
    regular_rep,
    sign_rep,
    trivial_rep,
)
from equipomdp.pomdp import exact_q, verify_belief_invariance, verify_value_invariance
from export_maps import export_with_maps
from feature_fields import C2, compose, rep_matrix
from pomdp_builders import dense_trans
from reference_basis import solve_intertwiner_basis


_emit = print


@pytest.fixture(autouse=True)
def _live_output(capfd):
    global _emit

    def emit(line):
        with capfd.disabled():
            print(line, flush=True)

    _emit = emit
    yield
    _emit = print


def announce(number: int, name: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    _emit(line)
    assert ok, line


def test_criterion_01_representation_algebra():
    t0 = time.perf_counter()
    worst = 0.0
    for group in (C4, FLIP):
        # every representation the package builds, and the element matrices
        # themselves: C4's standard representation
        families = [(lambda g, rep=rep: rep_matrix(rep, g)) for rep in (
            trivial_rep(group), regular_rep(group), grid_rep(group, 3, 3), sign_rep(group),
            direct_sum([trivial_rep(group), regular_rep(group)]))]
        if group is C4:
            families.append(lambda g: group.mats[g].astype(float))
        for matrix in families:
            eye = np.eye(len(matrix(0)))
            worst = max(worst, float(np.max(np.abs(matrix(0) - eye))))
            for a in group.elements:
                ma = matrix(a)
                inv = matrix(int(np.flatnonzero(group.table[a] == 0)[0]))
                worst = max(worst, float(np.max(np.abs(ma @ inv - eye))))
                for b in group.elements:
                    prod = matrix(compose(group, a, b))
                    worst = max(worst, float(np.max(np.abs(prod - ma @ matrix(b)))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    announce(1, "representation-algebra", ok,
             f"max residual {worst:.2e}, {elapsed:.2f}s")


def _rref_rank(mat, tol=1e-9):
    a = np.array(mat, dtype=float)
    rank = 0
    for col in range(a.shape[1]):
        pivot = next((r for r in range(rank, a.shape[0]) if abs(a[r, col]) > tol), None)
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] /= a[rank, col]
        for r in range(a.shape[0]):
            if r != rank and abs(a[r, col]) > tol:
                a[r] -= a[r, col] * a[rank]
        rank += 1
    return rank


def _constraints(rin, rout):
    rows = [np.kron(rep_matrix(rout, g), np.eye(rin.dim))
            - np.kron(np.eye(rout.dim), rep_matrix(rin, g).T)
            for g in rin.group.elements if g != 0]
    return np.vstack(rows)


def test_criterion_02_intertwiner_bases():
    cases = [
        (regular_rep(C4), regular_rep(C4), 4),
        (sign_rep(C2), trivial_rep(C2), 0),
        (sign_rep(FLIP), regular_rep(FLIP), 1),
        (direct_sum([trivial_rep(C4), regular_rep(C4)]), regular_rep(C4), 1 + 4),
    ]
    worst_resid, ok = 0.0, True
    details = []
    for rin, rout, expected in cases:
        basis = solve_intertwiner_basis(rin, rout)
        nullity = rin.dim * rout.dim - _rref_rank(_constraints(rin, rout))
        worst_resid = max(worst_resid, basis.max_constraint_residual())
        ok = ok and basis.count == expected == nullity
        details.append(f"{rin.summary}->{rout.summary}:{basis.count}")
    ok = ok and worst_resid < 1e-10
    announce(2, "intertwiner-bases", ok,
             f"counts {' '.join(details)}, max residual {worst_resid:.2e}")


def test_criterion_03_end_to_end_equivariance():
    t0 = time.perf_counter()
    clean = run_equivariance_suite(networks=100, histories=10, max_len=50, seed=0)
    broken = run_equivariance_suite(networks=20, histories=5, max_len=30, seed=0,
                                    lstm_init="random")
    elapsed = time.perf_counter() - t0
    ok = clean["max"] < 1e-8 and broken["max"] > 1e-3 and elapsed < 60.0
    announce(3, "end-to-end-equivariance", ok,
             f"zero-init residual {clean['max']:.2e}, random-init residual "
             f"{broken['max']:.2e}, {elapsed:.1f}s")


def test_criterion_04_gradient_correctness():
    battery = ad.primitive_gradcheck_battery(seed=0)
    loss_err = a2c_loss_gradcheck(seed=0)
    worst = max(max(battery.values()), loss_err)
    ok = worst < 1e-4
    worst_name = max(battery, key=battery.get)
    announce(4, "gradient-correctness", ok,
             f"worst primitive {worst_name} {battery[worst_name]:.2e}, "
             f"a2c loss {loss_err:.2e}")


def test_criterion_05_belief_invariance_depth5():
    t0 = time.perf_counter()
    pomdp, binding, _ = export_pomdp(CarFlag2dConfig(grid_size=3), discount=0.99)
    report = verify_belief_invariance(pomdp, binding, depth=5)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 60.0
    announce(5, "belief-invariance-3x3", ok,
             f"max deviation {report.max_dev:.2e} over {report.checked} checks, "
             f"{elapsed:.1f}s")


def test_criterion_06_value_invariance_horizon6():
    t0 = time.perf_counter()
    pomdp, binding, _ = export_pomdp(CarFlag2dConfig(grid_size=3), discount=0.99)
    report = verify_value_invariance(pomdp, binding, horizon=6)
    pomdp_off, binding_off, _ = export_pomdp(
        CarFlag2dConfig(grid_size=3, info_offset=1), discount=0.99)
    report_off = verify_value_invariance(pomdp_off, binding_off, horizon=6)
    elapsed = time.perf_counter() - t0
    witnessed = (not report_off.passed) and (
        report_off.witness is not None or report_off.missing)
    ok = (report.passed and report.policy_consistent and witnessed
          and elapsed < 300.0)
    announce(6, "value-invariance-3x3", ok,
             f"max deviation {report.max_dev:.2e} over {report.checked} checks, "
             f"policy equivariant {report.policy_consistent}, offset violation "
             f"witnessed {witnessed}, {elapsed:.1f}s")


def test_criterion_07_oracle_vs_simulator():
    cfg = CarFlag2dConfig(grid_size=3)
    pomdp, binding, maps = export_with_maps(cfg, discount=0.99)
    trans = dense_trans(pomdp)
    rng = np.random.default_rng(2024)
    mismatches = 0
    for episode in range(1000):
        env = CarFlag2d(cfg, np.random.default_rng(episode))
        obs = env.reset()
        s = maps.state_ids[(env.agent, env.goal)]
        if pomdp.start[s] <= 0 or maps.obs_id_of_array(obs) != maps.state_obs[s]:
            mismatches += 1
            continue
        for _ in range(50):
            a = int(rng.integers(4))
            obs, reward, term, trunc = env.step(a)
            s2 = int(np.argmax(trans[s, a]))
            same = (trans[s, a, s2] == 1.0
                    and reward == pomdp.reward[s, a]
                    and maps.obs_id_of_array(obs) == maps.state_obs[s2]
                    and term == maps.terminal[s2])
            if not same:
                mismatches += 1
                break
            s = s2
            if term or trunc:
                break
    solution = exact_q(pomdp, horizon=6)
    success, _ = evaluate(OracleQPolicy(solution, maps), cfg, 200,
                          np.random.default_rng(999), greedy=True)
    ok = mismatches == 0 and success == 1.0
    announce(7, "oracle-vs-simulator", ok,
             f"{mismatches} trace mismatches in 1000 episodes, greedy success "
             f"{success:.3f} over 200 episodes")


def test_criterion_08_desk_scale_sample_efficiency():
    t0 = time.perf_counter()
    env_cfg = benchmark_env_config()
    budget = 300_000
    results = {}
    for variant in ("equi", "plain"):
        crossings = []
        for seed in (0, 1, 2, 3):
            res = train(env_cfg, benchmark_agent_config(variant, seed, budget))
            crossings.append(steps_to_threshold(res.rows, 0.9))
        results[variant] = crossings
    equi_hits = sum(c is not None for c in results["equi"])
    censor = budget + 1
    equi_median = float(np.median([c if c is not None else censor
                                   for c in results["equi"]]))
    plain_median = float(np.median([c if c is not None else censor
                                    for c in results["plain"]]))
    elapsed = time.perf_counter() - t0
    ok = equi_hits >= 3 and equi_median < plain_median
    announce(8, "desk-scale-sample-efficiency", ok,
             f"equi steps-to-0.9 {results['equi']} (median {equi_median:.0f}), "
             f"plain {results['plain']} (median {plain_median:.0f}), "
             f"{elapsed / 60:.1f} min")


def test_criterion_09_equivariance_after_training():
    env_cfg = benchmark_env_config()
    cfg = benchmark_agent_config("equi", seed=0, total_steps=0)
    policy = RecurrentPolicy(env_cfg, cfg, np.random.default_rng(0))
    opt = ad.Adam(policy.parameters(), cfg.learning_rate)
    carry = start_carry(policy, env_cfg, cfg.n_envs, np.random.SeedSequence(1))
    rng = np.random.default_rng(2)
    for _ in range(60):
        batch = collect_rollouts(policy, carry, cfg.n_steps, rng)
        a2c_update(policy, opt, batch, cfg)
    actor, critic = equivariance_residuals(policy, histories=10, max_len=50,
                                           rng=np.random.default_rng(3))
    worst = max(actor, critic)
    ok = worst < 1e-8
    announce(9, "equivariance-after-training", ok,
             f"residual {worst:.2e} after 60 optimizer steps")


def test_criterion_10_bitwise_determinism(tmp_path):
    env_cfg = benchmark_env_config()
    cfg = benchmark_agent_config("equi", seed=7, total_steps=20_000)
    train(env_cfg, cfg, tmp_path / "a")
    train(env_cfg, cfg, tmp_path / "b")
    a = (tmp_path / "a" / "curve.csv").read_bytes()
    b = (tmp_path / "b" / "curve.csv").read_bytes()
    ok = a == b and len(a) > 0
    announce(10, "bitwise-determinism", ok,
             f"curve files identical ({len(a)} bytes)")
