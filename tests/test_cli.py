import dataclasses
import os
import re

import numpy as np
import pytest

from equipomdp import cli
from equipomdp.agent import AgentConfig, AgentError
from equipomdp.cli import (
    UsageError,
    build_configs,
    build_parser,
    load_config_file,
    main,
    read_manifest,
    write_manifest,
)
from equipomdp.envs import CarFlag1dConfig, CarFlag2dConfig, EnvError, export_pomdp, field_types
from equipomdp.pomdp import (
    PomdpError,
    exact_q,
    save_tables,
    verify_belief_invariance,
    verify_value_invariance,
)
from pomdp_builders import load_tables, random_pomdp
from reference_oracle import reference_class_q


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------

def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[env]\nkind = carflag1d\nhalf_size = 10\n"
        "[agent]\nvariant = plain\ntotal_steps = 123\nconv_fields = 2,4\n"
        "[run]\nseed = 7\n")
    loaded = load_config_file(cfg)
    assert loaded["env"]["half_size"] == 10
    assert loaded["agent"]["total_steps"] == 123

    args = build_parser().parse_args(["train", "--config", str(cfg)])
    env_cfg, agent_cfg, run = build_configs(args)
    assert isinstance(env_cfg, CarFlag1dConfig) and env_cfg.half_size == 10
    assert agent_cfg.variant == "plain" and agent_cfg.total_steps == 123
    assert agent_cfg.conv_fields == (2, 4)
    assert agent_cfg.seed == 7


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[env]\nkind = carflag1d\nhalf_size = 10\n[agent]\nvariant = plain\n")
    args = build_parser().parse_args(
        ["train", "--config", str(cfg), "--agent", "equi", "--half-size", "5"])
    env_cfg, agent_cfg, _ = build_configs(args)
    assert env_cfg.half_size == 5
    assert agent_cfg.variant == "equi"


def test_config_file_discount_reaches_training_and_manifest(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[env]\nkind = carflag1d\nhalf_size = 5\n[agent]\ndiscount = 0.9\n")
    args = build_parser().parse_args(["train", "--config", str(cfg)])
    assert build_configs(args)[1].discount == 0.9
    args = build_parser().parse_args(["train", "--config", str(cfg), "--gamma", "0.5"])
    assert build_configs(args)[1].discount == 0.5  # the flag still wins
    assert run_cli("train", "--config", str(cfg), "--steps", "0",
                   "--out", str(tmp_path / "run")) == 0
    assert read_manifest(tmp_path / "run" / "manifest.ini")[1].discount == 0.9
    for argv in (["verify", "invariance"], ["oracle"]):   # they read the same key
        assert build_configs(build_parser().parse_args(
            [*argv, "--config", str(cfg)]))[1].discount == 0.9


@pytest.mark.parametrize("ini, flags, discount", [
    ("[agent]\ndiscount = 0.9\n", (), 0.9),
    ("[agent]\ndiscount = 0.9\n", ("--gamma", "0.95"), 0.95),
    ("", (), 0.99),
], ids=["config-file", "flag-wins", "default"])
def test_discount_reaches_oracle_and_verify_tables(tmp_path, monkeypatch, capsys,
                                                   ini, flags, discount):
    cfg = tmp_path / "f.ini"
    cfg.write_text("[env]\nkind = carflag1d\nhalf_size = 3\n" + ini)
    out = tmp_path / "o"
    assert run_cli("oracle", "--config", str(cfg), "--horizon", "20", "--episodes", "5",
                   "--out", str(out), *flags) == 0
    assert load_tables(out / "model.tables").discount == discount
    assert (out / "qtable.txt").read_text().splitlines()[2] == "discount %.17g" % discount
    seen = []

    def recording_export(env_cfg, discount):
        seen.append(discount)
        return export_pomdp(env_cfg, discount=discount)

    monkeypatch.setattr(cli, "export_pomdp", recording_export)
    for suite in ("invariance", "lemma1", "theorem1"):
        assert run_cli("verify", suite, "--config", str(cfg), "--depth", "2",
                       "--horizon", "2", *flags) == 0
    assert seen == [discount] * 3


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[env]\nkind = carflag1d\nwormholes = 3\n")
    with pytest.raises(UsageError):
        load_config_file(cfg)
    cfg.write_text("[physics]\ngravity = 10\n")
    with pytest.raises(UsageError):
        load_config_file(cfg)


def test_every_setting_has_one_config_key_and_one_train_flag():
    """The settings cannot drift apart: every ``AgentConfig`` field but the
    seed (a [run] key) is an [agent] key and the reverse, every env config
    field is an [env] key, and ``train`` has a flag whose ``dest`` is each."""
    agent_fields = {f.name for f in dataclasses.fields(AgentConfig)} - {"seed"}
    assert agent_fields == set(cli.AGENT_SCHEMA)
    env_fields = {"offset" if f.name == "info_offset" else f.name
                  for cfg in (CarFlag1dConfig, CarFlag2dConfig)
                  for f in dataclasses.fields(cfg)}
    assert env_fields | {"kind"} == set(cli.ENV_SCHEMA)
    train = build_parser()._subparsers._group_actions[0].choices["train"]
    dests = {action.dest for action in train._actions}
    assert set(cli.AGENT_SCHEMA) | set(cli.ENV_SCHEMA) | set(cli.RUN_SCHEMA) <= dests


@pytest.mark.parametrize("kind, argv, field, value", [pytest.param(*case, id=case[2]) for case in [
    ("carflag1d", ("--half-size", "7"), "half_size", 7),
    ("carflag1d", ("--offset", "-2"), "info_offset", -2),
    ("carflag2d", ("--info-region-size", "3"), "info_region_size", 3),
    ("carflag2d", ("--max-steps", "9"), "max_steps", 9),
    ("carflag1d", ("--agent", "equi-critic-only"), "variant", "equi-critic-only"),
    ("carflag1d", ("--lstm-init", "random"), "lstm_init", "random"),
    ("carflag1d", ("--steps", "12"), "total_steps", 12),
    ("carflag1d", ("--lr", "0.125"), "learning_rate", 0.125),
    ("carflag1d", ("--gamma", "0.5"), "discount", 0.5),
    ("carflag1d", ("--grad-clip", "2"), "grad_clip", 2.0),
    ("carflag1d", ("--eval-greedy",), "eval_greedy", True),
    ("carflag1d", ("--feed-prev-action",), "feed_prev_action", True),
    ("carflag2d", ("--conv-fields", "3,5"), "conv_fields", (3, 5)),
    ("carflag1d", ("--seed", "4"), "seed", 4),
]])
def test_each_flag_sets_its_field_with_the_field_type(kind, argv, field, value):
    """Each flag reaches its config field, parsed to the field's annotated
    type (``--grad-clip 2`` is the float 2.0, a switch is True)."""
    env_cfg, agent_cfg, _ = build_configs(build_parser().parse_args(
        ["train", "--env", kind, *argv]))
    got = getattr(agent_cfg if hasattr(agent_cfg, field) else env_cfg, field)
    assert got == value and type(got) is type(value)


def test_manifest_text_is_pinned(tmp_path):
    """The exact manifest bytes of one config per domain: key order, the
    ``offset`` key of ``info_offset``, ``conv_fields`` as a comma list and
    booleans as Python writes them. Each manifest reads back to its configs."""
    cases = [
        (CarFlag1dConfig(half_size=5, info_offset=-2),
         AgentConfig(variant="plain", seed=3, eval_greedy=True, conv_fields=(2, 4)),
         {"out": "runs/a", "seed": 3, "group": "reflection2"}, None,
         "[env]\nkind = carflag1d\nhalf_size = 5\noffset = -2\nmax_steps = 50\n\n"),
        (CarFlag2dConfig(grid_size=5, info_offset=1, info_region_size=3),
         AgentConfig(seed=0, feed_prev_action=True, lstm_init="random", conv_fields=(3,)),
         {"out": "runs/b", "seed": 0, "group": "c4"},
         ["conv3x3 a -> b (relu)", "lstm c -> d"],
         "[env]\nkind = carflag2d\ngrid_size = 5\noffset = 1\ninfo_region_size = 3\n"
         "max_steps = 50\n\n"),
    ]
    agent_text = ("[agent]\nvariant = {}\nlstm_init = {}\nn_envs = 16\nn_steps = 5\n"
                  "discount = 0.99\nlearning_rate = 0.0003\nvalue_coef = 0.5\n"
                  "entropy_coef = 0.01\ngrad_clip = 0.5\ntotal_steps = 100000\n"
                  "eval_interval = 5000\neval_episodes = 40\neval_greedy = {}\n"
                  "lstm_fields = 16\nhead_fields = 16\nconv_fields = {}\n"
                  "feed_prev_action = {}\n\n")
    expected = [
        agent_text.format("plain", "zero", "True", "2,4", "False")
        + "[run]\nout = runs/a\nseed = 3\ngroup = reflection2\n\n",
        agent_text.format("equi", "random", "False", "3", "True")
        + "[run]\nout = runs/b\nseed = 0\ngroup = c4\n\n"
        + "[architecture]\nlayer0 = conv3x3 a -> b (relu)\nlayer1 = lstm c -> d\n\n",
    ]
    for (env_cfg, agent_cfg, run, architecture, env_text), rest in zip(cases, expected):
        path = tmp_path / "manifest.ini"
        write_manifest(path, env_cfg, agent_cfg, run, architecture=architecture)
        assert path.read_text() == env_text + rest
        assert read_manifest(path) == (env_cfg, agent_cfg, run)


def test_removed_single_tanh_switch_is_refused(tmp_path, capsys):
    """The cell has one candidate formula: the flag is unknown to ``train``,
    and a config file or a manifest setting the old key is refused by name."""
    with pytest.raises(SystemExit) as exit_info:
        run_cli("train", "--env", "carflag1d", "--steps", "0", "--lstm-single-tanh")
    assert exit_info.value.code == 2
    assert "--lstm-single-tanh" in capsys.readouterr().err
    cfg = tmp_path / "run.ini"
    cfg.write_text("[env]\nkind = carflag1d\n[agent]\nlstm_single_tanh = False\n")
    with pytest.raises(UsageError, match="lstm_single_tanh"):
        load_config_file(cfg)
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--steps", "0", "--out", str(out)) == 2
    assert "'lstm_single_tanh' in section [agent]" in capsys.readouterr().err
    assert not out.exists()
    # a manifest written before the switch went lists it
    out.mkdir()
    (out / "manifest.ini").write_text(cfg.read_text())
    assert run_cli("eval", "--run", str(out)) == 2
    assert "lstm_single_tanh" in capsys.readouterr().err


def test_missing_env_is_usage_error():
    args = build_parser().parse_args(["train", "--steps", "10"])
    with pytest.raises(UsageError):
        build_configs(args)


def test_conflicting_group_flag_is_usage_error(capsys):
    code = run_cli("train", "--env", "carflag2d", "--group", "reflection2",
                   "--steps", "10")
    assert code == 2
    assert "symmetry group" in capsys.readouterr().err


def test_bad_env_parameter_exits_2(capsys):
    code = run_cli("train", "--env", "carflag2d", "--grid-size", "4", "--steps", "1")
    assert code == 2
    for env in ("carflag1d", "carflag2d"):
        capsys.readouterr()
        code = run_cli("train", "--env", env, "--max-steps", "0", "--steps", "1")
        assert code == 2
        assert "max_steps must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("kind, key, flag", [
    ("carflag1d", "grid_size", "--grid-size"),
    ("carflag1d", "info_region_size", "--info-region-size"),
    ("carflag2d", "half_size", "--half-size"),
], ids=["1d-grid_size", "1d-info_region_size", "2d-half_size"])
@pytest.mark.parametrize("source", ["flag", "config-file"])
def test_setting_of_the_other_domain_exits_2_naming_the_key(tmp_path, capsys, kind, key,
                                                            flag, source):
    """A key of the other domain is refused, not dropped, whether it comes
    from a flag or from the config file."""
    if source == "flag":
        argv = ["--env", kind, flag, "3"]
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[env]\nkind = {kind}\n{key} = 3\n")
        argv = ["--config", str(cfg)]
    out = tmp_path / "run"
    assert run_cli("train", *argv, "--steps", "0", "--out", str(out)) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("verify", "invariance", *argv) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--conv-fields", ""), ("--conv-fields", "4,0"), ("--lstm-fields", "0"),
    ("--head-fields", "0"),
])
def test_empty_width_exits_2_naming_the_field(capsys, flag, value):
    code = run_cli("train", "--env", "carflag2d", flag, value, "--steps", "1")
    assert code == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,field", [
    ("--lr", "0", "learning_rate"), ("--lr", "-1e-3", "learning_rate"),
    ("--entropy-coef", "nan", "entropy_coef"),
])
def test_bad_float_setting_exits_2_naming_the_field(capsys, flag, value, field):
    code = run_cli("train", "--env", "carflag1d", f"{flag}={value}", "--steps", "1")
    assert code == 2
    assert field in capsys.readouterr().err


# each config and the error its checks raise
CONFIG_ERRORS = {AgentConfig: AgentError, CarFlag1dConfig: EnvError, CarFlag2dConfig: EnvError}
# every int-annotated field of the three, and the integer entries of conv_fields
INTEGER_SETTINGS = [(config, name) for config in CONFIG_ERRORS
                    for name, want in field_types(config) if want is int]
INTEGER_SETTINGS.append((AgentConfig, "conv_fields"))


@pytest.mark.parametrize("config,name", INTEGER_SETTINGS,
                         ids=[f"{c.__name__}.{n}" for c, n in INTEGER_SETTINGS])
def test_integer_setting_refuses_a_non_integer_by_name(config, name):
    """Built from Python, an integer setting refuses a bool, a float (an
    integral one too) and a string, naming the field; a numpy integer is
    accepted."""
    default = getattr(config(), name)
    entry = isinstance(default, tuple)   # conv_fields: check its first entry
    first = default[0] if entry else default

    def with_value(v):
        return {name: (v, *default[1:]) if entry else v}

    for bad in (True, float(first), first + 0.5, str(first)):
        with pytest.raises(CONFIG_ERRORS[config], match=re.escape(name)):
            config(**with_value(bad))
    assert getattr(config(**with_value(np.int64(first))), name) == default


# ---------------------------------------------------------------------------
# train / eval / plotdata.
# ---------------------------------------------------------------------------

def train_args(tmp_path, seed, extra=(), env=("carflag1d", "--half-size", "5")):
    return ["train", "--env", *env, "--agent", "equi",
            "--steps", "400", "--eval-interval", "200", "--eval-episodes", "2",
            "--lstm-fields", "2", "--head-fields", "2",
            "--seed", str(seed), "--out", str(tmp_path / f"run{seed}"), *extra]


def test_train_writes_curve_manifest_checkpoints(tmp_path, capsys):
    code = run_cli(*train_args(tmp_path, 0))
    assert code == 0
    run_dir = tmp_path / "run0"
    assert (run_dir / "curve.csv").exists()
    assert (run_dir / "manifest.ini").exists()
    assert (run_dir / "best.ckpt").exists()
    assert (run_dir / "final.ckpt").exists()
    lines = (run_dir / "curve.csv").read_text().splitlines()
    assert lines[0].startswith("step,episodes,success_rate")
    assert len(lines) >= 2


def test_train_rerun_same_seed_identical_curve(tmp_path):
    assert run_cli(*train_args(tmp_path, 3)) == 0
    first = (tmp_path / "run3" / "curve.csv").read_bytes()
    assert run_cli(*train_args(tmp_path, 3)) == 0
    assert (tmp_path / "run3" / "curve.csv").read_bytes() == first


def test_manifest_reproduces_configs(tmp_path):
    run_cli(*train_args(tmp_path, 1))
    env_cfg, agent_cfg, run = read_manifest(tmp_path / "run1" / "manifest.ini")
    assert isinstance(env_cfg, CarFlag1dConfig) and env_cfg.half_size == 5
    assert agent_cfg.total_steps == 400 and agent_cfg.seed == 1
    assert run["group"] == "reflection2"


def test_eval_from_manifest(tmp_path, capsys):
    run_cli(*train_args(tmp_path, 2))
    code = run_cli("eval", "--run", str(tmp_path / "run2"), "--episodes", "4",
                   "--greedy")
    assert code == 0
    out = capsys.readouterr().out
    assert "success_rate=" in out


def test_eval_dump_trace_is_one_whole_reproducible_episode(tmp_path, capsys):
    """One line per step, on 1D and on a 5x5 run alike: a 5x5 observation
    holds 50 values, more than fit on a default numpy line."""
    for domain, extra, env in (("1d", (), ("carflag1d", "--half-size", "5")),
                               ("2d", ("--conv-fields", "2"), ("carflag2d", "--grid-size", "5"))):
        root = tmp_path / domain
        assert run_cli(*train_args(root, 4, extra, env)) == 0, domain
        traces = []
        for name in ("a.txt", "b.txt"):
            assert run_cli("eval", "--run", str(root / "run4"), "--episodes", "2",
                           "--seed", "6", "--dump-trace", str(root / name)) == 0
            assert f"trace written to {root / name}" in capsys.readouterr().out
            traces.append((root / name).read_bytes())
        assert traces[0] == traces[1], domain
        lines = traces[0].decode().splitlines()
        assert lines[0].startswith("reset obs="), domain
        assert all(line.startswith(f"t={t} ") for t, line in enumerate(lines[1:])), domain
        assert "term=True" in lines[-1] or "trunc=True" in lines[-1]
        assert not any("term=True" in line or "trunc=True" in line for line in lines[1:-1])


def test_plotdata_single_and_multiple(tmp_path, capsys):
    for seed in (4, 5):
        run_cli(*train_args(tmp_path, seed))
    out = tmp_path / "agg.csv"
    code = run_cli("plotdata", str(tmp_path / "run4"), "--out", str(out))
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "step,success_rate_mean,success_rate_std,n_seeds"
    for line in rows[1:]:
        assert line.endswith(",0,1")  # single seed: std 0

    code = run_cli("plotdata", str(tmp_path / "run4"), str(tmp_path / "run5"),
                   "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines()[1].endswith(",2")


def test_plotdata_identical_curves_zero_std(tmp_path):
    run_cli(*train_args(tmp_path, 6))
    curve = tmp_path / "run6" / "curve.csv"
    out = tmp_path / "agg.csv"
    code = run_cli("plotdata", str(curve), str(curve), str(curve), str(curve),
                   "--out", str(out))
    assert code == 0
    for line in out.read_text().splitlines()[1:]:
        step, mean, std, n = line.split(",")
        assert std == "0" and n == "4"


def test_plotdata_hand_built_fixture(tmp_path):
    from equipomdp.agent import CURVE_HEADER
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(CURVE_HEADER + "\n100,1,0.25,0,0,0,0,0\n200,2,0.5,0,0,0,0,0\n")
    b.write_text(CURVE_HEADER + "\n100,1,0.75,0,0,0,0,1\n200,2,1.0,0,0,0,0,1\n")
    out = tmp_path / "agg.csv"
    assert run_cli("plotdata", str(a), str(b), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    s1 = lines[1].split(",")
    assert float(s1[1]) == pytest.approx(0.5)       # mean of 0.25, 0.75
    assert float(s1[2]) == pytest.approx(0.25)      # population std
    s2 = lines[2].split(",")
    assert float(s2[1]) == pytest.approx(0.75)
    assert float(s2[2]) == pytest.approx(0.25)


def test_plotdata_mismatched_grids_fails(tmp_path, capsys):
    from equipomdp.agent import CURVE_HEADER
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(CURVE_HEADER + "\n100,1,0.25,0,0,0,0,0\n")
    b.write_text(CURVE_HEADER + "\n150,1,0.75,0,0,0,0,1\n")
    out = tmp_path / "agg.csv"
    assert run_cli("plotdata", str(a), str(b), "--out", str(out)) == 2
    assert "mismatched" in capsys.readouterr().err


@pytest.mark.parametrize("body, message", [
    pytest.param("", "line 1 is not the curve file header", id="empty"),
    pytest.param("step,success\n", "line 1 is not the curve file header", id="bad-header"),
    pytest.param("{header}\n100,1,0.25,0,0,0,0,0\n200,2\n", "line 3: expected a step",
                 id="short-row"),
    pytest.param("{header}\n100,1,x,0,0,0,0,0\n", "line 2: expected a step",
                 id="malformed-number"),
])
def test_plotdata_malformed_curve_file_fails(tmp_path, capsys, body, message):
    from equipomdp.agent import CURVE_HEADER
    curve = tmp_path / "a.csv"
    curve.write_text(body.format(header=CURVE_HEADER))
    assert run_cli("plotdata", str(curve), "--out", str(tmp_path / "agg.csv")) == 2
    err = capsys.readouterr().err
    assert f"{curve}: {message}" in err
    assert not (tmp_path / "agg.csv").exists()


def test_failed_rewrite_leaves_tables_and_manifest_whole(tmp_path, monkeypatch):
    tables, manifest = tmp_path / "model.tables", tmp_path / "manifest.ini"
    save_tables(tables, random_pomdp(np.random.default_rng(0), 3, 2, 2))
    args = build_parser().parse_args(["train", "--env", "carflag1d", "--half-size", "5"])
    env_cfg, agent_cfg, run = build_configs(args)
    write_manifest(manifest, env_cfg, agent_cfg, run)
    before = tables.read_bytes(), manifest.read_bytes()

    def crash(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        save_tables(tables, random_pomdp(np.random.default_rng(1), 4, 2, 3))
    with pytest.raises(OSError, match="simulated crash"):
        write_manifest(manifest, CarFlag1dConfig(half_size=7), agent_cfg, run)
    assert (tables.read_bytes(), manifest.read_bytes()) == before


# ---------------------------------------------------------------------------
# verify / oracle.
# ---------------------------------------------------------------------------

def test_verify_invariance_symmetric_passes(capsys):
    code = run_cli("verify", "invariance", "--env", "carflag2d", "--grid-size", "3")
    assert code == 0
    assert "passed=True" in capsys.readouterr().out


def test_verify_invariance_offset_fails(capsys):
    code = run_cli("verify", "invariance", "--env", "carflag2d", "--grid-size", "3",
                   "--offset", "1")
    assert code == 1
    assert "violation" in capsys.readouterr().out


def test_verify_belief_suite(capsys):
    code = run_cli("verify", "lemma1", "--env", "carflag2d", "--grid-size", "3",
                   "--depth", "3")
    assert code == 0
    out = capsys.readouterr().out
    assert "belief-invariance" in out and "passed=True" in out
    assert re.search(r"solved \d+ histories in \d+ belief classes: solve [\d.]+s, "
                     r"check [\d.]+s", out)


def test_verify_value_suite_and_offset_witness(capsys):
    code = run_cli("verify", "theorem1", "--env", "carflag2d", "--grid-size", "3",
                   "--horizon", "4")
    assert code == 0
    out = capsys.readouterr().out
    assert "value-invariance" in out and "passed=True" in out
    assert "belief classes" in out

    code = run_cli("verify", "theorem1", "--env", "carflag2d", "--grid-size", "3",
                   "--horizon", "4", "--offset", "1")
    assert code == 1
    out = capsys.readouterr().out
    assert "passed=False" in out
    assert ("worst case" in out) or ("missing transformed" in out)


def test_verify_equivariance_small(capsys):
    code = run_cli("verify", "equivariance", "--networks", "4", "--histories", "2",
                   "--max-len", "10")
    assert code == 0
    assert "passed=True" in capsys.readouterr().out


def test_verify_equivariance_random_init_fails(capsys):
    code = run_cli("verify", "equivariance", "--networks", "4", "--histories", "2",
                   "--max-len", "10", "--lstm-init", "random")
    assert code == 1
    assert "passed=False" in capsys.readouterr().out


@pytest.mark.parametrize("flag, name", [
    ("--networks", "networks"), ("--histories", "histories"), ("--max-len", "max_len")])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_equivariance_refuses_a_check_of_nothing(capsys, flag, name, value):
    """No network, no history or empty histories would check nothing: the
    suite refuses the value by name and exits 1 rather than pass."""
    argv = {"--networks": "2", "--histories": "1", "--max-len": "3", flag: value}
    code = run_cli("verify", "equivariance", *(x for kv in argv.items() for x in kv))
    out, err = capsys.readouterr()
    assert code == 1 and "passed=" not in out
    assert f"{name} must be at least 1, got {value}" in err


def test_verify_gradcheck(capsys):
    code = run_cli("verify", "gradcheck")
    assert code == 0
    out = capsys.readouterr().out
    for case in ("a2c_loss", "tied", "segment_loss"):   # the fused nodes and the agent's loss
        assert f"gradcheck {case}: " in out, case


def test_verify_unknown_suite(capsys):
    assert run_cli("verify", "banana") == 2


@pytest.mark.parametrize("call, argv, code, message", [
    pytest.param(lambda m, b: exact_q(m, -1), ("oracle", "--horizon", "-1"), 2,
                 "horizon must be at least", id="oracle-horizon-negative"),
    pytest.param(None, ("oracle", "--horizon", "0"), 2, "horizon must be at least 1",
                 id="oracle-horizon-zero"),
    pytest.param(None, ("oracle", "--episodes", "0"), 2, "episodes must be at least 1, got 0",
                 id="oracle-episodes-zero"),
    pytest.param(lambda m, b: exact_q(m, 2, node_budget=0),
                 ("oracle", "--node-budget", "0"), 1,
                 "node_budget must be at least 1, got 0", id="oracle-budget-zero"),
    pytest.param(lambda m, b: verify_value_invariance(m, b, 0),
                 ("verify", "theorem1", "--horizon", "0"), 1,
                 "horizon must be at least 1, got 0", id="theorem1-horizon-zero"),
    pytest.param(lambda m, b: verify_value_invariance(m, b, -1),
                 ("verify", "theorem1", "--horizon", "-1"), 1,
                 "horizon must be at least 1, got -1", id="theorem1-horizon-negative"),
    pytest.param(lambda m, b: verify_belief_invariance(m, b, -1),
                 ("verify", "lemma1", "--depth", "-1"), 1,
                 "depth must be at least 0, got -1", id="lemma1-depth-negative"),
])
def test_invalid_oracle_inputs_are_refused(tmp_path, monkeypatch, capsys,
                                           call, argv, code, message):
    monkeypatch.chdir(tmp_path)
    if call is not None:
        pomdp, binding, _ = export_pomdp(CarFlag2dConfig(grid_size=3))
        with pytest.raises(PomdpError, match=re.escape(message)):
            call(pomdp, binding)
    assert run_cli(*argv, "--env", "carflag2d", "--grid-size", "3") == code
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []   # a refused oracle writes nothing


def test_oracle_smoke(tmp_path, capsys):
    code = run_cli("oracle", "--env", "carflag2d", "--grid-size", "3",
                   "--horizon", "6", "--episodes", "50", "--out", str(tmp_path / "o"))
    assert code == 0
    out = capsys.readouterr().out
    assert "greedy success" in out and "1.000" in out
    assert (tmp_path / "o" / "model.tables").exists()
    qtable = (tmp_path / "o" / "qtable.txt").read_text().splitlines()
    assert qtable[:2] == ["equipomdp-qtable 2", "horizon 6"]
    rows = [line for line in qtable if line.startswith("class ")]
    assert rows[0].startswith("class 0 0 ") and len(rows) == int(re.search(
        r"in (\d+) belief classes", out).group(1))
    assert all(len(line.split()) == 7 for line in qtable if line.startswith("edge "))
    report = (tmp_path / "o" / "oracle_report.txt").read_text()
    assert "greedy_success_rate=1.0" in report


@pytest.mark.parametrize("argv, horizon", [
    pytest.param(("--env", "carflag2d", "--grid-size", "3"), 6, id="3x3-h6"),
    pytest.param(("--env", "carflag1d", "--half-size", "10"), 20, id="1d-half10-h20"),
])
def test_oracle_qtable_is_the_per_class_reference_text(tmp_path, argv, horizon):
    """``qtable.txt`` holds, byte for byte, the classes of the one-class-at-a-time
    solver on the written tables: depth by depth, each class's first history
    and ``%.12g`` Q row, then its edges in children order. Every sampled
    class passes the Bellman spot-check with no residual."""
    out = tmp_path / "o"
    assert run_cli("oracle", *argv, "--horizon", str(horizon), "--episodes", "5",
                   "--out", str(out)) == 0
    pomdp = load_tables(out / "model.tables")
    lines = ["equipomdp-qtable 2", f"horizon {horizon}", "discount %.17g" % pomdp.discount]
    for depth, level in enumerate(reference_class_q(pomdp, horizon).classes):
        for c, cls in enumerate(level):
            q = "" if cls.q is None else " ".join("%.12g" % v for v in cls.q)
            lines.append(f"class {depth} {c} {','.join(map(str, cls.first))}|{q}")
            lines.extend("edge %d %d %d %d %.17g %d" % (depth, c, a, o, p, child)
                         for (a, o), (p, child) in cls.children.items())
    assert (out / "qtable.txt").read_text() == "\n".join(lines) + "\n"
    report = (out / "oracle_report.txt").read_text().splitlines()
    assert report[1] == "bellman_spot_check=0.000000e+00"


def test_oracle_writes_no_file_when_the_greedy_play_fails(tmp_path, capsys):
    """A horizon shorter than the greedy episodes fails in the play, after
    the solve and the spot-check; no file is written before all three
    pass."""
    out = tmp_path / "o"
    code = run_cli("oracle", "--env", "carflag2d", "--grid-size", "5", "--horizon", "3",
                   "--out", str(out))
    assert code == 1
    assert ("observation 11 at step 3 is outside the tree solved to horizon 3"
            in capsys.readouterr().err)
    assert not list(out.rglob("*"))


def test_oracle_budget_exceeded(tmp_path, capsys):
    code = run_cli("oracle", "--env", "carflag2d", "--grid-size", "3",
                   "--horizon", "6", "--node-budget", "50",
                   "--out", str(tmp_path / "o2"))
    assert code == 1
    assert "budget" in capsys.readouterr().err
