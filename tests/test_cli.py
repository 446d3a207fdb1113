"""Command line interface: exit codes, artifacts, determinism."""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebsde import bsde, cli, estimates, reflected
from treebsde.processes import PredictableProcess
from treebsde.cli import (
    ConfigError,
    default_config,
    load_config,
    main,
    parse_config,
    tree_from_config,
)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfig:
    def test_default_config_builds(self):
        tree = tree_from_config(parse_config(default_config()))
        assert tree.n_steps == 6

    def test_missing_field_diagnostic(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"version": 1, "tree": {"horizon": 1.0}}')
        cfg = load_config(str(p))
        with pytest.raises(ConfigError, match="n_steps"):
            parse_config(cfg)

    def test_wrong_type_diagnostic(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"version": 1, "tree": {"horizon": 1.0, "n_steps": "six"}}')
        with pytest.raises(ConfigError, match="n_steps"):
            parse_config(load_config(str(p)))

    def test_not_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("horizon: 1.0")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_unknown_version(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"version": 99}')
        with pytest.raises(ConfigError, match="version"):
            parse_config(load_config(str(p)))


_DELETE = object()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)
_GENERATOR = st.fixed_dictionaries(
    {"kind": st.sampled_from(["affine", "polynomial-clipped", "table", "other"])},
    optional={key: st.floats(-3, 3) | st.lists(st.floats(-1, 1), max_size=7) | _JSON
              for key in ("lam", "eta", "g0", "l_y", "l_z", "bound", "values")})
# every field of the default config, the optional ones it leaves out, and a new key per object
_CONFIG_PATHS = ([(key,) for key in cli.CONFIG] + [("tree", key) for key in cli.TREE]
                 + [("family", key) for key in cli.FAMILY]
                 + [("counterexample", key) for key in cli.CONFIG["counterexample"].kind]
                 + [("norms", 0, key) for key in ("p", "alpha")]
                 + [("tree", "reveals", 0, key) for key in ("time", "labels", "probs")]
                 + [path + ("extra",) for path in [(), ("tree",), ("family",), ("norms", 0)]])


class TestConfigFuzz:
    """The config parse returns a checked config or raises ConfigError, whatever the JSON."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_JSON)
    def test_any_json(self, raw):
        try:
            parse_config(raw)
        except ConfigError:
            pass

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.sampled_from(_CONFIG_PATHS), st.one_of(st.just(_DELETE), _JSON, _GENERATOR))
    def test_mutated_default(self, path, value):
        cfg = default_config()
        target = cfg
        for key in path[:-1]:
            target = target[key]
        if value is not _DELETE:
            target[path[-1]] = value
        elif path[-1] in target:
            del target[path[-1]]
        try:
            parse_config(cfg)
        except ConfigError:
            pass


class TestExitCodes:
    # each case merges `fields` into one section of the default config; the
    # last field named is the one the diagnostic must name
    @pytest.mark.parametrize("section,fields,command", [
        ("tree", {"d": "two"}, ["solve"]),
        ("family", {"count": "x"}, ["verify", "--suite", "apriori"]),
        ("counterexample", {"eps": -1}, ["counterexample"]),
        ("counterexample", {"dt": 0.0}, ["counterexample"]),
        ("counterexample", {"horizon": -0.5}, ["counterexample"]),
        ("counterexample", {"n_paths": 0}, ["counterexample"]),
        ("tree", {"d": True}, ["solve"]),
        ("family", {"count": True}, ["verify", "--suite", "apriori"]),
        ("family", {"count": 0}, ["verify", "--suite", "apriori"]),
        ("family", {"count": -3}, ["verify", "--suite", "apriori"]),
        ("family", {"l_y": -1}, ["verify", "--suite", "apriori"]),
        ("generator", {"kind": "polynomial-clipped", "l_y": 0.5, "l_z": -1}, ["solve"]),
        ("generator", {"kind": "polynomial-clipped", "l_y": 0.5, "l_z": 0.5, "bound": -1.0},
         ["solve"]),
        ("generator", {"kind": "polynomial-clipped", "l_y": 0.5, "l_z": 0.5, "bound": 0.0},
         ["solve"]),
        ("family", {"l_y": 50}, ["verify", "--suite", "apriori"]),
        ("generator", {"kind": "affine", "lam": 50}, ["solve"]),
        ("counterexample", {"dt": 2}, ["counterexample"]),
        ("counterexample", {"horizon": 0.1, "dt": 0.5}, ["counterexample"]),
        ("counterexample", {"horizon": 1.0, "dt": 0.3}, ["counterexample"]),
        ("generator", {"kind": "affine", "eta": [0.1, 0.2]}, ["solve"]),
        ("generator", {"kind": "table", "values": [0.1]}, ["solve"]),
        ("family", {"cuont": 3}, ["verify", "--suite", "apriori"]),
        ("tree", {"reveals": [{"time": 0.3, "labels": ["a", "b"], "probs": [0.5, 0.5]}]},
         ["counterexample"]),
        ("tree", {"reveals": [{"time": 0.5, "labels": ["a", "b"], "probs": [0.5, 0.6]}]},
         ["counterexample"]),
        ("tree", {"reveals": [{"time": 0.0, "labels": ["a", "b"], "probs": [0.5, 0.5]}]},
         ["counterexample"]),
        ("tree", {"node_cap": 100}, ["counterexample"]),
        # 2^22 sign patterns at the first step: refused before any is built
        ("tree", {"d": 22, "node_cap": 2**20}, ["solve"]),
    ], ids=["tree.d-string", "family.count-string", "counterexample.eps-negative",
            "counterexample.dt-zero", "counterexample.horizon-negative",
            "counterexample.n_paths-zero", "tree.d-bool", "family.count-bool",
            "family.count-zero", "family.count-negative", "family.l_y-negative",
            "generator.l_z-negative", "generator.bound-negative", "generator.bound-zero",
            "family.l_y-step-size", "generator.lam-step-size",
            "counterexample.dt-above-one", "counterexample.dt-above-horizon",
            "counterexample.dt-not-whole-steps",
            "generator.eta-length", "generator.values-length", "family.unknown-field",
            "tree.reveals-off-grid", "tree.reveals-bad-law", "tree.reveals-t0",
            "tree.node_cap-exceeded", "tree.d-beyond-node-cap"])
    def test_mistyped_field_exits_2(self, tmp_path, capsys, section, fields, command):
        cfg = default_config()
        cfg[section] = {**cfg.get(section, {}), **fields}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["--config", str(p), "--out", str(tmp_path / "out"), *command]) == 2
        assert f"config error: {section}.{list(fields)[-1]}: " in capsys.readouterr().err

    @pytest.mark.parametrize("reveals,diagnostic", [
        ([{"time": 0.5, "labels": ["a", "a"], "probs": [0.5, 0.5]}],
         "tree.reveals[0].labels: must be distinct"),
        ([{"time": 0.5, "labels": [["a"], "b"], "probs": [0.5, 0.5]}],
         "tree.reveals[0].labels[0]: expected str or int or float"),
        ([{"time": 0.5, "labels": ["a", "b"], "probs": [0.5, 0.5]},
          {"time": 0.5, "labels": ["c", "d"], "probs": [0.5, 0.5]}],
         "tree.reveals: two reveals at the same grid instant"),
    ], ids=["labels-duplicate", "label-not-scalar", "two-at-one-instant"])
    def test_reveal_rule_exits_2(self, tmp_path, capsys, reveals, diagnostic):
        cfg = default_config()
        cfg["tree"]["reveals"] = reveals
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["--config", str(p), "--out", str(tmp_path / "out"), "solve"]) == 2
        assert f"config error: {diagnostic}" in capsys.readouterr().err

    # configs whose every field is in range, each past a limit of the command it runs
    @pytest.mark.parametrize("cfg,command,diagnostic", [
        ({"tree": {"horizon": 8.0, "n_steps": 4}, "family": {"l_y": 0.1}}, "solve", "generator"),
        ({"tree": {"horizon": 8.0, "n_steps": 4}, "family": {"l_y": 0.1}}, "reflect", "generator"),
        ({"tree": {"horizon": 8.0, "n_steps": 4}, "family": {"l_y": 0.1}}, "picard", "generator"),
        ({"tree": {"horizon": 1.0, "n_steps": 13}}, "snell-check", "tree.n_steps"),
        ({"family": {"count": 2, "l_z": 3.0}}, "snell-check", "family.l_z"),
    ], ids=["default-driver-solve", "default-driver-reflect", "default-driver-picard",
            "snell-depth-cap", "snell-measure-change"])
    def test_command_limit_exits_2(self, tmp_path, capsys, cfg, command, diagnostic):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**default_config(), **cfg}))
        assert main(["--config", str(p), "--out", str(tmp_path / "out"), command]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {diagnostic}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cfg,command,error", [
        ({"generator": {"kind": "polynomial-clipped", "l_y": 5.9, "l_z": 8.0, "bound": 10.0}},
         "picard", "PicardDivergenceError"),
        ({"tree": {"horizon": 1e6, "n_steps": 4}, "family": {"count": 2, "l_y": 1e-7, "l_z": 1e-7},
          "generator": {"kind": "affine"}}, "verify", "OverflowError"),
    ], ids=["picard-unsettled", "verify-weight-overflow"])
    def test_run_error_exits_1_with_manifest(self, tmp_path, capsys, cfg, command, error):
        p, out = tmp_path / "cfg.json", tmp_path / "out"
        p.write_text(json.dumps({**default_config(), **cfg}))
        assert main(["--config", str(p), "--seed", "3", "--out", str(out), command]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and "Traceback" not in err
        manifest = json.loads(_read(out / "manifest.json"))
        assert (manifest["command"], manifest["seed"], manifest["failures"]) == (command, 3, [error])

    @pytest.mark.parametrize("seed", [1, 3])
    def test_slow_picard_contraction_settles(self, tmp_path, seed):
        """Driver changes that contract by about 0.82 per sweep reach PICARD_TOL after
        about 137 sweeps: the cap is sized from the ratio, not fixed at 100."""
        p, out = tmp_path / "cfg.json", tmp_path / "out"
        p.write_text(json.dumps({**default_config(), "generator": {
            "kind": "polynomial-clipped", "l_y": 5.0, "l_z": 5.0, "bound": 0.1}}))
        assert main(["--config", str(p), "--seed", str(seed), "--out", str(out), "picard"]) == 0
        (row,) = json.loads(_read(out / "reports.json"))["reports"]
        assert row["passed"] and row["lhs"] <= 1e-9
        assert row["details"]["iterations"] > 100

    @pytest.mark.parametrize("family,command", [
        ({"count": 2, "l_y": 5.9}, "verify"),
        ({"count": 2, "l_y": 5.9}, "snell-check"),
        ({"count": 2, "margin": -50.0}, "verify"),
    ], ids=["slow-inner-fixed-point-verify", "slow-inner-fixed-point-snell", "high-obstacle"])
    def test_hard_family_exits_0(self, tmp_path, family, command):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**default_config(), "family": family}))
        assert main(["--config", str(p), "--out", str(tmp_path / "out"), command]) == 0

    @pytest.mark.parametrize("extra", [
        {"generator": {"kind": "affine", "lam": 0.3, "eta": [0.2], "g0": 0.1}},
        {"generator": {"kind": "polynomial-clipped", "l_y": 0.5, "l_z": 0.5, "bound": 2.0}},
        {"generator": {"kind": "table", "values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]}},
        {"scheme": "explicit"},
    ], ids=["affine", "polynomial-clipped", "table", "explicit"])
    def test_generator_and_scheme_solve_exits_0(self, tmp_path, extra):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**default_config(), **extra}))
        assert main(["--config", str(p), "--out", str(tmp_path / "out"), "solve"]) == 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["--tol", tol, "--out", str(tmp_path / "out"), "solve"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["solve"], ["reflect"], ["picard"],
                                         ["verify", "--suite", "constants"], ["counterexample"],
                                         ["snell-check"]], ids=lambda c: c[0])
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_exits_2(self, tmp_path, capsys, command, seed):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", seed, "--out", str(tmp_path / "out"), *command])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_config_exits_2(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"version": 1, "tree": {"horizon": 1.0}}')
        code = main(["--config", str(p), "--out", str(tmp_path / "out"), "solve"])
        assert code == 2

    def test_solve_exits_0(self, tmp_path):
        code = main(["--seed", "5", "--out", str(tmp_path / "out"), "solve"])
        assert code == 0

    def test_parser_built_once_serves_every_call(self, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        runs = [("7", ["verify", "--suite", "constants"], "verify:constants"),
                ("4", ["solve"], "solve")]
        for seed, argv, _ in runs:
            assert main(["--seed", seed, "--out", str(tmp_path / seed), *argv]) == 0
        for seed, _, command in runs:
            manifest = json.loads(_read(tmp_path / seed / "manifest.json"))
            assert (manifest["seed"], manifest["command"]) == (int(seed), command)

    def test_verify_constants_exits_0(self, tmp_path):
        code = main(["--seed", "1", "--out", str(tmp_path / "out"),
                     "verify", "--suite", "constants"])
        assert code == 0


class TestArtifacts:
    def test_manifest_and_reports_written(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--seed", "2", "--out", str(out), "reflect"]) == 0
        names = sorted(os.listdir(out))
        assert names == ["manifest.json", "reports.csv", "reports.json"]
        manifest = json.loads(_read(out / "manifest.json"))
        assert manifest["seed"] == 2
        assert manifest["failures"] == []
        assert len(manifest["config_hash"]) == 64

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["--seed", "3", "--out", str(out),
                         "verify", "--suite", "meyer"]) == 0
        for name in ("manifest.json", "reports.csv", "reports.json"):
            assert _read(a / name) == _read(b / name)

    def test_reports_json_is_strict(self, tmp_path):
        # the constants suite has a row with rhs == 0 < lhs, whose ratio is infinite;
        # the apriori suite's empirical verdicts are numpy booleans
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        rows = []
        for suite in ("constants", "apriori"):
            out = tmp_path / suite
            assert main(["--seed", "1", "--out", str(out), "verify", "--suite", suite]) == 0
            rows += json.loads(_read(out / "reports.json"), parse_constant=reject)["reports"]
        assert None in [r["ratio"] for r in rows]
        assert "solution_norm_bound" in {r["inequality_id"] for r in rows}
        assert all(type(r["passed"]) is bool for r in rows)
        assert ",inf," in _read(tmp_path / "constants" / "reports.csv").decode()

    def test_verify_solves_each_instance_once(self, tmp_path, monkeypatch):
        """Every member is solved exactly once, in the family's one reflected sweep."""
        calls = []
        solo = cli.solve_reflected

        def counted(inst, *args, **kwargs):
            calls.extend(inst.gen.family)
            return solo(inst, *args, **kwargs)

        monkeypatch.setattr(cli, "solve_reflected", counted)
        cfg = default_config()
        cfg["family"]["count"] = 4
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--seed", "1", "--out", str(tmp_path / "out"),
                     "verify", "--suite", "all"]) == 0
        assert len(calls) == 4
        assert len({id(gen) for gen in calls}) == 4

    def test_push_built_once_per_solution(self, tmp_path, monkeypatch):
        """K (and with it M - K) is one running sum per solved instance: the
        benchmark's family pass, at family.count 10, builds it 10 times."""
        calls = []
        real = PredictableProcess.cumulative

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(PredictableProcess, "cumulative", counted)
        cfg = default_config()
        cfg["family"]["count"] = 10
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for seed, command in [(1, ["verify", "--suite", "all"]), (1, ["snell-check"]),
                              (1, ["picard"]), (2, ["picard"]), (3, ["picard"])]:
            assert main(["--config", str(path), "--seed", str(seed),
                         "--out", str(tmp_path / "out"), *command]) == 0
        assert len(calls) <= 10

    def test_free_solved_in_family_and_g0_built_once(self, tmp_path, monkeypatch):
        """The obstacle bound's free solutions come from one family sweep, never
        from a solo solve, and the family builds g0 once, one driver call per step: at
        family.count 10 the solo route made 10 free solves and 60 g0 builds, and a
        build per member 10."""
        free, g0 = [], []
        real_free, real_g0 = cli.solve_bsde, bsde.Generator.g0_process
        monkeypatch.setattr(cli, "solve_bsde",
                            lambda inst, *a, **kw: free.append(inst) or real_free(inst, *a, **kw))
        monkeypatch.setattr(bsde.Generator, "g0_process",
                            lambda gen, tree: g0.append(gen) or real_g0(gen, tree))
        cfg = default_config()
        cfg["family"]["count"] = 10
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--seed", "1", "--out", str(tmp_path / "out"),
                     "verify", "--suite", "all"]) == 0
        assert not hasattr(estimates, "solve_bsde")
        assert len(free) == 1 and len(free[0].gen.family) == 10
        assert len(g0) == 1 and g0[0] is free[0].gen

    def test_snell_check_builds_no_member_instance(self, tmp_path, monkeypatch):
        """snell-check solves and checks the family as one instance: the only
        ReflectedInstance it binds is the family's, whose members it never reads."""
        built = []
        real = reflected.ReflectedInstance.__post_init__
        monkeypatch.setattr(reflected.ReflectedInstance, "__post_init__",
                            lambda self: built.append(self) or real(self))
        assert main(["--seed", "1", "--out", str(tmp_path / "out"), "snell-check"]) == 0
        assert len(built) == 1 and len(built[0].gen.family) == 25
        assert "members" not in vars(built[0])

    @pytest.mark.parametrize("command,probes", [(["verify", "--suite", "all"], 4),
                                                (["picard"], 1)], ids=["verify", "picard"])
    def test_driver_checked_once_per_instance(self, tmp_path, monkeypatch, command, probes):
        """Each member generator is checked exactly once: alone, or by its family's
        one stacked check, and never again when its instance is bound."""
        calls = []
        real = bsde.check_lipschitz

        def counted(gen, tree):
            calls.extend(gen.members or (gen,))
            return real(gen, tree)

        monkeypatch.setattr(bsde, "check_lipschitz", counted)
        cfg = default_config()
        cfg["family"]["count"] = 4
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--seed", "1", "--out", str(tmp_path / "out"),
                     *command]) == 0
        assert len(calls) == probes
        assert len({id(gen) for gen in calls}) == probes

    @pytest.mark.parametrize("command", ["solve", "reflect", "picard"])
    def test_tree_validated(self, tmp_path, monkeypatch, command):
        trees = []
        monkeypatch.setattr(cli, "validate_tree", lambda tree: trees.append(tree) or {})
        assert main(["--seed", "1", "--out", str(tmp_path / "out"), command]) == 0
        assert len(trees) == 1

    # sha256 of (reports.json, reports.csv, manifest.json) at --seed 1 on the
    # default config; a refactor of the commands must leave every byte alone
    @pytest.mark.parametrize("command,digests", [
        (["solve"], ("d22eab8040ec60ca7233a76de2436edd113b685df01bd50c5bf4ea978a6e0249",
                     "3fe201d969afbc34a31585edf02e3210509ab4cfc6a50ce24924bc1cea75811c",
                     "35234ede4b4ff1ac6227588855a94542834e2b277c4a25e7213e437461bbd0df")),
        (["reflect"], ("67178d4da1780c0e23d6bb2c26ff9f70ab4c6ce77184465629ade46d57b3185f",
                       "3133299eb762383df6fdab5664ae462fd0401dcdce7d2a88924fcb978dc86788",
                       "e6781e0bbb14471c7670fd1fc6c24599aed359c5880b3899523c8ed9eb0ab4d8")),
        (["picard"], ("a3e8d0ca6c7fb22d6413942ccec1c167f0599321a9612520b2a5e0659da754d0",
                      "8842358348386529ead175fc44f4129c3eb8ab348eaf12900a6ac931073a02ce",
                      "48856579dd5d197e8129efd5a1fa42c795aa96adf2310a3eeb9d60256ba0ab22")),
        (["verify", "--suite", "all"],
         ("e3b0f887b4275895d4d7cf5f63f20b4dc316e124caf00d7f21904bee37239ee1",
          "0906f0745c886f36a02ce8beb7d05964ff5464d322de07ef47533c1064867c9e",
          "5ecc8f7fe60dd405b9ff6d3d78237bae5c0ed998af006a8a0e97da09fe64d62a")),
        (["snell-check"], ("767d9fb83b703712533dc0ecce387f46cb186a41eaef542dbb642f8099b8f5d5",
                           "b8b6e71023d365c28d117da7228fc515e3ecd65f4c0b959aa7177f96dfb16bf7",
                           "ee7b96f0e6d05dfdc302f9a64d7c9603910211bd1ee58e45cb9dd91327e89b23")),
    ], ids=["solve", "reflect", "picard", "verify", "snell-check"])
    def test_artifacts_pinned(self, tmp_path, command, digests):
        out = tmp_path / "out"
        assert main(["--seed", "1", "--out", str(out), *command]) == 0
        got = tuple(hashlib.sha256(_read(out / name)).hexdigest()
                    for name in ("reports.json", "reports.csv", "manifest.json"))
        assert got == digests

    def test_counterexample_artifacts(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1,
            "tree": {"horizon": 1.0, "n_steps": 4, "d": 1},
            "counterexample": {"eps": 0.1, "dt": 1e-3, "n_paths": 100},
        }))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--seed", "4", "--out", str(out),
                     "counterexample"]) == 0
        summary = json.loads(_read(out / "summary.json"))
        assert summary["passed"] is True
        with open(out / "paths.csv") as fh:
            assert len(fh.readlines()) == 101  # header + one row per path
        # every byte is pinned, as for the tree commands
        got = tuple(hashlib.sha256(_read(out / name)).hexdigest()
                    for name in ("summary.json", "paths.csv", "manifest.json"))
        assert got == ("c3be4a33ec396d674bea40b82b2a3709321b4b383b168aed7befb58e18db2faa",
                       "059312f08baa42421212de14ec6acdf48f487e5d96fa3a1fdbb10e5773da279f",
                       "49cf8001f3b693802af3a3734369666c028c03f791b242f1c1ceca7b929a0b85")
