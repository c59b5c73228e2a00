import json
import math
import re
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memkern import config as C
from memkern.config import (
    ConfigError,
    config_hash,
    parse_config,
    serialize_config,
)
from memkern import cli

ROOT = Path(__file__).parents[1]

MINIMAL = {
    "experiment": "kernels",
    "measure": {"atoms": [{"alpha": 0.5, "q": 1.0}],
                "weight": {"breaks": [], "values": []}},
}


def small_config(experiment="kernels", **overrides):
    data = {
        "experiment": experiment,
        "measure": {"atoms": [{"alpha": 0.5, "q": 1.0}],
                    "weight": {"breaks": [], "values": []}},
        "horizon": 1.0,
        "n_steps": 64,
        "params": {"seed": 0},
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_minimal_config_defaults(self):
        config = parse_config(MINIMAL)
        assert config.n_steps == 256
        assert config.horizon == 1.0
        assert config.params["delta"] == 0.5
        assert config.params["seed"] == 0

    def test_negative_mass_pointer(self):
        bad = dict(MINIMAL)
        bad["measure"] = {"atoms": [{"alpha": 0.5, "q": -1.0}]}
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert any(ptr == "/measure/atoms/0/q" for ptr, _ in err.value.violations)

    def test_harnack_p_bound(self):
        cfg = small_config("harnack")
        cfg["params"] = {"p": 2.0}  # critical exponent for gb=0.5, N=1 is 5/3
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        pointers = dict(err.value.violations)
        assert "/params/p" in pointers
        assert "critical exponent" in pointers["/params/p"]

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError) as err:
            parse_config(small_config("explode"))
        assert any(ptr == "/experiment" for ptr, _ in err.value.violations)

    def test_n_steps_floor(self):
        with pytest.raises(ConfigError) as err:
            parse_config(small_config(n_steps=8))
        assert any(ptr == "/n_steps" for ptr, _ in err.value.violations)

    def test_source_kind_must_be_constant(self):
        cfg = small_config("solve", params={"f": {"kind": "sine",
                                                  "value": 5.0}})
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert "/params/f/kind" in dict(err.value.violations)

    @pytest.mark.parametrize("n_yosida", [2.5, "abc", 0, True])
    def test_n_yosida_must_be_a_positive_integer(self, n_yosida):
        cfg = small_config("solve", params={"use_yosida": True,
                                            "n_yosida": n_yosida})
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert "/params/n_yosida" in dict(err.value.violations)
        # without use_yosida the value is never read
        cfg["params"]["use_yosida"] = False
        parse_config(cfg)

    @pytest.mark.parametrize("key, value", [
        ("n_members", 0), ("n_members", 2.5), ("n_members", True),
        ("seed", -1), ("seed", "x"), ("seed", 1.0)])
    def test_n_members_and_seed_must_be_integers(self, key, value):
        # refused here, not truncated by int() or left to numpy to reject
        cfg = small_config("harnack", params={"n_members": 3, "seed": 0,
                                              key: value})
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert list(dict(err.value.violations)) == [f"/params/{key}"]
        cfg["params"][key] = 1
        parse_config(cfg)

    @pytest.mark.parametrize("path, value, pointer", [
        ("params/n_member", 200, "/params/n_member"),
        ("n_members", 200, "/n_members"),
        ("grid/n_cell", [64], "/grid/n_cell"),
        ("params/r", "x", "/params/r"),
        ("params/theta", "x", "/params/theta"),
        ("params/levels", "x", "/params/levels"),
        ("params/u0", {"kind": "sine", "amplitude": "x"},
         "/params/u0/amplitude"),
        ("params/x0", [0.5, 0.5, 0.5], "/params/x0"),
        ("params/tau", 0, "/params/tau"),
        ("params/p", "x", "/params/p"),
        ("params/x0", 5.0, "/params/x0"),
        ("params/levels", [1, 1, 1], "/params/levels"),
    ])
    def test_harnack1d_probe_names_its_pointer(self, path, value, pointer):
        # each of these used to parse, or to fail later without a pointer
        data = json.loads((ROOT / "configs" / "harnack1d.json").read_text())
        *parents, last = path.split("/")
        node = data
        for key in parents:
            node = node[key]
        node[last] = value
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert [ptr for ptr, _ in err.value.violations] == [pointer]

    @pytest.mark.parametrize("name, key, value, pointer", [
        ("single05", "p_scaling", 5.0, "/params/p_scaling"),
        ("single05", "p_scaling", 2.0, "/params/p_scaling"),
        ("single05", "p_scaling", 1.99, None),
        ("harnack2d_checker", "x0", 1.5, "/params/x0"),
        ("harnack1d", "x0", -0.01, "/params/x0"),
        ("harnack1d", "x0", 0.95, None),  # a ball partly outside: accepted
        ("harnack1d", "x0", 1.0, None),
        ("smooth1d", "x1", 2.0, "/params/x1"),
        ("holder2d_checker", "x1", -1.0, "/params/x1"),
        ("smooth1d", "t1", 50.0, "/params/t1"),
        ("smooth1d", "t1", 0.0129, "/params/t1"),
        ("smooth1d", "t1", 0.0127, None),  # the horizon is 0.01280
        ("smooth1d", "t1", 1e-6, "/params/t1"),  # the first step is 5.0e-5
    ])
    def test_run_time_value_names_its_pointer(self, tmp_path, capsys, name,
                                              key, value, pointer):
        # values whose range depends on the measure or the grid; each of
        # these used to exit 1 from the run, without a pointer
        data = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        data["params"][key] = value
        if pointer is None:
            parse_config(data)
            return
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert [ptr for ptr, _ in err.value.violations] == [pointer]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert cli.main([data["experiment"], "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert pointer in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where, desc, name, new", [
        ("u0", {"kind": "constant"}, "value", 2.5),
        ("u0", {"kind": "sine"}, "amplitude", 3.0),
        ("u0", {"kind": "fourier"}, "member", 2),
        ("f", {"kind": "constant"}, "value", 0.5),
        ("boundary", {"type": "dirichlet"}, "value", 0.25),
    ])
    def test_nested_default_read_from_schema(self, tmp_path, monkeypatch,
                                             where, desc, name, new):
        # a run that omits the key follows a default moved in the table,
        # as one that sets the key to that value does
        def solution(desc, out):
            grid = {"extents": [[0.0, 1.0]], "n_cells": [16]}
            params = {"seed": 0}
            if where == "boundary":
                grid["boundary"] = [[desc, desc]]
            else:
                params[where] = desc
            config = parse_config(small_config("solve", n_steps=16,
                                               grid=grid, params=params))
            assert cli.run(config, out) == 0
            return (out / "solution.csv").read_bytes()

        table = C._SIDE if where == "boundary" else \
            C._SCHEMA["params"].type[where].type[desc["kind"]]
        monkeypatch.setitem(table, name, table[name]._replace(default=new))
        assert solution(desc, tmp_path / "omitted") == \
            solution({**desc, name: new}, tmp_path / "set")

    @pytest.mark.parametrize("name, digest", [
        ("corner2d", "643226d0bc50f99cc9f6ec94a02a2a28"
                     "780ac4f95268502135f3e8478a70f654"),
        ("edge005", "4ab75b899fcc6a6dba37e2f57ad451cf"
                    "10b1cc7982cd160dd42ffa0cde3b1c12"),
        ("edge099", "dff61fa62a146fe231a2a3076d7f05da"
                    "b67ed703997f10533c7e02435abf6565"),
        ("harnack1d", "c85d57e0805ccc1b8ce7c2bbb895e218"
                      "a9cbfc1148a83c8face43fa4e83d2664"),
        ("harnack2d_checker", "b364d9ead5b4024e6a7c2e73dd0a20a5"
                              "0ac52bf9e902948ddb766209a7b4bc3f"),
        ("holder2d_checker", "c695b14f82f30426a4ab814ae837aeae"
                             "29acc4539c2f3f325bab73a326643ddf"),
        ("ode05", "3b02528cfa84052632970a120fdf6666"
                  "46407d2075f9be0573dcf87f89d6934b"),
        ("single05", "bb2ed29d5ca2baf1e0a792414ecdd83f"
                     "e90dbc9ab818bf8df9cda3a08d8310ee"),
        ("smooth1d", "f615241911cb25ab583bf3712dc7fc74"
                     "6d5131d0ae5827aa4fcad76d36a1f45e"),
        ("twoatom", "d86aed54eebcc8d964258737930e081e"
                    "17c89b4a6a03de13c39d45883010d575"),
        ("uniform_weight", "ec1358e742b6ad90a699160abe33ca77"
                           "ab09ea4d6ee669ee281404a9278982f1"),
        ("yosida1d", "63479cd32e2840e53620f40fb7fe3605"
                     "e5365199ab9c277e96b6eb2fb296496c"),
    ])
    def test_shipped_config_hash_is_pinned(self, name, digest):
        # a default that moves in the schema changes the hash of every
        # config that leaves its key out
        config = parse_config(str(ROOT / "configs" / f"{name}.json"))
        assert config_hash(config) == digest

    def test_unread_keys(self, tmp_path):
        # listed, not refused: a harnack run takes its horizon from the
        # cylinders, and verify runs on no grid
        harnack = parse_config(str(ROOT / "configs" / "harnack1d.json"),
                               n_steps=32)
        assert harnack.unread_keys == ("/horizon",)
        assert cli.run(harnack, tmp_path / "harnack") == 0
        manifest = json.loads((tmp_path / "harnack" / "manifest.json")
                              .read_text())
        assert manifest["unread_keys"] == ["/horizon"]
        config = parse_config(small_config("verify", grid={
            "extents": [[0.0, 1.0]], "n_cells": [16]}))
        assert config.unread_keys == ("/grid",)
        assert cli.run(config, tmp_path / "verify") == 0
        manifest = json.loads((tmp_path / "verify" / "manifest.json")
                              .read_text())
        assert manifest["unread_keys"] == ["/grid"]
        # n_yosida is read only with use_yosida; seed is read by every run
        config = parse_config(small_config(
            "solve", params={"n_yosida": 8, "use_yosida": False, "seed": 1}))
        assert config.unread_keys == ("/params/n_yosida",)

    def test_ode_lambda_unread_on_a_grid(self, tmp_path):
        # ode_lambda is the reaction rate of a solve without a grid: on a
        # grid it is listed and the solution does not move
        data = json.loads((ROOT / "configs" / "yosida1d.json").read_text())
        plain = parse_config(data)
        data["params"]["ode_lambda"] = 50.0
        config = parse_config(data)
        assert plain.unread_keys == ()
        assert config.unread_keys == ("/params/ode_lambda",)
        for name, cfg in (("plain", plain), ("lambda", config)):
            assert cli.run(cfg, tmp_path / name) == 0
        manifest = json.loads((tmp_path / "lambda" / "manifest.json")
                              .read_text())
        assert manifest["unread_keys"] == ["/params/ode_lambda"]
        assert ((tmp_path / "plain" / "solution.csv").read_bytes()
                == (tmp_path / "lambda" / "solution.csv").read_bytes())

    def test_readme_table_names_the_schema_keys(self):
        def pointers(key, ptr):
            # every key of the schema below ``key``, "*" for an array index
            if isinstance(key.type, list):
                yield ptr + "/*"
                yield from pointers(key.type[0], ptr + "/*")
            elif isinstance(key.type, C._Kinds):
                yield ptr + "/kind"
                for table in key.type.values():
                    yield from pointers(C.Key(table), ptr)
            elif isinstance(key.type, dict):
                for name, sub in key.type.items():
                    yield f"{ptr}/{name}"
                    yield from pointers(sub, f"{ptr}/{name}")

        schema = set(pointers(C.Key(C._SCHEMA), ""))
        readme = (ROOT / "README.md").read_text()
        rows = re.findall(r"^\| `(/[^`]*)` \|", readme, flags=re.M)
        assert len(rows) == len(set(rows))
        assert set(rows) == schema

    def test_readme_configs_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert blocks
        for block in blocks:
            parse_config(block)

    def test_bad_json_text(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")
        with pytest.raises(ConfigError) as err:
            parse_config("[1, 2]")
        assert "/" in dict(err.value.violations)

    @pytest.mark.parametrize("experiment, pointer, literal", [
        ("harnack", "/grid/boundary/0/0/value", "NaN"),
        ("holder", "/grid/boundary/0/1/value", "NaN"),
        ("solve", "/params/u0/value", "NaN"),
        ("solve", "/params/f/value", "-Infinity"),
        ("verify", "/horizon", "Infinity"),
        ("kernels", "/measure/atoms/0/q", "1e999"),
    ])
    def test_non_finite_number_refused(self, tmp_path, capsys, experiment,
                                       pointer, literal):
        # Python's json reads these literals; a NaN Dirichlet value used to
        # give NaN ratios with all_finite true, and an infinite horizon passed
        data = small_config(experiment, grid={
            "extents": [[0.0, 1.0]], "n_cells": [16],
            "boundary": [[{"type": "dirichlet", "value": 0.0}
                          for _ in range(2)]]})
        data["params"].update(u0={"kind": "constant", "value": 1.0},
                              f={"kind": "constant", "value": 0.0})
        *path, last = pointer[1:].split("/")
        node = data
        for key in path:
            node = node[int(key) if isinstance(node, list) else key]
        node[int(last) if isinstance(node, list) else last] = "@"
        text = json.dumps(data).replace('"@"', literal)
        for source in (text, json.loads(text)):
            with pytest.raises(ConfigError) as err:
                parse_config(source)
            assert err.value.violations == [(pointer, "must be a finite number")]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli.main([experiment, "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert pointer in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_json_text_and_path(self, tmp_path):
        text = json.dumps(small_config())
        from_text = parse_config(text)
        path = tmp_path / "c.json"
        path.write_text(text)
        from_path = parse_config(str(path))
        assert from_text == from_path

    def test_unknown_boundary_type_pointer(self):
        cfg = small_config("holder", grid={
            "extents": [[0.0, 1.0]], "n_cells": [64],
            "boundary": [[{"type": "dirichlet", "value": 0.0},
                          {"type": "dirichelt"}]]})
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        pointers = dict(err.value.violations)
        assert "dirichelt" in pointers["/grid/boundary/0/1/type"]

    @pytest.mark.parametrize("coefficients, pointer, grid_cells", [
        ({"kind": "checkerboard", "low": 0.1, "period": 0.25}, "high", 8),
        ({"kind": "checkerboard", "low": "0.1", "high": 1.0, "period": 0.25},
         "low", 8),
        ({"kind": "checkerboard", "low": 0.1, "high": 1.0, "period": -0.25},
         "period", 8),
        ({"kind": "checkerboard", "low": True, "high": 1.0, "period": 0.25},
         "low", 8),
        ({"kind": "spotted"}, "kind", 8),
        ({"kind": "table"}, "values", 8),
        ({"kind": "table", "values": [1.0] * 7}, "values", 8),
        ({"kind": "table", "values": [1.0] * 7 + [0.0]}, "values", 8),
        ({"kind": "table", "values": [1.0] * 8, "lam": -1.0}, "lam", 8),
        ({"kind": "constant", "matrix": [[1.0, 0.5], [0.0, 1.0]]}, "matrix",
         (8, 8)),
        ({"kind": "constant", "matrix": [[1.0]]}, "matrix", (8, 8)),
        ({"kind": "constant", "matrix": [[-1.0]]}, "matrix", 8),
        ({"kind": "constant", "matrix": [[1.0]], "nu": "x"}, "nu", 8),
        ({"kind": "constant", "matrix": [[2.0, 0.5], [0.5, 1.0]]}, "matrix",
         (8, 8)),
        ({"kind": "constant", "lam": 2.0}, "lam", 8),
        ({"kind": "constant", "nu": 0.5}, "nu", 8),
        ({"kind": "checkerboard", "low": 0.1, "high": 1.0, "period": 0.25,
          "lam": 1.0}, "lam", 8),
        ({"kind": "table", "values": [1.0] * 8, "nu": None}, "nu", 8),
        ([1.0], "", 8),
    ])
    def test_coefficient_pointers(self, coefficients, pointer, grid_cells):
        cells = list(np.atleast_1d(grid_cells))
        cfg = small_config("holder", coefficients=coefficients, grid={
            "extents": [[0.0, 1.0]] * len(cells), "n_cells": cells})
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        pointers = dict(err.value.violations)
        assert list(pointers) == [f"/coefficients/{pointer}".rstrip("/")]

    def test_valid_coefficients_pass(self):
        for coefficients, cells in (
                ({"kind": "checkerboard", "low": 0.1, "high": 10,
                  "period": 0.25}, [8, 8]),
                ({"kind": "table", "values": [[1.0] * 4] * 3}, [3, 4]),
                ({"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 1.0]]},
                 [8, 8]),
                ({"kind": "constant"}, [8])):
            cfg = small_config("holder", coefficients=coefficients, grid={
                "extents": [[0.0, 1.0]] * len(cells), "n_cells": cells})
            config = parse_config(cfg)
            config.coefficients(config.grid())

    @pytest.mark.parametrize("measure,pointer", [
        ({"atoms": [{"alpha": 0.3, "q": 1.0}, {"alpha": 1.2, "q": 1.0}]},
         "/measure/atoms/1/alpha"),
        ({"atoms": [{"alpha": 0.6, "q": 1.0}, {"alpha": 0.4, "q": 1.0}]},
         "/measure/atoms/1/alpha"),
        ({"atoms": [{"alpha": "0.5", "q": 1.0}]}, "/measure/atoms/0/alpha"),
        ({"atoms": [{"alpha": 0.5}]}, "/measure/atoms/0/q"),
        ({"weight": {"breaks": [0.0, 0.6, 0.4], "values": [1.0, 1.0]}},
         "/measure/weight/breaks/2"),
        ({"weight": {"breaks": [0.0, 1.0], "values": [-1.0]}},
         "/measure/weight/values/0"),
        ({"weight": {"breaks": [0.0, 1.0], "values": []}}, "/measure/weight"),
        ({"atoms": [{"alpha": 0.5, "q": 1.0}], "gamma_slack": 2.0},
         "/measure/gamma_slack"),
        ({"atoms": [{"alpha": 0.5, "q": 0.0}]}, "/measure"),
        ({"atoms": [{"alpha": 0.5, "q": 1.0}], "gamma_slack": "x"},
         "/measure/gamma_slack"),
        ({"atoms": [{"alpha": 0.5, "q": 1.0}], "weight": [1, 2]},
         "/measure/weight"),
        ({"atoms": {"alpha": 0.5, "q": 1.0}}, "/measure/atoms"),
        ({"weight": {"breaks": 0.5, "values": [1.0]}},
         "/measure/weight/breaks"),
        ({"atoms": [{"alpha": 0.5, "q": 1.0}], "gama_slack": 0.01},
         "/measure/gama_slack"),
    ], ids=["range", "order", "string", "missing", "breaks", "density",
            "shape", "slack", "zero", "slack_type", "weight_type",
            "atoms_type", "breaks_type", "misspelt_key"])
    def test_measure_violation_pointers(self, measure, pointer):
        with pytest.raises(ConfigError) as err:
            parse_config(small_config(measure=measure))
        assert [ptr for ptr, _ in err.value.violations] == [pointer]

    @pytest.mark.parametrize("experiment", ["harnack", "holder"])
    def test_empty_grid_rejected(self, experiment):
        with pytest.raises(ConfigError) as err:
            parse_config(small_config(experiment, grid={}))
        assert "/grid" in dict(err.value.violations)

    @pytest.mark.parametrize("experiment,grid,u0,ok", [
        ("solve", None, {"kind": "constant", "value": 2.0}, True),
        ("solve", None, {"kind": "sine", "amplitude": 3.0}, False),
        ("solve", None, {"kind": "fourier"}, False),
        ("solve", None, {"kind": "bogus"}, False),
        ("solve", {"extents": [[0.0, 1.0]], "n_cells": [8]},
         {"kind": "bogus"}, False),
        ("holder", None, {"kind": "bogus"}, False),
        ("holder", None, {"kind": "fourier"}, True),
    ])
    def test_u0_kind_checked_on_every_grid(self, experiment, grid, u0, ok):
        overrides = {"params": {"u0": u0, "seed": 0}}
        if grid is not None:
            overrides["grid"] = grid
        cfg = small_config(experiment, **overrides)
        if ok:
            parse_config(cfg)
            return
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert "/params/u0/kind" in dict(err.value.violations)

    def test_round_trip(self):
        config = parse_config(small_config("holder", grid={
            "extents": [[0.0, 1.0]], "n_cells": [64],
            "boundary": [[{"type": "dirichlet", "value": 0.0},
                          {"type": "neumann_zero"}]]}))
        again = parse_config(json.loads(serialize_config(config)))
        assert again == config
        assert config_hash(again) == config_hash(config)


class TestRunners:
    @pytest.mark.parametrize("experiment,params,files", [
        ("kernels", {"seed": 0},
         ["kernel_k.csv", "kernel_k1.csv", "kernel_one_star_k.csv",
          "kernel_l.csv", "kernel_r_theta.csv"]),
        ("verify", {"seed": 0},
         ["certificates.csv", "scaling.csv", "report.json"]),
        ("solve", {"seed": 0}, ["solution.csv"]),
        ("harnack", {"r": 0.4, "x0": 0.5, "p": 1.0, "n_members": 2,
                     "seed": 1}, ["harnack.csv", "report.json"]),
        ("holder", {"r": 0.2, "eta": 0.25, "theta": 1.0, "x1": 0.4,
                    "levels": [1, 2, 3], "seed": 0},
         ["oscillation.csv", "report.json"]),
    ])
    def test_manifest_lists_every_file_written(self, tmp_path, experiment,
                                               params, files):
        config = parse_config(small_config(experiment, n_steps=32,
                                           params=params))
        assert cli.run(config, tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["files"] == files
        assert math.isfinite(manifest["write_time"])
        assert manifest["write_time"] >= 0.0
        assert isinstance(manifest["repr_cells"], int)
        assert manifest["repr_cells"] >= 0
        assert sorted(manifest["files"]) == sorted(
            p.name for p in tmp_path.iterdir() if p.name != "manifest.json")

    def test_failed_run_writes_no_artifact(self, tmp_path, monkeypatch):
        # the certificates used to be written before a later check raised
        def broken(*args, **kwargs):
            raise RuntimeError("scaling failed")

        monkeypatch.setattr(cli._geometry, "scaling_certificate", broken)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config("verify", n_steps=64)))
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(cfg_path),
                         "--out", str(out)]) == 1
        assert not out.exists() or not any(out.iterdir())

    def test_kernels_outputs(self, tmp_path):
        config = parse_config(small_config())
        code = cli.run(config, tmp_path)
        assert code == 0
        for name in ("kernel_k.csv", "kernel_l.csv", "manifest.json"):
            assert (tmp_path / name).exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(config)

    def test_deterministic_output(self, tmp_path):
        config = parse_config(small_config())
        cli.run(config, tmp_path / "a")
        cli.run(config, tmp_path / "b")
        for name in ("kernel_k.csv", "kernel_l.csv", "kernel_r_theta.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_verify_exit_zero(self, tmp_path):
        config = parse_config(small_config("verify", n_steps=128))
        assert cli.run(config, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["hard_violations"] == 0
        assert (tmp_path / "certificates.csv").exists()
        assert (tmp_path / "scaling.csv").exists()

    def test_verify_reports_late_sonine_residual(self, tmp_path):
        # max|k*l - 1| on t >= horizon/10, in report.json and the manifest
        config = parse_config(small_config("verify", n_steps=128))
        assert cli.run(config, tmp_path) == 0
        for name in ("report.json", "manifest.json"):
            data = json.loads((tmp_path / name).read_text())
            assert math.isfinite(data["sonine_residual_late"]), name
        assert data["sonine_residual_late"] <= json.loads(
            (tmp_path / "report.json").read_text())["sonine_residual"]

    def test_verify_records_sonine_residual_time(self, tmp_path):
        # the max of |k*l - 1| on t >= 10 tau sits at its first node for
        # order 1/2: the convolution's error at a fixed grid index
        config = parse_config(small_config("verify", n_steps=512))
        assert cli.run(config, tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["sonine_residual_time"] == 10 * (1.0 / 512)
        report = json.loads((tmp_path / "report.json").read_text())
        assert "sonine_residual_time" not in report

    def test_verify_exit_zero_order_near_zero(self, tmp_path):
        # u = p*t reaches 2^600 for order 0.05; u**2 would overflow to NaN
        config = parse_config(small_config(
            "verify", n_steps=512,
            measure={"atoms": [{"alpha": 0.05, "q": 1.0}]},
            params={"r": 0.5, "seed": 0}))
        assert cli.run(config, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["hard_violations"] == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("measure", [
        {"atoms": [{"alpha": 0.9994, "q": 1.0}],
         "weight": {"breaks": [0.0, 1.0], "values": [0.5]}},
        {"atoms": [{"alpha": 0.0193, "q": 0.604},
                   {"alpha": 0.9992, "q": 0.396}],
         "weight": {"breaks": [], "values": []}}],
        ids=["atom-and-density", "two-atoms"])
    def test_verify_refuses_c_emp_past_the_double_range(self, tmp_path,
                                                         capsys, measure):
        # the default p (833.8 and 625.5) takes log c_emp past 709: the run
        # exited 0 with "c_emp": Infinity, which a strict json.load refuses
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(
            "verify", n_steps=256, measure=measure,
            params={"r": 0.5, "seed": 0})))
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(cfg_path),
                         "--out", str(out)]) == 1
        assert re.search(r"p = \d+\.\d+: log c_emp = \d+\.\d+ is past "
                         "the double range", capsys.readouterr().err)
        assert not out.exists()

    def test_verify_exit_two_on_violation(self, tmp_path, monkeypatch):
        from memkern import kernels as K

        real = K.bound_certificates

        def broken(*args, **kwargs):
            certs = real(*args, **kwargs)
            object.__setattr__(certs, "hard_violations", 3)
            return certs

        monkeypatch.setattr(cli._kernels, "bound_certificates", broken)
        config = parse_config(small_config("verify", n_steps=64))
        assert cli.run(config, tmp_path) == 2

    def test_solve_ode_outputs(self, tmp_path):
        config = parse_config(small_config(
            "solve", n_steps=128,
            params={"ode_lambda": 1.0, "u0": {"kind": "constant", "value": 1.0},
                    "seed": 0}))
        assert cli.run(config, tmp_path) == 0
        lines = (tmp_path / "solution.csv").read_text().splitlines()
        assert lines[0] == "t,i,value"
        assert len(lines) == 130  # header + n_steps + 1 rows

    def test_solve_yosida_path(self, tmp_path):
        # the n = 256 regularized kernel moves u only a little, as in
        # test_yosida_weight_consistency
        grid = {"extents": [[0.0, 1.0]], "n_cells": [32],
                "boundary": [[{"type": "dirichlet", "value": 0.0}] * 2]}
        values = []
        for use_yosida in (False, True):
            out = tmp_path / str(use_yosida)
            config = parse_config(small_config(
                "solve", grid=grid,
                params={"use_yosida": use_yosida, "n_yosida": 256,
                        "seed": 0}))
            assert cli.run(config, out) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["max_step_residual"] <= 1e-10
            values.append(np.loadtxt(out / "solution.csv", delimiter=",",
                                     skiprows=1)[:, -1])
        assert np.max(np.abs(values[0] - values[1])) <= 5e-2

    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_solve_manifest_counts_lu_factorisations(self, tmp_path,
                                                    monkeypatch,
                                                    time_dependent):
        # one LU factorisation per trajectory for constant coefficients, one
        # per step when they are declared time dependent; the tridiagonal
        # factors of 8 cells hold 7 + 8 + 7 + 6 entries
        from memkern.config import ExperimentConfig
        from memkern.solver import CoefficientField

        field = CoefficientField(
            fn=(lambda t, x: np.ones_like(x)) if time_dependent
            else np.ones_like, time_dependent=time_dependent)
        monkeypatch.setattr(ExperimentConfig, "coefficients",
                            lambda self, grid: field)
        grid = {"extents": [[0.0, 1.0]], "n_cells": [8],
                "boundary": [[{"type": "dirichlet", "value": 0.0}] * 2]}
        config = parse_config(small_config("solve", n_steps=24, grid=grid))
        assert cli.run(config, tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["lu_factorisations"] == (24 if time_dependent else 1)
        assert manifest["lu_fill"] == 15

    def test_verify_exit_two_on_nan_sonine_residual(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(cli._volterra, "conv", lambda a, b:
                            types.SimpleNamespace(values=np.full(a.n, np.nan)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config("verify", n_steps=64)))
        assert cli.main(["verify", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("grid", [
        None,
        {"extents": [[0.0, 1.0], [0.0, 1.0]], "n_cells": [4, 3],
         "boundary": [[{"type": "dirichlet", "value": 0.0}] * 2] * 2},
    ], ids=["0d", "2d"])
    def test_solution_csv_round_trip(self, tmp_path, monkeypatch, grid):
        fields = []
        real_solve = cli._solver.solve

        def capture(*args, **kwargs):
            fields.append(real_solve(*args, **kwargs))
            return fields[-1]

        monkeypatch.setattr(cli._solver, "solve", capture)
        overrides = {"n_steps": 16}
        if grid is not None:
            overrides["grid"] = grid
        assert cli.run(parse_config(small_config("solve", **overrides)),
                       tmp_path) == 0
        field = fields[0]
        path = tmp_path / "solution.csv"
        header = path.read_text().splitlines()[0]
        assert header == ("t,i,value" if grid is None else "t,i,j,value")
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        index = np.indices(field.values.shape)  # (t, i, j) in row order
        assert np.array_equal(table[:, 0], field.times[index[0].ravel()])
        for col, axis in enumerate(index[1:], start=1):
            assert np.array_equal(table[:, col], axis.ravel())
        assert np.array_equal(table[:, -1], field.values.ravel())

    def test_harnack_outputs(self, tmp_path):
        config = parse_config(small_config(
            "harnack", n_steps=64,
            grid={"extents": [[0.0, 1.0]], "n_cells": [32],
                  "boundary": [[{"type": "dirichlet", "value": 0.0},
                                {"type": "dirichlet", "value": 0.0}]]},
            params={"r": 0.4, "x0": 0.5, "p": 1.0, "n_members": 3, "seed": 1}))
        assert cli.run(config, tmp_path) == 0
        rows = (tmp_path / "harnack.csv").read_text().splitlines()
        assert rows[0] == "seed,member,ratio,p,n_cells,measure_hash"
        assert len(rows) == 4
        # the three members share one factorised step system
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["max_step_residual"] <= 1e-10
        assert manifest["lu_factorisations"] == 1
        assert manifest["lu_fill"] == 2 * 32 - 1

    def test_harnack_runs_on_a_2d_config_grid(self, tmp_path):
        config = parse_config(small_config(
            "harnack", n_steps=48,
            grid={"extents": [[0.0, 1.0], [0.0, 1.0]], "n_cells": [16, 16],
                  "boundary": [[{"type": "dirichlet", "value": 0.0}] * 2] * 2},
            coefficients={"kind": "checkerboard", "low": 0.1, "high": 10.0,
                          "period": 0.125},
            params={"r": 0.4, "x0": 0.5, "p": 1.0, "n_members": 2,
                    "seed": 7}))
        assert cli.run(config, tmp_path) == 0
        rows = (tmp_path / "harnack.csv").read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["256", "256"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["lu_factorisations"] == 1
        assert manifest["coefficient_bounds"] == {
            "nu": 0.1, "lam": 10.0 * math.sqrt(2.0)}

    @pytest.mark.parametrize("experiment,n_cells,csv,digest", [
        ("harnack", 64, "harnack.csv",
         "bbb2782227b19fcdde029cf6ad6283f22e59e70627f679e25c82dd44fe6f3b52"),
        ("holder", 256, "oscillation.csv",
         "b9eba239b059de4aa227cfde51479e5839c7e727d364db004b25622a0f2ecebe"),
    ])
    def test_gridless_config_runs_on_the_fallback_grid(
            self, tmp_path, experiment, n_cells, csv, digest):
        # the fallback grid is (0, 1) with Dirichlet 0, and it stays out of
        # the config hash
        params = {"harnack": {"r": 0.4, "x0": 0.5, "p": 1.0, "n_members": 3,
                              "seed": 1},
                  "holder": {"r": 0.2, "eta": 0.25, "theta": 1.0, "x1": 0.4,
                             "levels": [1, 2, 3, 4], "seed": 0}}[experiment]
        n_steps = {"harnack": 64, "holder": 128}[experiment]
        gridless = parse_config(small_config(experiment, n_steps=n_steps,
                                             params=params))
        assert config_hash(gridless) == digest
        explicit = parse_config(small_config(
            experiment, n_steps=n_steps, params=params,
            grid={"extents": [[0.0, 1.0]], "n_cells": [n_cells],
                  "boundary": [[{"type": "dirichlet", "value": 0.0}] * 2]}))
        assert gridless.grid() == explicit.grid()
        tables = []
        for name, config in (("gridless", gridless), ("explicit", explicit)):
            assert cli.run(config, tmp_path / name) == 0
            tables.append(np.loadtxt(tmp_path / name / csv, delimiter=",",
                                     skiprows=1, usecols=range(3)))
        assert np.array_equal(tables[0], tables[1])

    @pytest.mark.parametrize("coefficients, bounds", [
        ({"kind": "constant", "matrix": [[2.0]]}, (2.0, 2.0)),
        ({"kind": "table", "values": [1.0] * 7 + [9.0]}, (1.0, 9.0)),
        ({"kind": "checkerboard", "low": 10.0, "high": 0.1, "period": 0.25},
         (0.1, 10.0)),
    ])
    def test_manifests_record_measured_coefficient_bounds(self, tmp_path,
                                                          coefficients,
                                                          bounds):
        grid = {"extents": [[0.0, 1.0]], "n_cells": [8],
                "boundary": [[{"type": "dirichlet", "value": 0.0}] * 2]}
        config = parse_config(small_config(
            "solve", n_steps=16, grid=grid, coefficients=coefficients))
        assert cli.run(config, tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["coefficient_bounds"] == dict(zip(("nu", "lam"),
                                                          bounds))

    def test_holder_outputs(self, tmp_path):
        config = parse_config(small_config(
            "holder", n_steps=128,
            params={"r": 0.2, "eta": 0.25, "theta": 1.0, "x1": 0.4,
                    "levels": [1, 2, 3, 4], "seed": 0}))
        assert cli.run(config, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] in ("ok", "flat")
        assert (tmp_path / "oscillation.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["max_step_residual"] <= 1e-10
        assert manifest["lu_factorisations"] == 1

    @pytest.mark.parametrize("experiment", ["solve", "harnack", "holder"])
    def test_grid_manifests_record_stepping_wall_time(self, tmp_path,
                                                      experiment):
        # the solves' wall time, summed over the members of an ensemble,
        # goes to the manifest only; holder runs on its fallback grid
        grid = {"extents": [[0.0, 1.0]], "n_cells": [16],
                "boundary": [[{"type": "dirichlet", "value": 0.0}] * 2]}
        grid = {} if experiment == "holder" else {"grid": grid}
        params = {"solve": {},
                  "harnack": {"r": 0.4, "x0": 0.5, "p": 1.0, "n_members": 3,
                              "seed": 1},
                  "holder": {"r": 0.2, "eta": 0.25, "theta": 1.0, "x1": 0.4,
                             "levels": [1, 2, 3, 4], "seed": 0}}[experiment]
        config = parse_config(small_config(experiment, n_steps=128,
                                           params=params, **grid))
        assert cli.run(config, tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert math.isfinite(manifest["wall_time"])
        assert manifest["wall_time"] > 0.0
        report = tmp_path / "report.json"
        assert not report.exists() or "wall_time" not in json.loads(
            report.read_text())


# floats whose repr is easy to get wrong: signed zero, the smallest
# subnormal, the edge of exact integers, a short exponent form, an
# inexact sum and nan
AWKWARD_FLOATS = [-0.0, 5e-324, 1e16, 9999999999999998.0, 1e-5, 0.1 + 0.2,
                  math.nan]


def _values(shape):
    values = np.random.default_rng(4).normal(size=shape)
    values.flat[:len(AWKWARD_FLOATS)] = AWKWARD_FLOATS
    return values


def _solution_layout(cells, n_times=9):
    """The columns of ``solution.csv`` for a ``cells``-shaped grid."""
    index = np.indices(cells, sparse=True)
    return (["t", "i", "j"][:1 + len(cells)] + ["value"],
            [0.125 * np.arange(n_times).reshape((-1,) + (1,) * len(cells))]
            + [c[None] for c in index] + [_values((n_times,) + cells)])


CSV_LAYOUTS = {
    "0d": _solution_layout((1,)),
    "1d": _solution_layout((5,)),
    "2d": _solution_layout((3, 4)),
    "harnack": (["seed", "member", "ratio", "p", "n_cells", "measure_hash"],
                [7, np.arange(11), _values(11), 1.5, 64, "0f3a9c"]),
    "kernel": (["t", "value"], [np.arange(10) / 3.0, _values(10)]),
    # a column varying along the leading axis and one inner axis only
    "2d-partial": (["t", "i", "j", "row_mean", "value"],
                   _solution_layout((3, 4))[1][:3] + [_values((9, 3, 1)),
                                                      _values((9, 3, 4))]),
    # a string scalar with the characters of format templates and a comma
    "text": (["seed", "note", "value"], [3, "50% {x}, {}", _values(6)]),
    "bool-float32": (["flag", "x", "value"], [np.arange(8) % 3 == 0,
                                              _values(8).astype(np.float32),
                                              _values(8)]),
    "one-time": _solution_layout((3, 4), n_times=1),
    # a line that starts with a column constant along the leading axis
    "inner-first": (["i", "t", "value"], [np.arange(4)[None],
                                          np.arange(9.0)[:, None] / 8,
                                          _values((9, 4))]),
}


# floats at the edges of the range where orjson's text is repr's: the ends
# 1e-4 and 1e16 with their neighbours, zeros, infinities, nan, the largest
# float and the subnormals
EDGE_FLOATS = [float(v) for edge in (1e-4, 1e16)
               for v in (np.nextafter(edge, 0.0), edge,
                         np.nextafter(edge, math.inf))]
EDGE_FLOATS += [0.0, -0.0, math.inf, -math.inf, math.nan,
                1.7976931348623157e308, 5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308]
EDGE_FLOATS += [-v for v in EDGE_FLOATS]

# any float64, bit patterns included, and the edges above
FLOAT64S = st.one_of(
    st.floats(width=64),
    st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.uint64(bits).view(np.float64))),
    st.sampled_from(EDGE_FLOATS))


class TestWriteCsv:
    """``_write_csv`` against the plain row-by-row writer, byte for byte."""

    @staticmethod
    def reference(header, columns) -> bytes:
        cols = np.broadcast_arrays(*(np.asarray(c) for c in columns))
        rows = zip(*(c.ravel().tolist() for c in cols))
        lines = [",".join(header) + "\r\n"]
        lines += [",".join(map(str, row)) + "\r\n" for row in rows]
        return "".join(lines).encode()

    @pytest.mark.parametrize("chunk_rows", [1, 7, 26, 4096])
    @pytest.mark.parametrize("layout", sorted(CSV_LAYOUTS))
    def test_matches_row_writer(self, tmp_path, monkeypatch, layout,
                                chunk_rows):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
        header, columns = CSV_LAYOUTS[layout]
        cli._write_csv(tmp_path / "out.csv", header, columns)
        assert (tmp_path / "out.csv").read_bytes() == \
            self.reference(header, columns)

    def test_memory_bounded_by_the_block(self, tmp_path):
        # each block is joined and written on its own, so the peak does not
        # grow with the number of rows in the file
        peaks = []
        for n_times in (512, 4096):
            header, columns = _solution_layout((128,), n_times=n_times)
            tracemalloc.start()
            cli._write_csv(tmp_path / "out.csv", header, columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_edge_floats(self, tmp_path):
        header, columns = ["t", "value"], [np.arange(len(EDGE_FLOATS)),
                                           np.array(EDGE_FLOATS)]
        cli._write_csv(tmp_path / "out.csv", header, columns)
        assert (tmp_path / "out.csv").read_bytes() == \
            self.reference(header, columns)

    @pytest.mark.parametrize("chunk_rows", [1, 7, 4096])
    def test_non_contiguous_columns(self, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
        times = np.arange(18.0)[::2] / 3.0
        header = ["t", "i", "value"]
        columns = [times[:, None], np.arange(10)[None, ::2],
                   _values((5, 9)).T]
        assert not columns[2].flags.c_contiguous
        cli._write_csv(tmp_path / "out.csv", header, columns)
        assert (tmp_path / "out.csv").read_bytes() == \
            self.reference(header, columns)

    @pytest.mark.parametrize("shape", [(0, 1), (3, 0)])
    def test_empty_block(self, tmp_path, shape):
        header = ["t", "i", "value"]
        columns = [np.zeros(shape[:1] + (1,)), np.arange(shape[1])[None],
                   np.zeros(shape)]
        cli._write_csv(tmp_path / "out.csv", header, columns)
        assert (tmp_path / "out.csv").read_bytes() == b"t,i,value\r\n"

    def test_counts_values_formatted_by_repr(self, tmp_path, monkeypatch):
        # a value is counted once per formatting: t's 1e-5 is written on
        # four lines and counted once, the integer column never
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 2)
        value = np.full((3, 4), 0.5)
        value[0, 1], value[2, 3], value[1, 0] = 1e-7, 3e16, math.nan
        columns = [np.array([[1e-5], [0.0], [2.0]]), np.arange(4)[None],
                   value]
        assert cli._write_csv(tmp_path / "out.csv", ["t", "i", "value"],
                              columns) == 4

    @given(values=st.lists(FLOAT64S, min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_float_text_is_repr(self, tmp_path_factory, values):
        path = tmp_path_factory.getbasetemp() / "floats.csv"
        fixed = cli._write_csv(path, ["value"], [np.array(values)])
        assert path.read_bytes().decode().split("\r\n")[1:-1] == \
            [repr(v) for v in values]
        assert fixed == sum(v != 0.0 and not 1e-4 <= abs(v) < 1e16
                            for v in values)

    @given(values=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                           max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_int64_text_is_str(self, tmp_path_factory, values):
        path = tmp_path_factory.getbasetemp() / "ints.csv"
        assert cli._write_csv(path, ["value"],
                              [np.array(values, dtype=np.int64)]) == 0
        assert path.read_bytes().decode().split("\r\n")[1:-1] == \
            [str(v) for v in values]


class TestMain:
    def test_parser_built_once(self, tmp_path, capsys):
        # every call of main after the first reuses the parser, and a
        # parse error still exits 2 with argparse's message
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config()))
        cli._parser.cache_clear()
        for _ in range(2):
            assert cli.main(["kernels", "--config", str(cfg_path), "--out",
                             str(tmp_path / "out"), "--steps", "32"]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["kernels", "--config", str(cfg_path), "--steps", "q"])
        assert exc.value.code == 2
        assert "argument --steps: invalid int value: 'q'" in \
            capsys.readouterr().err
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_main_happy_path(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config()))
        code = cli.main(["kernels", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out"), "--steps", "32"])
        assert code == 0
        lines = (tmp_path / "out" / "kernel_l.csv").read_text().splitlines()
        assert len(lines) == 33

    def test_main_validates_under_the_subcommand(self, tmp_path, capsys):
        # a gridless holder config is valid with sine data, but run as a
        # solve it is the space-free mode, which takes constant data only
        cfg_path = tmp_path / "holder.json"
        cfg_path.write_text(json.dumps(small_config(
            "holder", n_steps=32,
            params={"u0": {"kind": "sine", "amplitude": 3.0}, "seed": 0})))
        assert cli.main(["solve", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert "/params/u0/kind" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError) as err:
            parse_config(str(cfg_path), experiment="solve")
        assert list(dict(err.value.violations)) == ["/params/u0/kind"]
        assert parse_config(str(cfg_path)).experiment == "holder"

    @pytest.mark.parametrize("steps", ["2", "0", "-3"])
    def test_steps_override_meets_the_config_rule(self, tmp_path, capsys,
                                                  steps):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config("verify")))
        assert cli.main(["verify", "--config", str(cfg_path), "--out",
                         str(tmp_path / "out"), "--steps", steps]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "/n_steps" in err
        assert not (tmp_path / "out").exists()

    def test_checkerboard_without_high_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(
            "holder", grid={"extents": [[0.0, 1.0]], "n_cells": [16]},
            coefficients={"kind": "checkerboard", "low": 0.1,
                          "period": 0.25})))
        assert cli.main(["holder", "--config", str(cfg_path), "--out",
                         str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "/coefficients/high" in err

    def test_main_bad_config_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{}")
        assert cli.main(["verify", "--config", str(cfg_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(
            "harnack",
            n_steps=64,
            grid={"extents": [[0.0, 1.0]], "n_cells": [32],
                  "boundary": [[{"type": "dirichlet", "value": 0.0},
                                {"type": "dirichlet", "value": 0.0}]]},
            params={"r": 0.4, "x0": 0.5, "p": 1.0, "n_members": 2,
                    "seed": 1})))
        cli.main(["harnack", "--config", str(cfg_path),
                  "--out", str(tmp_path / "s1"), "--seed", "42"])
        manifest = json.loads((tmp_path / "s1" / "manifest.json").read_text())
        assert manifest["seed"] == 42
        assert manifest["config"]["params"]["seed"] == 42

    def test_seed_override_meets_the_config_rule(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config("kernels")))
        assert cli.main(["kernels", "--config", str(cfg_path), "--out",
                         str(tmp_path / "out"), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "/params/seed" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha", [0.01, 0.02])
    def test_verify_exits_zero_at_small_orders(self, tmp_path, alpha):
        # phi cannot bracket r = 1e-3 at these orders; the radius grid
        # starts where it can
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(
            "verify", n_steps=1024,
            measure={"atoms": [{"alpha": alpha, "q": 1.0}]},
            params={"r": 0.5, "seed": 0})))
        assert cli.main(["verify", "--config", str(cfg_path), "--out",
                         str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["hard_violations"] == 0
