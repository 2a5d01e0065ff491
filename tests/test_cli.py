"""Command-line behavior: exit codes, config layering, caching, outputs."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vveis
from vveis import acceptance, cli, repnums
from vveis.errors import PreconditionError

E8 = acceptance.E8
U = [[0, 1], [1, 0]]


def child_env():
    """The environment for a vveis subprocess: this package, no VVEIS_ overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("VVEIS_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(vveis.__file__).parents[1]), env.get("PYTHONPATH", "")])
    return env


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def lat_files(tmp_path):
    paths = {}
    for name, gram in [("e8", E8), ("uu", acceptance.direct_sum(U, U)),
                       ("m2", [[-2]]), ("q4", [[4]]),
                       ("zn4", acceptance.diag([-2, -2, -2, -2]))]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"gram": gram}))
        paths[name] = str(p)
    return paths


class TestExitCodes:
    def test_unknown_flag_usage(self, lat_files):
        code, _, _ = run_cli(["eis", lat_files["e8"], "--bogus"])
        assert code == 2

    def test_missing_subcommand(self):
        code, _, _ = run_cli([])
        assert code == 2

    def test_missing_file_is_io(self):
        code, _, err = run_cli(["info", "/no/such/file.json"])
        assert code == 1
        assert "io" in err

    def test_malformed_json_is_precondition(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{gram: oops")
        code, _, err = run_cli(["info", str(bad)])
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("role", [
        "lattice", "config", "pp", "spec", "fixture", "provider"])
    @pytest.mark.parametrize("content", [
        b"[" * 100000 + b"]" * 100000,  # past the parser's recursion limit
        b"\xff\xfe{}",  # not UTF-8
    ], ids=["deep", "not-utf8"])
    def test_unreadable_json_is_precondition(self, tmp_path, lat_files, role,
                                             content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"bound_a": 1, "ceiling": "1"}))
        lat = lat_files["e8"]
        argv = {
            "lattice": ["info", bad],
            "config": ["--config", bad, "info", lat],
            "pp": ["decompose", lat, "--pp", bad],
            "spec": ["prescribe", lat, "--spec", bad, "--fixture", bad],
            "fixture": ["prescribe", lat, "--spec", spec, "--fixture", bad],
            "provider": ["h-series", lat, "-b", "1", "--trunc", "2",
                         "--provider", bad],
        }[role]
        proc = subprocess.run(
            [sys.executable, "-m", "vveis.cli", *map(str, argv)],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error (precondition): ")
        assert "is not valid JSON" in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv,code", [
        (["info"], 0), (["info", "/no/such/file.json"], 1), (["bogus"], 2)])
    def test_main_exits_with_the_run_code(self, lat_files, monkeypatch, capsys,
                                          argv, code):
        if argv == ["info"]:
            argv = ["info", lat_files["e8"]]
        monkeypatch.setattr(sys, "argv", ["vveis", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code
        out = capsys.readouterr().out
        assert (json.loads(out)["rank"] == 8) if code == 0 else out == ""

    def test_precondition_from_library(self, tmp_path):
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"gram": [[1]]}))
        code, _, err = run_cli(["info", str(odd)])
        assert code == 2

    def test_budget_exit(self, lat_files, monkeypatch):
        monkeypatch.setenv("VVEIS_NAIVE_CAP", "10")
        code, _, err = run_cli(["repnum", lat_files["uu"], "-m", "1",
                                "-a", "343", "--method", "naive"])
        assert code == 3
        assert "budget" in err

    def test_huge_modulus_terminates(self, tmp_path):
        # 10^23 - 1 = 3^2 * R23 with R23 prime: trial division to sqrt(R23)
        # used to hang.  Q = x^2 + xy + y^2 takes only the values 0, 1 mod 3,
        # so m = 2 has no solution mod 9.
        lat = tmp_path / "a2.json"
        lat.write_text(json.dumps({"gram": [[2, 1], [1, 2]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "vveis.cli", "repnum", str(lat), "-m", "2",
             "-a", "9" * 23], capture_output=True, text=True, timeout=10,
            env=child_env())
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["count"] == 0

    @pytest.mark.parametrize("argv", [
        ["decompose", "--pp", ""],
        ["h-series", "-b", "1", "--trunc", "2", "--provider", ""],
    ], ids=["required", "optional"])
    def test_empty_document_path_is_io(self, lat_files, argv):
        # every document option given is read: an empty path names the
        # working directory, an I/O error rather than a silent default
        code, out, err = run_cli([argv[0], lat_files["uu"], *argv[1:]])
        assert (code, out) == (1, "") and err.startswith("error (io): ")

    def test_empty_start_document_rejected(self, tmp_path):
        # vanish-on's optional --pp document is parsed like any other: an
        # empty object is not a principal part
        acceptance._battery_files(tmp_path)
        (tmp_path / "empty.json").write_text("{}")
        code, out, err = run_cli([
            "vanish-on", str(tmp_path / "fixture.json"), "-m", "3/4",
            "--mu", "0,0,0,1", "--fixture", str(tmp_path / "empty_basis.json"),
            "--pp", str(tmp_path / "empty.json")])
        assert (code, out) == (2, "")
        assert err.startswith("error (precondition): principal-part document")

    def test_no_lattice_anywhere(self):
        code, _, err = run_cli(["info"])
        assert code == 2
        assert "no lattice file" in err


class TestImports:
    def test_star_import_resolves_all(self):
        namespace = {}
        exec("from vveis import *", namespace)
        assert len(set(vveis.__all__)) == len(vveis.__all__)
        assert all(namespace[name] is getattr(vveis, name)
                   for name in vveis.__all__)

    def test_numpy_not_loaded(self, lat_files):
        # numpy is imported only by count_naive: the CLI, lattice set-up and
        # the enumerations never load it
        script = "\n".join([
            "import sys",
            "import vveis.cli",
            "assert 'numpy' not in sys.modules, 'import vveis.cli'",
            "assert vveis.cli.run(['info', sys.argv[1]]) == 0",
            "assert 'numpy' not in sys.modules, 'vveis info'",
            "from vveis import acceptance, lattice",
            "e8 = lattice.new_lattice(acceptance.E8)",
            "assert lattice.theta_counts(e8, 1) == {1: 240}",
            "assert lattice.coset_represents(e8, 2, ()).is_yes",
            "assert lattice.witt_rank_bounded(",
            "    lattice.new_lattice(acceptance.direct_sum(*[[[0, 1], [1, 0]]] * 2))",
            ").lower_bound == 2",
            "assert 'numpy' not in sys.modules, 'enumerations'",
        ])
        proc = subprocess.run([sys.executable, "-c", script, lat_files["e8"]],
                              capture_output=True, text=True, timeout=60,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr


class TestConfig:
    def test_defaults(self):
        cfg = cli.load_config(env={})
        assert cfg.naive_cap == 10 ** 8
        assert cfg.cache_dir == ""
        assert not cfg.cross_check

    def test_file_and_env_layering(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"naive_cap": 500, "cache_dir": "c"}))
        cfg = cli.load_config(str(p), env={"VVEIS_NAIVE_CAP": "700"})
        assert cfg.naive_cap == 700  # env wins
        assert cfg.cache_dir == "c"

    def test_precision_keys_rejected(self, tmp_path, lat_files):
        # the L-value is always exact: the old interval-precision keys are
        # unknown keys now, and a config setting them is a usage error
        for key in ("prec_bits", "denom_bound"):
            p = tmp_path / f"{key}.json"
            p.write_text(json.dumps({key: 96}))
            with pytest.raises(PreconditionError, match="unknown"):
                cli.load_config(str(p), env={})
            code, _, err = run_cli(["--config", str(p), "info", lat_files["e8"]])
            assert code == 2 and key in err

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"precision": 64}))
        with pytest.raises(PreconditionError, match="unknown"):
            cli.load_config(str(p), env={})

    def test_positive_limits(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"naive_cap": 0}))
        with pytest.raises(PreconditionError, match="positive"):
            cli.load_config(str(p), env={})

    def test_type_checks(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"cross_check": "yes"}))
        with pytest.raises(PreconditionError, match="boolean"):
            cli.load_config(str(p), env={})

    def test_boolean_cap_rejected(self, tmp_path, lat_files):
        # JSON true is a Python bool, and bool is an int subclass: it must not
        # pass as a cap of 1
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"naive_cap": True}))
        with pytest.raises(PreconditionError, match="naive_cap must be an integer"):
            cli.load_config(str(p), env={})
        code, _, err = run_cli(["--config", str(p), "info", lat_files["e8"]])
        assert code == 2 and "naive_cap" in err

    def test_lattice_must_be_string(self, tmp_path):
        # a number here used to reach Path() and escape as a TypeError
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lattice": 5}))
        with pytest.raises(PreconditionError, match="lattice must be a string"):
            cli.load_config(str(p), env={})
        code, out, err = run_cli(["--config", str(p), "info"])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "lattice must be a string" in err

    def test_cache_dir_must_be_string(self, tmp_path, lat_files):
        for bad in (7, ["x"]):
            p = tmp_path / "cfg.json"
            p.write_text(json.dumps({"cache_dir": bad}))
            with pytest.raises(PreconditionError, match="cache_dir must be a string"):
                cli.load_config(str(p), env={})
            code, out, err = run_cli(["--config", str(p), "eis", lat_files["e8"],
                                      "--max-exp", "1"])
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and "cache_dir must be a string" in err

    def test_crosscheck_env_parsing(self, monkeypatch):
        # the config and the local counts behind every coefficient agree
        for raw in ("", "0", "false", "no", "1", "yes", "true"):
            monkeypatch.setenv("VVEIS_CROSSCHECK", raw)
            on = raw not in ("", "0", "false", "no")
            assert cli.load_config(env={"VVEIS_CROSSCHECK": raw}).cross_check is on
            assert repnums._crosscheck_env() is on

    def test_bad_env_integer(self):
        with pytest.raises(PreconditionError, match="VVEIS_NAIVE_CAP"):
            cli.load_config(env={"VVEIS_NAIVE_CAP": "many"})

    def test_lattice_from_config(self, tmp_path, lat_files, monkeypatch):
        monkeypatch.setenv("VVEIS_LATTICE", lat_files["e8"])
        code, out, _ = run_cli(["info"])
        assert code == 0
        assert json.loads(out)["det"] == 1


class TestSubcommands:
    def test_info(self, lat_files):
        code, out, _ = run_cli(["info", lat_files["e8"]])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"rank": 8, "signature": [8, 0], "det": 1, "level": 1,
                       "disc_group": [], "disc_order": 1}

    def test_repnum_paths_agree(self, lat_files):
        counts = {}
        for method in ("auto", "naive", "gauss"):
            code, out, _ = run_cli(["repnum", lat_files["q4"], "-m", "1/8",
                                    "--mu", "1", "-a", "4",
                                    "--method", method])
            assert code == 0
            counts[method] = json.loads(out)["count"]
        assert len(set(counts.values())) == 1

    def test_repnum_gauss_needs_prime_power(self, lat_files):
        code, _, err = run_cli(["repnum", lat_files["uu"], "-m", "1",
                                "-a", "12", "--method", "gauss"])
        assert code == 2
        assert "prime power" in err

    def test_eis_expansion_values(self, lat_files):
        code, out, _ = run_cli(["eis", lat_files["e8"], "--max-exp", "3"])
        assert code == 0
        doc = json.loads(out)
        by_exp = {r["exp"]: r["c"] for r in doc["coeffs"]}
        assert by_exp["0"] == "1"
        assert by_exp["1"] == "240"
        assert by_exp["2"] == "2160"

    def test_eis_negate(self, lat_files):
        code, out, _ = run_cli(["eis", lat_files["zn4"], "--max-exp", "2",
                                "--negate"])
        assert code == 0
        doc = json.loads(out)
        row = next(r for r in doc["coeffs"]
                   if r["exp"] == "1" and r["mu"] == [0, 0, 0, 0])
        assert row["c"] == "8"

    def test_weil_flag_selection(self, lat_files):
        code, out, _ = run_cli(["weil", lat_files["m2"], "--relations"])
        assert code == 0
        doc = json.loads(out)
        assert doc["relations"] is True and doc["unitary"] is True
        assert "invariants" not in doc
        code, out, _ = run_cli(["weil", lat_files["m2"], "--invariants"])
        doc = json.loads(out)
        assert "relations" not in doc and doc["invariants"] == []
        code, out, _ = run_cli(["weil", lat_files["e8"]])
        doc = json.loads(out)
        assert doc["relations"] is True
        assert doc["invariants"] == [["1"]]

    def test_out_file(self, lat_files, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(["--out", str(target), "info",
                                lat_files["e8"]])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["rank"] == 8

    def test_spec_document_validation(self, lat_files, tmp_path):
        fixture = tmp_path / "empty.json"
        fixture.write_text(json.dumps(
            {"weight": "4", "elements": []}))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"bound_a": 1, "floor": 2}))
        code, _, err = run_cli(["prescribe", lat_files["e8"],
                                "--spec", str(spec),
                                "--fixture", str(fixture)])
        assert code == 2
        assert "unknown keys" in err

    def test_provider_without_elements(self, tmp_path):
        # the provider reads element 0; an empty fixture has none
        lattice = tmp_path / "d4uu.json"
        lattice.write_text(json.dumps({"gram": acceptance.direct_sum(
            acceptance.D4, U, U)}))
        provider = tmp_path / "empty.json"
        provider.write_text(json.dumps({"weight": "4", "elements": []}))
        proc = subprocess.run(
            [sys.executable, "-m", "vveis.cli", "h-series", str(lattice),
             "-b", "1", "--trunc", "2", "--provider", str(provider)],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error (precondition): no element 0")
        assert proc.stderr.count("\n") == 1

    def test_provider_read_once(self, tmp_path, monkeypatch):
        # the cache key describes the document the series was computed from
        acceptance._battery_files(tmp_path)
        reads = []
        read_json = cli._read_json

        def counting(path):
            reads.append(str(path))
            return read_json(path)

        monkeypatch.setattr(cli, "_read_json", counting)
        f = {name: str(tmp_path / f"{name}.json") for name in
             ("fixture", "w19", "mixed_pp", "empty_basis")}
        for argv in (
                ["h-series", f["fixture"], "-b", "2", "--trunc", "2",
                 "--provider", f["w19"]],
                ["decompose", f["fixture"], "--pp", f["mixed_pp"],
                 "--provider", f["w19"]],
                ["vanish-on", f["fixture"], "-m", "3/4", "--mu", "0,0,0,1",
                 "--fixture", f["empty_basis"], "--provider", f["w19"]]):
            reads.clear()
            code, _, err = run_cli(argv)
            assert code == 0, err
            assert reads.count(f["w19"]) == 1, argv[0]
            assert len(reads) == len(set(reads)), (argv[0], reads)

    def test_weight_error_names_both_weights(self, lat_files):
        code, out, err = run_cli(["h-series", lat_files["uu"], "-b", "1",
                                  "--trunc", "2"])
        assert (code, out) == (2, "")
        assert err == ("error (precondition): pole depth 1 needs weight 12; "
                       "the eisenstein series has weight 2\n")

    def test_decompose_at_depth_two(self, tmp_path):
        # E8^3 + <-2>^2: the series provider's only depth is b = 2
        lattice = tmp_path / "e8cubed.json"
        lattice.write_text(json.dumps({"gram": acceptance.direct_sum(
            E8, E8, E8, [[-2]], [[-2]])}))
        pp = tmp_path / "pp.json"
        pp.write_text(json.dumps({"principal_part": {"sign": "-", "coeffs": [
            {"exp": "-1/2", "mu": [1, 1], "c": "-1"}]}, "const_term": "0"}))
        code, out, err = run_cli(["decompose", str(lattice), "--pp", str(pp)])
        assert code == 0, err
        doc = json.loads(out)
        assert (doc["b"], doc["c"]) == (2, 2702765)

    @pytest.mark.parametrize("doc,code", [
        ({"bound_a": 1, "members": [["1", [0, 0, 0, 0]]]}, 0),
        ({"bound_a": 1, "members": [["1", "abcd"]]}, 2),
        ({"bound_a": 1, "members": [["1", 5]]}, 2),
        ({"bound_a": "x", "members": [["1", [0, 0, 0, 0]]]}, 2),
        ({"bound_a": None, "members": [["1", [0, 0, 0, 0]]]}, 2),
        ({"bound_a": [1], "members": [["1", [0, 0, 0, 0]]]}, 2),
        ({"bound_a": 1.5, "members": [["1", [0, 0, 0, 0]]]}, 2),
        ({"bound_a": 1, "members": [["1", [0.5, 0, 0, 0]]]}, 2),
        ({"bound_a": 1, "ceiling": 2.5}, 2),
        ({"bound_a": True, "ceiling": "3"}, 2),
        ({"bound_a": 1}, 2),
        ({"bound_a": 1, "ceiling": "3", "members": []}, 2),
        ({"members": [["1", [0, 0, 0, 0]]]}, 2),
        ({"bound_a": 1, "members": "1"}, 2),
        ({"bound_a": 1, "members": [["1"]]}, 2),
        ([1, [[1, [0, 0, 0, 0]]]], 2),
    ])
    def test_spec_types_rejected(self, tmp_path, doc, code):
        # the well-typed spec runs on the fixture with an empty basis; each
        # mistyped one is a precondition error, not a traceback or a
        # silently truncated number
        lattice = tmp_path / "fixture.json"
        lattice.write_text(json.dumps({"gram": acceptance.direct_sum(
            E8, acceptance.D4, [[-2]], [[-2]])}))
        basis = tmp_path / "empty.json"
        basis.write_text(json.dumps({"weight": "7", "elements": []}))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "vveis.cli", "prescribe", str(lattice),
             "--spec", str(spec), "--fixture", str(basis)],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code:
            assert proc.stderr.startswith("error (precondition):")


    def test_grid_spec_keeps_its_admissible_pairs(self, tmp_path):
        # ceiling 4 adds (4, mu) pairs with ord_2(4) > bound_a; the grid
        # drops them and prints the ceiling-3 bytes
        acceptance._battery_files(tmp_path)
        outs = []
        for ceiling in ("3", "4"):
            spec = tmp_path / f"grid{ceiling}.json"
            spec.write_text(json.dumps({"bound_a": 1, "ceiling": ceiling}))
            code, out, err = run_cli([
                "prescribe", str(tmp_path / "fixture.json"), "--spec",
                str(spec), "--fixture", str(tmp_path / "empty_basis.json")])
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["const_term"] == "2/61"


class TestCache:
    def _eis_args(self, lat_files):
        return ["eis", lat_files["e8"], "--max-exp", "2"]

    def test_hit_is_byte_identical(self, lat_files, tmp_path, monkeypatch):
        monkeypatch.setenv("VVEIS_CACHE_DIR", str(tmp_path / "cache"))
        code1, out1, _ = run_cli(self._eis_args(lat_files))
        entries = list((tmp_path / "cache").glob("*.json"))
        assert code1 == 0 and len(entries) == 1
        code2, out2, _ = run_cli(self._eis_args(lat_files))
        assert code2 == 0 and out2 == out1

    def test_disabled_cache_same_bytes(self, lat_files, tmp_path, monkeypatch):
        code1, out1, _ = run_cli(self._eis_args(lat_files))
        monkeypatch.setenv("VVEIS_CACHE_DIR", str(tmp_path / "cache"))
        code2, out2, _ = run_cli(self._eis_args(lat_files))
        assert out1 == out2

    def test_tampered_entry_recomputed_with_warning(self, lat_files, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("VVEIS_CACHE_DIR", str(tmp_path / "cache"))
        _, out1, _ = run_cli(self._eis_args(lat_files))
        (entry,) = (tmp_path / "cache").glob("*.json")
        payload = json.loads(entry.read_text())
        payload["text"] = payload["text"].replace("240", "241")
        entry.write_text(json.dumps(payload))
        code, out2, err = run_cli(self._eis_args(lat_files))
        assert code == 0
        assert out2 == out1
        assert "corrupt cache entry" in err

    def test_unparseable_entry_recomputed(self, lat_files, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("VVEIS_CACHE_DIR", str(tmp_path / "cache"))
        _, out1, _ = run_cli(self._eis_args(lat_files))
        (entry,) = (tmp_path / "cache").glob("*.json")
        entry.write_text("not json at all")
        code, out2, err = run_cli(self._eis_args(lat_files))
        assert code == 0 and out2 == out1
        assert "corrupt cache entry" in err

    @pytest.mark.parametrize("content", [
        b"[" * 100000 + b"]" * 100000, b"\xff\xfe{}"], ids=["deep", "not-utf8"])
    def test_unreadable_entry_recomputed(self, lat_files, tmp_path,
                                         monkeypatch, content):
        monkeypatch.setenv("VVEIS_CACHE_DIR", str(tmp_path / "cache"))
        _, out1, _ = run_cli(self._eis_args(lat_files))
        (entry,) = (tmp_path / "cache").glob("*.json")
        entry.write_bytes(content)
        code, out2, err = run_cli(self._eis_args(lat_files))
        assert code == 0 and out2 == out1
        assert "corrupt cache entry" in err

    def test_weil_hit_skips_computation(self, lat_files, tmp_path, monkeypatch):
        monkeypatch.setenv("VVEIS_CACHE_DIR", str(tmp_path / "cache"))
        args = ["weil", lat_files["zn4"], "--invariants"]
        code1, out1, _ = run_cli(args)
        assert code1 == 0

        def no_weil(disc):
            raise AssertionError("weil_matrices called on a cache hit")

        monkeypatch.setattr(cli, "weil_matrices", no_weil)
        code2, out2, _ = run_cli(args)
        assert code2 == 0 and out2 == out1
        # the flags are part of the key: another selection is a miss
        with pytest.raises(AssertionError, match="cache hit"):
            run_cli(["weil", lat_files["zn4"]])

    def test_battery_invocations_hit_as_they_miss(self, tmp_path, monkeypatch):
        # every lattice subcommand goes through the cache, and its hit answers
        # with the miss's stdout, stderr and exit code
        acceptance._battery_files(tmp_path)
        monkeypatch.setenv("VVEIS_CACHE_DIR", str(tmp_path / "cache"))
        computed = []  # per cached_text call: did it run produce?
        cached_text = cli.cached_text

        def counting(cfg, key_doc, produce, warn=None):
            ran = []
            text = cached_text(cfg, key_doc, lambda: ran.append(1) or produce(),
                               warn)
            computed.append(bool(ran))
            return text

        monkeypatch.setattr(cli, "cached_text", counting)
        for argv in acceptance._cli_invocations(tmp_path):
            computed.clear()
            miss, hit = run_cli(argv), run_cli(argv)
            assert computed == [True, False], argv[0]
            assert miss[0] == 0 and hit == miss, argv[0]

    def test_naive_cap_reaches_the_key(self, lat_files, tmp_path, monkeypatch):
        # a cap too small for a^rank residues is a budget error on a hit as
        # on a miss
        argv = ["repnum", lat_files["q4"], "-m", "1/8", "--mu", "1", "-a", "72",
                "--method", "naive"]
        monkeypatch.delenv("VVEIS_NAIVE_CAP", raising=False)
        uncached = run_cli(argv)
        monkeypatch.setenv("VVEIS_CACHE_DIR", str(tmp_path / "cache"))
        assert run_cli(argv) == uncached and uncached[0] == 0
        monkeypatch.setenv("VVEIS_NAIVE_CAP", "10")
        code, out, err = run_cli(argv)
        assert (code, out) == (3, "") and "budget" in err
        monkeypatch.delenv("VVEIS_CACHE_DIR")
        assert run_cli(argv) == (code, out, err)

    def test_cross_check_reaches_the_key(self, lat_files, tmp_path,
                                         monkeypatch):
        argv = ["repnum", lat_files["q4"], "-m", "1/8", "--mu", "1", "-a", "8"]
        monkeypatch.delenv("VVEIS_CROSSCHECK", raising=False)
        monkeypatch.setenv("VVEIS_CACHE_DIR", str(tmp_path / "cache"))
        first = run_cli(argv)
        assert first[0] == 0
        checks = []
        crosscheck = repnums._crosscheck

        def counting(*args, **kwargs):
            checks.append(args[3:5])
            return crosscheck(*args, **kwargs)

        monkeypatch.setattr(repnums, "_crosscheck", counting)
        monkeypatch.setenv("VVEIS_CROSSCHECK", "1")
        assert run_cli(argv) == first
        assert checks == [(2, 3)]

    def test_document_too_deep_to_key(self, tmp_path, monkeypatch):
        # just inside the decoder's depth limit a document parses yet can be
        # too deep for the key's encoder; it is answered uncached, so the
        # precondition error reads as it does without a cache
        lattice = tmp_path / "m2.json"
        lattice.write_text(json.dumps({"gram": [[-2]]}))
        pp = tmp_path / "pp.json"
        monkeypatch.setenv("VVEIS_CACHE_DIR", str(tmp_path / "cache"))

        def answer(depth):
            pp.write_text("[" * depth + "]" * depth)
            return run_cli(["decompose", str(lattice), "--pp", str(pp)])

        low, high = 1, 4000  # the deepest document that parses is in [low, high)
        while high - low > 1:
            mid = (low + high) // 2
            if "not valid JSON" in answer(mid)[2]:
                high = mid
            else:
                low = mid
        for depth in range(low - 10, low + 1):
            assert answer(depth) == (2, "", "error (precondition): principal-"
                                     "part document must be a JSON object\n")

    def test_stale_temp_directory_does_not_block_write(self, lat_files,
                                                       tmp_path, monkeypatch):
        # a leftover "<digest>.tmp" (here a directory, so it cannot be
        # overwritten) must not break the write: temp names are unique
        cache = tmp_path / "cache"
        monkeypatch.setenv("VVEIS_CACHE_DIR", str(cache))
        _, out1, _ = run_cli(self._eis_args(lat_files))
        (entry,) = cache.glob("*.json")
        entry.unlink()
        (cache / f"{entry.stem}.tmp").mkdir()
        code, out2, _ = run_cli(self._eis_args(lat_files))
        assert code == 0 and out2 == out1
        assert entry.exists()
        assert sorted(x.name for x in cache.iterdir()) == sorted(
            [entry.name, f"{entry.stem}.tmp"])


class TestBattery:
    def test_single_criterion_report(self):
        code, out, err = run_cli(["battery", "--criteria", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert [c["number"] for c in doc["criteria"]] == [3]
        assert "criterion 3 PASS" in err

    def test_unknown_criterion_rejected(self):
        code, _, err = run_cli(["battery", "--criteria", "99"])
        assert code == 2
        assert "unknown criterion" in err

    def test_failure_gives_consistency_exit(self, monkeypatch):
        def broken():
            raise acceptance.CriterionFailure("forced failure for the test")

        monkeypatch.setattr(
            acceptance, "CRITERIA",
            ((3, "rationality and sign", broken),))
        code, out, err = run_cli(["battery", "--criteria", "3"])
        assert code == 4
        doc = json.loads(out)
        assert doc["ok"] is False
        assert "forced failure" in doc["criteria"][0]["detail"]
        assert "criterion 3 FAIL" in err
