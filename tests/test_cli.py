"""Command-line behavior: exit codes, config layering, caching, outputs."""

import hashlib
import importlib.util
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vveis
from vveis import acceptance, cli, linalg, repnums, weilrep
from vveis.errors import PreconditionError

E8 = acceptance.E8
U = [[0, 1], [1, 0]]


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _perfbench_module("workloads")
TRACING = _perfbench_module("tracing")


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
                       ("zn4", acceptance.diag([-2, -2, -2, -2])),
                       ("fx", acceptance.FIXTURE_GRAM)]:
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

    def test_budget_exit(self, lat_files):
        # 101^4 residues exceed count_naive's cap of 10^8
        code, out, err = run_cli(["repnum", lat_files["uu"], "-m", "1",
                                  "-a", "101", "--method", "naive"])
        assert (code, out) == (3, "")
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
        ["eis", "--max-exp", "1e999"],
        ["h-series", "-b", "1", "--trunc", "1e999"],
    ], ids=["eis", "h-series"])
    def test_huge_truncation_refused(self, lat_files, argv):
        # the expansion bounds its slots before computing a coefficient;
        # it used to run until killed
        proc = subprocess.run(
            [sys.executable, "-m", "vveis.cli", argv[0], lat_files["fx"],
             *argv[1:]], capture_output=True, text=True, timeout=10,
            env=child_env())
        assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
        assert proc.stderr.startswith("error (budget): ")

    @pytest.mark.parametrize("argv", [
        ["eis", "fixture.json", "--max-exp", "1e99999999"],
        ["repnum", "fixture.json", "-m", "1e5000", "-a", "4"],
        ["decompose", "fixture.json", "--pp", "huge_pp.json",
         "--provider", "w19.json"],
    ], ids=["eis", "repnum", "decompose"])
    def test_huge_rational_refused(self, tmp_path, argv):
        # the digit bound is read off the text: Fraction('1e99999999') ran
        # until killed, and a 5001-digit m or exponent passed Fraction but
        # raised ValueError past int's 4300-digit printing limit
        acceptance._battery_files(tmp_path)
        pp = json.loads((tmp_path / "mixed_pp.json").read_text())
        pp["principal_part"]["coeffs"][0]["exp"] = "-1e5000"
        (tmp_path / "huge_pp.json").write_text(json.dumps(pp))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run([sys.executable, "-m", "vveis.cli", *argv],
                              capture_output=True, text=True, timeout=10,
                              cwd=tmp_path, env=child_env())
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error (precondition): ")
        assert "more than 1000 digits" in proc.stderr
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        assert cpu < 1, f"{cpu:.2f} s of CPU"

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


# the modules `import vveis` executes, and the two that run on first use
CORE = tuple(sorted(f"vveis.{m}" for m in (
    "errors", "arith", "linalg", "lattice", "repnums", "qseries", "eisenstein",
    "formats")))
LAYERS = ("vveis.borcherds", "vveis.weilrep")
# every module the benchmark's tracer reads out of sys.modules
TRACED = sorted({mod for mod, *_ in (*TRACING.TARGETS, *TRACING.METHODS,
                                     *TRACING.CACHES)})

_LAYER_CHILD = """
import io, json, sys, types
names = sorted({*json.loads(sys.argv[1]), 'vveis'})
states = []

def run(argv):
    from vveis import cli
    return cli.run(argv, stdout=io.StringIO())

for step in json.loads(sys.argv[2]):
    exec(step)
    states.append({
        'missing': [n for n in names if n not in sys.modules],
        'executed': [n for n in names if n.startswith('vveis.')
                     and type(sys.modules.get(n)) is types.ModuleType]})
print(json.dumps(states))
"""


def layer_states(steps, cache_dir=None):
    """Run the steps in order in one fresh interpreter (``run(argv)`` is
    ``cli.run``); after each, the traced, core and layer modules missing
    from sys.modules and those that have executed (a module still waiting
    for its first use is not a plain module)."""
    env = child_env()
    if cache_dir is not None:
        env["VVEIS_CACHE_DIR"] = str(cache_dir)
    names = sorted({*CORE, *LAYERS, *TRACED})
    proc = subprocess.run(
        [sys.executable, "-c", _LAYER_CHILD, json.dumps(names), json.dumps(steps)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# stdlib modules no vveis process imports: the records are namedtuples, so
# nothing loads dataclasses, or inspect with it
UNUSED_STDLIB = ("dataclasses", "inspect")


def imported_modules(args, cwd=None, cache_dir=None):
    """Every module a fresh ``python -X importtime *args`` imports, read off
    its import-time report; one that is never imported is never in
    sys.modules."""
    env = child_env()
    if cache_dir is not None:
        env["VVEIS_CACHE_DIR"] = str(cache_dir)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=120,
                          cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


class TestImports:
    @pytest.mark.parametrize("args", [
        ["-c", "import vveis.cli"],
        ["-m", "vveis.cli", "battery", "--criteria", "1"],
        ["-c", "import vveis.borcherds, vveis.weilrep\n"
               "vveis.borcherds.build_h, vveis.weilrep.weil_matrices"],
    ], ids=["import", "battery", "layers"])
    def test_no_unused_stdlib(self, args):
        modules = imported_modules(args)
        assert "vveis.eisenstein" in modules
        assert not modules & set(UNUSED_STDLIB)

    def test_no_unused_stdlib_in_pipeline_children(self, tmp_path):
        # each cli-pipeline invocation as the benchmark starts it, on an
        # empty cache and then on the entry that run wrote
        work = tmp_path / "work"
        work.mkdir()
        state = WORKLOADS.CliPipeline().setup(1, 1, work)
        cache = tmp_path / "cache"
        loaded = {}
        for name, argv in WORKLOADS._invocations(state):
            for phase in ("miss", "hit"):
                modules = imported_modules(["-m", "vveis.cli", *argv],
                                           cwd=work, cache_dir=cache)
                loaded[f"{name} {phase}"] = sorted(modules & set(UNUSED_STDLIB))
        assert len(loaded) == 16
        assert loaded == {key: [] for key in loaded}

    def test_star_import_resolves_all(self):
        namespace = {}
        exec("from vveis import *", namespace)
        assert len(set(vveis.__all__)) == len(vveis.__all__)
        assert all(namespace[name] is getattr(vveis, name)
                   for name in vveis.__all__)

    def test_import_registers_every_module_and_runs_only_the_core(self):
        # the tracer reads every module it names out of sys.modules right
        # after the import; the two layers are there, unexecuted
        after_package, after_cli = layer_states(["import vveis", "import vveis.cli"])
        for state in (after_package, after_cli):
            assert state == {"missing": [], "executed": list(CORE)}

    @pytest.mark.parametrize("argv,layers", [
        (["info", "fx"], []),
        (["eis", "e8", "--max-exp", "2"], []),
        (["repnum", "uu", "-m", "1", "-a", "12"], []),
        (["weil", "m2"], ["vveis.weilrep"]),
    ], ids=["info", "eis", "repnum", "weil"])
    def test_subcommand_executes_only_the_layers_it_uses(self, lat_files,
                                                         argv, layers):
        cmd = [argv[0], lat_files[argv[1]], *argv[2:]]
        (state,) = layer_states([f"assert run({cmd!r}) == 0"])
        assert state == {"missing": [], "executed": sorted([*CORE, *layers])}

    def test_cache_hits_execute_neither_layer(self, tmp_path, monkeypatch):
        acceptance._battery_files(tmp_path)
        cache = tmp_path / "cache"
        monkeypatch.setenv("VVEIS_CACHE_DIR", str(cache))
        invocations = acceptance._cli_invocations(tmp_path)
        assert [run_cli(argv)[0] for argv in invocations] == [0] * len(invocations)
        states = layer_states([f"assert run({argv!r}) == 0, {argv[0]!r}"
                               for argv in invocations], cache_dir=cache)
        assert states == [{"missing": [], "executed": list(CORE)}] * len(invocations)

    def test_names_resolve_on_first_use(self):
        after_dir, after_weil, after_borcherds, after_star = layer_states([
            "import vveis\n"
            "assert set(vveis.__all__) <= set(dir(vveis))\n"
            "try:\n"
            "    vveis.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert 'no_such_name' in str(exc)\n"
            "else:\n"
            "    raise AssertionError('no AttributeError')",
            "assert vveis.Cyclotomic is vveis.weilrep.Cyclotomic",
            "assert vveis.build_h is vveis.borcherds.build_h",
            "namespace = {}\n"
            "exec('from vveis import *', namespace)\n"
            "assert all(namespace[n] is getattr(vveis, n) for n in vveis.__all__)",
        ])
        assert after_dir["executed"] == list(CORE)
        assert after_weil["executed"] == sorted([*CORE, "vveis.weilrep"])
        assert after_borcherds == after_star == {
            "missing": [], "executed": sorted([*CORE, *LAYERS])}

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
        # the two file locations are the CLI's only settings
        assert cli.Config._fields == ("lattice", "cache_dir")
        assert cli.load_config(env={}) == cli.Config("", "")

    def test_file_and_env_layering(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lattice": "l.json", "cache_dir": "c"}))
        cfg = cli.load_config(str(p), env={"VVEIS_CACHE_DIR": "d"})
        assert cfg.cache_dir == "d"  # env wins
        assert cfg.lattice == "l.json"

    def test_precision_keys_rejected(self, tmp_path, lat_files):
        # the L-value is always exact and the naive cap and the cross-check
        # are no settings: the old keys are unknown keys now, and a config
        # setting them is a usage error
        for key, value in (("prec_bits", 96), ("denom_bound", 96),
                           ("cross_check", True), ("naive_cap", 5)):
            p = tmp_path / f"{key}.json"
            p.write_text(json.dumps({key: value}))
            with pytest.raises(PreconditionError, match="unknown"):
                cli.load_config(str(p), env={})
            code, _, err = run_cli(["--config", str(p), "info", lat_files["e8"]])
            assert code == 2 and key in err

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"precision": 64}))
        with pytest.raises(PreconditionError, match="unknown"):
            cli.load_config(str(p), env={})

    def test_type_checks(self, tmp_path):
        # JSON true and null are no file locations
        for doc in ({"lattice": True}, {"cache_dir": None}):
            p = tmp_path / "cfg.json"
            p.write_text(json.dumps(doc))
            with pytest.raises(PreconditionError, match="must be a string"):
                cli.load_config(str(p), env={})

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

    def test_crosscheck_env_parsing(self):
        # the variable is no CLI setting: the config ignores it
        for raw in ("", "0", "false", "no", "1", "yes", "true"):
            on = raw not in ("", "0", "false", "no")
            assert repnums.crosscheck_flag(raw) is on
            assert cli.load_config(env={"VVEIS_CROSSCHECK": raw}) == cli.Config()

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

    @pytest.mark.parametrize("budget", ["-1", "-3"])
    @pytest.mark.parametrize("command", ["prescribe", "vanish-on"])
    def test_negative_budget_rejected(self, tmp_path, command, budget):
        acceptance._battery_files(tmp_path)
        f = {name: str(tmp_path / f"{name}.json") for name in
             ("fixture", "spec", "empty_basis")}
        args = (["--spec", f["spec"]] if command == "prescribe"
                else ["-m", "1", "--mu", "0,0,0,0"])
        code, out, err = run_cli([command, f["fixture"], *args, "--fixture",
                                  f["empty_basis"], f"--budget={budget}"])
        assert (code, out) == (2, "")
        assert err == f"error (precondition): budget must be >= 0, got {budget}\n"


def fixture_conjugate(seed, k):
    """The k-th GL_n(Z) conjugate U^T G U of the fixture lattice drawn with
    perfbench's ``random_unimodular`` from random.Random(seed)."""
    rng = random.Random(seed)
    gram = WORKLOADS.BASES["fixture"]
    return [WORKLOADS.conjugate(gram, WORKLOADS.random_unimodular(rng, len(gram)))
            for _ in range(k + 1)][k]


class TestNegatedLabels:
    # the conjugate's Smith form and that of its negation label the cosets
    # differently, so the negated side must reuse the conjugate's generators

    def test_provider_round_trip(self, tmp_path):
        # the Eisenstein series of the negated conjugate, read back as a
        # weight-7 provider, is the default provider's series
        lat = tmp_path / "conj.json"
        lat.write_text(json.dumps({"gram": fixture_conjugate(22, 1)}))
        code, series, err = run_cli(["eis", str(lat), "--negate", "--max-exp", "3"])
        assert code == 0, err
        provider = tmp_path / "provider.json"
        provider.write_text(json.dumps({"weight": "7", "elements": [
            {"cusp": False, "series": json.loads(series)}]}))
        argv = ["h-series", str(lat), "-b", "1", "--trunc", "2"]
        code, plain, err = run_cli(argv)
        assert code == 0, err
        assert run_cli([*argv, "--provider", str(provider)]) == (0, plain, "")

    def test_negated_expansion_runs_one_smith_form(self, tmp_path, monkeypatch):
        # a conjugate no other test builds, so its form is not cached yet
        lat = tmp_path / "conj.json"
        lat.write_text(json.dumps({"gram": fixture_conjugate(27, 0)}))
        calls = []
        snf = linalg.smith_normal_form

        def counting(a, det):
            calls.append(det)
            return snf(a, det)

        monkeypatch.setattr(linalg, "smith_normal_form", counting)
        code, _, err = run_cli(["eis", str(lat), "--negate", "--max-exp", "2"])
        assert code == 0, err
        assert len(calls) == 1


class TestCrossCheckSwitch:
    """VVEIS_CROSSCHECK is read once, by repnums, and checks the local counts
    behind every subcommand."""

    @staticmethod
    def _wrong_naive(lattice, m, mu, a, cap=10 ** 8):
        # more solutions than residues: never a correct count
        return repnums.RepCount(m, tuple(mu), a, a ** lattice.rank + 1, "naive")

    @pytest.mark.parametrize("argv", [
        ["eis", "e8", "--max-exp", "2"],
        ["h-series", "fx", "-b", "1", "--trunc", "2"],
    ], ids=["eis", "h-series"])
    def test_every_subcommand_checked(self, lat_files, monkeypatch, argv):
        monkeypatch.setattr(repnums, "CROSSCHECK", True)
        monkeypatch.setattr(repnums, "count_naive", self._wrong_naive)
        code, out, err = run_cli([argv[0], lat_files[argv[1]], *argv[2:]])
        assert (code, out) == (4, "") and "count mismatch" in err

    def test_variable_read_at_import(self, lat_files):
        script = "\n".join([
            "import sys",
            "from vveis import cli, repnums",
            "def wrong(lattice, m, mu, a, cap=10 ** 8):",
            "    return repnums.RepCount(m, tuple(mu), a, a ** lattice.rank + 1, 'naive')",
            "repnums.count_naive = wrong",
            "sys.exit(cli.run(['eis', sys.argv[1], '--max-exp', '2']))",
        ])
        env = {**child_env(), "VVEIS_CROSSCHECK": "1"}
        proc = subprocess.run([sys.executable, "-c", script, lat_files["e8"]],
                              capture_output=True, text=True, timeout=60, env=env)
        assert (proc.returncode, proc.stdout) == (4, ""), proc.stderr
        assert "count mismatch" in proc.stderr


@pytest.fixture(scope="module")
def property_lattices(tmp_path_factory):
    root = tmp_path_factory.mktemp("lattices")
    paths = {}
    for name, gram in [("e8", E8), ("uu", acceptance.direct_sum(U, U)),
                       ("m2", [[-2]]), ("fx", acceptance.FIXTURE_GRAM)]:
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps({"gram": gram}))
    return {name: str(path) for name, path in paths.items()}


# small rationals, malformed strings and values past every budget
VALUES = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12).map(str),
    st.sampled_from(["nan", "", "1/0", "inf", "x", "1.5"]),
    st.integers(10 ** 7, 10 ** 40).map(str), st.just("1e999"))
# moduli whose naive enumerations are small or refused by count_naive's cap
MODULI = st.one_of(st.integers(-2, 7), st.integers(101, 10 ** 4))
COSETS = st.one_of(
    st.none(), st.sampled_from(["x", "1,,2"]),
    st.lists(st.integers(-3, 5), max_size=4).map(lambda xs: ",".join(map(str, xs))))


class TestRunProperty:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_streams(self, property_lattices, data):
        # every run ends in the taxonomy's exit codes, without a traceback,
        # and prints nothing when it fails
        lat = property_lattices[data.draw(st.sampled_from(sorted(property_lattices)))]
        command = data.draw(st.sampled_from(["info", "eis", "repnum"]))
        if command == "info":
            argv = ["info", lat]
        elif command == "eis":
            argv = ["eis", lat, f"--max-exp={data.draw(VALUES)}"]
        else:
            argv = ["repnum", lat, f"-m{data.draw(VALUES)}",
                    f"-a{data.draw(MODULI)}",
                    f"--method={data.draw(st.sampled_from(['auto', 'naive', 'gauss']))}"]
            mu = data.draw(COSETS)
            if mu is not None:
                argv.append(f"--mu={mu}")
        code, out, err = run_cli(argv)
        assert 0 <= code <= 4, (argv, code)
        assert "Traceback" not in err
        assert code == 0 or out == "", (argv, code)


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

        monkeypatch.setattr(weilrep, "weil_matrices", no_weil)
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

    def test_crosscheck_bypasses_the_cache(self, lat_files, tmp_path,
                                           monkeypatch):
        # a cross-checked run is never answered by an entry written without
        # the check, and it writes none
        argv = ["repnum", lat_files["q4"], "-m", "1/8", "--mu", "1", "-a", "8"]
        cache = tmp_path / "cache"
        monkeypatch.setattr(repnums, "CROSSCHECK", False)
        monkeypatch.setenv("VVEIS_CACHE_DIR", str(cache))
        first = run_cli(argv)
        assert first[0] == 0
        entries = sorted(cache.iterdir())
        assert len(entries) == 1
        checks = []
        crosscheck = repnums._crosscheck

        def counting(*args, **kwargs):
            checks.append(args[3:5])
            return crosscheck(*args, **kwargs)

        monkeypatch.setattr(repnums, "_crosscheck", counting)
        monkeypatch.setattr(repnums, "CROSSCHECK", True)
        assert run_cli(argv) == first
        assert checks == [(2, 3)]
        assert run_cli(["eis", lat_files["e8"], "--max-exp", "2"])[0] == 0
        assert checks[1:] == [(2, 3)]  # E8's coefficient at m = 1
        assert sorted(cache.iterdir()) == entries

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


class TestCanonicalBytes:
    # sha256 of each battery invocation's stdout; canonical CLI output may
    # change only on purpose, together with these digests
    DIGESTS = {
        "info": "ad770efedc256b3acd906922c309f05ee80494158dd96049599e69ef209dbaac",
        "repnum": "81e3d747060f3c628fb5d13e588c8d05b5224ae760b866b0a6799ce2e00177f3",
        "eis": "a87644a74ff13dc2d8ac01a590d547e41467df5c95485ec47aaccc39085369e5",
        "weil": "2579cb1a9a2d529ad33f10298c9957fba4f370efc42954cb897a8dd36f434cdf",
        "h-series": "c48754f3e19f0dfff055ecdfd37882be5477b912003a40df3c0e9d08294d927a",
        "decompose": "468aec5ec13cd7e7d1bb9efdd83f94bbdb36d3b4f703584cec37e0986d4df8d2",
        "obstruct": "2de67f4da6bbc00d8b7f5779a89e4fbccbcd79b072e65a335b8a6033995172d8",
        "prescribe": "cef980d9268596789ad579eedef0cdff93772eb1b423fb3e244d0e07cea35151",
        "vanish-on": "ce6cf2b529cf1f977ab08724227314e92a4efde0d7daa07098ed88550645043f",
    }

    def test_battery_invocations_pinned(self, tmp_path, monkeypatch):
        for name in [k for k in os.environ if k.startswith("VVEIS_")]:
            monkeypatch.delenv(name)
        acceptance._battery_files(tmp_path)
        got = {}
        for argv in acceptance._cli_invocations(tmp_path):
            code, out, err = run_cli(argv)
            assert code == 0, (argv[0], err)
            got[argv[0]] = hashlib.sha256(out.encode()).hexdigest()
        assert got == self.DIGESTS


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
