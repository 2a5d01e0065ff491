"""Tests of the benchmark itself (not collected by the repository suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from run import Record, run_pass
from workloads import HERE, ROOT, WORKLOADS, Job

sys.path.insert(0, str(ROOT / "src"))

COUNT_SUFFIXES = (".calls", ".residues", ".hits", ".misses", ".hit_ratio")


def _records(pairs):
    """Records of one pass from (job, output) pairs."""
    return [Record(job, 0, 0.001, "ok", out) for job, out in pairs]


def test_corrupted_coefficient_is_caught(tmp_path):
    wl = WORKLOADS["eis-deep"]
    state = wl.setup(12345, 1, tmp_path)  # not a named seed: universal checks only
    from vveis import eisenstein
    m = Fraction(1)
    zero = state["ctx"].disc.zero()
    c = eisenstein.eis_coefficient(state["lat"], m, zero, ctx=state["ctx"])
    const, coeff = Job("coefficient", None, (Fraction(0), zero), 1), Job("coefficient", None, (m, zero), 1)
    assert c != 0
    assert wl.check(state, _records([(const, Fraction(1)), (coeff, c)])) == []
    for wrong in ([(const, Fraction(2)), (coeff, c)],
                  [(const, Fraction(1)), (coeff, -c)],
                  [(const, Fraction(1)), (coeff, float(c))]):
        assert wl.check(state, _records(wrong)), wrong


def test_named_seed_digest_is_checked(tmp_path):
    wl = WORKLOADS["eis-deep"]
    state = wl.setup(1, 1, tmp_path)
    from vveis import eisenstein
    pairs = [(Job("coefficient", None, (m, mu), 1),
              eisenstein.eis_coefficient(state["lat"], m, mu, ctx=state["ctx"]))
             for m, mu in state["pairs"]]
    assert wl.check(state, _records(pairs)) == []
    i = next(i for i, (job, c) in enumerate(pairs) if job.key[0] != 0 and c != 0)
    changed = list(pairs)
    changed[i] = (pairs[i][0], pairs[i][1] * 2)  # still a Fraction of the same sign
    assert wl.check(state, _records(changed)) == [
        "coefficient digest differs from expected.json"]


def test_even_w_count_is_checked(tmp_path):
    wl = WORKLOADS["eis-deep"]
    state = wl.setup(12345, 1, tmp_path)
    m, mu = state["deep"][9]
    lift = 2 ** (state["lat"].rank - 1)

    def records(n9, n10):
        return _records([(Job("gauss", None, (m, mu, 9)), SimpleNamespace(count=n9)),
                         (Job("gauss", None, (m, mu, 10)), SimpleNamespace(count=n10))])
    assert wl.check(state, records(3, 3 * lift)) == []
    assert wl.check(state, records(3, 3 * lift + 1))


def test_overrun_is_stopped_and_charged_at_the_budget():
    wl = SimpleNamespace(budget_s=0.2, clock=time.process_time)

    def spin():
        while True:
            pass
    records = []
    run_pass(wl, [Job("spin", spin), Job("quick", lambda: 1)], 0, records)
    assert [r.status.split()[0] for r in records] == ["timeout", "ok"]
    assert records[0].latency == 0.2
    assert records[1].out == 1


def test_cli_byte_change_is_caught(tmp_path):
    wl = WORKLOADS["cli-pipeline"]
    state = wl.setup(1, 1, tmp_path)
    argv = ["info", "fixture.json"]
    out = wl._invoke(state, argv, tmp_path / "cache")
    miss, hit = Job("miss", None, "info"), Job("hit", None, "info")
    assert wl.check(state, _records([(miss, out), (hit, out)])) == []
    changed = (out[0], out[1].replace(b"14", b"15"), out[2])
    assert changed != out
    assert "info: hit bytes differ from miss bytes" in wl.check(
        state, _records([(miss, out), (hit, changed)]))
    assert "info: output sha256 differs from expected.json" in wl.check(
        state, _records([(miss, changed), (hit, changed)]))
    failed = (2, b"", b"error")
    assert wl.check(state, _records([(miss, failed), (hit, failed)]))


def test_wrong_multiset_is_caught(tmp_path):
    wl = WORKLOADS["eis-random"]
    state = wl.setup(1, 1, tmp_path)
    from vveis import eisenstein, lattice
    from workloads import BASES, RANDOM_TRUNC
    e7 = eisenstein.eis_expansion(lattice.new_lattice(BASES["E7"]), RANDOM_TRUNC)
    assert wl.check(state, _records([(Job("expansion", None, "E7"), e7)])) == []
    assert wl.check(state, _records([(Job("expansion", None, "E8"), e7)]))
    e7.coeffs[next(iter(e7.coeffs))] += Fraction(1, 3)
    assert wl.check(state, _records([(Job("expansion", None, "E7"), e7)]))


def _traced(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["correct"]
    counts = {k: v["value"] for k, v in doc["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    return counts, doc["failed"]


@pytest.mark.parametrize("workload", ["eis-deep", "eis-random", "cli-pipeline"])
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload), _traced(workload)
    assert first == second
    assert any(first[0].values())
