"""Write expected.json: the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Records, from the current sources:
- eis-random: each base lattice's (exponent, coefficient) multiset;
- oracle: the Weil invariants at |L'/L| = 8, 16, 32;
- eis-deep and cli-pipeline: output digests for the named seeds 1-10.
Run it only when an output change is intended; the checks exist to catch
unintended ones.
"""

import hashlib
import json
import shutil
import sys

from run import WORK_ROOT, run_pass
from workloads import (BASES, EXPECTED_PATH, RANDOM_TRUNC, ROOT, WEIL_GRAMS,
                       WORKLOADS, digest, expansion_multiset)

NAMED_SEEDS = range(1, 11)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from vveis import eisenstein, lattice, weilrep

    expected = {
        "eis-random": {
            name: expansion_multiset(eisenstein.eis_expansion(lattice.new_lattice(g), RANDOM_TRUNC))
            for name, g in BASES.items()},
        "oracle": {"invariants": {
            str(d): [[str(x) for x in vec] for vec in weilrep.invariants(
                weilrep.weil_matrices(lattice.discriminant_form(lattice.new_lattice(g))))]
            for d, g in WEIL_GRAMS.items()}},
        "eis-deep": {},
        "cli-pipeline": {},
    }
    deep, cli = WORKLOADS["eis-deep"], WORKLOADS["cli-pipeline"]
    work = WORK_ROOT / "record"
    for seed in NAMED_SEEDS:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        records = []
        state = deep.setup(seed, 1, work)
        run_pass(deep, deep.jobs(state, 0), 0, records)
        expected["eis-deep"][str(seed)] = digest(deep.canonical(records))
        records = []
        state = cli.setup(seed, 1, work)
        run_pass(cli, cli.jobs(state, 0), 0, records)
        expected["cli-pipeline"][str(seed)] = {
            r.job.key: hashlib.sha256(r.out[1]).hexdigest()
            for r in records if r.job.kind == "miss"}
        assert all(r.status == "ok" and r.out[0] == 0 for r in records), records
        print(f"seed {seed} recorded", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
