"""The built-in suite behind plain `rdmsim verify`.

It checks the installed numpy against the seeding contract: trial
generators built from precomputed SeedSequence state words must draw
what numpy's own PCG64(derive_seed) draws.  A suite is a list of checks
(name, ok, detail); the CLI prints per-suite counts and fails the
process if anything is red.  The physics invariants are unit tests, and
the acceptance pack lives in rdmsim.acceptance.
"""

import numpy as np

from .seeding import derive_seed, derive_seeds, trial_rngs


def suite_seeding():
    checks = []
    seeds = derive_seeds(12345, 0, 10_000)
    checks.append(("10k derived seeds distinct", np.unique(seeds).size == 10_000, ""))
    # the vectorised SeedSequence hash against the installed numpy's own
    same = all(np.array_equal(gen.random(8), np.random.Generator(
                   np.random.PCG64(derive_seed(master, t))).random(8))
               for master in (12345, 2**64 - 1)
               for t, gen in enumerate(trial_rngs(master, 0, 64)))
    checks.append(("vectorised trial generators match PCG64(derive_seed)", same, ""))
    return checks


def run_suites():
    return {"seeding": suite_seeding()}
