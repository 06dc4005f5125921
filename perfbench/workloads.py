"""Command lists of the three benchmark workloads.

Every workload is a closed loop: one CLI command at a time, from one
process.  A command is the argv list given to ``besselnorms.cli.main``
without the shared flags (``--format``, ``--cache``), which the worker adds.

Only ``paper-session`` depends on the seed; the other two are the paper's
fixed verification lists and ignore it.
"""

from __future__ import annotations

import math
import random

# Seconds of run time allotted to one pass: the pass itself plus its share
# of the checks that follow it, when the benchmark was defined.  A run makes
# floor(--seconds / budget) passes (at least MIN_PASSES), so every commit is
# measured on the same number of passes and latency samples and the tail
# percentile compares like with like.
PASS_BUDGET_S = {
    "sup-monotone": 7.5,
    "local-maximizer": 10.0,
    "paper-session": 3.0,
}
MIN_PASSES = 2

LOCAL_PAIRS = [(2, 6.0), (3, 4.0), (4, 10.0 / 3.0), (5, 3.0)]

REPRODUCE_TABLES = ("sup-values", "p4-truncations", "pst-truncations", "thresholds")

# paper-session norm queries.  Even exponents (|J|^p smooth, few refinement
# rounds) get one query per degree block; the others (p_st other than 4 or
# 6, and inf), 3-5 times slower, one query each.  The median command then
# sits well inside the even-exponent cluster, so cmd_p50_ms does not jump
# between the two clusters from seed to seed; every seed asks the same mix.
EVEN_P_BLOCKS = ((0, 1), (2, 3), (4, 5), (6, 7), (8,))
COSTLY_P_BLOCKS = (tuple(range(9)),)
QUERY_RADII = (None, 40.0, 50.0, 200.0)
REPEATS = 25


def stein_tomas(d: int) -> float:
    return 2.0 * (d + 1) / (d - 1)


def sup_monotone(seed: int) -> list[list[str]]:
    """The sup path only: critical-point search, guard scan and jv."""
    return [["verify", "sup-monotone", "--d", str(d), "--K", "30"] for d in range(2, 11)]


def local_maximizer(seed: int) -> list[list[str]]:
    """Cross integrals and non-integer-exponent quadrature; M(k) is computed
    once in holder-chain and again in local-coefficients."""
    commands = []
    for d, p in LOCAL_PAIRS:
        for k in range(1, 9):
            commands.append(["verify", "holder-chain", "--d", str(d), "--p", repr(p), "--k", str(k)])
        commands.append(["verify", "local-coefficients", "--d", str(d), "--p", repr(p), "--K", "8"])
    return commands


def reproduction_commands() -> list[list[str]]:
    commands = [["reproduce", "--table", table] for table in REPRODUCE_TABLES]
    commands += [["verify", "p4", "--d", str(d)] for d in range(3, 11)]
    commands += [["verify", "pst", "--d", str(d)] for d in range(4, 11)]
    commands += [["sweep", "--d", str(d)] for d in range(2, 11)]
    return commands


def exponents(d: int) -> list[float]:
    """p_st(d), 4 where admissible, 6 and inf, without duplicates."""
    out = []
    for p in (stein_tomas(d), 4.0, 6.0, math.inf):
        if p > 2.0 * d / (d - 1) and p not in out:
            out.append(p)
    return out


def norm_query(d: int, p: float, k: int, R: float | None) -> list[str]:
    argv = ["norm", "--d", str(d), "--p", "inf" if math.isinf(p) else repr(p), "--k", str(k)]
    if R is not None:
        argv += ["--R", repr(R)]
    return argv


def paper_session(seed: int) -> list[list[str]]:
    """The reproduction commands, in order, interleaved at seeded positions
    with norm queries of seeded degree and radius; REPEATS of them re-ask an
    earlier identity."""
    rng = random.Random(seed)
    queries = [
        norm_query(d, p, rng.choice(block), rng.choice(QUERY_RADII))
        for d in range(2, 11)
        for p in exponents(d)
        for block in (EVEN_P_BLOCKS if p % 2 == 0 else COSTLY_P_BLOCKS)
    ]
    rng.shuffle(queries)
    for _ in range(REPEATS):
        at = rng.randint(1, len(queries))
        queries.insert(at, list(rng.choice(queries[:at])))
    repro = reproduction_commands()
    slots = [True] * len(repro) + [False] * len(queries)
    rng.shuffle(slots)
    repro_iter, query_iter = iter(repro), iter(queries)
    return [next(repro_iter) if is_repro else next(query_iter) for is_repro in slots]


WORKLOADS = {
    "sup-monotone": sup_monotone,
    "local-maximizer": local_maximizer,
    "paper-session": paper_session,
}


def commands_for(workload: str, seed: int) -> list[list[str]]:
    return WORKLOADS[workload](seed)
