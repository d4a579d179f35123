"""The four benchmark workloads: their CLI arguments, seeded inputs and
correctness checks that do not use reflectron's own code.

Only `reconcile` depends on the seed (its field tables are generated
from it); `verify`, `tabulate` and `classgroup` are fixed --dmax/--xmax
ranges, so every seed gives them the same inputs.  No report depends on
the seed.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

NAMES = ("verify", "tabulate", "classgroup", "reconcile")

# "full" is what the benchmark measures; "smoke" runs every code path
# of the harness in seconds
SIZES = {
    "full": {
        "verify": 3000,
        "tabulate": 160000,
        "classgroup": 1600,
        "reconcile": 300,
        "distractors": 800,
    },
    "smoke": {
        "verify": 50,
        "tabulate": 2000,
        "classgroup": 50,
        "reconcile": 50,
        "distractors": 30,
    },
}

# workers for the pool workload: the benchmark is sized for 2 cores
TABULATE_WORKERS = 2

# reconcile invocations cycle through this many seeded tables, so that a
# run's figures do not rest on the row order of one table (peak memory
# depends on the order in which table discriminants are factored)
RECONCILE_TABLES = 8

_NEAR_MISS_LABELS = ("C5", "D5", "A5", "S5")


@dataclass(frozen=True)
class Workload:
    name: str
    argvs: tuple[tuple[str, ...], ...]  # successive invocations cycle through these
    workers: int
    limit: int  # the --dmax or --xmax of the invocation


def fundamental_discriminants(n: int) -> list[int]:
    """Fundamental discriminants D with 1 < |D| <= n, ordered by (|D|, D),
    the order of every reflectron report: a squarefree sieve, independent
    of reflectron.arith."""
    squarefree = bytearray([1]) * (n + 1)
    for p in range(2, isqrt(n) + 1):
        squarefree[p * p :: p * p] = bytes(len(range(p * p, n + 1, p * p)))
    out = []
    for m in range(2, n + 1):
        for D in (-m, m):
            if D % 4 == 1 and squarefree[m]:
                out.append(D)
            elif D % 4 == 0 and (D // 4) % 4 in (2, 3) and squarefree[m // 4]:
                out.append(D)
    return out


def corollary5_scope(dmax: int) -> list[int]:
    """The d that `check-table --corollary5 --dmax` reports, in order."""
    return [d for d in fundamental_discriminants(dmax) if d % 5]


def build(name: str, size: str, seed: int, workdir: Path, reference: dict) -> Workload:
    """The workload's CLI arguments, after writing any seeded input it needs."""
    sizes = SIZES[size]
    limit = sizes[name]
    if name == "verify":
        argvs = [("verify-on", "--dmax", str(limit), "--workers", "1")]
    elif name == "tabulate":
        argvs = [("cubic-tab", "--xmax", str(limit), "--workers", str(TABULATE_WORKERS))]
    elif name == "classgroup":
        argvs = [("classgroup", "--dmax", str(limit))]
    elif name == "reconcile":
        rng = random.Random(seed)
        lhs = {int(d): n for d, n in reference["corollary5_lhs"].items()}
        argvs = []
        for k in range(RECONCILE_TABLES):
            table = workdir / f"reconcile_table_{k}.csv"
            table.write_text(reconcile_table(limit, sizes["distractors"], rng, lhs))
            argvs.append(
                ("check-table", "--table", str(table), "--corollary5", "--dmax", str(limit))
            )
    else:
        raise ValueError(f"unknown workload {name!r}")
    workers = TABULATE_WORKERS if name == "tabulate" else 1
    return Workload(name, tuple(argvs), workers, limit)


def _corollary5_targets(d: int) -> tuple[int, list[int]]:
    # the three degree-5 targets of the aggregate identity: r2 and 5^v d^2
    return (0 if d < 0 else 2), [5**v * d * d for v in (3, 5, 7)]


def reconcile_table(
    dmax: int, distractors: int, rng: random.Random, lhs: dict[int, int]
) -> str:
    """A synthetic degree-5 field table for `check-table --corollary5`.

    Per prediction: exactly lhs true F5 rows spread over its three
    targets, and one near miss (a target magnitude with r2 = 1, which no
    target has, or a non-F5 Galois label).  Then `distractors` rows with
    |disc| in [10^6, 10^12) that hit no target magnitude, with mixed
    signs, r2 and labels.  Rows are shuffled; every choice comes from rng.
    """
    rows = []
    all_targets = set()
    for d in corollary5_scope(dmax):
        r2, mags = _corollary5_targets(d)
        all_targets.update(mags)
        for _ in range(lhs[d]):
            rows.append((r2, rng.choice(mags), "F5"))
        if rng.random() < 0.5:
            rows.append((1, -rng.choice(mags), "F5"))
        else:
            rows.append((r2, rng.choice(mags), rng.choice(_NEAR_MISS_LABELS)))
    for _ in range(distractors):
        mag = rng.randrange(10**6, 10**12)
        while mag in all_targets:
            mag = rng.randrange(10**6, 10**12)
        galois = rng.choice(("F5",) + _NEAR_MISS_LABELS)
        rows.append((rng.randrange(3), rng.choice((1, -1)) * mag, galois))
    rng.shuffle(rows)
    lines = ["label,degree,r2,disc,galois"]
    for k, (r2, disc, galois) in enumerate(rows):
        lines.append(f"5.{r2}.{abs(disc)}.{k},5,{r2},{disc},{galois}")
    return "\n".join(lines) + "\n"


def _kronecker_prime(D: int, p: int) -> int:
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    if D % p == 0:
        return 0
    return 1 if pow(D % p, (p - 1) // 2, p) == 1 else -1


def class_numbers(discs: list[int]) -> dict[int, int]:
    """h(D) for each D < -4 by the analytic class number formula
    h(D) = (2 - chi(2))^-1 * sum_{0 < a < |D|/2} chi(a), chi = (D/.)."""
    negative = [D for D in discs if D < -4]
    if not negative:
        return {}
    top = (max(-D for D in negative) - 1) // 2
    spf = list(range(top + 1))
    for p in range(2, isqrt(top) + 1):
        if spf[p] == p:
            for q in range(p * p, top + 1, p):
                if spf[q] == q:
                    spf[q] = p
    out = {}
    for D in negative:
        half = (-D - 1) // 2
        chi = [0, 1] + [0] * (half - 1)
        for a in range(2, half + 1):
            p = spf[a]
            chi[a] = _kronecker_prime(D, p) if p == a else chi[p] * chi[a // p]
        h, rem = divmod(sum(chi), 2 - _kronecker_prime(D, 2))
        if rem or h < 1:
            raise ArithmeticError(f"class number formula gave no integer at D = {D}")
        out[D] = h
    return out


def _csv_rows(report: bytes, header: list[str]) -> list[dict[str, str]]:
    reader = csv.DictReader(io.StringIO(report.decode()))
    if reader.fieldnames != header:
        raise ValueError(f"header {reader.fieldnames} is not {header}")
    return list(reader)


def _check_verify(report: bytes, dmax: int, _) -> str | None:
    rows = _csv_rows(report, ["ell", "D", "N3_Dstar", "N3_27D", "rhs", "verdict"])
    expected = [D for D in fundamental_discriminants(dmax) if D != -3]
    if [int(r["D"]) for r in rows] != expected:
        return "rows are not the fundamental discriminants in range"
    for r in rows:
        if r["verdict"] != "pass":
            return f"verdict {r['verdict']!r} at D = {r['D']}"
        if int(r["N3_Dstar"]) + int(r["N3_27D"]) != int(r["rhs"]):
            return f"counts do not add up at D = {r['D']}"
    return None


def _check_tabulate(report: bytes, xmax: int, _) -> str | None:
    rows = _csv_rows(report, ["disc", "count"])
    counts = {int(r["disc"]): int(r["count"]) for r in rows}
    if any(n < 1 or not 0 < abs(disc) <= xmax for disc, n in counts.items()):
        return "a row is outside the window or has no fields"
    for D in fundamental_discriminants(xmax // 27):
        if D == -3:
            continue
        dstar = -3 * D if D % 3 else -D // 3
        n = counts.get(D, 0)
        rhs = n if D < 0 else 3 * n + 1
        if counts.get(dstar, 0) + counts.get(-27 * D, 0) != rhs:
            return f"N3(D*) + N3(-27D) != rhs at D = {D}"
    return None


def _check_classgroup(report: bytes, dmax: int, _) -> str | None:
    rows = _csv_rows(report, ["D", "h", "divisors", "narrow"])
    discs = fundamental_discriminants(dmax)
    if [int(r["D"]) for r in rows] != discs:
        return "rows are not the fundamental discriminants in range"
    analytic = class_numbers(discs)
    for r in rows:
        D, h = int(r["D"]), int(r["h"])
        product = 1
        for n in r["divisors"].split("x"):
            product *= int(n)
        if product != h:
            return f"elementary divisors do not multiply to h at D = {D}"
        if r["narrow"] != ("true" if D > 0 else "false"):
            return f"narrow flag wrong at D = {D}"
        if D in analytic and analytic[D] != h:
            return f"h = {h} but the class number formula gives {analytic[D]} at D = {D}"
    return None


def _check_reconcile(report: bytes, dmax: int, reference: dict) -> str | None:
    rows = json.loads(report)
    scope = corollary5_scope(dmax)
    if [r["D"] for r in rows] != scope:
        return "rows are not the corollary5 scope"
    for r in rows:
        if r["mode"] != "exact" or r["verdict"] != "pass":
            return f"{r['mode']} row with verdict {r['verdict']!r} at D = {r['D']}"
        if not r["observed"] == r["expected"] == reference["corollary5_lhs"][str(r["D"])]:
            return f"observed {r['observed']}, expected {r['expected']} at D = {r['D']}"
    return None


_CHECKS = {
    "verify": _check_verify,
    "tabulate": _check_tabulate,
    "classgroup": _check_classgroup,
    "reconcile": _check_reconcile,
}


def check(workload: Workload, report: bytes, reference: dict) -> str | None:
    """Why the report is wrong, or None when every independent check passes."""
    try:
        return _CHECKS[workload.name](report, workload.limit, reference)
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable report: {err!r}"
