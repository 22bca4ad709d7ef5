"""Correctness checks on the program's outputs.

Every check returns a list of error strings (empty when the output passes).
The expected values are computed here from closed forms with ``math``
alone, apart from the program under test.  ``selftest.py`` feeds each check
a perturbed value and shows that it is rejected.
"""

from __future__ import annotations

import csv
import io
import math

# |estimate - expected value| may be at most this many standard errors.
SE_LIMIT = 4.0


def parse_records(text: str) -> list[dict]:
    """Records of a CSV file written by ``kacrice run`` (floats round-trip by repr)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    for row in rows:
        rec = {key: float(val) for key, val in row.items() if key != "experiment"}
        rec["experiment"] = row["experiment"]
        out.append(rec)
    return out


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def within_se(label: str, value: float, se: float, expected: float) -> list[str]:
    if not (math.isfinite(value) and math.isfinite(se)):
        return [f"{label}: non-finite estimate {value} +- {se}"]
    if abs(value - expected) > SE_LIMIT * se:
        return [f"{label}: {value!r} is more than {SE_LIMIT} SE ({se!r}) "
                f"from the expected value {expected!r}"]
    return []


def identical(label: str, outputs: list) -> list[str]:
    """Every operation of a run must give exactly the first operation's output."""
    bad = [i for i, out in enumerate(outputs) if out != outputs[0]]
    if bad:
        return [f"{label}: operations {bad[:5]} differ from operation 0"]
    return []


def check_record(records: list[dict], experiment: str, formula: float, formula_rel: float,
                 seed: int) -> list[str]:
    """One record of ``experiment`` whose formula side is ``formula`` to
    ``formula_rel`` relative, written for ``seed``."""
    if len(records) != 1 or records[0].get("experiment") != experiment:
        return [f"expected one {experiment} record, got {records!r}"]
    rec = records[0]
    errors = []
    if not close(rec["formula"], formula, formula_rel):
        errors.append(f"{experiment} formula {rec['formula']!r} is not {formula!r} "
                      f"to {formula_rel} relative")
    if rec["seed"] != seed:
        errors.append(f"{experiment} record seed {rec['seed']} != {seed}")
    return errors


def point_count_expected(degree: int) -> float:
    """Kostlan degree d on S^1: E #zeros = 2 sqrt(d) (Edelman-Kostlan)."""
    return 2.0 * math.sqrt(degree)


def sphere_count_expected(degrees: tuple[int, int]) -> float:
    """Kostlan pair on S^2: E #projective common zeros = sqrt(d1 d2) (Shub-Smale)."""
    return math.sqrt(degrees[0] * degrees[1])


def kinematic_expected(rho: float) -> float:
    """Poincare formula on S^2: L1 L2 / (2 pi^2) = 2 sin(rho) for a latitude
    circle of polar radius rho against a great circle."""
    return (2.0 * math.pi * math.sin(rho)) * (2.0 * math.pi) / (2.0 * math.pi**2)


def circle_target_expected(degree: int, radius: float) -> float:
    """Kostlan S^1 -> R^2, preimage of the circle |y| = r:
    2 sqrt(d) r sqrt(2 pi) exp(-r^2 / 2)."""
    return 2.0 * math.sqrt(degree) * radius * math.sqrt(2.0 * math.pi) * math.exp(-radius**2 / 2)


def segment_target_expected(degree: int, half_length: float) -> float:
    """Kostlan S^1 -> R^2, preimage of the segment {t u : |t| <= L}:
    2 sqrt(d) erf(L / sqrt 2)."""
    return 2.0 * math.sqrt(degree) * math.erf(half_length / math.sqrt(2.0))


def check_per_realization(label: str, samples: list[tuple[int, bool]], max_count: int,
                          record: dict) -> list[str]:
    """Counts of single realizations seen by the traced run.

    Unflagged counts must be even and at most ``max_count``, and their mean
    must be the record's ``oracle_mean`` (and their number its ``n``).
    """
    kept = [count for count, flagged in samples if not flagged]
    if not kept:
        return [f"{label}: no unflagged per-realization counts"]
    errors = []
    odd = [c for c in kept if c % 2]
    if odd:
        errors.append(f"{label}: {len(odd)} odd counts, e.g. {odd[0]}")
    over = [c for c in kept if c > max_count or c < 0]
    if over:
        errors.append(f"{label}: {len(over)} counts outside [0, {max_count}], e.g. {over[0]}")
    mean = math.fsum(kept) / len(kept)
    if not close(mean, record["oracle_mean"], 1e-12):
        errors.append(f"{label}: mean of per-realization counts {mean!r} != "
                      f"record oracle_mean {record['oracle_mean']!r}")
    if len(kept) != record["n"]:
        errors.append(f"{label}: {len(kept)} unflagged counts but record n = {record['n']}")
    return errors
