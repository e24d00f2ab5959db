"""Answer checks for the CLI workloads, against outputs frozen in frozen.json.

A table run passes when its file is byte-identical to the frozen one (sha256)
and the table in it passes `products_match` on the weight model. A verify run
passes when it exits 0, reports all_passed, still contains every check the
frozen report had, each passing, and reports the same rank details.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

FROZEN = json.loads((Path(__file__).resolve().parent / "frozen.json").read_text(encoding="utf-8"))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_table_bytes(path, expected_sha: str) -> str | None:
    got = sha256_file(path)
    return None if got == expected_sha else f"table sha256 {got} differs from the frozen {expected_sha}"


def check_table_products(path) -> str | None:
    """Load a JSON table file and check every product on the weight model."""
    from schur2 import algebra, oracle
    from schur2.elements import Flavor

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        products = {}
        for row in doc["products"]:
            terms = []
            for t in row["terms"]:
                q = Fraction(int(t["num"]), int(t["den"]))
                terms.append((t["k"], int(q) if q.denominator == 1 else q))
            products[(row["i"], row["j"])] = tuple(terms)
        basis = tuple((m["a"], m["b"], m["c"]) for m in doc["basis"])
        table = algebra.StructureTable(doc["d"], Flavor(doc["flavor"]), basis, products)
    except (ValueError, KeyError, TypeError) as exc:
        return f"table file does not parse: {exc}"
    if len(products) != len(basis) ** 2:
        return f"table has {len(products)} products for {len(basis)} basis elements"
    ok, detail = oracle.products_match(table, oracle.weight_rep(table.d))
    return None if ok else f"products_match failed: {detail}"


def check_verify_report(stdout: str, exit_code: int, expected: dict) -> list[str]:
    """Problems with one `verify --json` run; empty when it passes."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not a JSON report"]
    if report.get("all_passed") is not True:
        problems.append("all_passed is not true")
    checks = {c.get("name"): c for c in report.get("checks", [])}
    for name in expected["names"]:
        check = checks.get(name)
        if check is None:
            problems.append(f"check {name} is missing")
        elif check.get("passed") is not True:
            problems.append(f"check {name} did not pass")
    for name, detail in expected["details"].items():
        got = checks.get(name, {}).get("detail")
        if name in checks and got != detail:
            problems.append(f"check {name} reports {got!r}, frozen {detail!r}")
    return problems
