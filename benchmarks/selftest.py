"""Self-tests of the benchmark's checkers, and a small-size smoke run.

    python3 benchmarks/selftest.py

Each checker gets one right answer, which it must pass, and one deliberately
wrong one, which it must count as failed: a perturbed query coefficient, a
table file with one changed byte, and a verify report with one check removed.
The smoke run drives all four workloads through run.py at small sizes, with
and without tracing, and checks the result line against BENCHMARK.json. Takes
about a minute; prints one line per test and exits 1 if any failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_work" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import queries  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "schur2.cli", *argv],
        cwd=ROOT, capture_output=True, text=True, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )


def _bench(*args: str, python_flags: tuple[str, ...] = (), cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *python_flags, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output; stderr: {proc.stderr[-500:]}"
    return json.loads(lines[-1])


def test_query_checker_catches_perturbed_coefficients():
    stream = queries.make_stream(seed=7, n=60, max_d=4)
    models: dict = {}
    answers = [queries.answer_payload(req["kind"], queries.run_request(req)[1]) for req in stream]
    for req, answer in zip(stream, answers):
        assert queries.check_answer(req, answer, models) is None, (req, answer)
    perturbed = set()
    for req, answer in zip(stream, answers):
        if req["kind"] in perturbed or not answer:
            continue
        wrong = json.loads(json.dumps(answer))
        if req["kind"] == "minpoly":
            wrong[0] = str(Fraction(wrong[0]) + 1)
        else:
            wrong[0][-1] = str(Fraction(wrong[0][-1]) + 1)
        assert queries.check_answer(req, wrong, models) is not None, (req, wrong)
        perturbed.add(req["kind"])
    assert perturbed == set(queries.KINDS), perturbed


def test_table_checker_catches_one_changed_byte():
    path = SCRATCH / "table-d3.json"
    proc = _cli("table", "--d", "3", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    expected = checks.FROZEN["table"]["3"]
    assert checks.check_table_bytes(path, expected) is None
    assert checks.check_table_products(path) is None
    text = path.read_text(encoding="utf-8")
    at = text.index('"num": "1"') + len('"num": "')
    path.write_text(text[:at] + "2" + text[at + 1 :], encoding="utf-8")
    assert checks.check_table_bytes(path, expected) is not None
    assert checks.check_table_products(path) is not None


def test_verify_checker_catches_a_removed_check():
    proc = _cli("verify", "--d", "3", "--oracle", "both", "--json")
    expected = checks.FROZEN["verify"]["3/both"]
    assert checks.check_verify_report(proc.stdout, proc.returncode, expected) == []
    report = json.loads(proc.stdout)
    dropped = dict(report, checks=[c for c in report["checks"] if c["name"] != "rank:tensor"])
    problems = checks.check_verify_report(json.dumps(dropped), 0, expected)
    assert problems == ["check rank:tensor is missing"], problems
    changed = json.loads(proc.stdout)
    next(c for c in changed["checks"] if c["name"] == "rank:weight")["detail"] = "rank 19 vs dimension 20"
    assert checks.check_verify_report(json.dumps(changed), 0, expected)
    assert checks.check_verify_report(proc.stdout, 1, expected)


def test_smoke_all_workloads():
    names = {0: {m["name"] for m in SPEC["end_to_end"]}, 1: {m["name"] for m in SPEC["per_layer"]}}
    calls: dict = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1, 1):
            proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr[-800:]
            result = _last_json(proc)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stdout[-800:])
            assert set(result["metrics"]) == names[trace], (workload, set(result["metrics"]) ^ names[trace])
            if trace:
                counts = {k: m["value"] for k, m in result["metrics"].items() if k.endswith(".calls")}
                # Counts repeat exactly between two traced runs of the same seed.
                assert calls.setdefault(workload, counts) == counts, (workload, counts)


def test_refuses_python_optimize():
    proc = _bench("--workload", "queries-mixed", "--seed", "1", "--seconds", "1", "--smoke", python_flags=("-O",))
    assert proc.returncode != 0 and "-O" in proc.stderr and not proc.stdout.strip(), proc


def test_fails_without_the_package():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "table-d10", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name, test in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            test()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
