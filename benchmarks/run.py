"""The schur2 benchmark: four workloads, every answer checked.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is there):

    table-d10           schur2 table --d 10 (JSON)
    verify-weight-d14   schur2 verify --d 14 --json
    verify-tensor-d8    schur2 verify --d 8 --oracle both --json
    queries-mixed       a seeded stream of library requests, one client, closed loop

Each unit of timed work runs in a fresh process, as every CLI user gets, and
is repeated until the timed work adds up to --seconds (at least once); the
metrics are medians over these units. Set-up time is the median over at least
SETUP_MIN fresh processes that import schur2 and get the first input ready
(for CLI workloads: `schur2 dim --d 0`); SETUP_PER_UNIT of them run before
each timed unit and the rest after the last, so that they sample the same
stretch of time as the units. Answers are checked outside the timed region;
a wrong answer, a nonzero exit code, an exception or a missing check counts
as a failed operation.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics. Every workload must report every one of them, so on the CLI
workloads latency_p50_ms and latency_p99_ms are taken over the per-invocation
process walls: they restate wall_s rather than add a signal, and where one
invocation fills a run (verify-tensor-d8) all three are the same sample.
With --trace 1 the run makes one untraced and one traced unit and
reports the per-layer metrics, including the tracing overhead. Earlier
lines print every metric by name with its unit, the failure ratio and the
environment. Full records go to .bench_work/ in the checkout.

The seed only shapes queries-mixed. The CLI workloads have fixed inputs by
design, so that their outputs can be gated on frozen bytes.

`--smoke` runs the same code at small sizes; benchmarks/selftest.py uses it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_MIN = 16
SETUP_PER_UNIT = 3
PROCESS_TIMEOUT_S = 150.0
RUN_BUDGET_S = 120.0  # stop repeating before a run could pass this

# name -> (schur2 argv with {d} and {out}, full d, smoke d)
CLI_WORKLOADS = {
    "table-d10": (["table", "--d", "{d}", "--out", "{out}"], 10, 3),
    "verify-weight-d14": (["verify", "--d", "{d}", "--json"], 14, 7),
    "verify-tensor-d8": (["verify", "--d", "{d}", "--oracle", "both", "--json"], 8, 3),
}
# queries-mixed: (requests, largest d) in a full run and in a smoke run.
QUERIES = {"full": (1000, 10), "smoke": (100, 4)}
WORKLOAD_NAMES = (*CLI_WORKLOADS, "queries-mixed")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


# -- environment ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "sys_flags_optimize": sys.flags.optimize,
        "platform": platform.platform(),
    }


# -- processes --------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Proc:
    """One finished child process: wall time, peak RSS, exit code, stdout."""

    def __init__(self, cmd: list[str], tag: str):
        out_path = WORK / f"{tag}.{os.getpid()}.out"
        err_path = WORK / f"{tag}.{os.getpid()}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            self.wall_s = time.perf_counter() - start
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.exit_code = proc.returncode
        self.stdout = out_path.read_text(encoding="utf-8", errors="replace")
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        err_path.unlink()


def _schur2_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "schur2.cli", *argv]


def _child_cmd(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *args]


def repeat(unit, setup, run: Run, seconds: float) -> None:
    """Call unit(i) until the timed work in run.walls adds up to `seconds`.

    It runs at least once. SETUP_PER_UNIT set-up samples (`setup(j)`) precede
    each unit, and after the last unit more follow, at least SETUP_PER_UNIT,
    until there are SETUP_MIN. Checking is not timed work; a run also stops
    when one more unit, checks and set-ups included, could take it past
    RUN_BUDGET_S.
    """
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        for _ in range(SETUP_PER_UNIT):
            setup(len(run.setup))
        unit(i)
        i += 1
        now = time.perf_counter()
        if sum(run.walls) >= seconds or now - start + 1.5 * (now - t0) > RUN_BUDGET_S:
            break
    for _ in range(max(SETUP_PER_UNIT, SETUP_MIN - len(run.setup))):
        setup(len(run.setup))


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


# -- workloads ----------------------------------------------------------------------


class Run:
    """Accumulates the operations, failures and measurements of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.latencies_ms: list[float] = []
        self.setup: list[float] = []
        self.layers: dict[str, float] = {}
        self.notes: dict = {}

    def op(self, problems) -> None:
        """Count one operation; it failed if any entry of `problems` is set."""
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.failures.append("; ".join(problems))


def _setup_cli(run: Run, i: int) -> None:
    p = Proc(_schur2_cmd(["dim", "--d", "0"]), f"setup{i}")
    run.setup.append(p.wall_s)
    run.op([f"setup exit code {p.exit_code}" if p.exit_code else None,
            None if p.stdout == "1\n" else f"`dim --d 0` printed {p.stdout!r}"])


def _cli_check(run: Run, kind: str, d: int, oracle: str, p, out_path: Path, products_ok: dict) -> None:
    import checks

    problems = [p.stderr.strip().splitlines()[-1] if p.exit_code and p.stderr.strip() else None]
    if kind == "table":
        if p.exit_code:
            problems.append(f"exit code {p.exit_code}")
        elif not out_path.is_file():
            problems.append("no table file written")
        else:
            problems.append(checks.check_table_bytes(out_path, checks.FROZEN["table"][str(d)]))
            if not problems[-1]:
                # Identical bytes give an identical verdict: check them once a run.
                if "verdict" not in products_ok:
                    products_ok["verdict"] = checks.check_table_products(out_path)
                problems.append(products_ok["verdict"])
            run.notes["output_bytes"] = out_path.stat().st_size
        if out_path.exists():
            out_path.unlink()
    else:
        expected = checks.FROZEN["verify"][f"{d}/{oracle}"]
        problems.extend(checks.check_verify_report(p.stdout, p.exit_code, expected))
        run.notes["output_bytes"] = len(p.stdout.encode())
    run.op(problems)


def run_cli_workload(name: str, seconds: float, trace: bool, smoke: bool) -> Run:
    template, full_d, smoke_d = CLI_WORKLOADS[name]
    d = smoke_d if smoke else full_d
    kind = template[0]
    oracle = template[template.index("--oracle") + 1] if "--oracle" in template else "auto"
    run = Run()
    products_ok: dict = {}

    def argv_for(i: int, tag: str) -> tuple[list[str], Path]:
        out_path = WORK / f"{name}-{tag}{i}.{os.getpid()}.json"
        return [a.format(d=d, out=out_path) for a in template], out_path

    if not trace:
        def unit(i: int) -> None:
            argv, out_path = argv_for(i, "rep")
            p = Proc(_schur2_cmd(argv), f"{name}-rep{i}")
            run.walls.append(p.wall_s)
            run.rss.append(p.rss_mb)
            run.latencies_ms.append(p.wall_s * 1000)
            _cli_check(run, kind, d, oracle, p, out_path, products_ok)

        repeat(unit, lambda j: _setup_cli(run, j), run, seconds)
        return run

    # Traced run: one untraced and one traced unit through the same child.
    work = {}
    for traced in (False, True):
        argv, out_path = argv_for(int(traced), "trace")
        result_path = WORK / f"{name}-result{int(traced)}.{os.getpid()}.json"
        args = ["cli", "--result", str(result_path)]
        if traced:
            args += ["--trace-out", str(trace_path(name))]
        p = Proc(_child_cmd(*args, "--", *argv), f"{name}-trace{int(traced)}")
        _cli_check(run, kind, d, oracle, p, out_path, products_ok)
        result = _read_result(run, result_path)
        work[traced] = result.get("work_s", p.wall_s)
        if traced:
            run.layers = result.get("layers", {})
            run.notes["absent"] = result.get("absent", [])
    _trace_summary(run, work)
    return run


def _read_result(run: Run, path: Path) -> dict:
    try:
        result = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        run.op(["the measured process wrote no result"])
        return {}
    path.unlink()
    return result


def trace_path(name: str) -> Path:
    return WORK / f"trace-{name}.json"


def _trace_summary(run: Run, work: dict) -> None:
    run.layers["cli.output_bytes"] = run.notes.get("output_bytes", 0)
    run.layers["trace.wall_s"] = work[True]
    run.layers["trace.overhead_s"] = work[True] - work[False]


def run_queries_workload(seed: int, seconds: float, trace: bool, smoke: bool) -> Run:
    import queries

    n, max_d = QUERIES["smoke" if smoke else "full"]
    run = Run()
    base = ["queries", "--seed", str(seed), "--n", str(n), "--max-d", str(max_d)]

    def setup(i: int) -> None:
        p = Proc(_child_cmd(*base, "--setup-only"), f"setup{i}")
        run.setup.append(p.wall_s)
        run.op([f"setup exit code {p.exit_code}: {p.stderr.strip()[-300:]}" if p.exit_code else None])

    stream = queries.make_stream(seed, n, max_d)
    verdicts: dict[int, str | None] = {}
    models: dict = {}
    first_texts: list = []

    def check_pass(result: dict) -> None:
        answers = result.get("answers") or [None] * n
        texts = result.get("texts") or [None] * n
        errors = {int(k): v for k, v in result.get("errors", {}).items()}
        if not first_texts:
            first_texts.extend(texts)
        for i, req in enumerate(stream):
            if i in errors:
                run.op([errors[i]])
            elif answers[i] is None:
                run.op(["no answer"])
            elif texts[i] != first_texts[i]:
                # Answers are deterministic; a changed one is checked on its own.
                run.op([queries.check_answer(req, answers[i], models) or None,
                        "answer text changed between passes"])
            else:
                if i not in verdicts:
                    verdicts[i] = queries.check_answer(req, answers[i], models)
                run.op([verdicts[i]])
        run.notes["output_bytes"] = sum(len(t.encode()) for t in texts if t)

    def one_pass(i: int, traced: bool = False) -> dict:
        result_path = WORK / f"queries-result{i}{int(traced)}.{os.getpid()}.json"
        args = [*base, "--result", str(result_path)]
        if traced:
            args += ["--trace-out", str(trace_path("queries-mixed"))]
        p = Proc(_child_cmd(*args), f"queries{i}")
        if p.exit_code:
            run.op([f"exit code {p.exit_code}: {p.stderr.strip()[-300:]}"])
        result = _read_result(run, result_path)
        check_pass(result)
        return {"result": result, "proc": p}

    if not trace:
        def unit(i: int) -> None:
            out = one_pass(i)
            result = out["result"]
            run.walls.append(result.get("work_s", out["proc"].wall_s))
            run.rss.append(out["proc"].rss_mb)
            run.latencies_ms.extend(1000 * t for t in result.get("latencies", []))

        repeat(unit, setup, run, seconds)
        return run

    work = {}
    for traced in (False, True):
        out = one_pass(int(traced), traced)
        work[traced] = out["result"].get("work_s", out["proc"].wall_s)
        if traced:
            run.layers = out["result"].get("layers", {})
            run.notes["absent"] = out["result"].get("absent", [])
    _trace_summary(run, work)
    return run


# -- reporting ------------------------------------------------------------------------


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "wall_s": statistics.median(run.walls),
        "peak_rss_mb": statistics.median(run.rss),
        "setup_s": statistics.median(run.setup),
        "latency_p50_ms": statistics.median(run.latencies_ms),
        "latency_p99_ms": nearest_rank(run.latencies_ms, 99),
    }


def main() -> int:
    if sys.flags.optimize:
        fail("refusing to run under python -O: it strips the package's overflow and exact-division asserts")
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small sizes, for the self-tests")
    args = p.parse_args()
    if not (SRC / "schur2" / "__init__.py").is_file():
        fail(f"no schur2 sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import schur2

    if Path(schur2.__file__).resolve().parent != (SRC / "schur2").resolve():
        fail(f"schur2 was imported from {schur2.__file__}, not from {SRC}")
    WORK.mkdir(exist_ok=True)
    env = environment()
    trace = bool(args.trace)
    if args.workload == "queries-mixed":
        run = run_queries_workload(args.seed, args.seconds, trace, args.smoke)
    else:
        run = run_cli_workload(args.workload, args.seconds, trace, args.smoke)

    # Metric names and units come from BENCHMARK.json alone. A layer the
    # program no longer has (a function or cache removed or renamed) reads as
    # zero and is listed as absent.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = run.layers if trace else end_to_end(run)
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    summary = {
        "correct": failed == 0 and run.attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "units_timed": len(run.walls) if not trace else 2,
        "walls_s": run.walls,
        "setup_s": run.setup,
        "failures": run.failures,
        "absent": run.notes.get("absent", []),
        **summary,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"environment: {json.dumps(env)}")
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"ops_failed_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    if record["absent"]:
        print(f"absent (reported as zero): {', '.join(record['absent'])}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
