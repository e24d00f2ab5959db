"""The measured process of a traced run, or of a queries-mixed run.

    python3 benchmarks/child.py cli --result R [--trace-out T] -- <schur2 argv>
    python3 benchmarks/child.py queries --seed S --n N --max-d D --result R [--trace-out T]
    python3 benchmarks/child.py queries --seed S --n N --max-d D --setup-only

`cli` runs `schur2.cli.entry(argv)` in this process, as `python -m
schur2.cli` would. `queries` generates the seeded stream and answers it in one
library session, one request at a time (one client, closed loop). With
--trace-out, the package's functions are wrapped before the work starts and
the per-layer metrics and spans are written when it ends. The result file
holds the in-process work time and, for queries, each request's latency and
answer. Everything here runs single-threaded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _start_tracer(trace_out):
    if trace_out is None:
        return None
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    return tracer


def _finish_tracer(tracer, trace_out, result: dict, command) -> None:
    if tracer is None:
        return
    import tracing

    result["layers"] = tracing.layer_metrics(tracer, command)
    result["absent"] = tracer.absent
    tracer.dump(trace_out)


def run_cli(args) -> dict:
    import schur2.cli

    tracer = _start_tracer(args.trace_out)
    start = time.perf_counter()
    try:
        code = schur2.cli.entry(args.argv)
    except Exception:  # the run reports the failure instead of dying
        traceback.print_exc()
        code = 1
    work_s = time.perf_counter() - start
    sys.stdout.flush()
    result = {"exit_code": code, "work_s": work_s}
    _finish_tracer(tracer, args.trace_out, result, args.argv[0] if args.argv else None)
    return result


def run_queries(args) -> dict:
    import queries
    import schur2  # noqa: F401  (set-up ends once the package is imported)

    stream = queries.make_stream(args.seed, args.n, args.max_d)
    if args.setup_only:
        return {}
    tracer = _start_tracer(args.trace_out)
    latencies, texts, answers, errors = [], [], [], {}
    start = time.perf_counter()
    for i, req in enumerate(stream):
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            text, answer = queries.run_request(req)
        except Exception as exc:  # one failed request must not end the session
            text, answer = "", None
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        texts.append(text)
        answers.append(answer)
    work_s = time.perf_counter() - start
    result = {
        "work_s": work_s,
        "latencies": latencies,
        "texts": texts,
        "answers": [
            None if raw is None else queries.answer_payload(req["kind"], raw)
            for req, raw in zip(stream, answers)
        ],
        "errors": errors,
        "exit_code": 0,
    }
    _finish_tracer(tracer, args.trace_out, result, None)
    return result


def main() -> int:
    if sys.flags.optimize:
        print("error: refusing to run under python -O (it strips the package's assert guards)", file=sys.stderr)
        return 2
    p = argparse.ArgumentParser()
    sub = p.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("cli")
    c.add_argument("--result")
    c.add_argument("--trace-out")
    c.add_argument("argv", nargs=argparse.REMAINDER)
    q = sub.add_parser("queries")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--max-d", type=int, required=True)
    q.add_argument("--result")
    q.add_argument("--trace-out")
    q.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        result = run_cli(args)
    else:
        result = run_queries(args)
    if args.result:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return int(result.get("exit_code", 0))


if __name__ == "__main__":
    sys.exit(main())
