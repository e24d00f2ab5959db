"""Command-line front end.

Subcommands: normalize (parse, normalize, print in a chosen basis), table
(stream the structure-constant table as JSON or CSV; --out is replaced only
once the whole table is written), verify (run the cross-validation suite,
exit 0 only if everything passes), and the small lookups dim, minpoly and
basis. Exit codes: 0 success, 1 failed check or I/O error, 2 usage or parse
error, 3 internal arithmetic error (ArithmeticError, such as a failed exact
division) or MemoryError, reported as one line `error: <type>: <message>`.
Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import tempfile
from typing import Iterable, TextIO

import numpy as np

from . import algebra, oracle
from .algebra import SchurContext
from .elements import Element, Flavor, render_element
from .exprs import parse_element, render_plain_terms
from .qpoly import prender


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser for which an expression may begin with a minus sign.

    A word that begins with a single "-" is an option only when it is one of
    the parser's own option strings, such as -h; "-e" or "-5/7*h^2" is an
    argument. "--" still ends the options.
    """

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="schur2",
        description="Exact computations in the rank-two Schur algebra S(2,d).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    n = sub.add_parser("normalize", help="normalize an expression onto the basis")
    n.add_argument("--d", type=int, required=True, metavar="D")
    n.add_argument("--flavor", choices=["fhe", "ehf"], default="fhe")
    n.add_argument(
        "--basis", choices=["kostant", "power", "hbasis"], default="kostant"
    )
    n.add_argument("expr", help="expression in e, f, h, H1, H2, E(m), F(m), binom")

    t = sub.add_parser("table", help="write the structure-constant table")
    t.add_argument("--d", type=int, required=True, metavar="D")
    t.add_argument("--out", required=True, metavar="PATH")
    t.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")

    v = sub.add_parser("verify", help="run the cross-validation suite")
    v.add_argument("--d", type=int, required=True, metavar="D")
    v.add_argument(
        "--oracle", choices=["tensor", "weight", "both", "auto"], default="auto"
    )
    v.add_argument("--json", action="store_true", help="emit the report as JSON")

    for name, needs_expr in (("dim", False), ("minpoly", True), ("basis", False)):
        s = sub.add_parser(name)
        s.add_argument("--d", type=int, required=True, metavar="D")
        if needs_expr:
            s.add_argument("expr")
    return p


_BASIS_ROW = '    {\n      "a": %d,\n      "b": %d,\n      "c": %d\n    }'
# A product row is _ROW_I % i + (_ROW_J_OPEN or _ROW_J_EMPTY) % j, each row
# but the first led by ",\n"; a term is _TERM_HEAD % k + str(q) + _TERM_MID,
# or + _TERM_LAST for the last term of its row.
_ROW_I = ',\n    {\n      "i": %d,\n      "j": '
_ROW_J_OPEN = '%d,\n      "terms": [\n'
_ROW_J_EMPTY = '%d,\n      "terms": []\n    }'
_TERM_HEAD = '        {\n          "k": %d,\n          "num": "'
_TERM_MID = '",\n          "den": "1"\n        },\n'
_TERM_LAST = '",\n          "den": "1"\n        }\n      ]\n    }'


def _strings(template: str, n: int) -> np.ndarray:
    return np.array([template % x for x in range(n)], dtype=object)


def _decimals(q: np.ndarray) -> np.ndarray:
    """str(v) for every coefficient (int64 or Python ints), each distinct value converted once.

    Only 27% (d=10) to 59% (d=16) of a block's coefficients are distinct, so
    np.unique plus one str per value beats a str per coefficient on int64.
    """
    values, inverse = np.unique(q, return_inverse=True)
    return np.array([str(v) for v in values.tolist()], dtype=object)[inverse]


def _write_table_json(ctx: SchurContext, blocks: Iterable[algebra.Block], fh: TextIO) -> None:
    """The bytes of json.dump(document, fh, indent=2) + "\\n", written block by block.

    The document is {d, flavor, basis: [{a, b, c}], products: [{i, j, terms:
    [{k, num, den}]}]}, one product row per ordered pair (i, j) in row-major
    order; blocks are algebra.structure_blocks's (pair, k, q) arrays and
    every den is 1. Each block is laid out as one array of strings: a row's
    text at its pair's slot, followed by three pieces per term.
    """
    monos = algebra.basis(ctx)
    n = len(monos)
    fh.write('{\n  "d": %d,\n  "flavor": "%s",\n  "basis": [\n' % (ctx.d, ctx.flavor.value))
    fh.write(",\n".join(_BASIS_ROW % mono for mono in monos))
    fh.write('\n  ],\n  "products": [\n')
    row_i, row_open, row_empty = _strings(_ROW_I, n), _strings(_ROW_J_OPEN, n), _strings(_ROW_J_EMPTY, n)
    heads = _strings(_TERM_HEAD, n)

    def rows(span: np.ndarray, counts: np.ndarray) -> np.ndarray:
        text = row_i[span // n] + np.where(counts > 0, row_open[span % n], row_empty[span % n])
        if len(span) and span[0] == 0:
            text[0] = text[0][2:]
        return text

    done = 0  # pairs written
    for pair, k, q in blocks:
        if not len(pair):
            continue
        counts = np.bincount(pair - done)
        span = np.arange(done, done + len(counts))
        pieces = np.empty(len(span) + 3 * len(k), dtype=object)
        pieces[span - done + 3 * (np.cumsum(counts) - counts)] = rows(span, counts)
        at = pair - done + 1 + 3 * np.arange(len(k))
        pieces[at] = heads[k]
        pieces[at + 1] = _decimals(q)
        pieces[at + 2] = _TERM_MID
        pieces[at[np.diff(pair, append=-1) != 0] + 2] = _TERM_LAST
        fh.write("".join(pieces.tolist()))
        done = int(pair[-1]) + 1
    span = np.arange(done, n * n)
    fh.write("".join(rows(span, np.zeros_like(span)).tolist()))
    fh.write("\n  ]\n}\n")


def _write_table_csv(ctx: SchurContext, blocks: Iterable[algebra.Block], fh: TextIO) -> None:
    """The bytes of csv.writer(fh, lineterminator="\\n") over the rows (i, j, k, num, den)."""
    fh.write("i,j,k,num,den\n")
    n = algebra.dimension(ctx.d)
    cells = _strings("%d,", n)
    for pair, k, q in blocks:
        pieces = np.empty((len(k), 5), dtype=object)
        pieces[:, 0], pieces[:, 1], pieces[:, 2] = cells[pair // n], cells[pair % n], cells[k]
        pieces[:, 3], pieces[:, 4] = _decimals(q), ",1\n"
        fh.write("".join(pieces.ravel().tolist()))


def _cmd_normalize(args: argparse.Namespace) -> int:
    flavor = Flavor(args.flavor)
    ctx = SchurContext(args.d, flavor)
    x = algebra.normalize(parse_element(args.expr, flavor), ctx)
    if args.basis == "kostant":
        print(render_element(x))
    elif args.basis == "power":
        print(render_plain_terms(algebra.to_power_basis(x, ctx), flavor, flavor.main_var))
    else:
        print(render_plain_terms(algebra.to_h_basis(x, ctx), flavor, "h"))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    """Stream the table into a temporary file beside --out, renamed over it on success.

    Any failure removes the temporary file, so an existing --out is left as it
    was. A symlinked --out is resolved and its target replaced; an existing
    target keeps its mode and, as with open(), must be writable.
    """
    ctx = SchurContext(args.d)
    write = _write_table_json if args.fmt == "json" else _write_table_csv
    out = os.path.realpath(args.out)
    try:
        mode = os.stat(out).st_mode & 0o7777
        if not os.access(out, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), args.out)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask  # the mode open(out, "w") gives a new file
    fd, tmp = tempfile.mkstemp(prefix=".schur2-table-", dir=os.path.dirname(out))
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            os.chmod(tmp, mode)
            write(ctx, algebra.structure_blocks(ctx), fh)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = oracle.verify_suite(args.d, oracle=args.oracle)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            print(f"{status} {check.name}{detail}")
        passed = sum(1 for c in report.checks if c.passed)
        print(f"verify d={args.d}: {passed}/{len(report.checks)} checks passed")
    return 0 if report.all_passed else 1


def _cmd_dim(args: argparse.Namespace) -> int:
    SchurContext(args.d)
    print(algebra.dimension(args.d))
    return 0


def _cmd_minpoly(args: argparse.Namespace) -> int:
    ctx = SchurContext(args.d)
    x = parse_element(args.expr, ctx.flavor)
    print(prender(algebra.min_poly(x, ctx)))
    return 0


def _cmd_basis(args: argparse.Namespace) -> int:
    ctx = SchurContext(args.d)
    for mono in algebra.basis(ctx):
        print(render_element(Element.monomial(*mono, ctx.flavor)))
    return 0


_HANDLERS = {
    "normalize": _cmd_normalize,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "dim": _cmd_dim,
    "minpoly": _cmd_minpoly,
    "basis": _cmd_basis,
}


def entry(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:  # a ParseError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(entry())
