"""Command-line front end.

Subcommands: normalize (parse, normalize, print in a chosen basis), table
(emit the structure-constant table as JSON or CSV), verify (run the
cross-validation suite, exit 0 only if everything passes), and the small
lookups dim, minpoly and basis. Exit codes: 0 success, 1 failed check or I/O
error, 2 usage or parse error, 3 internal arithmetic error (ArithmeticError,
such as a failed exact division) or MemoryError, reported as one line
`error: <type>: <message>`. Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TextIO

from . import algebra, oracle
from .algebra import SchurContext, StructureTable
from .elements import Element, Flavor, render_element
from .exprs import ParseError, parse_element, render_plain_terms
from .qpoly import prender


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
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
_PRODUCT_ROW = '    {\n      "i": %d,\n      "j": %d,\n      "terms": %s\n    }'
_TERM = '        {\n          "k": %d,\n          "num": "%d",\n          "den": "%d"\n        }'
# An int coefficient q is written as _TERM_HEAD % k + str(q) + _INT_TAIL, the
# same bytes as _TERM % (k, q, 1).
_TERM_HEAD = '        {\n          "k": %d,\n          "num": "'
_INT_TAIL = '",\n          "den": "1"\n        }'
_CSV_ROW = "%d,%d,%d,%d,%d\n"


def _write_table_json(table: StructureTable, fh: TextIO) -> None:
    """The bytes of json.dump(document, fh, indent=2) + "\\n", written row by row.

    The document is {d, flavor, basis: [{a, b, c}], products: [{i, j, terms:
    [{k, num, den}]}]}, products sorted by (i, j); basis and products are nonempty.
    """
    fh.write('{\n  "d": %d,\n  "flavor": "%s",\n  "basis": [\n' % (table.d, table.flavor.value))
    fh.write(",\n".join(_BASIS_ROW % mono for mono in table.basis))
    heads = [_TERM_HEAD % k for k in range(len(table.basis))]
    sep = '\n  ],\n  "products": [\n'
    for i, j in sorted(table.products):
        terms = ",\n".join([
            heads[k] + str(q) + _INT_TAIL if type(q) is int else _TERM % (k, q.numerator, q.denominator)
            for k, q in table.products[(i, j)]
        ])
        fh.write(sep + _PRODUCT_ROW % (i, j, f"[\n{terms}\n      ]" if terms else "[]"))
        sep = ",\n"
    fh.write("\n  ]\n}\n")


def _write_table_csv(table: StructureTable, fh: TextIO) -> None:
    """The bytes of csv.writer(fh, lineterminator="\\n") over the rows (i, j, k, num, den)."""
    fh.write("i,j,k,num,den\n")
    for i, j in sorted(table.products):
        fh.write("".join([
            _CSV_ROW % (i, j, k, q, 1) if type(q) is int else _CSV_ROW % (i, j, k, q.numerator, q.denominator)
            for k, q in table.products[(i, j)]
        ]))


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
    table = algebra.structure_constants(SchurContext(args.d))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        (_write_table_json if args.fmt == "json" else _write_table_csv)(table, fh)
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
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
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
