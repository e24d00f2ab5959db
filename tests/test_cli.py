"""Command-line interface: frozen outputs, exit codes, determinism."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from schur2 import algebra
from schur2.algebra import SchurContext, StructureTable
from schur2.cli import _write_table_csv, _write_table_json, entry
from schur2.elements import Flavor
from schur2.exprs import parse_element


def _run(capsys, *argv):
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_kostant_frozen(capsys):
    code, out, err = _run(capsys, "normalize", "--d", "1", "e*f")
    assert (code, err) == (0, "")
    assert out == "1 - binom(H2,1)\n"


def test_normalize_vanishing(capsys):
    code, out, _ = _run(capsys, "normalize", "--d", "1", "F(2)")
    assert code == 0
    assert out == "0\n"


def test_normalize_h_basis(capsys):
    code, out, _ = _run(capsys, "normalize", "--d", "2", "--basis", "hbasis", "e*f - f*e")
    assert code == 0
    assert out == "h\n"


def test_normalize_power_basis_ehf(capsys):
    code, out, _ = _run(
        capsys, "normalize", "--d", "2", "--flavor", "ehf", "--basis", "power", "f*e"
    )
    assert code == 0
    assert out == "2 - 2*H1 + e*f\n"


def test_normalize_ehf_kostant(capsys):
    code, out, _ = _run(capsys, "normalize", "--d", "1", "--flavor", "ehf", "e*f")
    assert code == 0
    assert out == "binom(H1,1)\n"


def test_dim(capsys):
    code, out, _ = _run(capsys, "dim", "--d", "4")
    assert code == 0
    assert out == "35\n"


def test_minpoly_frozen(capsys):
    code, out, _ = _run(capsys, "minpoly", "--d", "2", "h")
    assert code == 0
    assert out == "T^3 - 4*T\n"
    code, out, _ = _run(capsys, "minpoly", "--d", "3", "H1")
    assert code == 0
    assert out == "T^4 - 6*T^3 + 11*T^2 - 6*T\n"


def test_expression_may_begin_with_a_minus_sign(capsys):
    cases = (
        (("normalize", "--d", "2"), "-5/7*h^2", "-20/7 + 20/7*binom(H2,1) - 40/7*binom(H2,2)\n"),
        (("normalize", "--d", "2", "--basis", "power"), "-h + 2", "2*H2\n"),
        (("minpoly", "--d", "3"), "-e", "T^4\n"),
        (("minpoly", "--d", "3"), "-h^2", "T^2 + 10*T + 9\n"),
    )
    for options, expr, want in cases:
        for argv in ((*options, expr), (*options, "--", expr), (options[0], expr, *options[1:])):
            assert _run(capsys, *argv) == (0, want, ""), argv
    # -h alone is still the help option, and a negative --d still reaches its check.
    with pytest.raises(SystemExit) as info:
        entry(["minpoly", "--d", "3", "-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: schur2 minpoly")
    assert _run(capsys, "minpoly", "--d", "-3", "-e") == (2, "", "error: d must be nonnegative\n")


def test_basis_listing(capsys):
    code, out, _ = _run(capsys, "basis", "--d", "1")
    assert code == 0
    assert out == "1\nE(1)\nbinom(H2,1)\nF(1)\n"


def test_verify_passes(capsys):
    code, out, err = _run(capsys, "verify", "--d", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "verify d=2: 19/19 checks passed"
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert len(lines) == 20


def test_verify_json(capsys):
    code, out, _ = _run(capsys, "verify", "--d", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 1
    assert payload["all_passed"] is True
    assert payload["flavor"] == "fhe"
    assert all(check["passed"] for check in payload["checks"])


def test_verify_oracle_choice(capsys):
    code, out, _ = _run(capsys, "verify", "--d", "1", "--oracle", "weight", "--json")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "relations:weight" in names
    assert "relations:tensor" not in names


def test_verify_weight_beyond_int64_images(capsys):
    # Dense int64 images overflowed from d=25 on; the closed forms reach further.
    code, out, _ = _run(capsys, "verify", "--d", "26", "--oracle", "weight", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    details = {c["name"]: c["detail"] for c in payload["checks"]}
    assert details["rank:weight"] == "rank 3654 vs dimension 3654"


_D1_CSV = """i,j,k,num,den
0,0,0,1,1
0,1,1,1,1
0,2,2,1,1
0,3,3,1,1
1,0,1,1,1
1,2,1,1,1
1,3,0,1,1
1,3,2,-1,1
2,0,2,1,1
2,2,2,1,1
2,3,3,1,1
3,0,3,1,1
3,1,2,1,1
"""


def test_table_csv_frozen(capsys, tmp_path):
    out_path = tmp_path / "d1.csv"
    code, _, _ = _run(capsys, "table", "--d", "1", "--out", str(out_path), "--format", "csv")
    assert code == 0
    assert out_path.read_text() == _D1_CSV


def _csv_reference(table):
    """The CSV table as csv.writer writes it, one row per term."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["i", "j", "k", "num", "den"])
    for i, j in sorted(table.products):
        for k, q in table.products[(i, j)]:
            q = Fraction(q)
            writer.writerow([i, j, k, q.numerator, q.denominator])
    return fh.getvalue()


# A hand-made block stream at d = 1 (4 basis elements, 16 pairs): pair 0 and
# the last pairs have no terms, one block is empty, one holds Python ints of
# 2**64 size and one int64.
_CTX_D1 = SchurContext(1, Flavor.EHF)
_BLOCKS_D1 = [
    (np.array([1, 1, 6]), np.array([0, 3, 2]), np.array([2**64 + 1, -(2**64), 5], dtype=object)),
    (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64)),
    (np.array([7, 9]), np.array([1, 0]), np.array([-(2**62), 3], dtype=np.int64)),
]


def _table_from_blocks(ctx, blocks):
    monos = algebra.basis(ctx)
    n = len(monos)
    products = {(i, j): () for i in range(n) for j in range(n)}
    for pair, k, q in blocks:
        for p, kk, qq in zip(pair.tolist(), k.tolist(), q.tolist()):
            products[divmod(p, n)] += ((kk, qq),)
    return StructureTable(ctx.d, ctx.flavor, tuple(monos), products)


def _written(write, ctx, blocks):
    fh = io.StringIO()
    write(ctx, blocks, fh)
    return fh.getvalue()


def test_table_csv_matches_csv_writer(capsys, tmp_path):
    out_path = tmp_path / "d4.csv"
    code, _, _ = _run(capsys, "table", "--d", "4", "--out", str(out_path), "--format", "csv")
    assert code == 0
    expected = _csv_reference(algebra.structure_constants(SchurContext(4)))
    assert out_path.read_bytes() == expected.encode()
    for flavor in Flavor:
        for d in range(6):
            ctx = SchurContext(d, flavor)
            got = _written(_write_table_csv, ctx, algebra.structure_blocks(ctx))
            assert got == _csv_reference(algebra.structure_constants(ctx)), (d, flavor)
    # Python-int and int64 blocks take the same row template.
    got = _written(_write_table_csv, _CTX_D1, _BLOCKS_D1)
    assert got == _csv_reference(_table_from_blocks(_CTX_D1, _BLOCKS_D1))


def test_table_json_schema(capsys, tmp_path):
    out_path = tmp_path / "d1.json"
    code, _, _ = _run(capsys, "table", "--d", "1", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["d"] == 1
    assert doc["flavor"] == "fhe"
    assert doc["basis"] == [
        {"a": 0, "b": 0, "c": 0},
        {"a": 0, "b": 0, "c": 1},
        {"a": 0, "b": 1, "c": 0},
        {"a": 1, "b": 0, "c": 0},
    ]
    assert len(doc["products"]) == 16
    by_pair = {(p["i"], p["j"]): p["terms"] for p in doc["products"]}
    assert by_pair[(1, 3)] == [
        {"k": 0, "num": "1", "den": "1"},
        {"k": 2, "num": "-1", "den": "1"},
    ]
    assert by_pair[(3, 3)] == []
    # Every coefficient is carried as decimal strings.
    for terms in by_pair.values():
        for term in terms:
            assert isinstance(term["num"], str) and isinstance(term["den"], str)
            int(term["num"]), int(term["den"])


def test_table_output_deterministic(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _run(capsys, "table", "--d", "2", "--out", str(a))
    _run(capsys, "table", "--d", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "a.csv"
    e = tmp_path / "b.csv"
    _run(capsys, "table", "--d", "2", "--out", str(c), "--format", "csv")
    _run(capsys, "table", "--d", "2", "--out", str(e), "--format", "csv")
    assert c.read_bytes() == e.read_bytes()


def _table_document(table: StructureTable) -> dict:
    """The JSON table as a document, the layout the writer must reproduce."""

    def coeff(q) -> tuple[str, str]:
        q = Fraction(q)
        return str(q.numerator), str(q.denominator)

    products = []
    for i, j in sorted(table.products):
        terms = []
        for k, q in table.products[(i, j)]:
            num, den = coeff(q)
            terms.append({"k": k, "num": num, "den": den})
        products.append({"i": i, "j": j, "terms": terms})
    return {
        "d": table.d,
        "flavor": table.flavor.value,
        "basis": [{"a": a, "b": b, "c": c} for (a, b, c) in table.basis],
        "products": products,
    }


def test_table_writer_matches_json_dump():
    for flavor in Flavor:
        for d in range(6):
            ctx = SchurContext(d, flavor)
            got = _written(_write_table_json, ctx, algebra.structure_blocks(ctx))
            expected = json.dumps(_table_document(algebra.structure_constants(ctx)), indent=2) + "\n"
            assert got == expected, (d, flavor)
    got = _written(_write_table_json, _CTX_D1, _BLOCKS_D1)
    expected = json.dumps(_table_document(_table_from_blocks(_CTX_D1, _BLOCKS_D1)), indent=2) + "\n"
    assert got == expected


def test_table_json_matches_frozen_digest(capsys, tmp_path):
    frozen = Path(__file__).resolve().parents[1] / "benchmarks" / "frozen.json"
    out_path = tmp_path / "d3.json"
    code, _, _ = _run(capsys, "table", "--d", "3", "--out", str(out_path))
    assert code == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == json.loads(frozen.read_text())["table"]["3"]


def test_internal_error_exit_code(capsys, monkeypatch, tmp_path):
    errors = [
        OverflowError("int64 bound exceeded"),
        ArithmeticError("Bareiss exact division failed"),
        MemoryError("cannot allocate"),
    ]
    for exc in errors:

        def fail(ctx, _exc=exc):
            raise _exc

        monkeypatch.setattr(algebra, "structure_blocks", fail)
        out_path = tmp_path / "t.json"
        code, out, err = _run(capsys, "table", "--d", "1", "--out", str(out_path))
        assert (code, out) == (3, "")
        assert err == f"error: {type(exc).__name__}: {exc}\n"
        assert not out_path.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_failure_after_first_block_leaves_no_file(capsys, monkeypatch, tmp_path, fmt):
    # The table streams while it computes; a failure after the first block
    # leaves no partial --out and no temporary file, and an existing --out
    # keeps its bytes.
    real = algebra.structure_blocks

    def fail_after_first(ctx):
        blocks = real(ctx)
        yield next(blocks)
        raise ArithmeticError("failed after one block")

    monkeypatch.setattr(algebra, "structure_blocks", fail_after_first)
    monkeypatch.setattr(algebra, "_BLOCK_PAIRS", 4)
    out_path = tmp_path / "t.out"
    code, out, err = _run(capsys, "table", "--d", "2", "--out", str(out_path), "--format", fmt)
    assert (code, out) == (3, "")
    assert err == "error: ArithmeticError: failed after one block\n"
    assert list(tmp_path.iterdir()) == []
    out_path.write_text("earlier table\n")
    code, _, _ = _run(capsys, "table", "--d", "2", "--out", str(out_path), "--format", fmt)
    assert code == 3
    assert list(tmp_path.iterdir()) == [out_path]
    assert out_path.read_text() == "earlier table\n"


def test_table_out_keeps_mode_and_symlink(capsys, tmp_path):
    # --out is replaced by a rename, yet behaves as open(out, "w") did: an
    # existing file keeps its mode, and a symlink is written through.
    target = tmp_path / "t.json"
    target.write_text("earlier table\n")
    target.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, _, _ = _run(capsys, "table", "--d", "1", "--out", str(link))
    assert code == 0
    assert link.is_symlink() and link.resolve() == target
    assert json.loads(target.read_text())["d"] == 1
    assert target.stat().st_mode & 0o7777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "t.json"]


def test_table_out_not_writable(capsys, monkeypatch, tmp_path):
    # An existing --out that may not be written fails with exit 1 before any
    # work, and keeps its bytes (os.access stands in for a read-only file,
    # which a superuser could write anyway).
    target = tmp_path / "t.json"
    target.write_text("earlier table\n")
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    code, out, err = _run(capsys, "table", "--d", "1", "--out", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 13] Permission denied: '{target}'\n"
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "earlier table\n"


def test_parse_error_exit_code(capsys):
    code, out, err = _run(capsys, "normalize", "--d", "1", "e*")
    assert code == 2
    assert out == ""
    assert err == (
        "error: unexpected 'end of input' at offset 2 "
        "(expected e, f, h, H1, H2, E(, F(, binom(, NAT, ()\n"
    )


def test_long_and_deeply_nested_input(capsys):
    code, out, err = _run(capsys, "normalize", "--d", "2", "+".join(["e"] * 5000))
    assert (code, out, err) == (0, "5000*E(1)\n", "")
    code, out, err = _run(capsys, "normalize", "--d", "2", "*".join(["2", "1/2"] * 2500))
    assert (code, out, err) == (0, "1\n", "")
    # Too-deep nesting is a parse error: exit 2 and one line, no traceback.
    code, out, err = _run(capsys, "normalize", "--d", "2", "(" * 1000 + "e" + ")" * 1000)
    assert (code, out) == (2, "")
    assert err == "error: parentheses nested deeper than 100 at offset 100\n"


def test_domain_error_exit_code(capsys):
    code, _, err = _run(capsys, "dim", "--d", "-1")
    assert code == 2
    assert err == "error: d must be nonnegative\n"


def test_io_error_exit_code(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "t.json"
    code, _, err = _run(capsys, "table", "--d", "1", "--out", str(missing))
    assert code == 1
    assert err.startswith("error: ")


def test_bad_flag_usage():
    with pytest.raises(SystemExit) as info:
        entry(["normalize", "--d", "1", "--flavor", "abc", "e"])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        entry(["unknown-command"])


def test_cli_normalize_agrees_with_library(capsys):
    corpus = [
        "e*f*e",
        "f^3 - 2*E(2)",
        "binom(H2,2)*binom(H1,1)",
        "(e + f)^2",
        "1/2*h^2 - h",
        "F(1)*binom(H2,1)*E(1) + binom(H2,2)",
    ]
    rng = random.Random(107)
    for expr in corpus:
        d = rng.randint(1, 4)
        code, out, _ = _run(capsys, "normalize", "--d", str(d), expr)
        assert code == 0
        ctx = algebra.SchurContext(d, Flavor.FHE)
        expected = algebra.normalize(parse_element(expr, Flavor.FHE), ctx)
        assert parse_element(out.strip(), Flavor.FHE) == expected
