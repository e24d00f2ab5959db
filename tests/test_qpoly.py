"""Dense univariate polynomials over the rationals."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import schur2
from schur2.qpoly import (
    pdivmod,
    pfrom_roots,
    pgcd,
    plcm,
    pmonic,
    pmul,
    prender,
    ptrim,
)


def _peval(p, x):
    """p(x) by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _f(*ints):
    return tuple(Fraction(n) for n in ints)


def test_trim_and_degree():
    assert ptrim(_f(1, 2, 0, 0)) == _f(1, 2)
    assert ptrim(_f(0,)) == ()


def test_from_roots():
    # (T-1)(T+1) = T^2 - 1
    assert pfrom_roots([1, -1]) == _f(-1, 0, 1)
    # (T-0)(T-2)(T+2) = T^3 - 4T
    assert pfrom_roots([0, 2, -2]) == _f(0, -4, 0, 1)
    assert pfrom_roots([]) == _f(1)


def test_eval_matches_roots():
    rng = random.Random(3)
    for _ in range(50):
        roots = [rng.randint(-5, 5) for _ in range(rng.randint(0, 5))]
        p = pfrom_roots(roots)
        for r in roots:
            assert _peval(p, Fraction(r)) == 0
        # A point that is not a root evaluates nonzero.
        probe = max(roots, default=0) + 1
        assert _peval(p, Fraction(probe)) != 0


def test_divmod_identity():
    rng = random.Random(5)
    for _ in range(100):
        a = ptrim(tuple(Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 7))))
        b = ptrim(tuple(Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))))
        if not b:
            continue
        q, r = pdivmod(a, b)
        assert ptrim([x + y for x, y in zip_longest(pmul(q, b), r, fillvalue=0)]) == a
        assert len(r) < len(b)


def test_gcd_and_lcm():
    p = pfrom_roots([0, 1, 2])
    q = pfrom_roots([1, 2, 3])
    g = pgcd(p, q)
    m = plcm(p, q)
    assert g == pfrom_roots([1, 2])
    assert m == pfrom_roots([0, 1, 2, 3])
    # gcd * lcm = p * q up to the monic normalisation used throughout.
    assert pmul(g, m) == pmonic(pmul(p, q))


def test_monic():
    p = tuple(3 * c for c in pfrom_roots([4]))
    assert pmonic(p) == pfrom_roots([4])
    assert pmonic(()) == ()


def test_render():
    assert prender(pfrom_roots([0, 2, -2])) == "T^3 - 4*T"
    assert prender(pfrom_roots([0, 1, 2, 3])) == "T^4 - 6*T^3 + 11*T^2 - 6*T"
    assert prender(_f(1,)) == "1"
    assert prender(()) == "0"
    assert prender(_f(-1, 1)) == "T - 1"
    assert prender((Fraction(1, 2), Fraction(1))) == "T + 1/2"
    # Negative leading terms, Fraction magnitudes and zero.
    assert prender((Fraction(1), Fraction(-3, 2))) == "-3/2*T + 1"
    assert prender(_f(0, 0, -1)) == "-T^2"
    p = (Fraction(-2, 3), Fraction(0), Fraction(5, 7), Fraction(1))
    assert prender(p) == "T^3 + 5/7*T^2 - 2/3"


def test_each_module_imports_first_without_the_package_init():
    # The package __init__ imports algebra, and with it matrices and qpoly,
    # before elements; that order once hid the cycle elements -> matrices ->
    # qpoly -> elements. Under a bare package stub each module is imported
    # first, so any cycle raises ImportError.
    pkg = Path(schur2.__file__).resolve().parent
    names = sorted(f.stem for f in pkg.glob("*.py") if f.stem != "__init__")
    code = (
        "import importlib, sys, types\n"
        f"for name in {names!r}:\n"
        "    for mod in [m for m in sys.modules if m.split('.')[0] == 'schur2']:\n"
        "        del sys.modules[mod]\n"
        "    stub = types.ModuleType('schur2')\n"
        f"    stub.__path__ = [{str(pkg)!r}]\n"
        "    sys.modules['schur2'] = stub\n"
        "    importlib.import_module('schur2.' + name)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(pkg.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert {"elements", "exprs", "qpoly"} <= set(names)
