#!/usr/bin/env python3
"""Extract numpy's exponential-ziggurat tables into ``repro/sim/_ziggurat.py``.

``repro.sim.rng.RandomStream.exponential`` reproduces numpy's
``Generator.exponential`` bit for bit, which needs numpy's 256-layer
ziggurat tables (``ke_double``, ``we_double``, ``fe_double``) and its
tail constant (``ziggurat_exp_r``).  They exist only as C data compiled
into ``numpy/random/_generator*.so``, not in numpy's Python API, so this
tool finds them in the installed extension module (no download):

- it builds the Marsaglia–Tsang tables in Python to about 1e-12, which
  is close but not bit-exact;
- it scans the extension's bytes for the one 256-word array that
  matches each approximate table to a relative 1e-6, and for the one
  double that matches the tail constant, and takes those exact values.

Usage::

    python tools/gen_ziggurat_tables.py           # (re)write the module
    python tools/gen_ziggurat_tables.py --check   # exit 1 if it differs

``--check`` re-extracts the tables and compares them with the committed
module.  Both modes need numpy; the simulation itself does not.
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import sys
from typing import List, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE_MODULE = os.path.join(REPO, "src", "repro", "sim", "_ziggurat.py")
LAYERS = 256


def approximate_tables() -> Tuple[List[float], List[float], List[float],
                                  float]:
    """``(ke, we, fe, r)`` from the Marsaglia–Tsang recurrence for the
    exponential with 256 layers and 53-bit uniforms (``ke`` as floats)."""
    m = 2.0 ** 53
    r = 7.697117470131487
    area = 3.949659822581572e-3
    de = te = r
    q = area / math.exp(-de)
    ke = [0.0] * LAYERS
    we = [0.0] * LAYERS
    fe = [0.0] * LAYERS
    ke[0] = de / q * m
    we[0], we[-1] = q / m, de / m
    fe[0], fe[-1] = 1.0, math.exp(-de)
    for i in range(LAYERS - 2, 0, -1):
        de = -math.log(area / de + math.exp(-de))
        ke[i + 1] = de / te * m
        te = de
        fe[i] = math.exp(-de)
        we[i] = de / m
    return ke, we, fe, r


def _extension_bytes() -> bytes:
    import numpy.random
    pattern = os.path.join(os.path.dirname(numpy.random.__file__),
                           "_generator*")
    paths = [p for p in glob.glob(pattern)
             if p.endswith((".so", ".pyd", ".dylib"))]
    if len(paths) != 1:
        raise SystemExit(f"expected one numpy _generator extension, "
                         f"found {paths}")
    with open(paths[0], "rb") as f:
        return f.read()


def _find(data: bytes, dtype: str, approx: List[float]):
    """The one exact array in ``data`` close to ``approx``."""
    import numpy as np
    target = np.asarray(approx, dtype=float)
    hits = []
    for align in range(8):
        words = np.frombuffer(data, dtype=dtype,
                              count=(len(data) - align) // 8, offset=align)
        as_float = words.astype(float)
        starts = np.nonzero(np.isclose(as_float[:len(words) - len(target)
                                                + 1],
                                       target[0], rtol=1e-6, atol=0))[0]
        for s in starts:
            if np.allclose(as_float[s:s + len(target)], target, rtol=1e-6,
                           atol=0):
                hits.append(words[s:s + len(target)].tolist())
    distinct = {tuple(h) for h in hits}
    if len(distinct) != 1:
        raise SystemExit(f"found {len(distinct)} candidate {dtype} tables, "
                         "expected exactly one")
    return list(distinct.pop())


def extract() -> dict:
    """The exact tables and tail constant from the installed numpy."""
    import numpy as np
    data = _extension_bytes()
    ke, we, fe, r = approximate_tables()
    tail = _find(data, "<f8", [r])[0]
    return {
        "numpy": np.__version__,
        "KE": [int(v) for v in _find(data, "<u8", ke)],
        "WE": [float(v) for v in _find(data, "<f8", we)],
        "FE": [float(v) for v in _find(data, "<f8", fe)],
        "TAIL_R": float(tail),
    }


def _rows(values, fmt, per_line) -> str:
    items = [fmt(v) for v in values]
    return "\n".join("    " + " ".join(f"{x}," for x in items[i:i + per_line])
                     for i in range(0, len(items), per_line))


def render(tables: dict) -> str:
    return (
        '"""numpy\'s 256-layer exponential-ziggurat tables (generated).\n\n'
        f"Extracted from numpy {tables['numpy']}'s ``random._generator``\n"
        "extension by ``tools/gen_ziggurat_tables.py``; do not edit by hand.\n"
        "``KE`` is "
"``ke_double``, ``WE`` is ``we_double``, ``FE`` is ``fe_double``\n"
        "and ``TAIL_R`` is ``ziggurat_exp_r`` in numpy's C source.\n"
        '"""\n\n'
        f"TAIL_R = {tables['TAIL_R']!r}\n\n"
        "KE = (\n" + _rows(tables["KE"], lambda v: f"0x{v:016X}", 4)
        + "\n)\n\n"
        "WE = (\n" + _rows(tables["WE"], repr, 3) + "\n)\n\n"
        "FE = (\n" + _rows(tables["FE"], repr, 3) + "\n)\n")


def check(tables: dict) -> List[str]:
    """Names of the committed tables that differ from ``tables``."""
    namespace: dict = {}
    with open(TABLE_MODULE) as f:
        exec(compile(f.read(), TABLE_MODULE, "exec"), namespace)
    committed = {name: list(namespace[name]) for name in ("KE", "WE", "FE")}
    committed["TAIL_R"] = namespace["TAIL_R"]
    return [name for name, value in committed.items()
            if value != tables[name]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed module, write "
                             "nothing")
    args = parser.parse_args(argv)
    tables = extract()
    if args.check:
        bad = check(tables)
        if bad:
            print(f"{os.path.relpath(TABLE_MODULE, REPO)} differs from "
                  f"numpy {tables['numpy']}: {', '.join(bad)}")
            return 1
        print(f"ziggurat tables match numpy {tables['numpy']}")
        return 0
    with open(TABLE_MODULE, "w") as f:
        f.write(render(tables))
    print(f"wrote {os.path.relpath(TABLE_MODULE, REPO)} "
          f"from numpy {tables['numpy']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
