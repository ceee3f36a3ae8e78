"""CLI output of the benchmark systems, and the difference of two trees.

    PYTHONPATH=src python3 tools/cli_snapshot.py write FILE [--seeds 0 1 2]
    python3 tools/cli_snapshot.py diff OLD NEW

``write`` runs `rectising identities`, `spectrum`, `compare` and
`uplane --grid 24` in-process on every system that the `crosscheck`
workload of `perfbench/workloads.py` draws for the given seeds, and
`compare`, `z --route hankel` and `z --route block` on every system of
its `solve-hard` workload (width-12 spin, the Pfaffian up to n = 64), so
that a diff shows the precision a single route ends at; the file is
read, not changed.  No command reaches the contour moments, so on every
`crosscheck` system with k < 1 it also records, under the pseudo-command
``contour``, the moments h_1 ... h_{M-1} that the workload's
`contour_vs_spectral` computes (`contour_coefficients` in the chi base
on `default_contour`), each as [real, imag].  It drops the timing fields
(keys named ``seconds`` or ending in ``_seconds``), and writes one JSON
record per (command, system) line: the arguments, the exit code, the
output (parsed JSON, or the lines of the `uplane` text) and stderr.  Run
it from the root of the source tree whose package it should import.

``diff`` compares two such files record by record.  It prints each record
that differs, with the number of values that differ and the worst of
them, and then per command the largest absolute and the largest
relative difference between numbers found in both files.  A relative
difference is |new - old| / max(1, |old|), the package's ``rel_dev``
convention, so a number that moves off zero reads as its absolute move.
Integer settings (both sides integers: precision bits, exit codes) are
listed with the other values, never picked as the largest.  It exits 1
if a record or a non-numeric value differs, or a record is missing on
one side, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = (("identities",), ("spectrum",), ("compare",),
            ("uplane", "--grid", "24"))


def _argvs(seeds):
    """The distinct command lines of the seeds, in first-seen order:
    COMMANDS on each crosscheck system and ``contour`` on those with
    k < 1, then compare and the single Hankel and block routes on each
    solve-hard one."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import Crosscheck, SolveHard

    out = []
    for seed in seeds:
        for s in Crosscheck().inputs(seed):
            geo = ["--L", str(s["L"]), "--M", str(s["M"]), "--k",
                   repr(s["k"]), "--eta-frac", repr(s["eta"])]
            out.extend([*cmd, *geo] for cmd in COMMANDS)
            if s["k"] < 1:
                out.append(["contour", *geo])
    for seed in seeds:
        for s in SolveHard().inputs(seed):
            geo = ["--L", str(s["L"]), "--M", str(s["M"]), *s["couplings"]]
            out.extend([*cmd, *geo] for cmd in (
                ("compare",), ("z", "--route", "hankel"),
                ("z", "--route", "block")))
    return [a for i, a in enumerate(out) if a not in out[:i]]


def _untimed(obj):
    if isinstance(obj, dict):
        return {k: _untimed(v) for k, v in obj.items()
                if not (k == "seconds" or k.endswith("_seconds"))}
    if isinstance(obj, list):
        return [_untimed(v) for v in obj]
    return obj


def _contour_moments(argv):
    """{"h_n": [real, imag]} for n = 1 ... M-1 on the system of a
    ``contour`` command line, computed as `contour_vs_spectral` does."""
    from rectising import contour, params

    geo = dict(zip(argv[1::2], argv[2::2]))
    M = int(geo["--M"])
    c = params.couplings_from_modulus(float(geo["--k"]),
                                      float(geo["--eta-frac"]),
                                      int(geo["--L"]), M)
    cctx = contour.ContourContext.from_couplings(c, with_spectrum=True)
    ns = list(range(1, M))
    got = contour.contour_coefficients(
        ns, contour.default_contour(cctx.frame), cctx, "chi")
    return {f"h_{n}": [got[n].real, got[n].imag] for n in ns}


def _run(argv):
    from rectising import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if argv[0] == "contour":
                json.dump(_contour_moments(argv), out)
                rc = 0
            else:
                rc = cli.main(argv)
    except Exception as exc:  # a crash is part of the snapshot
        return {"argv": argv, "rc": None, "output": None,
                "stderr": f"{type(exc).__name__}: {exc}"}
    text = out.getvalue()
    output = (text.splitlines() if argv[0] == "uplane"
              else _untimed(json.loads(text)) if text else None)
    return {"argv": argv, "rc": rc, "output": output,
            "stderr": err.getvalue()}


def write(path, seeds):
    with open(path, "w") as fh:
        for argv in _argvs(seeds):
            fh.write(json.dumps(_run(argv), sort_keys=True) + "\n")


def _number(x):
    """x as a float if it is a number or a numeric token, else None."""
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _name(item, index):
    """A list item's name in a path: its identity_id or mu, else index."""
    if isinstance(item, dict):
        for key in ("identity_id", "mu"):
            if key in item:
                return f"{key}={item[key]}"
    return str(index)


def _leaves(a, b, path=""):
    """(path, a, b) for every leaf where a and b differ; uplane lines are
    split into tokens."""
    if isinstance(a, str) and isinstance(b, str) and (" " in a or " " in b):
        a, b = a.split(), b.split()
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from _leaves(a.get(key), b.get(key), f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _leaves(x, y, f"{path}[{_name(x, i)}]")
    elif a != b and _gap(a, b) != 0:
        yield path, a, b


def _gap(a, b):
    """|a - b| of two numbers (0 for two NaNs, inf where one is NaN or
    infinite and the other is not), None where either is not a number."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return None
    if math.isnan(x) and math.isnan(y):
        return 0.0
    gap = abs(x - y)
    return math.inf if math.isnan(gap) else gap


def diff(old_path, new_path):
    def load(path):
        with open(path) as fh:
            recs = [json.loads(line) for line in fh]
        return {json.dumps(r["argv"]): r for r in recs}

    old, new = load(old_path), load(new_path)
    failed = False
    worst = {}
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            print(f"only in {'new' if a is None else 'old'}: {key}")
            failed = True
            continue
        cmd = a["argv"][0]
        worst.setdefault(cmd, [(0.0, None), (0.0, None)])
        leaves = list(_leaves({k: a[k] for k in ("rc", "output", "stderr")},
                              {k: b[k] for k in ("rc", "output", "stderr")}))
        if not leaves:
            continue
        gaps = [(_gap(x, y), p, x, y) for p, x, y in leaves]
        text = [(p, x, y) for g, p, x, y in gaps if g is None]
        numeric = [t for t in gaps if t[0] is not None]
        integer = [isinstance(x, int) and isinstance(y, int)
                   for _g, _p, x, y in numeric]
        failed = failed or bool(text)
        print(f"{' '.join(a['argv'])}: {len(numeric)} numbers and "
              f"{len(text)} other values differ")
        settings = [(p, x, y) for (_g, p, x, y), i in zip(numeric, integer)
                    if i]
        for p, x, y in text[:5] + settings[:5]:
            print(f"    {p}: {x!r} -> {y!r}")
        numeric = [t for t, i in zip(numeric, integer) if not i]
        if not numeric:
            continue
        relative = [(g / max(1.0, abs(_number(x))), p, x, y)
                    for g, p, x, y in numeric]
        for i, group in enumerate((numeric, relative)):
            gap, p, x, y = max(group, key=lambda t: t[0])
            if i == 0:
                print(f"    largest: {p}: {x!r} -> {y!r} (|diff| {gap:.3e})")
            if gap > worst[cmd][i][0]:
                worst[cmd][i] = (gap, f"{' '.join(a['argv'])} {p}")
    for cmd, gaps in sorted(worst.items()):
        for kind, (gap, where) in zip(("absolute", "relative"), gaps):
            print(f"{cmd}: largest {kind} difference {gap:.3e}"
                  + (f" at {where}" if where else ""))
    return 1 if failed else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    pw = sub.add_parser("write", help="snapshot the CLI output")
    pw.add_argument("file")
    pw.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    pd = sub.add_parser("diff", help="compare two snapshots")
    pd.add_argument("old")
    pd.add_argument("new")
    ns = ap.parse_args(argv)
    if ns.mode == "write":
        write(ns.file, ns.seeds)
        return 0
    return diff(ns.old, ns.new)


if __name__ == "__main__":
    sys.exit(main())
