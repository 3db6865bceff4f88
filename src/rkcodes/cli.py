"""Command-line front end: rk-codes.

Exit codes: 0 success, 1 verification mismatch, 2 usage/data error,
3 budget or feasibility error.  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import reduce
from typing import Sequence

from rkcodes.analysis import (
    SearchConfig,
    bound_check,
    search,
    verify_tables,
)
from rkcodes.codes import (
    DEFAULT_BUDGET_LOG2,
    BudgetError,
    QTCode,
    binary_image,
    code_record,
    code_span,
    hom_weight_enumerator,
    span_shift_invariant,
)
from rkcodes.gf2 import bits_to_str, str_to_bits
from rkcodes.graymap import GrayMap
from rkcodes.ring import format_element, parse_element


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    ring = argparse.ArgumentParser(add_help=False, parents=[fmt])
    ring.add_argument("--k", type=int, help="ring parameter k")
    ring.add_argument("--notation", choices=("r1", "hex", "generic"), help="element notation (default per k)")
    code = argparse.ArgumentParser(add_help=False, parents=[ring])
    code.add_argument("--lambda", dest="lam", default="1", help="twist unit, in the generator notation")
    code.add_argument("--ell", type=int, help="quasitwist index")
    code.add_argument("--m", type=int, help="coindex (block length)")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET_LOG2, help="max log2 codewords to enumerate"
    )

    parser = argparse.ArgumentParser(prog="rk-codes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[ring], help="element arithmetic, character, weight")
    p_eval.add_argument("elements", nargs="+")
    p_eval.add_argument("--op", choices=("none", "add", "mul"), default="none")

    p_gray = sub.add_parser("gray", parents=[ring], help="Gray images (or preimages with --invert)")
    p_gray.add_argument("args", nargs="+")
    p_gray.add_argument("--invert", action="store_true")

    for name, parents, help_text in (
        ("build", [code], "construct a QT code and report its module structure"),
        ("image", [code, budget], "binary image parameters of a QT code"),
        ("wd", [code, budget], "weight enumerator of the binary image"),
        ("bounds", [code, budget], "residue-distance bounds on the minimum homogeneous distance"),
    ):
        p_cmd = sub.add_parser(name, parents=parents, help=help_text)
        p_cmd.add_argument(
            "--gen", action="append", required=True,
            help="generator tuple like '0u|0u|uu'; '-' reads one code per stdin line",
        )

    p_vt = sub.add_parser("verify-tables", parents=[fmt, budget], help="re-verify the shipped table fixtures")
    p_vt.add_argument("--tables", default="1,2,3", help="comma-separated table ids")

    p_search = sub.add_parser("search", parents=[code, budget], help="search generator tuples for good images")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--jobs", type=int, default=1)
    p_search.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p_search.add_argument("--samples", type=int, default=1000)

    return parser


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required for this command")


def _emit_rows(rows: list[dict], fmt: str, text_of) -> None:
    if fmt == "json":
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    elif fmt == "csv":
        keys = list(rows[0]) if rows else []
        writer = csv.DictWriter(sys.stdout, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _csv_cell(row[key]) for key in keys})
    else:
        for row in rows:
            print(text_of(row))


def _csv_cell(value):
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value)
    return value


def _shown(value):
    return "-" if value is None else value


def _generators_text(generators: list[str]) -> str:
    return ", ".join(f"({gen})" for gen in generators)


def _codes_from_args(args: argparse.Namespace) -> list[QTCode]:
    _require(args, "k")
    batches = [args.gen]
    if args.gen == ["-"]:
        lines = sys.stdin or ()  # None when file descriptor 0 is closed
        batches = [[line.strip()] for line in lines if line.strip()]
        if not batches:
            raise ValueError("no generator lines on stdin")
    return [
        QTCode.from_strings(args.k, gens, lam=args.lam, ell=args.ell, m=args.m, notation=args.notation)
        for gens in batches
    ]


def _cmd_eval(args: argparse.Namespace) -> int:
    _require(args, "k")
    elems = [parse_element(t, args.k, args.notation) for t in args.elements]
    if args.op != "none":
        folded = reduce((lambda a, b: a + b) if args.op == "add" else (lambda a, b: a * b), elems)
        elems = [folded]
    rows = [
        {
            "element": format_element(e, args.notation),
            "unit": e.is_unit,
            "character": e.character(),
            "hom_weight": e.hom_weight(),
            "residue": e.residue(),
        }
        for e in elems
    ]
    _emit_rows(
        rows,
        args.fmt,
        lambda r: (
            f"{r['element']}: unit={r['unit']} character={r['character']:+d} "
            f"hom_weight={r['hom_weight']} residue={r['residue']}"
        ),
    )
    return 0


def _cmd_gray(args: argparse.Namespace) -> int:
    _require(args, "k")
    gray = GrayMap(args.k)
    rows = []
    for token in args.args:
        if args.invert:
            bits, length = str_to_bits(token)
            if length % gray.image_len:
                raise ValueError(f"binary length {length} is not a multiple of {gray.image_len}")
            vec = gray.preimage(bits, length // gray.image_len)
            rows.append({
                "image": token,
                "element": ",".join(format_element(e, args.notation) for e in vec),
            })
        else:
            e = parse_element(token, args.k, args.notation)
            rows.append({
                "element": format_element(e, args.notation),
                "image": bits_to_str(gray.element_image(e), gray.image_len),
            })
    if args.invert:
        _emit_rows(rows, args.fmt, lambda r: f"{r['image']} -> {r['element']}")
    else:
        _emit_rows(rows, args.fmt, lambda r: f"{r['element']} -> {r['image']}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    rows = []
    for code in _codes_from_args(args):
        span = code_span(code)
        rows.append({
            "k": code.k,
            "lambda": format_element(code.lam, args.notation),
            "ell": code.ell,
            "m": code.m,
            "n": code.n,
            "generators": code.generator_strings(args.notation),
            "f2_dimension": span.rank,
            "qt_invariant": span_shift_invariant(span, code.lam, code.ell),
        })
    _emit_rows(
        rows,
        args.fmt,
        lambda r: (
            f"{_generators_text(r['generators'])} over R_{r['k']}: lambda={r['lambda']} "
            f"ell={r['ell']} m={r['m']} n={r['n']} |C|=2^{r['f2_dimension']} "
            f"qt_invariant={r['qt_invariant']}"
        ),
    )
    return 0


def _image_text(rec: dict) -> str:
    img = rec["image"]
    parts = [f"[{img['length']},{img['dimension']},{_shown(img['min_distance'])}]"]
    if rec["flags"]["self_orthogonal"]:
        parts.append("self-orthogonal")
    if rec["flags"]["qc_index"]:
        parts.append(f"{rec['flags']['qc_index']}-QC")
    return " ".join(parts)


def _cmd_image(args: argparse.Namespace) -> int:
    _require(args, "k")
    GrayMap(args.k)  # report the Gray k range, not the ring's, for any k out of it
    rows = [code_record(code, args.budget, args.notation) for code in _codes_from_args(args)]
    _emit_rows(rows, args.fmt, _image_text)
    return 0


def _cmd_wd(args: argparse.Namespace) -> int:
    _require(args, "k")
    GrayMap(args.k)  # report the Gray k range, not the ring's, for any k out of it
    rows = []
    for code in _codes_from_args(args):
        img = binary_image(code)
        image_enum = img.weight_enumerator(args.budget)
        hom_enum = hom_weight_enumerator(code, args.budget)
        rows.append({
            "generators": code.generator_strings(args.notation),
            "weight_enumerator": [list(p) for p in image_enum.pairs()],
            "polynomial": str(image_enum),
            "matches_homogeneous": image_enum == hom_enum,
        })
    _emit_rows(rows, args.fmt, lambda r: r["polynomial"])
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    rows = []
    ok = True
    for code in _codes_from_args(args):
        report = bound_check(code, args.budget)
        report["generators"] = code.generator_strings(args.notation)
        ok &= report["ok"]
        rows.append(report)
    _emit_rows(
        rows,
        args.fmt,
        lambda r: (
            "residue_d={residue_distance} d_hom={hom_distance} bounds={lower_bound}..{upper_bound} "
            "generator_bound={generator_bound} ok={ok}"
        ).format_map({key: _shown(value) for key, value in r.items()}),
    )
    return 0 if ok else 1


def _cmd_verify_tables(args: argparse.Namespace) -> int:
    try:
        tables = tuple(int(t) for t in args.tables.split(",") if t.strip())
    except ValueError:
        raise ValueError(f"--tables takes comma-separated table ids, got {args.tables!r}") from None
    reports = verify_tables(tables, args.budget)
    _emit_rows(
        reports,
        args.fmt,
        lambda r: (
            f"Table {r['table']} ({r['generator']}): expected {r['expected']} "
            f"computed {r['computed']} {r['status']}"
        ),
    )
    mismatched = [r for r in reports if r["status"] != "MATCH"]
    if mismatched:
        print(f"{len(mismatched)} row(s) mismatched", file=sys.stderr)
        return 1
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    _require(args, "k", "ell", "m")
    config = SearchConfig(
        k=args.k,
        lam=args.lam,
        ell=args.ell,
        m_values=(args.m,),
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        budget=args.budget,
        notation=args.notation,
    )
    records = search(config, jobs=args.jobs)
    _emit_rows(records, args.fmt, lambda r: f"{_generators_text(r['generators'])} {_image_text(r)}")
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "gray": _cmd_gray,
    "build": _cmd_build,
    "image": _cmd_image,
    "wd": _cmd_wd,
    "bounds": _cmd_bounds,
    "verify-tables": _cmd_verify_tables,
    "search": _cmd_search,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
