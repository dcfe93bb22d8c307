"""Command-line surface.

Subcommands: spectrum, eml, cheeger, sheaf-check, truss, build-expander,
search, verify-paper.  Exit codes: 0 success, 1 verification failure,
2 usage error (from argparse) or input error (exactly an MwgError).
Identical inputs and flags produce byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

from . import acceptance, jsonio
from .errors import MwgError, NotScalarRegularError, SingularVolumeError
from .expansion import (
    cheeger_analysis,
    eml_irregular,
    eml_irregular_exhaustive,
    eml_regular,
    eml_regular_exhaustive,
)
from .frames import (
    build_expander,
    eta,
    load_frame,
    named_frame,
    proper_edge_coloring,
    sample_expanders,
    search_expanders,
)
from .graphs import load, save
from .linalg import DEFAULT_TOL, Tolerances, kernel_dim_of_values
from .operators import assemble, check_normalized_bound
from .sheaf import load_truss, sheaf_analysis, truss_rigidity

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2

_TOL_FLAGS = ("sym_tol", "psd_tol", "rank_rel_tol", "resid_tol")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one.

    parse_args keeps no state between calls, so each main() call gets a
    fresh namespace, the same defaults and the same errors; in-process
    callers pay for the argparse set-up once.
    """
    parser = argparse.ArgumentParser(
        prog="mwgraph",
        description="Spectral analysis and expander search for matrix-weighted graphs.",
        allow_abbrev=False)
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized modes (default: 0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for search parallelism (default: 1)")
    for flag in _TOL_FLAGS:
        parser.add_argument(f"--{flag.replace('_', '-')}", type=float, default=None,
                            help=f"override {flag}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues, kernel, regularity, normalized bound")
    p.add_argument("file", type=Path)

    p = sub.add_parser("eml", help="expander mixing lemma checks")
    p.add_argument("file", type=Path)
    p.add_argument("--S", help="comma-separated vertex subset, e.g. 0,1,2")
    p.add_argument("--T", help="comma-separated vertex subset")
    p.add_argument("--exhaustive", action="store_true",
                   help="check every subset pair (n <= 8)")

    p = sub.add_parser("cheeger", help="Cheeger constants and lower bounds")
    p.add_argument("file", type=Path)

    p = sub.add_parser("sheaf-check", help="coboundary factorization and global sections")
    p.add_argument("file", type=Path)

    p = sub.add_parser("truss", help="stiffness kernel and rigid motions of a truss file")
    p.add_argument("file", type=Path)

    p = sub.add_parser("build-expander", help="weight a colored regular graph with a frame")
    p.add_argument("file", type=Path, help="base graph as MWG-JSON (weights ignored)")
    p.add_argument("--frame", required=True,
                   help="named frame (equiangular{r}, equiangular{r}+I, identity{k}) or @file")
    p.add_argument("--colors", help="comma-separated colors aligned with sorted edges")
    p.add_argument("--output", type=Path, help="write the weighted graph as MWG-JSON")

    p = sub.add_parser("search", help="enumerate colored regular graphs, rank by expansion")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--frame", required=True)
    p.add_argument("--samples", type=int, default=None,
                   help="seeded sampling mode: draw this many random r-regular "
                        "graphs on n-max vertices instead of exhausting n <= n-max")

    p = sub.add_parser("verify-paper", help="run the full acceptance suite")
    p.add_argument("--random-count", type=int, default=1000,
                   help="size of the randomized graph family (default: 1000)")

    return parser


def _tolerances(args) -> Tolerances:
    overrides = {flag: getattr(args, flag) for flag in _TOL_FLAGS
                 if getattr(args, flag) is not None}
    return dataclasses.replace(DEFAULT_TOL, **overrides)


def _parse_subset(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise MwgError(f"invalid subset {text!r}: {exc}") from exc


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise MwgError(f"cannot read {path}: {exc}") from exc


def _write(path: Path, data: bytes) -> None:
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise MwgError(f"cannot write {path}: {exc}") from exc


def _load_graph(path: Path, tol: Tolerances):
    return load(_read(path), tol)


def _resolve_frame(spec: str, tol: Tolerances, r_context: int | None = None):
    if spec.startswith("@"):
        return load_frame(_read(Path(spec[1:])), tol)
    return named_frame(spec, r_context)


# --- output rendering --------------------------------------------------------


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    elif isinstance(value, (list, tuple)):
        if value and all(isinstance(row, (list, tuple)) for row in value):
            for i, row in enumerate(value):
                for j, entry in enumerate(row):
                    out[f"{prefix}_{i}_{j}"] = entry
        else:
            for i, entry in enumerate(value):
                out[f"{prefix}_{i}"] = entry
    else:
        out[prefix] = value


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return jsonio.format_float(value)
    if value is None:
        return ""
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def render_csv(report: dict) -> str:
    rows = report.get("results") if isinstance(report.get("results"), list) else None
    if rows is None:
        rows = report.get("criteria") if isinstance(report.get("criteria"), list) else None
    if rows is None:
        rows = [report]
    flat_rows = []
    for row in rows:
        flat: dict = {}
        _flatten("", row, flat)
        flat_rows.append(flat)
    header: list[str] = []
    for flat in flat_rows:
        for key in flat:
            if key not in header:
                header.append(key)
    lines = [",".join(header)]
    for flat in flat_rows:
        lines.append(",".join(_csv_cell(flat.get(key)) for key in header))
    return "\n".join(lines) + "\n"


def render_text(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                lines.extend(render_text(value, indent + 1))
            elif isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
                lines.append(f"{pad}{key}:")
                for item in value:
                    lines.extend(render_text(item, indent + 1))
                    lines.append("")
                if lines[-1] == "":
                    lines.pop()
            else:
                lines.append(f"{pad}{key}: {_text_scalar(value)}")
    else:
        lines.append(f"{pad}{_text_scalar(obj)}")
    return lines


def _text_scalar(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_text_scalar(v) for v in value) + "]"
    return str(value)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(jsonio.dumps(report) + "\n")
    elif fmt == "csv":
        sys.stdout.write(render_csv(report))
    else:
        sys.stdout.write("\n".join(render_text(report)) + "\n")


# --- command handlers --------------------------------------------------------


def cmd_spectrum(args, tol: Tolerances) -> int:
    G = _load_graph(args.file, tol)
    ops = assemble(G, tol)
    reg = ops.regularity
    bound = check_normalized_bound(ops)
    report = {
        "n": G.base.n,
        "k": G.k,
        "lambda": ops.laplacian_values.tolist(),
        "mu": ops.adjacency_values[::-1].tolist(),
        "kernel_dim": kernel_dim_of_values(ops.laplacian_values, tol),
        "regularity": {
            "kind": reg.kind,
            "scalar_degree": reg.scalar_degree,
            "geometric_degrees": list(reg.geometric_degrees),
        },
        "normalized_bound": bound.to_jsonable(),
    }
    _emit(report, args.format)
    return EXIT_OK if bound.holds else EXIT_VERIFICATION_FAILED


def cmd_eml(args, tol: Tolerances) -> int:
    ops = assemble(_load_graph(args.file, tol), tol)
    report: dict = {}
    if args.exhaustive:
        if ops.regularity.is_scalar_regular:
            report["regular"] = eml_regular_exhaustive(ops).to_jsonable()
        try:
            report["irregular"] = eml_irregular_exhaustive(ops).to_jsonable()
        except SingularVolumeError:
            report["irregular"] = None
    else:
        if args.S is None or args.T is None:
            raise MwgError("eml needs --S and --T, or --exhaustive")
        S = _parse_subset(args.S)
        T = _parse_subset(args.T)
        if ops.regularity.is_scalar_regular:
            pair = eml_regular(ops, S, T)
            report["regular"] = {
                "trace": pair.trace_check.to_jsonable(),
                "spectral": pair.spectral_check.to_jsonable(),
                "abs_mu": pair.abs_mu,
            }
        try:
            report["irregular"] = eml_irregular(ops, S, T).to_jsonable()
        except SingularVolumeError:
            report["irregular"] = None
    if "regular" not in report:
        report["regular"] = None
    if report["regular"] is None and report["irregular"] is None:
        raise MwgError("graph is neither dI-regular nor has invertible volume; nothing to check")
    _emit(report, args.format)
    return EXIT_OK if _all_hold(report) else EXIT_VERIFICATION_FAILED


def _all_hold(obj) -> bool:
    if isinstance(obj, dict):
        if "holds" in obj and obj["holds"] is False:
            return False
        return all(_all_hold(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_all_hold(v) for v in obj)
    return True


def cmd_cheeger(args, tol: Tolerances) -> int:
    ops = assemble(_load_graph(args.file, tol), tol)
    constants, (trace_bound, loewner_bound), cert = cheeger_analysis(ops)
    report = {
        "h_trace": constants.h_trace,
        "argmin": list(constants.argmin),
        "h_loewner_alpha": constants.h_loewner_alpha,
        "trace_lower_bound": trace_bound.to_jsonable(),
        "loewner_lower_bound": loewner_bound.to_jsonable(),
        "counterexample_certificate": cert.to_jsonable(),
    }
    _emit(report, args.format)
    ok = trace_bound.holds and loewner_bound.holds
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_sheaf_check(args, tol: Tolerances) -> int:
    factorization, sections, kdim = sheaf_analysis(assemble(_load_graph(args.file, tol), tol))
    h0 = sections.shape[1]
    report = {
        "factorization": factorization.to_jsonable(),
        "h0_dim": h0,
        "kernel_dim": kdim,
        "dims_match": h0 == kdim,
    }
    _emit(report, args.format)
    ok = factorization.holds and h0 == kdim
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_truss(args, tol: Tolerances) -> int:
    truss = load_truss(_read(args.file))
    kdim, motions, residual = truss_rigidity(truss, tol)
    contained = residual <= tol.resid_tol
    report = {
        "n": len(truss.points),
        "kernel_dim": kdim,
        "rigid_motion_count": int(motions.shape[1]),
        "kernel_residual": residual,
        "rigid_motions_in_kernel": contained,
    }
    _emit(report, args.format)
    return EXIT_OK if contained else EXIT_VERIFICATION_FAILED


def cmd_build_expander(args, tol: Tolerances) -> int:
    base = _load_graph(args.file, tol).base
    degrees = set(base.geometric_degrees())
    r_context = degrees.pop() if len(degrees) == 1 else None
    frame = _resolve_frame(args.frame, tol, r_context)
    r = len(frame)
    if args.colors is not None:
        colors = _parse_subset(args.colors)
    else:
        colors = proper_edge_coloring(base, r)
    G = build_expander(base, colors, frame, tol)
    ops = assemble(G, tol)
    try:
        expander = eta(ops).to_jsonable()
    except NotScalarRegularError:
        expander = None
    # eta solved the regularity before it checked it
    reg = ops.regularity
    report = {
        "n": G.base.n,
        "k": G.k,
        "degree": reg.scalar_degree,
        "regularity": reg.kind,
        "coloring": list(colors),
        "expander": expander,
    }
    if args.output is not None:
        _write(args.output, save(G))
        report["output"] = str(args.output)
    _emit(report, args.format)
    return EXIT_OK


def cmd_search(args, tol: Tolerances) -> int:
    frame = _resolve_frame(args.frame, tol, args.r)
    if args.samples is not None:
        results = sample_expanders(args.n_max, args.r, frame, samples=args.samples,
                                   seed=args.seed, tol=tol)
    else:
        results = search_expanders(args.n_max, args.r, frame, tol, workers=args.workers)
    records = [res.to_jsonable() for res in results]
    if args.format == "json":
        for record in records:
            sys.stdout.write(jsonio.dumps(record) + "\n")
    elif args.format == "csv":
        sys.stdout.write(render_csv({"results": records}))
    else:
        for record in records:
            sys.stdout.write(
                f"n={record['n']} code={record['code']} eta={record['eta']:.6g} "
                f"mu=[{record['mu_min']:.6g}, {record['mu_max']:.6g}] d={record['d']:.6g} "
                f"coloring={record['coloring']}\n")
        sys.stdout.write(f"candidates: {len(records)}\n")
    return EXIT_OK


def cmd_verify_paper(args, tol: Tolerances) -> int:
    results = acceptance.run_suite_with_determinism(
        tol, seed=args.seed, workers=args.workers, random_count=args.random_count)
    report = acceptance.results_to_jsonable(results)
    if args.format != "text":
        _emit(report, args.format)
    else:
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            sys.stdout.write(f"{res.cid:>4}  {status}  {res.name}\n")
        overall = "PASS" if report["all_passed"] else "FAIL"
        sys.stdout.write(f"overall: {overall}\n")
    return EXIT_OK if report["all_passed"] else EXIT_VERIFICATION_FAILED


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "eml": cmd_eml,
    "cheeger": cmd_cheeger,
    "sheaf-check": cmd_sheaf_check,
    "truss": cmd_truss,
    "build-expander": cmd_build_expander,
    "search": cmd_search,
    "verify-paper": cmd_verify_paper,
}


def main(argv=None) -> int:
    """Exit 2 exactly when an MwgError is raised; any other exception is a
    bug and propagates."""
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise MwgError("--workers must be >= 1")
        cpus = os.cpu_count() or 1
        if args.workers > cpus:
            raise MwgError(f"--workers must be <= {cpus}, the CPU count")
        if args.seed < 0:
            raise MwgError("--seed must be >= 0")
        return _HANDLERS[args.command](args, _tolerances(args))
    except MwgError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
