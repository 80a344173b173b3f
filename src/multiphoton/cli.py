"""Command-line front end.

Emits figure-level data as CSV (one header row, 17-significant-digit
floats, deterministic byte-for-byte for fixed flags) and optimizer /
verification reports as JSON.  Exit codes: 0 success, 1 verification
failure, 2 usage error, 141 (128 + SIGPIPE) when the reader of stdout
closes the pipe early.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from multiphoton import circuits, coincidence, sources, verify
from multiphoton.optimize import (
    OPTIMAL_NOISE_P,
    ScanResult,
    best_fock,
    crossover_window,
    maximize_classical,
    scan_g2_dft,
    scan_overlap,
    scan_phase,
)
from multiphoton.visibility import visibility, visibility_of


# Largest accepted grid count; the documented figures use at most 401.
MAX_GRID_POINTS = 100_000
# Exit status of a process killed by SIGPIPE, as shells report it.
BROKEN_PIPE_EXIT = 141


class UsageError(ValueError):
    pass


def finite_float(text: str) -> float:
    """argparse type for float flags: rejects nan and +-inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def parse_grid_spec(text: str) -> np.ndarray:
    """Parse 'start:stop:count' into an inclusive linear grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"grid endpoints must be finite, got {text!r}")
    if count < 2:
        raise UsageError(f"grid needs at least 2 points, got {count}")
    if count > MAX_GRID_POINTS:
        raise UsageError(f"grid allows at most {MAX_GRID_POINTS} points, got {count}")
    if hi <= lo:
        raise UsageError(f"grid needs stop > start, got {text!r}")
    if not math.isfinite(hi - lo):
        raise UsageError(f"grid span stop - start overflows, got {text!r}")
    return np.linspace(lo, hi, count)


def parse_source_spec(text: str, max_order: int = 3) -> tuple[str, sources.SourceStats]:
    """Parse a source description string.

    Accepted forms: fock:<n>, laser, thermal, diluted:<p>, noise-opt,
    vac12:<p>,<q>, custom:g2=<x>,g3=<y>.
    """
    text = text.strip()
    try:
        if text == "laser":
            return text, sources.laser_stats(max_order)
        if text == "thermal":
            return text, sources.thermal_stats(max_order)
        if text == "noise-opt":
            return text, sources.diluted_laser_stats(OPTIMAL_NOISE_P, max_order)
        if text.startswith("fock:"):
            return text, sources.fock_stats(int(text[5:]), max_order)
        if text.startswith("diluted:"):
            return text, sources.diluted_laser_stats(float(text[8:]), max_order)
        if text.startswith("vac12:"):
            p, q = (float(x) for x in text[6:].split(","))
            return text, sources.vac12_mixture_stats(p, q, max_order)
        if text.startswith("custom:"):
            fields = dict(item.strip().split("=") for item in text[7:].split(","))
            g2 = float(fields.pop("g2"))
            g3 = float(fields.pop("g3")) if "g3" in fields else None
            if fields:
                raise ValueError(f"unknown fields {sorted(fields)}")
            return text, sources.custom_stats(g2, g3)
    except (ValueError, KeyError) as exc:
        raise UsageError(f"bad source spec {text!r}: {exc}") from None
    raise UsageError(f"unknown source spec {text!r}")


SOURCE_HEADS = ("fock:", "laser", "thermal", "diluted:", "noise-opt", "vac12:", "custom:")


def parse_source_list(text: str, max_order: int = 3):
    """Parse comma-separated source specs.  A piece that does not start with one
    of SOURCE_HEADS continues the spec before it, as in vac12:<p>,<q>."""
    specs: list[str] = []
    for piece in filter(None, text.split(",")):
        if specs and not piece.strip().startswith(SOURCE_HEADS):
            specs[-1] += "," + piece
        else:
            specs.append(piece)
    if not specs:
        raise UsageError(f"no source spec in {text!r}")
    return [parse_source_spec(spec, max_order) for spec in specs]


def load_circuit_json(path: str) -> circuits.Circuit:
    """Load a custom circuit from {"n": int, "re": [[...]], "im": [[...]]}."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        n = int(data["n"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"cannot load circuit from {path}: {exc}") from None
    coincidence.enumerate_exponent_tuples(n)  # refuses n outside 1..MAX_PORTS
    try:
        u = np.array(data["re"], dtype=float) + 1j * np.array(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"cannot load circuit from {path}: {exc}") from None
    if u.shape != (n, n):
        raise UsageError(f"circuit file declares n={n} but matrix shape is {u.shape}")
    return circuits.custom(u)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_field(text: str) -> str:
    """Quote a label that holds a comma or a quote, as RFC 4180 does."""
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _scan_csv(results: list[ScanResult], param_name: str) -> list[str]:
    lines = [f"label,{param_name},p_id,p_dist,v"]
    for result in results:
        label = _csv_field(result.label)
        lines += [",".join([label, *map(_fmt, row)]) for row in result.rows]
    return lines


# --- subcommands ------------------------------------------------------------

def cmd_hom(args) -> int:
    if args.scan_g2 is not None:
        grid = parse_grid_spec(args.scan_g2)
    elif args.source is not None:
        _, stats = parse_source_spec(args.source)
        grid = np.array([stats.g2])
    else:
        grid = np.array([args.g2])
    point = visibility_of(coincidence.coincidence_hom, args.R, grid)
    lines = ["param,g2,p_id,p_dist,v"]
    for g2, *values in zip(grid, point.p_id, point.p_dist, point.v):
        lines.append(",".join(map(_fmt, (g2, g2, *values))))
    _emit(lines, args.output)
    return 0


def cmd_dft_vis(args) -> int:
    grid = parse_grid_spec(args.scan_g2)
    _emit(_scan_csv(scan_g2_dft(grid), "g2"), args.output)
    return 0


def cmd_mismatch(args) -> int:
    grid = parse_grid_spec(args.scan_xi)
    results = scan_overlap(parse_source_list(args.sources), grid)
    _emit(_scan_csv(results, "xi"), args.output)
    return 0


def cmd_sym(args) -> int:
    grid = parse_grid_spec(args.scan_phi)
    results = scan_phase(parse_source_list(args.sources), grid)
    _emit(_scan_csv(results, "phi"), args.output)
    return 0


def cmd_coinc(args) -> int:
    circuit = _circuit_from_flags(args)
    srcs = parse_source_list(args.sources, max_order=circuit.n)
    if len(srcs) == 1:
        srcs = srcs * circuit.n
    if len(srcs) != circuit.n:
        raise UsageError(
            f"need 1 or {circuit.n} sources for a {circuit.n}-port circuit, "
            f"got {len(srcs)}"
        )
    ensemble = coincidence.InputEnsemble(stats=tuple(s for _, s in srcs))
    point = visibility(
        coincidence.coincidence_id_general(circuit, ensemble).p_normalized,
        coincidence.coincidence_dist_general(circuit, ensemble).p_normalized,
    )
    names = [name for name, _ in srcs]
    label = names[0] if len(set(names)) == 1 else "+".join(names)
    values = ",".join(map(_fmt, (point.p_id, point.p_dist, point.v)))
    _emit(["label,n,p_id,p_dist,v", f"{_csv_field(label)},{circuit.n},{values}"], args.output)
    return 0


def _circuit_from_flags(args) -> circuits.Circuit:
    if args.dft is not None:
        return circuits.dft(args.dft)
    if args.beamsplitter is not None:
        return circuits.beamsplitter(args.beamsplitter)
    if args.symmetric is not None:
        return circuits.symmetric(args.symmetric)
    return load_circuit_json(args.circuit)


def _optimum_report(phi: float) -> dict:
    report = maximize_classical(phi)
    fock = best_fock(phi)
    return {
        "phi": phi,
        "g2_opt": report.argmax,
        "v_opt": report.value,
        "iterations": report.iterations,
        "bracket": list(report.bracket),
        "fock": dataclasses.asdict(fock),
        "v_laser": visibility_of(coincidence.coincidence_sym_phase, phi, 1, 1).v,
    }


def cmd_optimize(args) -> int:
    if args.crossover:
        report = crossover_window()
        payload = {
            "anchor_phi": report.anchor_phi,
            "g2_fixed": report.g2_fixed,
            "window": list(report.window) if report.window else None,
            "rows": [
                {"phi": phi, "fock_margin": fm, "noise_margin": nm, "n_best": n}
                for phi, fm, nm, n in report.rows
            ],
        }
    elif args.scan_phi is not None:
        grid = parse_grid_spec(args.scan_phi)
        payload = {"reports": [_optimum_report(float(phi)) for phi in grid]}
    else:
        payload = _optimum_report(args.phi)
    _emit([json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)], args.output)
    return 0


# --- verification suite -----------------------------------------------------

def cmd_verify(args) -> int:
    passed = []
    for record in verify.run_checks(args.seed):
        print(f"{'ok  ' if record.ok else 'FAIL'} {record.name}: {record.detail}")
        print(f"{record.name}: {record.seconds:.6f} s", file=sys.stderr)
        passed.append(record.ok)
    print(f"{sum(passed)}/{len(passed)} checks passed (seed={args.seed})")
    return 0 if all(passed) else 1


# --- argument parsing -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiphoton",
        description=(
            "Coincidence probabilities and interference visibilities for "
            "linear-optical multiports fed by noisy light sources."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hom", help="two-port beamsplitter coincidence and visibility")
    p.add_argument("--R", type=finite_float, default=0.5, help="beamsplitter reflectance")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--g2", type=finite_float, help="source g2")
    one.add_argument("--source", help="source spec instead of --g2 (e.g. thermal)")
    one.add_argument("--scan-g2", help="g2 grid start:stop:count")
    p.add_argument("-o", "--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("dft-vis", help="balanced 3-port visibility vs g2 with bound curves")
    p.add_argument("--scan-g2", default="0:6:301", help="g2 grid start:stop:count")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_dft_vis)

    p = sub.add_parser("mismatch", help="visibility along the sequential mode-overlap path")
    p.add_argument(
        "--sources",
        default="fock:1,laser,thermal,noise-opt",
        help="comma-separated source specs",
    )
    p.add_argument("--scan-xi", default="0:2:201", help="xi grid start:stop:count")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_mismatch)

    p = sub.add_parser("sym", help="visibility vs phase of the symmetric 3-port")
    p.add_argument(
        "--sources",
        default="fock:1,laser,thermal,noise-opt",
        help="comma-separated source specs",
    )
    p.add_argument(
        "--scan-phi", default=f"0:{2 * math.pi}:401", help="phi grid start:stop:count"
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_sym)

    p = sub.add_parser("coinc", help="ad-hoc coincidence evaluation on any circuit")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument(
        "--dft",
        type=int,
        choices=range(2, coincidence.MAX_PORTS + 1),
        metavar="N",
        help=f"use the N-port DFT circuit, N in 2..{coincidence.MAX_PORTS}",
    )
    one.add_argument("--beamsplitter", type=finite_float, help="use a beamsplitter of reflectance R")
    one.add_argument("--symmetric", type=finite_float, help="use the symmetric 3-port at phase PHI")
    one.add_argument("--circuit", help="JSON circuit file {n, re, im}")
    p.add_argument(
        "--sources",
        required=True,
        help="one source spec for all ports, or one per port (comma-separated)",
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_coinc)

    p = sub.add_parser("optimize", help="noise/Fock optimization reports (JSON)")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--phi", type=finite_float, help="single-phase report")
    one.add_argument("--scan-phi", help="phi grid start:stop:count")
    one.add_argument(
        "--crossover",
        action="store_true",
        help="locate the window where noise and Fock inputs both beat the laser",
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="run the internal consistency checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except ValueError as exc:  # UsageError and the library's value-domain errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `multiphoton verify | head -1`
        # Send what is still buffered to devnull, so the flush at exit
        # cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT


if __name__ == "__main__":
    sys.exit(main())
