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
import functools
import json
import math
import os
import sys

import numpy as np

from multiphoton import circuits, coincidence, fockspace, linalg, sources
from multiphoton.optimize import (
    OPTIMAL_NOISE_P,
    ScanResult,
    best_fock,
    crossover_window,
    maximize_classical,
    scan_g2_dft,
    scan_overlap,
    scan_phase,
    standard_sources,
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
        u = np.array(data["re"], dtype=float) + 1j * np.array(data["im"], dtype=float)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
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

def _verification_checks(seed: int):
    rng = np.random.default_rng(seed)

    def permanent_vs_naive():
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(1, 8))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a, b = linalg.permanent(m), linalg.permanent_naive(m)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
        return worst < 1e-10, f"max relative gap {worst:.2e}"

    def permanent_known():
        ones = linalg.permanent(np.ones((6, 6)))
        dft3 = abs(linalg.permanent(circuits.dft(3).u)) ** 2
        ok = abs(ones - 720) < 1e-9 and abs(dft3 - 1 / 3) < 1e-12
        return ok, f"all-ones 6x6 -> {ones.real:.6f}, |Per(dft3)|^2 -> {dft3:.6f}"

    def hom_engine_vs_closed():
        worst = 0.0
        for r in np.linspace(0, 1, 5):
            for g2 in np.linspace(0, 4, 5):
                ens = coincidence.uniform_ensemble(2, sources.custom_stats(g2))
                bs = circuits.beamsplitter(float(r))
                p_id = coincidence.coincidence_id_general(bs, ens).p_normalized
                p_dist = coincidence.coincidence_dist_general(bs, ens).p_normalized
                worst = max(
                    worst,
                    abs(p_id - coincidence.coincidence_hom(float(r), float(g2), True)),
                    abs(p_dist - coincidence.coincidence_hom(float(r), float(g2), False)),
                )
        return worst < 1e-12, f"max gap {worst:.2e}"

    def balanced3_anchors():
        oks = []
        circuit = circuits.dft(3)
        for stats, expect in [
            (sources.fock_stats(1), (1 / 3, 2 / 9)),
            (sources.laser_stats(), (4 / 9, 1.0)),
            (sources.thermal_stats(), (1.0, 20 / 9)),
        ]:
            ens = coincidence.uniform_ensemble(3, stats)
            p_id = coincidence.coincidence_id_general(circuit, ens).p_normalized
            p_dist = coincidence.coincidence_dist_general(circuit, ens).p_normalized
            oks.append(abs(p_id - expect[0]) < 1e-12 and abs(p_dist - expect[1]) < 1e-12)
        return all(oks), "single-photon/laser/thermal anchor probabilities"

    def explicit_vs_general():
        worst = 0.0
        circuit = circuits.symmetric(0.7)
        for _ in range(10):
            stats = tuple(
                sources.custom_stats(float(rng.uniform(0, 4)), float(rng.uniform(0, 9)),
                                     mean_n=float(rng.uniform(0.1, 3)))
                for _ in range(3)
            )
            ens = coincidence.InputEnsemble(stats=stats)
            for flag, general in [
                (True, coincidence.coincidence_id_general),
                (False, coincidence.coincidence_dist_general),
            ]:
                a = coincidence.coincidence_n3_explicit(circuit, ens, flag).p_raw
                b = general(circuit, ens).p_raw
                worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
        return worst < 1e-12, f"max relative gap {worst:.2e}"

    def mismatch_joint_and_endpoints():
        g2, g3 = np.meshgrid(np.linspace(0, 4, 5), np.linspace(0, 9, 5))
        mismatch = functools.partial(coincidence.coincidence_mismatch_n3, g2, g3)
        gaps = [
            mismatch(1.0) - mismatch(1.0 + 1e-15),
            mismatch(0.0) - coincidence.coincidence_dft3(g2, g3, False),
            mismatch(2.0) - coincidence.coincidence_dft3(g2, g3, True),
        ]
        worst = float(np.abs(gaps).max())
        return worst < 1e-12, f"max gap {worst:.2e}"

    def symmetric_matches_balanced():
        worst = 0.0
        sym = circuits.symmetric(2 * math.pi / 3)
        bal = circuits.dft(3)
        for _, stats in standard_sources():
            ens = coincidence.uniform_ensemble(3, stats)
            for engine in [
                coincidence.coincidence_id_general,
                coincidence.coincidence_dist_general,
            ]:
                worst = max(
                    worst,
                    abs(engine(sym, ens).p_normalized - engine(bal, ens).p_normalized),
                )
        return worst < 1e-12, f"max gap {worst:.2e}"

    def oracle_vs_engines():
        worst = 0.0
        cases = [
            (circuits.dft(3), [[(1.0, 1)]] * 3),
            (circuits.dft(2), [[(1.0, 1)]] * 2),
            (circuits.beamsplitter(0.3), [[(1.0, 2)]] * 2),
            (circuits.dft(3), [[(0.3, 0), (0.49, 1), (0.21, 2)]] * 3),
        ]
        for circuit, port_inputs in cases:
            stats_list = []
            for components in port_inputs:
                mean = sum(w * c for w, c in components)
                mom2 = sum(w * c * (c - 1) for w, c in components)
                mom3 = sum(w * c * (c - 1) * (c - 2) for w, c in components)
                stats_list.append(
                    sources.SourceStats(mean, (1.0, 1.0, mom2 / mean**2, mom3 / mean**3))
                )
            ens = coincidence.InputEnsemble(stats=tuple(stats_list))
            n = circuit.n
            _, same = fockspace.oracle_coincidence(circuit, port_inputs, [1] * n)
            _, dist = fockspace.oracle_coincidence(circuit, port_inputs, list(range(1, n + 1)))
            worst = max(
                worst,
                abs(same - coincidence.coincidence_id_general(circuit, ens).p_normalized),
                abs(dist - coincidence.coincidence_dist_general(circuit, ens).p_normalized),
            )
        return worst < 1e-10, f"max gap {worst:.2e}"

    def thermal_phase_invariance():
        values = [
            coincidence.coincidence_sym_phase(phi, 2.0, 6.0, True)
            for phi in np.linspace(0, 2 * math.pi, 101)
        ]
        spread = max(values) - min(values)
        return spread < 1e-12, f"spread {spread:.2e}"

    def scan_self_consistency():
        worst = 0.0
        for result in scan_overlap(standard_sources(), np.linspace(0, 2, 51)):
            for _, p_id, p_dist, v in result.rows:
                worst = max(worst, abs(v - (1 - p_id / p_dist)))
        return worst < 1e-12, f"max gap {worst:.2e}"

    return [
        ("permanent-ryser-vs-naive", permanent_vs_naive),
        ("permanent-known-values", permanent_known),
        ("hom-engine-vs-closed-form", hom_engine_vs_closed),
        ("balanced3-anchors", balanced3_anchors),
        ("explicit3-vs-general", explicit_vs_general),
        ("mismatch-joint-endpoints", mismatch_joint_and_endpoints),
        ("symmetric-vs-balanced3", symmetric_matches_balanced),
        ("oracle-vs-engines", oracle_vs_engines),
        ("thermal-phase-invariance", thermal_phase_invariance),
        ("scan-self-consistency", scan_self_consistency),
    ]


def cmd_verify(args) -> int:
    checks = _verification_checks(args.seed)
    failures = 0
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "ok  " if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed (seed={args.seed})")
    return 0 if failures == 0 else 1


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
