"""Command-line interface.

Exit codes: 0 success, 1 input channel fails the CPTP check, 2 usage error
(an input too large for memory included), 3 numerical failure (defective
peripheral cluster, ...).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .channel import (KrausChannel, Superoperator, _matrix_from_pairs, _matrix_to_pairs,
                      to_superoperator, validate_cptp)
from .classify import classify
from .hamiltonian import random_hamiltonian
from .harness import FIGURE_IDS, SweepConfig, reproduce, resolve_channel, sweep, write_records_csv
from .linalg import LinalgError, _unit, is_hermitian
from .spectral import MAX_PERIPHERAL_TOL, PERIPHERAL_TOL, SpectralError, analyze_peripheral
from .zeno import DD_TOL, SUPPRESSION_TOL, _zeno_residual, dd_check
from .zoo import builtin, names

EXIT_OK = 0
EXIT_NOT_CPTP = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


def _kick(spec: str, params: dict | None = None) -> tuple[KrausChannel, Superoperator]:
    """The channel named by ``spec``, refused unless CPTP, and its superoperator."""
    try:
        ch = resolve_channel(spec, params)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot load channel {spec!r}: {exc}") from exc
    report = validate_cptp(ch)
    if not report.passed:
        print(f"channel is not CPTP: trace residual {report.trace_residual:.3e}", file=sys.stderr)
        raise SystemExit(EXIT_NOT_CPTP)
    return ch, to_superoperator(ch)


def _load_hamiltonian(spec: str, dim: int) -> np.ndarray:
    if spec.startswith("random:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad random Hamiltonian seed in {spec!r}") from exc
        if seed < 0:
            raise UsageError(f"bad random Hamiltonian seed in {spec!r}: must be >= 0")
        try:
            return random_hamiltonian(dim, seed)
        except ValueError as exc:
            raise UsageError(f"cannot draw Hamiltonian {spec!r} at dim {dim}: {exc}") from exc
    try:
        h = _matrix_from_pairs(json.loads(Path(spec).read_text())["matrix"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot load Hamiltonian {spec!r}: {exc}") from exc
    if h.shape != (dim, dim):
        raise UsageError(f"Hamiltonian shape {h.shape} does not match dim {dim}")
    if not is_hermitian(_unit(h)[0]):  # at unit scale, as the verdicts check H
        raise UsageError(f"Hamiltonian {spec!r} is not Hermitian")
    return h


def _cmd_classify(args) -> int:
    ch, s = _kick(args.channel)
    c = classify(s, name=ch.name or args.channel, tol=args.tol)
    print(json.dumps(c.to_record(), indent=1))
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    dec = analyze_peripheral(_kick(args.channel)[1], tol=args.tol)
    out = {
        "dim": dec.dim,
        "dim_fixed": dec.dim_fixed,
        "dim_recurrent": dec.dim_recurrent,
        "peripheral_values": [[float(v.real), float(v.imag)] for v in dec.peripheral_values],
        "multiplicities": [int(m) for m in dec.multiplicities],
    }
    print(json.dumps(out, indent=1))
    return EXIT_OK


def _cmd_dd_check(args) -> int:
    ch, s2 = _kick(args.channel)
    h = _load_hamiltonian(args.hamiltonian, args.d1 * ch.dim)
    try:
        verdict = dd_check(s2, h, args.d1, tol=args.tol)
    except ValueError as exc:  # an effective Hamiltonian past the float range
        raise UsageError(f"cannot decide on Hamiltonian {args.hamiltonian!r}: {exc}") from exc
    h_eff = verdict.effective_hamiltonian
    out = {
        "works": verdict.works,
        "residual": verdict.residual,
        "kick_ergodic": verdict.kick_ergodic,
        "effective_hamiltonian": None if h_eff is None else _matrix_to_pairs(h_eff),
    }
    print(json.dumps(out, indent=1))
    return EXIT_OK


def _cmd_zeno_check(args) -> int:
    ch, s = _kick(args.channel)
    h = _load_hamiltonian(args.hamiltonian, ch.dim)
    norm = _zeno_residual(analyze_peripheral(s), h)[0]
    out = {
        "suppressed": norm <= args.tol,
        "zeno_hamiltonian_norm": norm,
    }
    print(json.dumps(out, indent=1))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        cfg = SweepConfig.from_dict(json.loads(Path(args.config).read_text()))
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad sweep config {args.config!r}: {exc}") from exc
    _kick(cfg.channel, cfg.channel_params)
    out_path = Path(args.out) / "sweep.csv"
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)  # fail before computing
        write_records_csv(sweep(cfg), out_path)
    except OSError as exc:
        raise UsageError(f"cannot write {str(out_path)!r}: {exc}") from exc
    except ValueError as exc:  # the channel passed above: a Hamiltonian that does not fit it
        raise UsageError(f"bad sweep config {args.config!r}: {exc}") from exc
    print(out_path)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    try:
        paths = reproduce(args.figure, args.out)
    except OSError as exc:
        raise UsageError(f"cannot write to {args.out!r}: {exc}") from exc
    for path in paths:
        print(path)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, with exit code 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive(convert, upper: float = float("inf")):
    """Argument type for a number in (0, upper]."""

    def number(text: str):
        value = convert(text)
        if not 0 < value <= upper:
            raise argparse.ArgumentTypeError(f"must lie in (0, {upper:g}], got {text}")
        return value

    return number


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bathdd",
        description="Spectral analysis of quantum channels: classification, "
        "bath dynamical decoupling, and Zeno Hamiltonian suppression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_channel(p):
        p.add_argument(
            "channel",
            help=f"channel JSON file or zoo:NAME (available: {', '.join(names())})",
        )

    p = sub.add_parser("classify", help="ergodic/mixing/irreducible/DFS-free profile")
    add_channel(p)
    p.add_argument("--tol", type=_positive(float, MAX_PERIPHERAL_TOL), default=PERIPHERAL_TOL)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("spectrum", help="peripheral eigenvalues and multiplicities")
    add_channel(p)
    p.add_argument("--tol", type=_positive(float, MAX_PERIPHERAL_TOL), default=PERIPHERAL_TOL)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("dd-check", help="does bath dynamical decoupling work?")
    add_channel(p)
    p.add_argument("--hamiltonian", required=True, help="JSON file or random:SEED")
    p.add_argument("--d1", type=_positive(int), default=2, help="system dimension")
    p.add_argument("--tol", type=_positive(float), default=DD_TOL)
    p.set_defaults(func=_cmd_dd_check)

    p = sub.add_parser("zeno-check", help="is the Zeno Hamiltonian suppressed?")
    add_channel(p)
    p.add_argument("--hamiltonian", required=True, help="JSON file or random:SEED")
    p.add_argument("--tol", type=_positive(float), default=SUPPRESSION_TOL)
    p.set_defaults(func=_cmd_zeno_check)

    p = sub.add_parser("sweep", help="run a sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("reproduce", help="recompute a reference figure's data")
    p.add_argument("figure", choices=FIGURE_IDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (SpectralError, LinalgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"input too large for memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
