"""Command-line front end.

Subcommands: check-cm, extendible, bounds, family, channel,
oracle-verify. Output is JSON by default (stable key set, sorted keys);
`--format table` prints aligned text. JSON output is strict: a non-finite
float is written as null. Settings come from the global flags
alone: --eps-psd, --eps-feas and --max-iters make the RunConfig; --seed and
--format are read from the parsed arguments. Exit codes: 0 success/feasible,
1 infeasible, 2 not bona fide, 3 parse error, 4 solver stalled, 5 too large.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import channels as channels_mod
from . import extend as extend_mod
from . import fgs, io, matalg, verify
from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    FgextError,
    InvalidParameterError,
    NotBonaFideError,
    ParseError,
    SolverStalledError,
    TooManyModesError,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_NOT_BONA_FIDE = 2
EXIT_PARSE = 3
EXIT_STALLED = 4
EXIT_TOO_LARGE = 5


def _config_from_args(args) -> RunConfig:
    """RunConfig from the global flags, once --seed is at least 0; ParseError if invalid."""
    try:
        config = RunConfig(args.eps_psd, args.eps_feas, args.max_iters)
    except InvalidParameterError as exc:
        raise ParseError(f"run configuration: {exc}") from None
    if args.seed < 0:
        raise ParseError(f"run configuration: seed must be an integer >= 0, not {args.seed!r}")
    return config


def _emit(payload, args):
    if args.format == "table":
        rows = payload if isinstance(payload, list) else [payload]
        keys = sorted({k for row in rows for k in row})
        widths = {
            k: max(len(k), *(len(_cell(row.get(k))) for row in rows)) for k in keys
        }
        print("  ".join(k.ljust(widths[k]) for k in keys))
        for row in rows:
            print("  ".join(_cell(row.get(k)).ljust(widths[k]) for k in keys))
    else:
        print(json.dumps(_json_value(payload), sort_keys=True, allow_nan=False))


def _json_value(value):
    """value with every non-finite float replaced by None (JSON's null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list):
        return "[" + ", ".join(_cell(v) for v in value) + "]"
    return str(value)


def _load_bipartite(path, config):
    loaded = io.load_cm(path, config.eps_psd)
    if not isinstance(loaded, fgs.BipartiteCM):
        raise ParseError(f"{path} declares no split; 'split nA nB' is required here")
    return loaded


def _cmd_check_cm(args, config):
    body, split = io.load_cm_raw(args.path)
    try:  # load_cm's verdict; the spectrum below is only reported
        fgs.validate_cm(body, config.eps_psd)
        valid = True
    except NotBonaFideError:
        valid = False
    # one eigendecomposition of iM; I + iM's spectrum is 1 plus iM's
    spectrum, vectors = np.linalg.eigh(1j * body.mat)
    report = {
        "valid": valid,
        "modes": body.modes,
        "split": list(split) if split else None,
        "spectrum": [float(v) for v in spectrum],
        "min_eig_I_plus_iM": 1.0 + float(spectrum[0]),
    }
    if valid:
        lams = [float(v) for v in matalg._form_from_vectors(body.mat, vectors).lambdas]
        report["lambdas"] = lams
        report["pure"] = bool(min(abs(v) for v in lams) >= 1.0 - config.eps_psd)
    _emit(report, args)
    return EXIT_OK if valid else EXIT_NOT_BONA_FIDE


def _result_payload(result):
    return {"status": result.status.value, "margin": result.margin, "certificate": result.certificate}


def _cmd_extendible(args, config):
    if args.emit_witness == "":
        raise ParseError("--emit-witness needs a non-empty prefix for its witness files")
    b = _load_bipartite(args.path, config)
    query = extend_mod.ExtendQuery(b, args.k1, args.k2)
    result = extend_mod.feasibility(query, config)
    payload = _result_payload(result)
    payload.update({"k1": args.k1, "k2": args.k2})
    if result.feasible:
        if args.emit_extension is not None:
            io.save_cm(args.emit_extension, extend_mod.build_extension(query, result, config))
            payload["extension_file"] = args.emit_extension
        if args.emit_witness is not None:
            io.save_cm(args.emit_witness + ".deltaA.cm", result.delta_a)
            io.save_cm(args.emit_witness + ".deltaB.cm", result.delta_b)
            payload["witness_files"] = [
                args.emit_witness + ".deltaA.cm",
                args.emit_witness + ".deltaB.cm",
            ]
    _emit(payload, args)
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _bounds_record(n_a, n_b, k1, k2, cm=None):
    report = bounds_mod.definetti_bounds(n_a, n_b, k1, k2)
    record = {
        "k1": k1,
        "k2": k2,
        "nA": n_a,
        "nB": n_b,
        "T": report.t,
        "trace_upper": report.t,
        "trace_lower": None,
        "er_upper": report.er_upper,
        "esq_upper": report.esq_upper,
    }
    if cm is not None:
        record["trace_upper_cm"] = bounds_mod.trace_upper_from_cm(cm)
        record["trace_lower"] = bounds_mod.lower_bound_two_mode(cm)
    return record


def _cmd_bounds(args, config):
    if args.cm is not None:
        if args.na is not None or args.nb is not None:
            raise ParseError("--na and --nb cannot be given with --cm, which sets the mode counts")
        b = _load_bipartite(args.cm, config)
        record = _bounds_record(b.n_a, b.n_b, args.k1, args.k2, cm=b)
    else:
        n_a = 1 if args.na is None else args.na
        n_b = 1 if args.nb is None else args.nb
        record = _bounds_record(n_a, n_b, args.k1, args.k2)
    _emit(record, args)
    return EXIT_OK


def _family_record(k1, k2):
    b = bounds_mod.family_cm(k1, k2)
    record = _bounds_record(1, 1, k1, k2, cm=b)
    record["spectrum"] = [float(v) for v in bounds_mod.family_spectrum(k1, k2)]
    record["bosonic_lower"] = bounds_mod.bosonic_strategy_lower_bound(k1, k2)
    return record


def _cmd_family(args, config):
    for name, low, high in (("k1", args.k1, args.k1_max), ("k2", args.k2, args.k2_max)):
        if high is not None and high < low:
            raise ParseError(f"--{name}-max {high} is below {name} = {low}")
    k1s = range(args.k1, (args.k1_max or args.k1) + 1)
    k2s = range(args.k2, (args.k2_max or args.k2) + 1)
    tuples = [(k1, k2) for k1 in k1s for k2 in k2s]
    if args.emit is not None:
        if len(tuples) != 1:
            raise ParseError("--emit requires a single (k1, k2) tuple")
        io.save_cm(args.emit, bounds_mod.family_cm(*tuples[0]))
    records = [_family_record(*t) for t in tuples]
    _emit(records if len(records) > 1 else records[0], args)
    return EXIT_OK


def _cmd_channel(args, config):
    ch = io.load_channel(args.path, config.eps_psd)
    if args.action == "validate":
        _emit({"valid": True, "n_in": ch.n_in, "n_out": ch.n_out}, args)
        return EXIT_OK
    if args.action == "choi":
        b = channels_mod.choi_cm(ch)
        if args.out is not None:
            io.save_cm(args.out, b)
        _emit(
            {
                "n_out": b.n_a,
                "n_in": b.n_b,
                "spectrum": [float(v) for v in matalg.hermitian_spectrum(b.cm.body)],
                "choi_file": args.out,
            },
            args,
        )
        return EXIT_OK
    if args.action == "eb":
        flag = channels_mod.is_entanglement_breaking(ch, config.eps_psd)
        _emit({"entanglement_breaking": bool(flag)}, args)
        return EXIT_OK
    if args.action == "antidegradable":
        result = channels_mod.antidegradable(ch, config)
    else:
        result = channels_mod.channel_k_extendible(ch, args.k, config)
    _emit(_result_payload(result), args)
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _cmd_oracle_verify(args, config):
    report = verify.run_suite(args.suite, args.n_max, args.trials, args.seed)
    _emit(dataclasses.asdict(report), args)
    return EXIT_OK if report.passed else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgext",
        description="Extendibility and de Finetti bounds for fermionic Gaussian states",
    )
    parser.add_argument("--eps-psd", type=float, default=DEFAULT_CONFIG.eps_psd)
    parser.add_argument("--eps-feas", type=float, default=DEFAULT_CONFIG.eps_feas)
    parser.add_argument("--max-iters", type=int, default=DEFAULT_CONFIG.max_iters)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-cm", help="validate a covariance-matrix file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_check_cm)

    p = sub.add_parser("extendible", help="decide (k1, k2)-extendibility")
    p.add_argument("path")
    p.add_argument("k1", type=int)
    p.add_argument("k2", type=int)
    p.add_argument("--emit-extension", default=None, metavar="OUT.cm")
    p.add_argument("--emit-witness", default=None, metavar="PREFIX")
    p.set_defaults(func=_cmd_extendible)

    p = sub.add_parser("bounds", help="finite de Finetti bounds")
    p.add_argument("k1", type=int)
    p.add_argument("k2", type=int)
    p.add_argument("--na", type=int, default=None)
    p.add_argument("--nb", type=int, default=None)
    p.add_argument("--cm", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("family", help="the explicit two-mode extendible family")
    p.add_argument("k1", type=int)
    p.add_argument("k2", type=int)
    p.add_argument("--k1-max", type=int, default=None)
    p.add_argument("--k2-max", type=int, default=None)
    p.add_argument("--emit", default=None, metavar="OUT.cm")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("channel", help="Gaussian channel classification")
    p.add_argument("path")
    p.add_argument(
        "action", choices=("validate", "antidegradable", "eb", "choi", "k-ext")
    )
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--out", default=None, metavar="OUT.cm")
    p.set_defaults(func=_cmd_channel)

    p = sub.add_parser("oracle-verify", help="dense-oracle property suites")
    p.add_argument("suite", choices=tuple(verify._SUITES))
    p.add_argument("--n-max", dest="n_max", type=int, default=3)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=_cmd_oracle_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return args.func(args, config)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotBonaFideError as exc:
        print(f"not physical: {exc}", file=sys.stderr)
        return EXIT_NOT_BONA_FIDE
    except SolverStalledError as exc:
        print(f"solver stalled: {exc}", file=sys.stderr)
        return EXIT_STALLED
    except TooManyModesError as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except FgextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
