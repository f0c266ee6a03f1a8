"""Batch command-line front end.

Config-driven and reproducibility-first: a run is a JSON config file plus a
subcommand, flags override file keys, seeds default to a fixed constant, and
every output file is written atomically. Exit codes: 0 success/pass, 2 valid
run whose condition was not met, 1 any error (reported on stderr).

Subcommands: bound, select-n, simulate, verify, tables.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from ..bounds import Resolution, SelectionResult, c_n_bound, check_conditions, select_N
from ..errors import ConfigError, DomainError
from ..orlicz import OrliczSpec, TailBoundSpec
from ..orthopoly import (
    MAX_DEGREE,
    PolynomialFamily,
    _poly_block,
    generating_function,
    orthonormal_block,
    partial_gf_sum,
)
from ..process import (
    XI_MODES,
    ProcessSpec,
    _path_chunks,
    _xi_sigma,
    builtin_kernel,
    compute_coefficients,
    kernel_names,
    verify_reliability,
)
from ..quadrature import MAX_NODES, rule_for_family

DEFAULT_SEED = 123456789

_DEFAULTS: dict[str, object] = {
    "p": 2.0,
    "gamma": 2.0,
    "w": 0.5,
    "n_max": 32,
    "paths": 1000,
    "seed": DEFAULT_SEED,
    "spectral_nodes": 256,
    "reference_spectral_nodes": 512,
    "time_grid_points": 257,
    "oracle_nodes": 256,
    "workers": 1,
    "table_k_max": 3,
    "table_points": 5,
}

_FAMILIES = ("legendre", "laguerre", "gegenbauer")


def _want_int(key, value, lo=None, hi=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{key}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{key}: must be <= {hi}, got {value}")
    return value


def _want_number(key, value, *, gt=None, ge=None, lt=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{key}: must be a finite number, got {value!r}")
    v = float(value)
    if gt is not None and not v > gt:
        raise ConfigError(f"{key}: must be > {gt}, got {value}")
    if ge is not None and not v >= ge:
        raise ConfigError(f"{key}: must be >= {ge}, got {value}")
    if lt is not None and not v < lt:
        raise ConfigError(f"{key}: must be < {lt}, got {value}")
    return v


def _want_choice(key, value, choices):
    if value not in choices:
        raise ConfigError(f"{key}: must be one of {', '.join(choices)}, got {value!r}")
    return value


def _want_odd(key, value):
    v = _want_int(key, value, 3)
    if v % 2 == 0:
        raise ConfigError(f"{key}: must be odd, got {v}")
    return v


_VALIDATORS = {
    "family": lambda k, v: _want_choice(k, v, _FAMILIES),
    "family_alpha": lambda k, v: _want_number(k, v),
    "kernel": lambda k, v: _want_choice(k, v, tuple(kernel_names())),
    "horizon": lambda k, v: _want_number(k, v, gt=0.0),
    "p": lambda k, v: _want_number(k, v, ge=1.0),
    "gamma": lambda k, v: _want_number(k, v, gt=1.0),
    "tau": lambda k, v: _want_number(k, v, gt=0.0),
    "w": lambda k, v: _want_number(k, v, gt=0.0, lt=1.0),
    "delta": lambda k, v: _want_number(k, v, gt=0.0),
    "alpha": lambda k, v: _want_number(k, v, gt=0.0, lt=1.0),
    "n": lambda k, v: _want_int(k, v, 0),
    "n_max": lambda k, v: _want_int(k, v, 0),
    "paths": lambda k, v: _want_int(k, v, 1),
    "seed": lambda k, v: _want_int(k, v, 0, 2**64 - 1),
    "xi_mode": lambda k, v: _want_choice(k, v, XI_MODES),
    "spectral_nodes": lambda k, v: _want_int(k, v, 1, MAX_NODES),
    "reference_spectral_nodes": lambda k, v: _want_int(k, v, 1, MAX_NODES),
    "time_grid_points": _want_odd,
    "oracle_nodes": lambda k, v: _want_int(k, v, 1, MAX_NODES),
    "reference_n": lambda k, v: _want_int(k, v, 0),
    "workers": lambda k, v: _want_int(k, v, 1),
    "table_k_max": lambda k, v: _want_int(k, v, 0, MAX_DEGREE),
    "table_points": lambda k, v: _want_int(k, v, 2),
}

_KEY_ORDER = tuple(_VALIDATORS)


def validate_config(raw: dict) -> dict:
    """Normalize and range-check a merged config; first violation wins.

    Raises:
        ConfigError: naming the offending key.
    """
    for key in raw:
        if key not in _VALIDATORS:
            raise ConfigError(f"{key}: unknown config key")
    cfg = dict(_DEFAULTS)
    cfg.update(raw)
    for key in _KEY_ORDER:
        if key in cfg:
            cfg[key] = _VALIDATORS[key](key, cfg[key])
    if "family" in cfg:
        try:
            _family(cfg)
        except DomainError as exc:
            raise ConfigError(f"family_alpha: {exc}") from None
    return cfg


def _require(cfg: dict, command: str, *keys: str) -> None:
    for key in keys:
        if key not in cfg:
            raise ConfigError(f"{key}: required by command '{command}'")


def _family(cfg: dict) -> PolynomialFamily:
    alpha = cfg.get("family_alpha")
    return PolynomialFamily(cfg["family"], None if alpha is None else float(alpha))


def _process_spec(cfg: dict, command: str) -> ProcessSpec:
    _require(cfg, command, "family", "kernel", "horizon", "tau")
    kernel = builtin_kernel(cfg["kernel"])
    family = _family(cfg)
    orlicz = OrliczSpec(cfg["gamma"])
    tail = TailBoundSpec(cfg["tau"], cfg["w"])
    try:
        return ProcessSpec(
            kernel=kernel,
            family=family,
            horizon=cfg["horizon"],
            p=cfg["p"],
            orlicz=orlicz,
            tail=tail,
        )
    except DomainError as exc:
        # validate_config has checked horizon and p, so the kernel/family
        # domain match is the one rule left to refuse here
        raise ConfigError(f"kernel: {exc}") from None


def _resolution(cfg: dict) -> Resolution:
    return Resolution(
        spectral_nodes=cfg["spectral_nodes"],
        time_grid_points=cfg["time_grid_points"],
        oracle_nodes=cfg["oracle_nodes"],
    )


@functools.cache
def _file_mode() -> int:
    # mkstemp creates 0600 files; outputs get the mode open() would give them.
    # The umask can only be read by setting it, and it is process-global, so
    # it is read once.
    umask = os.umask(0o077)
    os.umask(umask)
    return 0o666 & ~umask


def _write_atomic(path: Path, content: str | Iterable[str]) -> None:
    """Write a string, or string parts as an iterable yields them, to path;
    the file appears complete or not at all."""
    if isinstance(content, str):
        content = (content,)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(content)
        os.chmod(tmp, _file_mode())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj) -> None:
    _write_atomic(path, json.dumps(obj, indent=2) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit_report(fields: dict, out_dir: Path, extra: dict | None = None) -> None:
    """Write report.json (fields, then extra) and report.csv (a header of the
    field names and one row of their values, in order), and print the JSON."""
    payload = {**fields, **(extra or {})}
    _write_json(out_dir / "report.json", payload)
    header = ",".join(fields)
    row = ",".join(_csv_cell(v) for v in fields.values())
    _write_atomic(out_dir / "report.csv", f"{header}\n{row}\n")
    print(json.dumps(payload, indent=2))


def _select(spec: ProcessSpec, cfg: dict) -> SelectionResult:
    """select_N on the config's delta, alpha and n_max; when no order passes,
    the closest miss goes to stderr."""
    result = select_N(spec, cfg["delta"], cfg["alpha"], cfg["n_max"], resolution=_resolution(cfg))
    if result.selected_n is None:
        print(
            f"no N in [0, {cfg['n_max']}] meets the conditions; "
            f"best C_N = {result.best_c_n:.6g} at N = {result.best_n}",
            file=sys.stderr,
        )
    return result


def cmd_bound(cfg: dict, out_dir: Path) -> int:
    """Evaluate C_N at an explicit order; exit 0 iff both gates pass."""
    _require(cfg, "bound", "delta", "alpha", "n")
    spec = _process_spec(cfg, "bound")
    report = c_n_bound(spec, cfg["n"], cfg["delta"], cfg["alpha"], resolution=_resolution(cfg))
    _emit_report(report.as_json_dict(), out_dir)
    return 0 if check_conditions(report) else 2


def cmd_select_n(cfg: dict, out_dir: Path) -> int:
    """Scan for the smallest passing order; exit 2 when none exists."""
    _require(cfg, "select-n", "delta", "alpha")
    result = _select(_process_spec(cfg, "select-n"), cfg)
    if result.selected_n is None:
        _write_json(
            out_dir / "report.json",
            {
                "selected_N": None,
                "n_max": cfg["n_max"],
                "best_N": result.best_n,
                "best_C_N": result.best_c_n,
            },
        )
        return 2
    _emit_report(result.report.as_json_dict(), out_dir, {"selected_N": result.selected_n})
    return 0


def cmd_simulate(cfg: dict, out_dir: Path) -> int:
    """Write sample paths of the truncated model as paths.csv."""
    _require(cfg, "simulate", "n")
    spec = _process_spec(cfg, "simulate")
    _xi_sigma(1, spec)  # refuses gamma < 2 before the output directory is made
    time_grid = np.linspace(0.0, spec.horizon, cfg["time_grid_points"])
    rule = rule_for_family(spec.family, cfg["spectral_nodes"])
    table = compute_coefficients(spec, cfg["n"], rule, time_grid)
    # one line per grid point: {0} is the path id, {j} the j-th value
    template = "".join(
        f"{{0}},{format(t, '.17g')},{{{j}:.17g}}\n" for j, t in enumerate(time_grid, 1)
    )

    def parts():
        yield "path_id,t,value\n"
        start = 0
        for chunk in _path_chunks(spec, table.values, cfg["paths"], cfg["seed"]):
            for row in chunk:
                yield template.format(start, *row.tolist())
                start += 1
            del chunk, row  # free this chunk before the engine synthesizes the next

    _write_atomic(out_dir / "paths.csv", parts())
    return 0


def cmd_verify(cfg: dict, out_dir: Path) -> int:
    """Monte Carlo check of the reliability statement; exit 0 iff the
    empirical exceedance probability stays within alpha."""
    _require(cfg, "verify", "delta", "alpha")
    spec = _process_spec(cfg, "verify")
    _xi_sigma(1, spec)  # refuses gamma < 2 before a selection it could not verify
    if "n" in cfg:
        model_n = cfg["n"]
    else:
        result = _select(spec, cfg)
        if result.selected_n is None:
            return 2
        model_n = result.selected_n
    report = verify_reliability(
        spec,
        model_n,
        cfg["delta"],
        cfg["alpha"],
        paths=cfg["paths"],
        seed=cfg["seed"],
        reference_n=cfg.get("reference_n"),
        model_nodes=cfg["spectral_nodes"],
        reference_nodes=cfg["reference_spectral_nodes"],
        time_grid_points=cfg["time_grid_points"],
    )
    _emit_report(report.as_json_dict(), out_dir)
    return 0 if report.empirical_prob <= report.alpha else 2


def _table_grid(family: PolynomialFamily, points: int) -> np.ndarray:
    if family.kind == "laguerre":
        return np.linspace(0.1, 4.1, points)
    return np.linspace(-0.9, 0.9, points)


def cmd_tables(cfg: dict, out_dir: Path) -> int:
    """Dump polynomial / orthonormal / generating-function values for
    plotting (tables.csv and gf.csv)."""
    _require(cfg, "tables", "family")
    family = _family(cfg)
    grid = _table_grid(family, cfg["table_points"])
    k_max = cfg["table_k_max"]
    ortho = orthonormal_block(family, k_max, grid).tolist()
    poly = _poly_block(family, k_max, grid).tolist()
    ts = [format(t, ".17g") for t in grid.tolist()]
    lines = ["family,k,t,poly,orthonormal"]
    for k in range(k_max + 1):
        for t, p, o in zip(ts, poly[k], ortho[k]):
            lines.append(f"{family.label},{k},{t},{p:.17g},{o:.17g}")
    _write_atomic(out_dir / "tables.csv", "\n".join(lines) + "\n")

    w = cfg["w"]
    gf = generating_function(family, grid, w).tolist()
    partial = partial_gf_sum(family, grid, w, k_max).tolist()
    gf_lines = ["family,t,w,generating_function,partial_sum"]
    for t, g, s in zip(ts, gf, partial):
        gf_lines.append(f"{family.label},{t},{w:.17g},{g:.17g},{s:.17g}")
    _write_atomic(out_dir / "gf.csv", "\n".join(gf_lines) + "\n")
    return 0


_COMMANDS = {
    "bound": cmd_bound,
    "select-n": cmd_select_n,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "tables": cmd_tables,
}


class _Parser(argparse.ArgumentParser):
    # argparse's default error path exits with code 2, which this tool
    # reserves for "valid run, condition not met"
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="orthoproc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__, add_help=True)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None, help="override the seed key")
        p.add_argument("--paths", type=int, default=None, help="override the paths key")
        p.add_argument("--n", type=int, default=None, help="override the n key")
        p.add_argument("--n-max", type=int, default=None, help="override the n_max key")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (value parsed as JSON, else string)",
        )
    return parser


def _load_config(args: argparse.Namespace) -> dict:
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config: {path} must hold a JSON object")
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set: expected KEY=VALUE, got {item!r}")
        try:
            raw[key] = json.loads(value)
        except json.JSONDecodeError:
            raw[key] = value
    for flag, key in (("seed", "seed"), ("paths", "paths"), ("n", "n"), ("n_max", "n_max")):
        override = getattr(args, flag)
        if override is not None:
            raw[key] = override
    return validate_config(raw)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
