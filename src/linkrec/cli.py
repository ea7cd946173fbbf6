"""Command-line driver: ingest a link stream, run a single evaluation,
run a search campaign, or print dataset/graph statistics.

Options come from flags, an optional flat key=value config file
(flags win), and defaults mirroring the experimental setup: 8 windows,
N = 10, the predefined parameter grid. Every report embeds the full
effective configuration, seed included, so a run can be reproduced
from its own output; ``--workers`` and ``--log-level`` are left out, as
they cannot change a result.

Exit codes: 0 success, 1 IO/runtime failure, 2 bad configuration,
3 nothing evaluated.

Log records of the ``linkrec`` loggers (such as capped power
iterations) go to stderr at ``--log-level`` and above, default warning.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from .evaluation import run_protocol, write_report_files
from .graphs import build_graph
from .linkstream import (
    FilterConfig,
    LinkStream,
    filter_min_activity,
    filter_positive,
    parse_link_stream,
)
from .tuning import OBJECTIVES, RELEVANT_FIELDS, ParamGrid, ParamSetting
from .tuning import leaderboard_csv, search

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_NOTHING_EVALUATED = 3

WORKERS_ENV = "LINKREC_WORKERS"

LOG_LEVELS = ("debug", "info", "warning", "error")
FORMATS = ("tsv", "csv")
GRAPHS = tuple(RELEVANT_FIELDS)

_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


class ConfigError(Exception):
    pass


class NothingEvaluated(Exception):
    pass


def parse_duration(text: str) -> float:
    """Seconds from '3600', '1.5h', '7d', '2w' style strings. Anything else
    raises ``ArgumentTypeError``, which argparse reports naming the flag."""
    text = str(text).strip().lower()
    unit = 1.0
    if text and text[-1] in _DURATION_UNITS:
        unit = _DURATION_UNITS[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unparseable duration {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("duration must be positive")
    return value * unit


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"unparseable boolean {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in str(text).split(",") if part.strip())


def _duration_list(text: str) -> tuple[float, ...]:
    return tuple(parse_duration(part) for part in str(text).split(",") if part.strip())


def _one_of(choices: tuple[str, ...]):
    """Config-file coercion for a flag with ``choices``."""

    def coerce(text: str) -> str:
        if text not in choices:
            raise ValueError(text)
        return text

    return coerce


# key -> (coercion from config-file string, default)
_OPTIONS: dict = {
    "input": (str, None),
    "format": (_one_of(FORMATS), None),
    "columns": (str, None),
    "graph": (_one_of(GRAPHS), None),
    "sigma_u": (int, 1),
    "sigma_i": (int, 1),
    "rating_floor": (float, 2.5),
    "positive_filter": (_parse_bool, False),
    "windows": (int, 8),
    "n": (int, 10),
    "alpha": (float, None),
    "beta": (float, None),
    "delta": (parse_duration, None),
    "eta_s": (float, None),
    "count": (int, 50),
    "seed": (int, 0),
    "objective": (_one_of(OBJECTIVES), "f1"),
    "out_dir": (str, "out"),
    "workers": (int, None),
    "grid_alpha": (_float_list, None),
    "grid_beta": (_float_list, None),
    "grid_delta": (_duration_list, None),
    "grid_eta_s": (_float_list, None),
}


def read_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment."""
    text = Path(path).read_text(encoding="utf-8")
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{ln}: unknown option {key!r}")
        out[key] = value
    return out


def effective_config(args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over defaults."""
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        if not Path(args.config).exists():
            raise ConfigError(f"config file not found: {args.config}")
        file_values = read_config_file(args.config)
    cfg: dict = {}
    for key, (coerce, default) in _OPTIONS.items():
        value = getattr(args, key, None)
        if value is None and key in file_values:
            try:
                value = coerce(file_values[key])
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                raise ConfigError(
                    f"bad value for {key!r} in config file: {file_values[key]!r}"
                ) from None
        if value is None:
            value = default
        cfg[key] = value
    cfg["workers"] = _workers(cfg["workers"], args, file_values)
    cfg["command"] = args.command
    return cfg


def _workers(value: int | None, args: argparse.Namespace, file_values: dict) -> int | None:
    """The worker count from flag, config file or $LINKREC_WORKERS, in
    that order; None when none sets it."""
    if getattr(args, "workers", None) is not None:
        source = "--workers"
    elif "workers" in file_values:
        source = f"workers in {args.config}"
    else:
        source = f"${WORKERS_ENV}"
        text = os.environ.get(WORKERS_ENV, "").strip()
        if not text:
            return None
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"{source} must be an integer, got {text!r}") from None
    if value < 1:
        raise ConfigError(f"{source} must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkrec",
        description="Temporal recommender graphs over user-item link streams",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_common(p, workers_help):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--input", help="link stream file (TSV/CSV)")
        p.add_argument("--format", choices=FORMATS,
                       help="input format (default: by file extension)")
        p.add_argument("--columns",
                       help="comma-separated column names, '-' to skip one")
        p.add_argument("--sigma-u", dest="sigma_u", type=int,
                       help="min events per user (default 1)")
        p.add_argument("--sigma-i", dest="sigma_i", type=int,
                       help="min events per item (default 1)")
        p.add_argument("--rating-floor", dest="rating_floor", type=float,
                       help="positive-rating floor (default 2.5)")
        p.add_argument("--positive-filter", dest="positive_filter",
                       action=argparse.BooleanOptionalAction, default=None,
                       help="drop events rated below the floor or the user mean")
        p.add_argument("--graph", choices=GRAPHS)
        p.add_argument("--delta", type=parse_duration,
                       help="STG slice duration (seconds, or e.g. '30d')")
        p.add_argument("--beta", type=float, help="STG long-term restart share")
        p.add_argument("--eta-s", dest="eta_s", type=float,
                       help="weight of edges into the past")
        p.add_argument("--windows", type=int, help="number of time windows (default 8)")
        p.add_argument("--n", type=int, help="recommendation list length (default 10)")
        p.add_argument("--seed", type=int, help="sampling seed (default 0)")
        p.add_argument("--out-dir", dest="out_dir", help="report directory (default ./out)")
        p.add_argument("--workers", type=int, help=workers_help)
        p.add_argument("--log-level", dest="log_level", choices=LOG_LEVELS,
                       default="warning", help="stderr logging threshold (default warning)")

    p_eval = sub.add_parser("evaluate", help="run the windowed protocol once")
    add_common(p_eval, f"threads scoring each fold's user blocks "
                       f"(default ${WORKERS_ENV} or every usable core)")
    p_eval.add_argument("--alpha", type=float, help="PageRank damping factor")

    p_search = sub.add_parser("search", help="randomized hyperparameter search")
    add_common(p_search, f"processes scoring the graph-key groups "
                         f"(default ${WORKERS_ENV} or 1)")
    p_search.add_argument("--count", type=int, help="number of sampled settings (default 50)")
    p_search.add_argument("--objective", choices=OBJECTIVES,
                          help="ranking objective (default f1)")

    p_inspect = sub.add_parser("inspect", help="print stream and graph statistics")
    add_common(p_inspect, "unused by inspect")

    return parser


def _load_stream(cfg: dict) -> LinkStream:
    path = cfg["input"]
    if not path:
        raise ConfigError("--input is required")
    if not Path(path).exists():
        raise ConfigError(f"input file not found: {path}")
    fmt = cfg["format"] or ("csv" if str(path).endswith(".csv") else "tsv")
    columns = [c.strip() for c in cfg["columns"].split(",")] if cfg["columns"] else None
    stream = parse_link_stream(path, fmt=fmt, columns=columns)
    if cfg["positive_filter"]:
        stream = filter_positive(stream, cfg["rating_floor"])
    stream = filter_min_activity(
        stream, _checked(FilterConfig, sigma_u=cfg["sigma_u"], sigma_i=cfg["sigma_i"])
    )
    if len(stream) == 0:
        raise NothingEvaluated("no events survive the filters")
    return stream


def _checked(make, **kwargs):
    """``make(**kwargs)``, the ValueError of its checks a ConfigError."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _param_setting(cfg: dict) -> ParamSetting:
    flavor = cfg["graph"]
    fields = RELEVANT_FIELDS[flavor]
    for name in fields:
        if cfg[name] is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required for --graph {flavor}")
    return _checked(ParamSetting, n=cfg["n"], **{name: cfg[name] for name in fields})


def _require_graph(cfg: dict) -> str:
    if not cfg["graph"]:
        raise ConfigError("--graph is required (bip, stg or lsg)")
    return cfg["graph"]


def _grid(cfg: dict) -> ParamGrid:
    overrides = {}
    for grid_key, field in (("grid_delta", "delta"), ("grid_beta", "beta"),
                            ("grid_eta_s", "eta_s"), ("grid_alpha", "alpha")):
        if cfg[grid_key]:
            overrides[field] = tuple(cfg[grid_key])
    return _checked(ParamGrid, **overrides)


def _config_json(cfg: dict) -> dict:
    """The configuration a report embeds: everything that can change a
    result, so not the worker count."""
    return {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items() if k != "workers"
    }


def cmd_evaluate(cfg: dict) -> int:
    flavor = _require_graph(cfg)
    params = _param_setting(cfg)
    if cfg["windows"] < 2:
        raise ConfigError("--windows must be at least 2")
    stream = _load_stream(cfg)
    report = run_protocol(
        stream, flavor, params, n_windows=cfg["windows"], workers=cfg["workers"]
    )
    json_path, csv_path = write_report_files(report, cfg["out_dir"], _config_json(cfg))
    print(f"wrote {json_path} and {csv_path}")
    if report.nothing_evaluated:
        raise NothingEvaluated("no window had evaluable users")
    print(
        f"TA F1={report.ta_f1:.6f} HR={report.ta_hr:.6f} MAP={report.ta_map:.6f} "
        f"(graph={flavor}, N={params.n}, windows={cfg['windows']})"
    )
    return EXIT_OK


def cmd_search(cfg: dict) -> int:
    flavor = _require_graph(cfg)
    if cfg["count"] < 1:
        raise ConfigError("--count must be at least 1")
    if cfg["n"] < 1:
        raise ConfigError("--n must be at least 1")
    if cfg["windows"] < 2:
        raise ConfigError("--windows must be at least 2")
    stream = _load_stream(cfg)
    result = search(
        stream,
        flavor,
        grid=_grid(cfg),
        count=cfg["count"],
        seed=cfg["seed"],
        objective=cfg["objective"],
        n=cfg["n"],
        n_windows=cfg["windows"],
        workers=cfg["workers"] or 1,
    )
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    board_path = out / "leaderboard.csv"
    board_path.write_text(leaderboard_csv(result), encoding="utf-8")
    print(f"wrote {board_path} ({len(result.entries)} ok, {len(result.failed)} failed)")
    if not result.entries:
        raise NothingEvaluated("every sampled setting failed")
    for objective in OBJECTIVES:
        best = result.best_for(objective)
        s = best.setting
        payload = {
            "objective": objective,
            "sample_index": best.sample_index,
            "setting": {"delta": s.delta, "beta": s.beta, "eta_s": s.eta_s,
                        "alpha": s.alpha, "n": s.n},
            "metrics": {"f1": best.ta_f1, "hr": best.ta_hr, "map": best.ta_map},
            "config": _config_json(cfg),
        }
        path = out / f"best_{objective}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(
            f"best {objective}: {best.objective_value(objective):.6f} "
            f"(alpha={s.alpha}, eta_s={s.eta_s}, delta={s.delta}, beta={s.beta})"
        )
    return EXIT_OK


def _iso(ts: float) -> str:
    return datetime.fromtimestamp(int(ts), tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")


def cmd_inspect(cfg: dict) -> int:
    stream = _load_stream(cfg)
    pairs = len(stream.distinct_pairs())
    n_users, n_items = len(stream.users), len(stream.items)
    print(f"events (links):     {len(stream)}")
    print(f"distinct user-item: {pairs}")
    print(f"users / items:      {n_users} / {n_items}")
    print(f"span:               {_iso(stream.alpha)} .. {_iso(stream.omega)}")
    print(f"duration (days):    {(stream.omega - stream.alpha) / 86400.0:.2f}")
    print(f"sparsity:           {1.0 - pairs / (n_users * n_items):.4%}")

    def show(flavor: str, **kwargs) -> None:
        graph = build_graph(flavor, stream, **kwargs)
        extra = ", ".join(f"{k}={v}" for k, v in kwargs.items() if v is not None)
        label = f"{flavor}({extra})" if extra else flavor
        print(f"{label}: {graph.n_nodes} nodes, {graph.n_edges} directed edges")

    show("bip")
    if cfg["delta"] is not None:
        show("stg", delta=cfg["delta"], eta_s=cfg["eta_s"] or 0.0)
    show("lsg", eta_s=cfg["eta_s"] or 0.0)
    return EXIT_OK


_HANDLERS = {
    "evaluate": cmd_evaluate,
    "search": cmd_search,
    "inspect": cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.command:
        parser.print_help()
        return EXIT_CONFIG
    # The handler lives for this call only, so repeated calls in one
    # process neither stack handlers nor leave the level changed.
    logger = logging.getLogger("linkrec")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(args.log_level.upper())
    try:
        cfg = effective_config(args)
        return _HANDLERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NothingEvaluated as exc:
        print(f"nothing evaluated: {exc}", file=sys.stderr)
        return EXIT_NOTHING_EVALUATED
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous_level)


if __name__ == "__main__":
    sys.exit(main())
