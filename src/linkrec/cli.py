"""Command-line driver: ingest a link stream, run a single evaluation,
run a search campaign, or print dataset/graph statistics.

Options come from flags, an optional flat key=value config file
(flags win), and defaults mirroring the experimental setup: 8 windows,
N = 10, the predefined parameter grid. ``OPTIONS`` defines each option
once: its parsing, default, help and the commands that take its flag.
Any key may be set in a config file, but each command has flags only
for the options it reads. Every report embeds the full
effective configuration, seed included, so a run can be reproduced
from its own output; ``--workers`` and ``--log-level`` are left out, as
they cannot change a result.

Exit codes: 0 success, 1 IO/runtime failure (such as malformed input
data), 2 bad configuration (such as a bad ``--columns`` name, a value
below its ``MINIMUMS`` entry or a rating floor that is not finite, each
named by its flag or config file), reported before any output, 3
nothing evaluated (or no event left by the filters).

Log records of the ``linkrec`` loggers (such as capped power
iterations, or why a search setting failed) go to stderr at
``--log-level`` and above, default warning.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
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
    map_columns,
    parse_link_stream,
)
from .tuning import OBJECTIVES, RELEVANT_FIELDS, ParamGrid, ParamSetting
from .tuning import leaderboard_csv, search

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_NOTHING_EVALUATED = 3

LOG_LEVELS = ("debug", "info", "warning", "error")

_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


class ConfigError(Exception):
    pass


class NothingEvaluated(Exception):
    pass


def parse_duration(text: str) -> float:
    """Seconds from '3600', '1.5h', '7d', '2w' style strings. Anything else,
    or a duration that is not positive and finite, raises
    ``ArgumentTypeError``, which argparse reports naming the flag."""
    number = str(text).strip().lower()
    unit = 1.0
    if number and number[-1] in _DURATION_UNITS:
        unit = _DURATION_UNITS[number[-1]]
        number = number[:-1]
    try:
        value = float(number)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unparseable duration {text!r}") from None
    seconds = value * unit
    if not 0.0 < seconds < math.inf:
        raise argparse.ArgumentTypeError("duration must be positive and finite")
    return seconds


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"unparseable boolean {text!r}")


def _list_of(parse):
    """Config-file coercion for a comma-separated list of ``parse`` values."""
    return lambda text: tuple(parse(part) for part in text.split(",") if part.strip())


_RUNS = ("evaluate", "search")
_ALL = ("evaluate", "search", "inspect")
_GRAPHS = ("evaluate", "inspect")  # the commands that build a graph from one setting

# Every key of the effective configuration, in the order reports embed it:
# key -> (kind, default, help, commands that take the flag). ``kind``
# parses the flag and the config-file text alike: a tuple is the list of
# choices, ``bool`` an on/off switch, anything else a callable from text.
# ``help`` may hold one text per command. A key that no command takes as
# a flag is set in the config file only.
OPTIONS: dict[str, tuple] = {
    "input": (str, None, "link stream file (TSV/CSV)", _ALL),
    "format": (("tsv", "csv"), None, "input format (default: by file extension)", _ALL),
    "columns": (str, None, "comma-separated column names, '-' to skip one", _ALL),
    "graph": (tuple(RELEVANT_FIELDS), None, None, _RUNS),
    "sigma_u": (int, 1, "min events per user (default 1)", _ALL),
    "sigma_i": (int, 1, "min events per item (default 1)", _ALL),
    "rating_floor": (float, 2.5, "positive-rating floor (default 2.5)", _ALL),
    "positive_filter": (bool, False, "drop events rated below the floor or the user mean", _ALL),
    "windows": (int, 8, "number of time windows (default 8)", _RUNS),
    "n": (int, 10, "recommendation list length (default 10)", _RUNS),
    "alpha": (float, None, "PageRank damping factor", ("evaluate",)),
    "beta": (float, None, "STG long-term restart share", ("evaluate",)),
    "delta": (parse_duration, None, "STG slice duration (seconds, or e.g. '30d')", _GRAPHS),
    "eta_s": (float, None, "weight of edges into the past", _GRAPHS),
    "count": (int, 50, "number of sampled settings (default 50)", ("search",)),
    "seed": (int, 0, "sampling seed (default 0)", ("search",)),
    "objective": (OBJECTIVES, "f1", "ranking objective (default f1)", ("search",)),
    "out_dir": (str, "out", "report directory (default ./out)", _RUNS),
    "workers": (int, None, {
        "evaluate": "threads scoring whole folds, largest first (default every usable core)",
        "search": "processes scoring the graph-key groups (default 1)",
    }, _RUNS),
    "grid_alpha": (_list_of(float), None, None, ()),
    "grid_beta": (_list_of(float), None, None, ()),
    "grid_delta": (_list_of(parse_duration), None, None, ()),
    "grid_eta_s": (_list_of(float), None, None, ()),
}

MINIMUMS = {"windows": 2, "n": 1, "count": 1, "workers": 1}


def _from_text(kind, text: str):
    """A config-file value parsed as its flag would be."""
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(text)
        return text
    return _parse_bool(text) if kind is bool else kind(text)


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
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{ln}: unknown option {key!r}")
        out[key] = value
    return out


def effective_config(args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over defaults."""
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            file_values = read_config_file(args.config)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"config file is not UTF-8 text: {args.config}") from None
    cfg: dict = {}
    for key, (kind, default, _, _) in OPTIONS.items():
        value = getattr(args, key, None)
        if value is None and key in file_values:
            try:
                value = _from_text(kind, file_values[key])
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                raise ConfigError(
                    f"bad value for {key!r} in config file: {file_values[key]!r}"
                ) from None
        if value is None:
            value = default
        cfg[key] = value

    def reject(key: str, requirement: str):
        flag = getattr(args, key, None) is not None
        source = f"--{key.replace('_', '-')}" if flag else f"{key} in {args.config}"
        raise ConfigError(f"{source} must be {requirement}, got {cfg[key]}")
    for key, least in MINIMUMS.items():
        if cfg[key] is not None and cfg[key] < least:
            reject(key, f"at least {least}")
    if not math.isfinite(cfg["rating_floor"]):
        reject("rating_floor", "finite")
    cfg["command"] = args.command
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkrec",
        description="Temporal recommender graphs over user-item link streams",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (summary, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="flat key = value config file")
        for key, (kind, _, text, commands) in OPTIONS.items():
            if command not in commands:
                continue
            if isinstance(kind, tuple):
                kwargs = {"choices": kind}
            elif kind is bool:
                kwargs = {"action": argparse.BooleanOptionalAction}
            else:
                kwargs = {"type": kind}
            if isinstance(text, dict):
                text = text[command]
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=text, **kwargs)
        p.add_argument("--log-level", dest="log_level", choices=LOG_LEVELS,
                       default="warning", help="stderr logging threshold (default warning)")
    return parser


def _load_stream(cfg: dict) -> LinkStream:
    path = cfg["input"]
    if not path:
        raise ConfigError("--input is required")
    if not Path(path).exists():
        raise ConfigError(f"input file not found: {path}")
    fmt = cfg["format"] or ("csv" if Path(path).suffix.lower() == ".csv" else "tsv")
    columns = None
    if cfg["columns"]:
        columns = [c.strip() for c in cfg["columns"].split(",")]
        _checked(map_columns, columns=columns)
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
    for field in ("delta", "beta", "eta_s", "alpha"):
        if cfg["grid_" + field] is not None:
            overrides[field] = cfg["grid_" + field]
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
    grid = _grid(cfg)
    stream = _load_stream(cfg)
    result = search(
        stream,
        flavor,
        grid=grid,
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
    for entry in result.failed:
        logging.getLogger("linkrec.cli").warning(
            "sample %d, %s, failed: %s", entry.sample_index, entry.setting, entry.error)
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


def _iso(ts: float) -> str | None:
    """``ts`` as a UTC date, or None when it is past what a date can show
    (a nanosecond epoch, for one)."""
    try:
        return datetime.fromtimestamp(int(ts), tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")
    except (OverflowError, OSError, ValueError):
        return None


def cmd_inspect(cfg: dict) -> int:
    stream = _load_stream(cfg)

    def describe(flavor: str, **kwargs) -> str:
        graph = _checked(build_graph, flavor=flavor, stream=stream, **kwargs)
        extra = ", ".join(f"{k}={v}" for k, v in kwargs.items())
        label = f"{flavor}({extra})" if extra else flavor
        return f"{label}: {graph.n_nodes} nodes, {graph.n_edges} directed edges"

    # Every line is computed, and every graph's parameters checked,
    # before any output.
    graphs = [describe("bip")]
    if cfg["delta"] is not None:
        graphs.append(describe("stg", delta=cfg["delta"], eta_s=cfg["eta_s"] or 0.0))
    graphs.append(describe("lsg", eta_s=cfg["eta_s"] or 0.0))
    pairs = len(stream.distinct_pairs())
    n_users, n_items = len(stream.users), len(stream.items)
    start, end, span = _iso(stream.alpha), _iso(stream.omega), stream.omega - stream.alpha
    if start is None or end is None:
        # not seconds: the ends and their difference are shown as given
        start, end, duration = stream.alpha, stream.omega, f"duration:           {span}"
    else:
        duration = f"duration (days):    {span / 86400.0:.2f}"
    lines = [
        f"events (links):     {len(stream)}",
        f"distinct user-item: {pairs}",
        f"users / items:      {n_users} / {n_items}",
        f"span:               {start} .. {end}",
        duration,
        f"sparsity:           {1.0 - pairs / (n_users * n_items):.4%}",
        *graphs,
    ]
    print("\n".join(lines))
    return EXIT_OK


# command -> (help summary, handler)
_COMMANDS = {
    "evaluate": ("run the windowed protocol once", cmd_evaluate),
    "search": ("randomized hyperparameter search", cmd_search),
    "inspect": ("print stream and graph statistics", cmd_inspect),
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
        return _COMMANDS[args.command][1](cfg)
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
