import argparse
import json
import logging
import re

import jsonschema
import pytest

from linkrec.cli import (
    EXIT_CONFIG,
    EXIT_NOTHING_EVALUATED,
    EXIT_OK,
    EXIT_RUNTIME,
    OPTIONS,
    build_parser,
    effective_config,
    main,
    parse_duration,
)
from linkrec import evaluation
from linkrec.evaluation import REPORT_SCHEMA


@pytest.fixture
def dataset(tmp_path):
    """Drifting multi-user stream as a TSV file."""
    lines = []
    for u in range(5):
        for step in range(10):
            t = 1 + step * 40 + u
            item = (u + step) % 8
            lines.append(f"u{u}\ti{item}\t{t}")
    path = tmp_path / "events.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def rated_dataset(tmp_path):
    lines = ["user,item,timestamp,rating"]
    for u in range(4):
        for step in range(8):
            t = 1 + step * 30 + u
            item = (u + step) % 6
            rating = 5 if (u + step) % 3 else 1
            lines.append(f"u{u},i{item},{t},{rating}")
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_parse_duration_forms():
    assert parse_duration("3600") == 3600.0
    assert parse_duration("2h") == 7200.0
    assert parse_duration("7d") == 7 * 86400.0
    assert parse_duration("1.5m") == 90.0


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e308w"])
def test_parse_duration_rejects_non_finite(text):
    with pytest.raises(argparse.ArgumentTypeError, match="duration must be positive and finite"):
        parse_duration(text)


def test_evaluate_happy_path(dataset, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main([
        "evaluate", "--input", str(dataset), "--graph", "lsg",
        "--alpha", "0.15", "--eta-s", "0.1", "--n", "10",
        "--out-dir", str(out_dir),
    ])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "TA F1=" in captured.out
    report = json.loads((out_dir / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert (out_dir / "report.csv").exists()
    # full effective configuration is embedded, defaults and seed included
    assert report["config"]["seed"] == 0
    assert report["config"]["windows"] == 8
    assert report["config"]["input"] == str(dataset)
    assert report["params"]["alpha"] == 0.15


def test_evaluate_missing_input_names_path(tmp_path, capsys):
    code = main([
        "evaluate", "--input", str(tmp_path / "absent.tsv"),
        "--graph", "bip", "--alpha", "0.3",
    ])
    assert code == EXIT_CONFIG
    assert "absent.tsv" in capsys.readouterr().err


def test_evaluate_stg_requires_delta(dataset, capsys):
    code = main([
        "evaluate", "--input", str(dataset), "--graph", "stg",
        "--alpha", "0.3", "--beta", "0.5", "--eta-s", "0.5",
    ])
    assert code == EXIT_CONFIG
    assert "--delta" in capsys.readouterr().err


def test_evaluate_requires_alpha(dataset, capsys):
    code = main(["evaluate", "--input", str(dataset), "--graph", "bip"])
    assert code == EXIT_CONFIG
    assert "--alpha" in capsys.readouterr().err


def test_evaluate_nothing_evaluated_distinct_exit(tmp_path, capsys):
    # one user always re-picking the same item: never a new test item
    path = tmp_path / "flat.tsv"
    path.write_text("".join(f"u\ti\t{t}\n" for t in range(0, 100, 10)))
    code = main([
        "evaluate", "--input", str(path), "--graph", "bip", "--alpha", "0.3",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_NOTHING_EVALUATED
    assert "nothing evaluated" in capsys.readouterr().err


def test_evaluate_positive_filter_and_csv(rated_dataset, tmp_path):
    code = main([
        "evaluate", "--input", str(rated_dataset), "--graph", "bip",
        "--alpha", "0.3", "--positive-filter",
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code in (EXIT_OK, EXIT_NOTHING_EVALUATED)
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["config"]["positive_filter"] is True


def test_malformed_input_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("u\ti\t10\nu\tj\tnot-a-time\n")
    code = main([
        "evaluate", "--input", str(path), "--graph", "bip", "--alpha", "0.3",
    ])
    assert code == EXIT_RUNTIME
    assert "line 2" in capsys.readouterr().err


def test_search_writes_leaderboard_and_bests(dataset, tmp_path, capsys):
    out_dir = tmp_path / "campaign"
    code = main([
        "search", "--input", str(dataset), "--graph", "bip",
        "--count", "5", "--seed", "7", "--windows", "6", "--n", "5",
        "--out-dir", str(out_dir),
    ])
    assert code == EXIT_OK
    board = (out_dir / "leaderboard.csv").read_text().splitlines()
    assert board[0].startswith("sample_index,flavor,delta")
    assert len(board) == 6  # header + full alpha grid capped at count
    for objective in ("f1", "hr", "map"):
        payload = json.loads((out_dir / f"best_{objective}.json").read_text())
        assert payload["objective"] == objective
        assert payload["config"]["seed"] == 7
        assert payload["setting"]["alpha"] is not None


def test_search_reruns_are_byte_identical(dataset, tmp_path):
    args = [
        "search", "--input", str(dataset), "--graph", "lsg",
        "--count", "4", "--seed", "11", "--windows", "5", "--n", "5",
    ]
    main(args + ["--out-dir", str(tmp_path / "a")])
    main(args + ["--out-dir", str(tmp_path / "b")])
    a = (tmp_path / "a" / "leaderboard.csv").read_bytes()
    b = (tmp_path / "b" / "leaderboard.csv").read_bytes()
    assert a == b


def test_search_count_zero_is_usage_error(dataset, capsys):
    code = main([
        "search", "--input", str(dataset), "--graph", "bip", "--count", "0",
    ])
    assert code == EXIT_CONFIG
    assert "--count" in capsys.readouterr().err


def test_inspect_prints_stream_and_graph_stats(dataset, capsys):
    code = main(["inspect", "--input", str(dataset), "--delta", "80",
                 "--eta-s", "0.5"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "events (links):     50" in out
    assert "users / items:      5 / 8" in out
    assert "distinct user-item:" in out
    assert "sparsity:" in out
    assert "bip:" in out and "stg(" in out and "lsg(" in out
    assert "span:               1970-01-01 00:00:01 .. 1970-01-01 00:06:05" in out


def test_inspect_prints_raw_span_of_nanosecond_epochs(tmp_path, capsys):
    # 1.7e18 ns is past the dates a timestamp in seconds can show
    start = 1_700_000_000_000_000_000
    lines = [f"u{k % 7}\ti{k % 11}\t{start + k * 10**12}" for k in range(300)]
    path = tmp_path / "ns.tsv"
    path.write_text("\n".join(lines) + "\n")
    code = main(["inspect", "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_OK, "")
    out = captured.out.splitlines()
    assert out[3] == f"span:               {start} .. {start + 299 * 10**12}"
    assert out[4] == f"duration:           {299 * 10**12}"
    assert out[0] == "events (links):     300"
    assert out[-2].startswith("bip: ") and out[-1].startswith("lsg(eta_s=0.0): ")
    assert main(["evaluate", "--input", str(path), "--graph", "bip", "--alpha", "0.3",
                 "--out-dir", str(tmp_path / "run")]) == EXIT_OK


def test_config_file_provides_defaults_flags_override(dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"""
        # experiment defaults
        input = {dataset}
        graph = bip
        alpha = 0.5
        windows = 6
        n = 5
        """.replace("        ", "")
    )
    out_dir = tmp_path / "cfgrun"
    code = main([
        "evaluate", "--config", str(cfg), "--alpha", "0.15",
        "--out-dir", str(out_dir),
    ])
    assert code == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert report["params"]["alpha"] == 0.15  # flag wins
    assert report["config"]["windows"] == 6  # file value used
    assert report["config"]["n"] == 5


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    code = main(["evaluate", "--config", str(cfg), "--graph", "bip"])
    assert code == EXIT_CONFIG
    assert "nonsense" in capsys.readouterr().err


def test_config_grid_override(dataset, tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid_alpha = 0.3,0.5\ngrid_eta_s = 0.0\n")
    out_dir = tmp_path / "gridrun"
    code = main([
        "search", "--config", str(cfg), "--input", str(dataset),
        "--graph", "lsg", "--count", "10", "--windows", "5", "--n", "5",
        "--out-dir", str(out_dir),
    ])
    assert code == EXIT_OK
    board = (out_dir / "leaderboard.csv").read_text().splitlines()
    assert len(board) == 3  # header + 2x1 cross product
    alphas = {line.split(",")[5] for line in board[1:]}
    assert alphas <= {"0.3", "0.5"}


def test_columns_flag(tmp_path):
    path = tmp_path / "cols.tsv"
    path.write_text("10\tu1\tx\n20\tu1\ty\n30\tu2\tx\n40\tu2\ty\n")
    code = main(["inspect", "--input", str(path),
                 "--columns", "timestamp,user,item"])
    assert code == EXIT_OK


def test_workers_env_default(dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LINKREC_WORKERS", "2")
    out_dir = tmp_path / "envrun"
    code = main([
        "search", "--input", str(dataset), "--graph", "bip",
        "--count", "2", "--windows", "4", "--n", "5",
        "--out-dir", str(out_dir),
    ])
    assert code == EXIT_OK
    board = (out_dir / "leaderboard.csv").read_text()
    assert board.count("\n") >= 2
    best = json.loads((out_dir / "best_f1.json").read_text())
    assert "workers" not in best["config"]


def evaluate_lsg(dataset, out_dir, *flags):
    return main([
        "evaluate", "--input", str(dataset), "--graph", "lsg",
        "--alpha", "0.3", "--eta-s", "0.5", "--n", "5", "--windows", "4",
        "--out-dir", str(out_dir), *flags,
    ])


def test_evaluate_report_identical_for_any_workers(dataset, tmp_path, monkeypatch):
    # blocks of two users, so each fold's blocks are shared among threads
    monkeypatch.setattr(evaluation, "_BATCH_COLUMNS", 2)
    monkeypatch.delenv("LINKREC_WORKERS", raising=False)
    out_dir = tmp_path / "run"
    reports = []
    for flags in ([], ["--workers", "1"], ["--workers", "2"], ["--workers", "3"]):
        assert evaluate_lsg(dataset, out_dir, *flags) == EXIT_OK
        reports.append((out_dir / "report.json").read_text())
    assert "workers" not in json.loads(reports[0])["config"]
    assert max(w["users"] for w in json.loads(reports[0])["windows"]) > 2
    assert reports[1:] == reports[:1] * 3


@pytest.mark.parametrize("flags,env,message", [
    (["--workers", "0"], None, "--workers must be at least 1, got 0"),
    (["--workers", "-3"], None, "--workers must be at least 1, got -3"),
    ([], "abc", "$LINKREC_WORKERS must be an integer, got 'abc'"),
    ([], "0", "$LINKREC_WORKERS must be at least 1, got 0"),
], ids=["flag-zero", "flag-negative", "env-not-integer", "env-zero"])
def test_bad_worker_count_is_config_error(
    dataset, tmp_path, monkeypatch, capsys, flags, env, message
):
    if env is None:
        monkeypatch.delenv("LINKREC_WORKERS", raising=False)
    else:
        monkeypatch.setenv("LINKREC_WORKERS", env)
    assert evaluate_lsg(dataset, tmp_path / "run", *flags) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_bad_worker_count_in_config_file_names_the_file(dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LINKREC_WORKERS", "2")  # the file wins over the environment
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = 0\n")
    assert evaluate_lsg(dataset, tmp_path / "run", "--config", str(cfg)) == EXIT_CONFIG
    assert f"config error: workers in {cfg} must be at least 1, got 0" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert main([]) == EXIT_CONFIG
    assert "usage" in capsys.readouterr().out.lower()


def capped_evaluate(dataset, tmp_path, *flags):
    return main([
        "evaluate", "--input", str(dataset), "--graph", "lsg",
        "--alpha", "0.9", "--eta-s", "0.1", "--out-dir", str(tmp_path / "capped"),
        *flags,
    ])


def test_log_level_default_shows_capped_fold_warnings(dataset, tmp_path, capsys):
    handlers = list(logging.getLogger("linkrec").handlers)
    for _ in range(2):  # a second call must not stack a second handler
        assert capped_evaluate(dataset, tmp_path) == EXIT_OK
        report = json.loads((tmp_path / "capped" / "report.json").read_text())
        evaluated = [w["window"] for w in report["windows"] if not w["skipped"]]
        warnings = [
            line for line in capsys.readouterr().err.splitlines()
            if "capped at 100 steps" in line
        ]
        assert evaluated
        assert len(warnings) == len(evaluated)
        assert all(line.startswith("WARNING linkrec.evaluation: lsg fold") for line in warnings)
    assert logging.getLogger("linkrec").handlers == handlers


def test_log_level_error_silences_capped_fold_warnings(dataset, tmp_path, capsys):
    assert capped_evaluate(dataset, tmp_path, "--log-level", "error") == EXIT_OK
    assert capsys.readouterr().err == ""


def test_log_level_rejects_unknown_level(dataset, tmp_path, capsys):
    assert capped_evaluate(dataset, tmp_path, "--log-level", "loud") == EXIT_CONFIG
    assert "--log-level" in capsys.readouterr().err


STG = ["--graph", "stg", "--alpha", "0.3", "--beta", "0.5", "--eta-s", "0.5", "--delta", "80"]
LSG = ["--graph", "lsg", "--alpha", "0.3"]


def test_evaluate_stg_happy_path(dataset, tmp_path, capsys):
    out_dir = tmp_path / "stg"
    code = main(["evaluate", "--input", str(dataset), *STG, "--n", "5", "--windows", "4",
                 "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    assert "graph=stg" in capsys.readouterr().out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["params"] == {"delta": 80.0, "beta": 0.5, "eta_s": 0.5, "alpha": 0.3, "n": 5}
    assert report["time_averaged"]["f1"] is not None


@pytest.mark.parametrize("value,message", [
    ("0", "argument --delta: duration must be positive"),
    ("abc", "argument --delta: unparseable duration 'abc'"),
    ("nan", "argument --delta: duration must be positive and finite"),
    ("inf", "argument --delta: duration must be positive and finite"),
], ids=["zero", "text", "nan", "inf"])
def test_bad_delta_flag_is_usage_error(dataset, capsys, value, message):
    code = main(["evaluate", "--input", str(dataset), *STG, "--delta", value])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("args,config,message", [
    (["evaluate", *STG, "--n", "0"], None, "n must be at least 1"),
    (["evaluate", *STG, "--alpha", "2"], None, "alpha must lie in (0, 1)"),
    (["evaluate", *STG, "--beta", "2"], None, "beta must lie in [0, 1]"),
    (["evaluate", *STG, "--eta-s", "-1"], None, "eta_s must be non-negative"),
    (["evaluate", *STG, "--sigma-u", "-1"], None, "sigma_u must be non-negative"),
    (["search", "--graph", "bip", "--n", "0"], None, "--n must be at least 1"),
    (["evaluate", "--alpha", "0.3"], "graph = xyz",
     "bad value for 'graph' in config file: 'xyz'"),
    (["evaluate", "--graph", "bip", "--alpha", "0.3"], "format = xml",
     "bad value for 'format' in config file: 'xml'"),
    (["search", "--graph", "bip"], "objective = foo",
     "bad value for 'objective' in config file: 'foo'"),
    (["evaluate", "--graph", "bip", "--alpha", "0.3"], "positive_filter = maybe",
     "bad value for 'positive_filter' in config file: 'maybe'"),
    (["evaluate", "--graph", "stg", "--alpha", "0.3", "--beta", "0.5", "--eta-s", "0.5"],
     "delta = 0", "bad value for 'delta' in config file: '0'"),
    (["evaluate", *LSG, "--eta-s", "nan"], None, "eta_s must be non-negative and finite"),
    (["evaluate", *LSG, "--eta-s", "inf"], None, "eta_s must be non-negative and finite"),
    (["evaluate", *STG, "--eta-s", "nan"], None, "eta_s must be non-negative and finite"),
    (["search", "--graph", "bip", "--count", "2"], "grid_alpha = 0.3,0.3",
     "grid list 'alpha' repeats 0.3"),
    (["search", "--graph", "lsg"], "grid_eta_s = 0,0.5,0.0", "grid list 'eta_s' repeats 0.0"),
    (["search", "--graph", "stg"], "grid_delta = 1d,24h", "grid list 'delta' repeats 86400.0"),
    (["search", "--graph", "lsg"], "grid_eta_s = 0,nan",
     "eta_s candidates must be non-negative and finite"),
], ids=["n", "alpha", "beta", "eta-s", "sigma-u", "search-n", "config-graph",
        "config-format", "config-objective", "config-bool", "config-delta", "lsg-eta-s-nan",
        "lsg-eta-s-inf", "stg-eta-s-nan", "grid-alpha-repeat", "grid-eta-s-repeat",
        "grid-delta-repeat", "grid-eta-s-nan"])
def test_bad_value_is_config_error(dataset, tmp_path, capsys, args, config, message):
    flags = ["--input", str(dataset), "--out-dir", str(tmp_path / "run")]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        flags += ["--config", str(tmp_path / "run.cfg")]
    assert main([*args, *flags]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value,expected", [("yes", True), ("off", False)])
def test_config_file_boolean(rated_dataset, tmp_path, value, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"positive_filter = {value}\n")
    code = main([
        "evaluate", "--config", str(cfg), "--input", str(rated_dataset), "--graph", "bip",
        "--alpha", "0.3", "--windows", "4", "--out-dir", str(tmp_path / "run"),
    ])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["config"]["positive_filter"] is expected


def test_config_grid_delta_durations(dataset, tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid_delta = 30d,60d\ngrid_beta = 0.5\ngrid_eta_s = 0\ngrid_alpha = 0.3\n")
    out_dir = tmp_path / "gridrun"
    code = main([
        "search", "--config", str(cfg), "--input", str(dataset), "--graph", "stg",
        "--count", "10", "--windows", "4", "--n", "5", "--out-dir", str(out_dir),
    ])
    assert code == EXIT_OK
    board = (out_dir / "leaderboard.csv").read_text().splitlines()
    assert sorted(line.split(",")[2] for line in board[1:]) == ["2592000.0", "5184000.0"]


# key -> (flag arguments, config-file line) spelling the same value
SPELLINGS = {
    "input": (["--input", "x.tsv"], "input = x.tsv"),
    "format": (["--format", "csv"], "format = csv"),
    "columns": (["--columns", "timestamp,user,item"], "columns = timestamp,user,item"),
    "graph": (["--graph", "stg"], "graph = stg"),
    "sigma_u": (["--sigma-u", "3"], "sigma_u = 3"),
    "sigma_i": (["--sigma-i", "2"], "sigma_i = 2"),
    "rating_floor": (["--rating-floor", "3.5"], "rating_floor = 3.5"),
    "positive_filter": (["--positive-filter"], "positive_filter = yes"),
    "windows": (["--windows", "4"], "windows = 4"),
    "n": (["--n", "5"], "n = 5"),
    "alpha": (["--alpha", "0.3"], "alpha = 0.3"),
    "beta": (["--beta", "0.5"], "beta = 0.5"),
    "delta": (["--delta", "30d"], "delta = 30d"),
    "eta_s": (["--eta-s", "0.1"], "eta_s = 0.1"),
    "count": (["--count", "7"], "count = 7"),
    "seed": (["--seed", "3"], "seed = 3"),
    "objective": (["--objective", "map"], "objective = map"),
    "out_dir": (["--out-dir", "runs"], "out_dir = runs"),
    "workers": (["--workers", "2"], "workers = 2"),
}


def test_spellings_cover_every_flag():
    assert sorted(SPELLINGS) == sorted(key for key, (*_, commands) in OPTIONS.items() if commands)


@pytest.mark.parametrize("key", sorted(SPELLINGS))
def test_flag_and_config_key_give_same_config(tmp_path, monkeypatch, key):
    monkeypatch.delenv("LINKREC_WORKERS", raising=False)
    flag, line = SPELLINGS[key]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    parser = build_parser()
    _, default, _, commands = OPTIONS[key]
    for command in commands:
        from_flag = effective_config(parser.parse_args([command, *flag]))
        from_file = effective_config(parser.parse_args([command, "--config", str(cfg_file)]))
        assert from_flag == from_file
        assert from_flag[key] != default


@pytest.mark.parametrize("flag", [
    ["--graph", "lsg"], ["--beta", "0.5"], ["--windows", "4"], ["--n", "5"],
    ["--seed", "1"], ["--out-dir", "run"], ["--workers", "2"],
], ids=lambda flag: flag[0])
def test_inspect_rejects_flags_it_does_not_read(dataset, capsys, flag):
    assert main(["inspect", "--input", str(dataset), *flag]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments:" in captured.err


INPUT_FLAGS = [
    "--columns", "--config", "--format", "--help", "--input", "--log-level",
    "--no-positive-filter", "--positive-filter", "--rating-floor", "--sigma-i", "--sigma-u",
]
RUN_FLAGS = INPUT_FLAGS + [
    "--beta", "--delta", "--eta-s", "--graph", "--n", "--out-dir", "--seed", "--windows",
    "--workers",
]


@pytest.mark.parametrize("command,flags", [
    ("evaluate", RUN_FLAGS + ["--alpha"]),
    ("search", RUN_FLAGS + ["--count", "--objective"]),
    ("inspect", INPUT_FLAGS + ["--delta", "--eta-s"]),
], ids=["evaluate", "search", "inspect"])
def test_help_lists_the_command_flags(capsys, command, flags):
    assert main([command, "--help"]) == EXIT_OK
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert sorted(listed) == sorted(flags)


@pytest.mark.parametrize("args,config", [
    (["--eta-s", "-1"], None),
    (["--delta", "10", "--eta-s", "-2"], None),
    ([], "eta_s = -1"),
    (["--eta-s", "nan"], None),
    (["--eta-s", "inf"], None),
    ([], "eta_s = nan"),
], ids=["flag", "flag-with-delta", "config", "flag-nan", "flag-inf", "config-nan"])
def test_inspect_bad_eta_s_is_config_error_before_output(dataset, tmp_path, capsys, args, config):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        args = [*args, "--config", str(tmp_path / "run.cfg")]
    assert main(["inspect", "--input", str(dataset), *args]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: eta_s must be non-negative" in captured.err


@pytest.mark.parametrize("command,columns,config,message", [
    ("evaluate", "user,item,when", False, "unknown column name 'when'"),
    ("evaluate", "user,item", False, "no column mapped to 'timestamp'"),
    ("evaluate", "user,item,when", True, "unknown column name 'when'"),
    ("inspect", "user,item,when", False, "unknown column name 'when'"),
    ("inspect", "user,item", True, "no column mapped to 'timestamp'"),
], ids=["evaluate-unknown", "evaluate-missing", "evaluate-config-unknown",
        "inspect-unknown", "inspect-config-missing"])
def test_bad_columns_are_config_error(dataset, tmp_path, capsys, command, columns, config,
                                      message):
    args = [command, "--input", str(dataset)]
    if command == "evaluate":
        args += ["--graph", "bip", "--alpha", "0.3", "--out-dir", str(tmp_path / "run")]
    if config:
        (tmp_path / "run.cfg").write_text(f"columns = {columns}\n")
        args += ["--config", str(tmp_path / "run.cfg")]
    else:
        args += ["--columns", columns]
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {message}" in captured.err
    assert not (tmp_path / "run").exists()


def test_filters_leaving_no_events_is_nothing_evaluated(dataset, capsys):
    assert main(["inspect", "--input", str(dataset), "--sigma-u", "11"]) == EXIT_NOTHING_EVALUATED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nothing evaluated: no events survive the filters" in captured.err


@pytest.mark.parametrize("args,message", [
    (["inspect", "--n"], "unrecognized arguments: --n"),
    (["inspect", "--n", "5"], "unrecognized arguments: --n 5"),
    (["evaluate", "--graph", "bip", "--alpha", "0.3", "--win", "4"],
     "unrecognized arguments: --win 4"),
], ids=["inspect-n", "inspect-n-5", "evaluate-win"])
def test_abbreviated_flags_are_rejected(dataset, tmp_path, capsys, args, message):
    command, *flags = args
    if command == "evaluate":
        flags += ["--out-dir", str(tmp_path / "run")]
    assert main([command, "--input", str(dataset), *flags]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not (tmp_path / "run").exists()


FLAT = "".join(f"u\ti\t{t}\n" for t in range(0, 100, 10))  # never a new test item


@pytest.mark.parametrize("args,config,code,message", [
    (["evaluate", "--input", "{data}", "--graph", "bip", "--alpha", "0.3", "--windows", "1"],
     None, EXIT_CONFIG, "config error: --windows must be at least 2"),
    (["search", "--input", "{data}", "--graph", "bip", "--windows", "1"],
     None, EXIT_CONFIG, "config error: --windows must be at least 2"),
    (["evaluate", "--graph", "bip", "--alpha", "0.3"],
     None, EXIT_CONFIG, "config error: --input is required"),
    (["evaluate", "--input", "{data}", "--graph", "bip", "--alpha", "0.3", "--config", "{cfg}"],
     None, EXIT_CONFIG, "config error: config file not found: {cfg}"),
    (["evaluate", "--input", "{data}", "--graph", "bip", "--alpha", "0.3", "--config", "{cfg}"],
     "n = 5\nwindows 4", EXIT_CONFIG, "config error: {cfg}:2: expected 'key = value'"),
    (["search", "--input", "{data}"],
     None, EXIT_CONFIG, "config error: --graph is required (bip, stg or lsg)"),
    (["search", "--input", "{flat}", "--graph", "bip", "--count", "2"],
     None, EXIT_NOTHING_EVALUATED, "nothing evaluated: every sampled setting failed"),
], ids=["evaluate-windows", "search-windows", "no-input", "no-config-file", "config-line",
        "search-no-graph", "search-all-failed"])
def test_cli_errors(dataset, tmp_path, capsys, args, config, code, message):
    (tmp_path / "flat.tsv").write_text(FLAT)
    names = {"data": dataset, "flat": tmp_path / "flat.tsv", "cfg": tmp_path / "run.cfg"}
    if config is not None:
        names["cfg"].write_text(config + "\n")
    argv = [arg.format(**names) for arg in args] + ["--out-dir", str(tmp_path / "run")]
    assert main(argv) == code
    assert message.format(**names) in capsys.readouterr().err
    if code == EXIT_CONFIG:
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("line", ["grid_alpha = ,", "grid_alpha ="], ids=["comma", "nothing"])
def test_empty_grid_list_in_config_file_is_config_error(dataset, tmp_path, capsys, line):
    (tmp_path / "run.cfg").write_text(line + "\n")
    out_dir = tmp_path / "run"
    for source in (dataset, tmp_path / "missing.tsv"):  # checked before the input
        code = main([
            "search", "--graph", "bip", "--count", "50", "--windows", "4",
            "--config", str(tmp_path / "run.cfg"), "--input", str(source),
            "--out-dir", str(out_dir),
        ])
        assert code == EXIT_CONFIG
        assert "config error: grid list 'alpha' is empty" in capsys.readouterr().err
        assert not out_dir.exists()
