import csv
import dataclasses
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from shapenas import cli, config, harness
from shapenas.bob import BobConfig
from shapenas.config import ConfigError, load_config
from shapenas.controller import ShapingConfig
from shapenas.design_space import (ActionCatalog, CandidateNetwork,
                                   ContextSpec, LayerTemplate, grow,
                                   legal_actions)
from shapenas.harness import (HarnessError, cmd_compare, cmd_gen_synth,
                              cmd_search, cmd_train_predictor,
                              episodes_to_plateau, network_size,
                              normalize_curve, smooth)
from shapenas.oracle import (SynthStatsModel, SyntheticTaskSpec,
                             TabularOracle, encode_chain)
from shapenas.rules import FieldError

from corpus import drop_column

BASE = {
    "schema_version": 1,
    "input_shape": [3, 16, 16],
    "catalog": {
        "max_depth": 4,
        "actions": [
            {"block_kind": "conv", "kernel_size": 3, "stride": 1,
             "padding": 1, "channels": 8},
            {"block_kind": "conv", "kernel_size": 3, "stride": 1,
             "padding": 1, "channels": 4},
            {"block_kind": "pool", "kernel_size": 2, "stride": 2},
        ],
    },
    "context": {"cores": 8, "compute_units": 2, "memory_mb": 4096,
                "clock_freq_mhz": 2800, "memory_bandwidth": 25.6,
                "processor_kind": "cpu"},
    "oracle": {"kind": "synthetic", "base_utility": [0.25, 0.1, 0.02],
               "diminishing": 0.7},
    "secondary": {"kind": "per_action", "metric": [5.0, 40.0, 70.0]},
    "shaping": {"episodes": 20, "max_steps": 4, "tau": -1.0e9,
                "epsilon0": [1.0], "budgets": [200.0]},
    "scalarized_weights": [1.0, 0.1],
}


def write_yaml(path, doc) -> None:
    """Write ``doc``, and check that where libyaml is present its loader
    and the pure-Python one read the file alike."""
    text = yaml.safe_dump(doc)
    if hasattr(yaml, "CSafeLoader"):
        assert yaml.load(text, Loader=yaml.CSafeLoader) \
            == yaml.load(text, Loader=yaml.SafeLoader)
    path.write_text(text)


def write_config(tmp_path, overrides=None, name="config.yaml"):
    doc = yaml.safe_load(yaml.safe_dump(BASE))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / name
    write_yaml(path, doc)
    return str(path)


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


SYNTH = {
    "contexts": [
        {"cores": 8, "compute_units": 2, "memory_mb": 4096,
         "clock_freq_mhz": 2800, "memory_bandwidth": 25.6,
         "processor_kind": "cpu"},
        {"cores": 2, "compute_units": 1, "memory_mb": 16,
         "clock_freq_mhz": 1000, "memory_bandwidth": 6.4,
         "processor_kind": "dsp"},
    ],
    "synth_stats": {"count": 100},
    "synth_stats_model": {"context_multipliers": [1.0, 2.5]},
}


# --- curve utilities --------------------------------------------------------


def test_normalize_curve_constant_maps_to_ones():
    assert list(normalize_curve([2.0, 2.0, 2.0])) == [1.0, 1.0, 1.0]
    assert list(normalize_curve([0.0, 1.0, 2.0])) == [0.0, 0.5, 1.0]


def test_smooth_is_trailing_average():
    out = smooth([1.0, 2.0, 3.0, 4.0], window=3)
    assert list(out) == [1.0, 1.5, 2.0, 3.0]


def trailing_mean(values, window):
    """Each entry's window, its terms added to 0.0 oldest first in Python
    floats, over the count (np.mean of a slice also starts from 0.0, so an
    all -0.0 window gives 0.0)."""
    out = []
    for i in range(len(values)):
        terms = values[max(0, i - window + 1):i + 1]
        total = 0.0
        for x in terms:
            total += x
        out.append(total / len(terms))
    return out


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(1e-5, 1e5) | st.floats(-1e5, -1e-5)
                       | st.sampled_from([0.0, -0.0]), max_size=300),
       window=st.integers(1, 5))
def test_smooth_bits_equal_python_trailing_mean(values, window):
    # curves shorter than the window included
    got = smooth(values, window)
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(trailing_mean(values, window),
                                     dtype=float).tobytes()


def test_episodes_to_plateau_step_curve():
    # jumps to the final level at episode index 5; smoothing (window 3)
    # reaches 95% of the final smoothed value two episodes later
    curve = [0.0] * 5 + [1.0] * 10
    assert episodes_to_plateau(curve) == 8
    assert episodes_to_plateau([1.0, 1.0, 1.0]) == 1


# --- gen-synth --------------------------------------------------------------


def test_gen_synth_row_count_and_header(tmp_path):
    cfg = write_config(tmp_path, SYNTH)
    path = cmd_gen_synth(cfg, seed=0, out_dir=str(tmp_path / "out"))
    lines = Path(path).read_text().strip().splitlines()
    assert len(lines) == 101
    assert lines[0].startswith("Type,Kernel Size,Stride,Padding")
    assert "feasible" in lines[0]


def test_gen_synth_same_seed_identical_bytes(tmp_path):
    cfg = write_config(tmp_path, SYNTH)
    a = cmd_gen_synth(cfg, seed=5, out_dir=str(tmp_path / "a"))
    b = cmd_gen_synth(cfg, seed=5, out_dir=str(tmp_path / "b"))
    assert sha(a) == sha(b)
    c = cmd_gen_synth(cfg, seed=6, out_dir=str(tmp_path / "c"))
    assert sha(c) != sha(a)


def test_gen_synth_rule_off_all_feasible(tmp_path):
    cfg = write_config(tmp_path, dict(
        SYNTH, synth_stats_model={"context_multipliers": [1.0, 2.5],
                                  "infeasibility_rule": False}))
    path = cmd_gen_synth(cfg, seed=0, out_dir=str(tmp_path / "out"))
    rows = Path(path).read_text().strip().splitlines()[1:]
    assert all(row.rsplit(",", 1)[-1] == "1" for row in rows)


# --- train-predictor --------------------------------------------------------


def predictor_setup(tmp_path, count=400):
    synth = dict(SYNTH, synth_stats={"count": count})
    gen_cfg = write_config(tmp_path, synth, name="gen.yaml")
    stats = cmd_gen_synth(gen_cfg, seed=0, out_dir=str(tmp_path / "data"))
    return write_config(tmp_path, {"predictor": {
        "stats_path": stats, "bag_size": 3, "rounds": 20, "min_samples": 10,
    }}, name="train.yaml")


def test_train_predictor_writes_model_and_report(tmp_path):
    cfg = predictor_setup(tmp_path)
    out = tmp_path / "model_out"
    report = cmd_train_predictor(cfg, seed=0, out_dir=str(out))
    assert (out / "model.json").exists()
    assert (out / "predictor_report.json").exists()
    assert (out / "config.yaml").exists()
    scores = report["scores"]["targets"]
    assert set(scores) == {"Execution time", "Memory Usage"}
    for target in scores.values():
        assert target["r2"] is None or target["r2"] > 0.5


def test_train_predictor_rerun_byte_identical(tmp_path):
    cfg = predictor_setup(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    cmd_train_predictor(cfg, seed=0, out_dir=str(a))
    cmd_train_predictor(cfg, seed=0, out_dir=str(b))
    assert sha(a / "model.json") == sha(b / "model.json")
    # the report embeds its own output path; idempotency holds in place
    first = sha(a / "predictor_report.json")
    cmd_train_predictor(cfg, seed=0, out_dir=str(a))
    assert sha(a / "predictor_report.json") == first


def test_train_predictor_missing_stats_path(tmp_path):
    cfg = write_config(tmp_path)
    with pytest.raises(ConfigError, match="stats_path"):
        cmd_train_predictor(cfg, seed=0, out_dir=str(tmp_path / "out"))


def test_train_predictor_empty_stats_file(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    cfg = write_config(tmp_path,
                       {"predictor": {"stats_path": str(empty)}})
    with pytest.raises(Exception, match="[Hh]eader|[Cc]olumn"):
        cmd_train_predictor(cfg, seed=0, out_dir=str(tmp_path / "out"))


# --- search -----------------------------------------------------------------


def test_search_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    report = cmd_search(cfg, seed=3, replicates=2, jobs=1, out_dir=str(out))
    assert [r["seed"] for r in report["replicates"]] == [3, 4]
    assert report["failed_seeds"] == []
    for seed in (3, 4):
        assert (out / f"trace_replicate_{seed}.csv").exists()
        curve = (out / f"curve_replicate_{seed}.csv").read_text()
        lines = curve.strip().splitlines()
        assert lines[0] == "episode,return_normalized,epsilon_1,delta"
        assert len(lines) == BASE["shaping"]["episodes"] + 1
    # deterministic artifacts are byte-identical across re-runs
    first = {p.name: sha(p) for p in out.iterdir()
             if p.name != "timings.json"}
    cmd_search(cfg, seed=3, replicates=2, jobs=1, out_dir=str(out))
    second = {p.name: sha(p) for p in out.iterdir()
              if p.name != "timings.json"}
    assert first == second


def test_search_report_fields(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    report = cmd_search(cfg, seed=0, replicates=1, jobs=1, out_dir=str(out))
    row = report["replicates"][0]
    assert row["depth"] == 4
    assert 0.0 < row["final_accuracy"] <= 1.0
    assert 0.0 < row["size_ratio"] <= 1.0
    assert 1 <= row["episodes_to_95"] <= row["episodes"]
    assert row["final_metrics"] is not None
    assert set(report["aggregate"]) == {"final_accuracy", "depth",
                                        "size_ratio", "episodes_to_95"}
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == report


def test_search_oracle_failure_reports_seed(tmp_path):
    cfg = write_config(tmp_path, {"oracle": {"kind": "tabular",
                                             "path": "/nonexistent.csv"}})
    with pytest.raises(Exception):
        cmd_search(cfg, seed=0, replicates=1, jobs=1,
                   out_dir=str(tmp_path / "out"))


def test_search_parallel_matches_serial(tmp_path):
    cfg = write_config(tmp_path)
    serial = cmd_search(cfg, seed=0, replicates=2, jobs=1,
                        out_dir=str(tmp_path / "serial"))
    parallel = cmd_search(cfg, seed=0, replicates=2, jobs=2,
                          out_dir=str(tmp_path / "parallel"))
    assert serial == parallel
    for seed in (0, 1):
        name = f"trace_replicate_{seed}.csv"
        assert sha(tmp_path / "serial" / name) == \
            sha(tmp_path / "parallel" / name)


def test_compare_parallel_matches_serial(tmp_path):
    # the space, its catalog memo included, is pickled into the workers
    cfg = write_config(tmp_path)
    serial = cmd_compare(cfg, seed=0, replicates=2, jobs=1,
                         out_dir=str(tmp_path / "serial"))
    parallel = cmd_compare(cfg, seed=0, replicates=2, jobs=2,
                           out_dir=str(tmp_path / "parallel"))
    assert serial == parallel
    names = ["compare_report.json"] + [
        f"curve_{arm}_replicate_{seed}.csv"
        for arm in ("shaped", "scalarized") for seed in (0, 1)]
    for name in names:
        assert sha(tmp_path / "serial" / name) == \
            sha(tmp_path / "parallel" / name), name


PINNED_OUTPUTS = {
    "compare": {
        "compare_report.json":
        "ae736aa573e548b0f821c21900c0133f51e0c72fb8b8a9b07f2bbb10fee16ee1",
        "curve_shaped_replicate_0.csv":
        "40235e57e1495d3ca3bf6c8da2931245bfab3afd68429b4512f9af43c1e1204f",
        "curve_shaped_replicate_1.csv":
        "d98dde3dd2681ff6c40e7201cd02b3448916d85c3323584ac39408000d15adbf",
        "curve_scalarized_replicate_0.csv":
        "87d7f152d38cb260cab0a2f96de4a51e935fbf90ffe2ca7b75ee4d4d7b3dfe4d",
        "curve_scalarized_replicate_1.csv":
        "28230a2fe13ebab40a31d5ac36544354af796e6ad41d5771216d2cd8508a09e1",
    },
    "search": {
        "report.json":
        "add0f85a442ce60573b49d08df0052a7706e5783592612527fe62e66ee2bad0d",
        "trace_replicate_0.csv":
        "adbad3b7b34b1e4d3b5750b43a8946e494b5f4b6cf1ca6f26c0f23c05874ade5",
        "trace_replicate_1.csv":
        "a79e8401765d1c16e3c58ebbff43acc68f2fc5123853404dcf16990a385b6bca",
        "curve_replicate_0.csv":
        "40235e57e1495d3ca3bf6c8da2931245bfab3afd68429b4512f9af43c1e1204f",
        "curve_replicate_1.csv":
        "d98dde3dd2681ff6c40e7201cd02b3448916d85c3323584ac39408000d15adbf",
    },
}


def test_compare_and_search_outputs_pinned(tmp_path):
    # every deterministic artifact of a short BASE run, to the byte; the
    # shaped arm's curves equal the one-arm search's
    cfg = write_config(tmp_path)
    for name, command in (("compare", cmd_compare), ("search", cmd_search)):
        out = tmp_path / name
        command(cfg, seed=0, replicates=2, jobs=1, out_dir=str(out))
        assert {p.name: sha(p) for p in out.iterdir()
                if p.name not in ("config.yaml", "timings.json")} \
            == PINNED_OUTPUTS[name]


def test_predictor_secondary_parallel_matches_serial(tmp_path):
    # the predictor secondary, its layer memo included, is pickled into the
    # workers; the search context is the corpus's memory-starved one
    cfg = predictor_setup(tmp_path, count=300)
    cmd_train_predictor(cfg, seed=0, out_dir=str(tmp_path / "model"))
    run_cfg = write_config(tmp_path, {
        "context": SYNTH["contexts"][1],
        "secondary": {"kind": "predictor",
                      "model_path": str(tmp_path / "model" / "model.json")},
        "shaping": {"episodes": 10, "epsilon0": [1.0, 1.0],
                    "budgets": [500.0, 500.0]},
        "scalarized_weights": [1.0, 0.1, 0.1],
    }, name="run.yaml")
    for command in (cmd_search, cmd_compare):
        digests, reports = [], []
        for jobs in (1, 2):
            out = tmp_path / f"{command.__name__}_{jobs}"
            reports.append(command(run_cfg, seed=0, replicates=2, jobs=jobs,
                                   out_dir=str(out)))
            digests.append({p.name: sha(p) for p in out.iterdir()
                            if p.name != "timings.json"})
        assert reports[0] == reports[1]
        assert digests[0] == digests[1]
        assert sum(name.startswith("curve_") for name in digests[0]) == \
            (2 if command is cmd_search else 4)
    # search is compare's shaped arm: the same curves, at either job count
    for jobs in (1, 2):
        for seed in (0, 1):
            assert sha(tmp_path / f"cmd_search_{jobs}" /
                       f"curve_replicate_{seed}.csv") == \
                sha(tmp_path / f"cmd_compare_{jobs}" /
                    f"curve_shaped_replicate_{seed}.csv")
    traces = [(tmp_path / "cmd_search_1" / f"trace_replicate_{seed}.csv")
              .read_text() for seed in (0, 1)]
    assert any(line.endswith(",1") for text in traces
               for line in text.splitlines())  # some steps are infeasible


def test_search_reads_config_and_model_once(tmp_path, monkeypatch):
    from shapenas import bob, config
    cfg = predictor_setup(tmp_path, count=300)
    cmd_train_predictor(cfg, seed=0, out_dir=str(tmp_path / "model"))
    search_cfg = write_config(tmp_path, {
        "secondary": {"kind": "predictor",
                      "model_path": str(tmp_path / "model" / "model.json")},
        "shaping": {"episodes": 3, "epsilon0": [1.0, 1.0],
                    "budgets": [500.0, 500.0]},
    }, name="search.yaml")
    calls = {"load_config": 0, "load_model": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(config, "load_config")
    counted(bob, "load_model")
    cmd_search(search_cfg, seed=0, replicates=2, jobs=1,
               out_dir=str(tmp_path / "run"))
    assert calls == {"load_config": 1, "load_model": 1}


def every_chain_table(path):
    """A tabular oracle file with a row for every chain of BASE's catalog."""
    space = config.build_space(BASE)
    rows, stack = [], [(space.empty_network(), ())]
    while stack:
        net, chain = stack.pop()
        for a in legal_actions(net, space.catalog):
            stack.append((grow(net, space.catalog, a), chain + (a,)))
            rows.append(f"{encode_chain(chain + (a,))},{0.1 + 0.01 * a}\n")
    path.write_text("chain,accuracy\n" + "".join(rows))
    return str(path)


@pytest.mark.parametrize("command", [cmd_search, cmd_compare])
def test_tabular_oracle_built_once_per_command(tmp_path, monkeypatch,
                                               command):
    # each replicate runs on a copy of the one oracle the command built
    built = []

    class Counted(TabularOracle):
        def __init__(self, path):
            built.append(path)
            super().__init__(path)

    monkeypatch.setattr(config, "TabularOracle", Counted)
    table = every_chain_table(tmp_path / "oracle.csv")
    cfg = write_config(tmp_path, {"oracle": {"kind": "tabular",
                                             "path": table},
                                  "shaping": {"episodes": 3}})
    command(cfg, seed=0, replicates=3, jobs=1, out_dir=str(tmp_path / "out"))
    assert built == [table]


@pytest.mark.parametrize("jobs", [1, 2])
def test_noisy_replicate_equals_its_own_single_run(tmp_path, jobs):
    # a noisy oracle restarts its noise stream in every replicate
    cfg = write_config(tmp_path, {"oracle": {"noise_sigma": 0.05}})
    cmd_search(cfg, seed=0, replicates=2, jobs=jobs,
               out_dir=str(tmp_path / "both"))
    for seed in (0, 1):
        cmd_search(cfg, seed=seed, replicates=1, jobs=1,
                   out_dir=str(tmp_path / f"alone_{seed}"))
        for name in (f"trace_replicate_{seed}.csv",
                     f"curve_replicate_{seed}.csv"):
            assert sha(tmp_path / "both" / name) == \
                sha(tmp_path / f"alone_{seed}" / name), name


def test_noisy_report_row_equals_its_own_single_run(tmp_path):
    # each replicate's final network is scored on a fresh oracle
    cfg = write_config(tmp_path, {"oracle": {"noise_sigma": 0.05}})
    both = cmd_search(cfg, seed=3, replicates=2, jobs=1,
                      out_dir=str(tmp_path / "both"))
    alone = cmd_search(cfg, seed=4, replicates=1, jobs=1,
                       out_dir=str(tmp_path / "alone"))
    assert both["replicates"][1] == alone["replicates"][0]


# --- compare ----------------------------------------------------------------


def test_compare_degenerate_configs_ratio_one(tmp_path):
    # epsilon0 = 0 shaped run and weights (1, 0) scalarized run take
    # identical steps, so the plateau ratio is exactly 1
    cfg = write_config(tmp_path, {"shaping": {"epsilon0": [0.0]},
                                  "scalarized_weights": [1.0, 0.0]})
    out = tmp_path / "cmp"
    report = cmd_compare(cfg, seed=0, replicates=3, jobs=1, out_dir=str(out))
    assert report["speedup_ratio"] == 1.0
    assert report["shaped_episodes_to_95"] == \
        report["scalarized_episodes_to_95"]
    for seed in range(3):
        assert sha(out / f"curve_shaped_replicate_{seed}.csv") == \
            sha(out / f"curve_scalarized_replicate_{seed}.csv")


def test_compare_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cmp"
    report = cmd_compare(cfg, seed=2, replicates=2, jobs=1, out_dir=str(out))
    assert report["seeds"] == [2, 3]
    assert report["failed_seeds"] == []
    assert report["speedup_ratio"] > 0
    on_disk = json.loads((out / "compare_report.json").read_text())
    assert on_disk == report


# --- config loading ---------------------------------------------------------


def test_config_schema_version_checked(tmp_path):
    cfg = write_config(tmp_path, {"schema_version": 2})
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(cfg)


def test_config_not_a_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(str(path))


@pytest.mark.parametrize("overrides", [
    {}, SYNTH, {"shaping": {"tau": "-1.0e9", "shaping_episodes": None}},
    {"secondary": {"kind": "predictor", "model_path": "model/model.json"}},
    {"input_shape": [3, 1, 1], "scalarized_weights": [1.0, 1.0e+9]},
], ids=["base", "synth", "string_tau", "predictor", "wide_values"])
def test_configs_read_alike_under_both_loaders(tmp_path, overrides):
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    cfg = write_config(tmp_path, overrides)
    docs = []
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        with open(cfg, encoding="utf-8") as fh:
            docs.append(yaml.load(fh, Loader=loader))
    assert docs[0] == docs[1] == load_config(cfg)


def test_malformed_yaml_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("schema_version: 1\nshaping:\n  tau: [1.0, 2.0\n"
                    "  episodes: 3\n")
    rc, err = run_cli(tmp_path, capsys, str(path))
    assert rc == 2
    assert f'in "{path}", line 3' in err


def test_unknown_secondary_kind(tmp_path):
    cfg = write_config(tmp_path, {"secondary": {"kind": "psychic"}})
    with pytest.raises(ConfigError, match="psychic"):
        cmd_search(cfg, seed=0, replicates=1, jobs=1,
                   out_dir=str(tmp_path / "out"))


def run_cli(tmp_path, capsys, cfg, command="search"):
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    return rc, capsys.readouterr().err


def test_misspelt_shaping_key_names_section_and_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"shaping": {"epsilonn0": [1.0]}})
    rc, err = run_cli(tmp_path, capsys, cfg)
    assert rc == 2
    assert "shaping.epsilonn0" in err


def test_misspelt_oracle_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"oracle": {"diminshing": 0.5}})
    rc, err = run_cli(tmp_path, capsys, cfg)
    assert rc == 2
    assert "oracle.diminshing" in err


def test_number_read_as_string_names_key(tmp_path, capsys):
    cfg = write_config(tmp_path)
    with open(cfg) as fh:
        text = fh.read()
    # PyYAML reads an exponent without a sign as a string
    text = text.replace("tau: -1000000000.0", "tau: -1.0e9")
    with open(cfg, "w") as fh:
        fh.write(text)
    assert load_config(cfg)["shaping"]["tau"] == "-1.0e9"
    rc, err = run_cli(tmp_path, capsys, cfg)
    assert rc == 2
    assert "shaping.tau" in err and "number" in err


def test_no_legal_first_action_names_input_shape(tmp_path, capsys):
    unpadded = [{"block_kind": "conv", "kernel_size": 3, "channels": 8},
                {"block_kind": "conv", "kernel_size": 3, "channels": 4},
                {"block_kind": "pool", "kernel_size": 2, "stride": 2}]
    cfg = write_config(tmp_path, {"input_shape": [3, 1, 1],
                                  "catalog": {"actions": unpadded}})
    rc, err = run_cli(tmp_path, capsys, cfg)
    assert rc == 2
    assert "input_shape" in err


def test_oracle_lacking_first_chain_fails_the_seed(tmp_path, capsys):
    table = tmp_path / "oracle.csv"
    table.write_text("chain,accuracy\n9-9,0.5\n")
    cfg = write_config(tmp_path, {"oracle": {"kind": "tabular",
                                             "path": str(table)}})
    rc, err = run_cli(tmp_path, capsys, cfg)
    assert rc == 1
    assert "seeds [0]" in err
    assert "seeds [0]: seed 0: oracle failure at episode 0 step 0: " in err
    assert "no benchmark row for chain '" in err  # the missing chain
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["failed_seeds"] == [0]
    assert report["replicates"][0]["episodes_to_95"] == 0
    rc, _ = run_cli(tmp_path, capsys, cfg, command="compare")
    assert rc == 1


def test_compare_names_each_failed_arm_once_per_seed(tmp_path, capsys):
    table = tmp_path / "oracle.csv"
    table.write_text("chain,accuracy\n9-9,0.5\n")
    cfg = write_config(tmp_path, {"oracle": {"kind": "tabular",
                                             "path": str(table)}})
    rc = cli.main(["compare", "--config", cfg, "--replicates", "2",
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    report = json.loads(
        (tmp_path / "out" / "compare_report.json").read_text())
    assert report["failed_seeds"] == [0, 1]
    assert "replicates failed for seeds [0, 1]: " in err
    for arm in ("shaped", "scalarized"):
        for seed in (0, 1):
            assert f"{arm} seed {seed}: oracle failure at episode 0" in err


# --- CLI --------------------------------------------------------------------


@pytest.mark.parametrize("command", ["search", "compare"])
@pytest.mark.parametrize("flag", ["--replicates", "--jobs"])
@pytest.mark.parametrize("value", ["0", "-2", "1.5", "two"])
def test_count_flag_below_one_exits_2_naming_it(tmp_path, capsys, command,
                                                flag, value):
    # --replicates 0 wrote NaN means; --jobs 0 ran serially
    cfg = write_config(tmp_path, {"shaping": {"episodes": 3}})
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                  flag, value])
    assert exc.value.code == 2
    assert (f"error: argument {flag}: must be an integer in [1, inf], got "
            f"{value!r}") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [cmd_search, cmd_compare])
@pytest.mark.parametrize("name", ["replicates", "jobs"])
@pytest.mark.parametrize("value", [0, -1])
def test_count_below_one_rejected_before_writing(tmp_path, command, name,
                                                 value):
    # a Python caller passes the counts past the CLI's parser
    cfg = write_config(tmp_path, {"shaping": {"episodes": 3}})
    counts = {"replicates": 1, "jobs": 1, name: value}
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be in [1, inf], got {value}")):
        command(cfg, 0, counts["replicates"], counts["jobs"],
                str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_cli_search_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = cli.main(["search", "--config", cfg, "--seed", "0",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "final_accuracy" in capsys.readouterr().out


def test_cli_gen_synth_and_train_predictor(tmp_path, capsys):
    gen_cfg = write_config(tmp_path, dict(SYNTH, synth_stats={"count": 300}),
                           name="gen.yaml")
    rc = cli.main(["gen-synth", "--config", gen_cfg, "--seed", "0",
                   "--out", str(tmp_path / "data")])
    assert rc == 0
    train_cfg = write_config(tmp_path, {"predictor": {
        "stats_path": str(tmp_path / "data" / "stats.csv"),
        "bag_size": 2, "rounds": 15, "min_samples": 10}}, name="train.yaml")
    rc = cli.main(["train-predictor", "--config", train_cfg, "--seed", "0",
                   "--out", str(tmp_path / "model")])
    assert rc == 0
    assert "gate_accuracy=" in capsys.readouterr().out


def test_cli_predictor_secondary_end_to_end(tmp_path):
    # model trained by the CLI drives the search as the secondary source
    gen_cfg = write_config(tmp_path, dict(SYNTH, synth_stats={"count": 300}),
                           name="gen.yaml")
    assert cli.main(["gen-synth", "--config", gen_cfg,
                     "--out", str(tmp_path / "data")]) == 0
    train_cfg = write_config(tmp_path, {"predictor": {
        "stats_path": str(tmp_path / "data" / "stats.csv"),
        "bag_size": 2, "rounds": 15, "min_samples": 10}}, name="train.yaml")
    assert cli.main(["train-predictor", "--config", train_cfg,
                     "--out", str(tmp_path / "model")]) == 0
    search_cfg = write_config(tmp_path, {
        "secondary": {"kind": "predictor",
                      "model_path": str(tmp_path / "model" / "model.json")},
        "shaping": {"episodes": 10, "epsilon0": [1.0, 1.0],
                    "budgets": [500.0, 500.0]},
    }, name="search.yaml")
    assert cli.main(["search", "--config", search_cfg,
                     "--out", str(tmp_path / "run")]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert len(report["replicates"][0]["final_metrics"]) == 2


def test_cli_bad_config_exit_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 99})
    rc = cli.main(["search", "--config", cfg,
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_compare_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = cli.main(["compare", "--config", cfg, "--replicates", "2",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "speedup ratio" in capsys.readouterr().out


@pytest.mark.parametrize("command, overrides, message", [
    ("search", {"shaping": {"epsilon0": [1.0, 1.0], "budgets": [200.0, 200.0]}},
     "'shaping.epsilon0' is for 2 secondary metrics, but the secondary "
     "supplies 1"),
    ("search", {"secondary": {"kind": "none"}},
     "'shaping.epsilon0' is for 1 secondary metrics, but the secondary "
     "supplies 0"),
    ("compare", {"scalarized_weights": [1.0, 0.1, 0.1]},
     "'scalarized_weights' is for 2 secondary metrics, but the secondary "
     "supplies 1"),
], ids=["per_action_two_epsilons", "none_one_epsilon",
        "compare_three_weights"])
def test_secondary_metric_count_checked(tmp_path, capsys, command, overrides,
                                        message):
    cfg = write_config(tmp_path, overrides)
    rc, err = run_cli(tmp_path, capsys, cfg, command=command)
    assert rc == 2
    assert message in err


@pytest.mark.parametrize("command, overrides, message", [
    ("compare", {"scalarized_weights": 1.0},
     "config key 'scalarized_weights' must be a list of numbers"),
    ("compare", {"scalarized_weights": [1.0, "0.1"]},
     "config key 'scalarized_weights' must be a list of numbers"),
    ("compare", {"scalarized_weights": []},
     "config key 'scalarized_weights' must start with the primary's weight"),
    ("search", {"secondary": {"metric": [5.0, 40.0]}},
     "config key 'secondary.metric' has 2 entries, but the catalog has 3 "
     "actions"),
    ("search", {"secondary": {"metric": [5.0, 40.0, "70"]}},
     "config key 'secondary.metric' must be a list of numbers"),
    ("search", {"input_shape": [3, 16]},
     "config key 'input_shape' must be a list of 3 integers, got [3, 16]"),
    ("gen-synth", dict(SYNTH, input_shape=[3, 16]),
     "config key 'input_shape' must be a list of 3 integers, got [3, 16]"),
    *(("gen-synth", dict(SYNTH, synth_stats={"count": count}),
       f"config key 'synth_stats.count' must be an integer, got {count!r}")
      for count in ("abc", 2.5, True)),
    ("gen-synth", dict(SYNTH, synth_stats={"count": 0}),
     "config key 'synth_stats.count' must be in [1, inf], got 0"),
    ("gen-synth", dict(SYNTH, contexts=[]),
     "config key 'contexts' must be a non-empty list, got []"),
    ("gen-synth", dict(SYNTH, contexts=[
        dict(SYNTH["contexts"][0], task=[0.5]), SYNTH["contexts"][1]]),
     "config key 'contexts[1].task' has 0 values, but 'contexts[0].task' "
     "has 1"),
    ("gen-synth", dict(SYNTH, synth_stats_model={
        "context_multipliers": [1.0]}),
     "config key 'synth_stats_model.context_multipliers' has 1 entries, but "
     "there are 2 contexts"),
    *(("train-predictor", {"predictor": {"stats_path": path}},
       f"config key 'predictor.stats_path' must be a non-empty path string, "
       f"got {path!r}") for path in (0, 7, "", ["a"])),
    *(("search", {"secondary": {"kind": "predictor", "model_path": path}},
       f"config key 'secondary.model_path' must be a non-empty path string, "
       f"got {path!r}") for path in (0, ["a"])),
    *((command, {"oracle": {"kind": "tabular", "path": 0}},
       "config key 'oracle.path' must be a non-empty path string, got 0")
      for command in ("search", "compare")),
    ("search", {"context": {"task": 0.5}},
     "config key 'context.task' must be a list of numbers, got 0.5"),
    *(("search", {"shaping": {key: value}},
       f"config key 'shaping.{key}' must be a number, got {value!r}")
      for key, value in (("tau", [1]), ("gamma", None), ("tau", {"a": 1}))),
    ("search", {"context": {"cores": None}},
     "config key 'context.cores' must be an integer, got None"),
    ("search", {"context": {"memory_mb": [4096]}},
     "config key 'context.memory_mb' must be a number, got [4096]"),
    *(("search", {"shaping": {key: value}},
       f"config key 'shaping.{key}' must be a list of numbers, got "
       f"{value!r}") for key, value in (
        ("budgets", None), ("epsilon0", ["a"]), ("epsilon0", [True]),
        ("budgets", [True]))),
    ("gen-synth", dict(SYNTH, synth_stats_model={
        "context_multipliers": [1.0, 2.5], "latency_coeffs": [1, 2]}),
     "config key 'synth_stats_model.latency_coeffs' must be a list of 4 "
     "numbers, got [1, 2]"),
    ("gen-synth", dict(SYNTH, synth_stats_model={
        "context_multipliers": [1.0, 2.5], "infeasibility_rule": "no"}),
     "config key 'synth_stats_model.infeasibility_rule' must be true or "
     "false, got 'no'"),
    ("search", {"context": {"cores": True}},
     "config key 'context.cores' must be an integer, got True"),
    ("search", {"oracle": {"kind": "lookup"}},
     "config key 'oracle.kind' must be one of 'synthetic', 'tabular', got "
     "'lookup'"),
    ("search", {"secondary": {"kind": "lookup"}},
     "config key 'secondary.kind' must be one of 'predictor', 'per_action', "
     "'none', got 'lookup'"),
], ids=["weights_not_a_list", "weight_is_a_string", "no_weights",
        "metric_too_short", "metric_is_a_string", "input_shape_two_values",
        "gen_synth_input_shape", "count_is_a_string", "fractional_count",
        "count_is_a_bool", "zero_count", "no_contexts",
        "task_lengths_differ", "one_multiplier_for_two_contexts",
        "stats_path_zero", "stats_path_seven", "stats_path_empty",
        "stats_path_list", "model_path_zero", "model_path_list",
        "search_oracle_path_zero", "compare_oracle_path_zero",
        "context_task_not_a_list", "tau_is_a_list", "gamma_is_null",
        "tau_is_a_mapping", "cores_is_null", "memory_is_a_list",
        "budgets_is_null", "epsilon0_string_entry", "epsilon0_bool_entry",
        "budgets_bool_entry", "latency_coeffs_too_short",
        "infeasibility_rule_is_a_string", "cores_is_a_bool",
        "unknown_oracle_kind", "unknown_secondary_kind"])
def test_bad_raw_value_names_key(tmp_path, capsys, command, overrides,
                                 message):
    cfg = write_config(tmp_path, overrides)
    rc, err = run_cli(tmp_path, capsys, cfg, command=command)
    assert rc == 2
    assert message in err
    assert not (tmp_path / "out" / "report.json").exists()
    assert not (tmp_path / "out" / "compare_report.json").exists()


@pytest.mark.parametrize("command", ["search", "compare"])
@pytest.mark.parametrize("oracle, message", [
    ({"base_utility": [0.25, 0.1]},
     "config key 'oracle.base_utility' has 2 entries, but the catalog has 3 "
     "actions"),
    ({"base_utility": [0.25, 0.1, 0.02, 0.3]},
     "config key 'oracle.base_utility' has 4 entries, but the catalog has 3 "
     "actions"),
    ({"base_utility": 0.25},
     "config key 'oracle.base_utility' must be a list of numbers"),
    ({"interaction_bonus": [[0, 1, 0.05], [0, 7, 0.1]]},
     "config key 'oracle.interaction_bonus': entry [0, 7, 0.1] is not "
     "[previous action, action, bonus] with actions of the catalog's 3 "
     "(0 to 2)"),
    # the spec's annotation decides an entry's type before the catalog
    # range is checked
    *(({"interaction_bonus": bonus},
       f"config key 'oracle.interaction_bonus' must be a list of lists of "
       f"an integer, an integer and a number, got {bonus!r}")
      for bonus in ([[0, 1]], [[0, 1, "0.1"]])),
    ({"interaction_bonus": {"0": 1}},
     "config key 'oracle.interaction_bonus' must be a list"),
    ({"seed": 1.5}, "config key 'oracle.seed' must be an integer, got 1.5"),
    ({"seed": -3}, "config key 'oracle.seed' must be in [0, inf], got -3"),
    ({"seed": True}, "config key 'oracle.seed' must be an integer, got True"),
    ({"noise_sigma": -1.0}, "config key 'oracle.noise_sigma' must be in "
     "[0, inf), got -1.0"),
    ({"noise_sigma": True}, "config key 'oracle.noise_sigma' must be a "
     "number, got True"),
    ({"noise_sigma": float("inf")}, "config key 'oracle.noise_sigma' must "
     "be in [0, inf), got inf"),
    ({"min_depth": 1.5}, "config key 'oracle.min_depth' must be an integer, "
     "got 1.5"),
    ({"diminishing": float("nan")}, "config key 'oracle.diminishing' must "
     "be in (-inf, inf), got nan"),
    ({"accuracy_cap": -1.0}, "config key 'oracle.accuracy_cap' must be in "
     "(0, inf], got -1.0"),
    *(({"base_utility": [value, 0.1, 0.02]}, f"config key "
       f"'oracle.base_utility' entries must be in (-inf, inf), got "
       f"[{value!r}, 0.1, 0.02]") for value in (float("nan"), float("inf"))),
    *(({"interaction_bonus": [[0, 1, value]]}, f"config key "
       f"'oracle.interaction_bonus' entries must be in (-inf, inf), got "
       f"[[0, 1, {value!r}]]")
      for value in (float("nan"), float("inf"))),
], ids=["utility_too_short", "utility_too_long", "utility_not_a_list",
        "bonus_names_action_7", "bonus_pair", "bonus_is_a_string",
        "bonus_not_a_list", "seed_fractional", "seed_negative",
        "seed_is_a_bool", "noise_negative", "noise_is_a_bool",
        "noise_infinite", "min_depth_fractional", "diminishing_nan",
        "cap_negative", "utility_nan", "utility_infinite", "bonus_nan",
        "bonus_infinite"])
def test_synthetic_oracle_checked_against_catalog(tmp_path, capsys, command,
                                                  oracle, message):
    cfg = write_config(tmp_path, {"oracle": oracle})
    rc, err = run_cli(tmp_path, capsys, cfg, command=command)
    assert rc == 2
    assert message in err
    assert not (tmp_path / "out" / "report.json").exists()
    assert not (tmp_path / "out" / "compare_report.json").exists()


def test_tabular_oracle_ignores_synthetic_keys(tmp_path, capsys):
    # a tabular override keeps the synthetic keys it replaces unchecked;
    # the table lacks the first chain, so the replicate fails (exit 1)
    table = tmp_path / "oracle.csv"
    table.write_text("chain,accuracy\n9-9,0.5\n")
    cfg = write_config(tmp_path, {"oracle": {
        "kind": "tabular", "path": str(table), "base_utility": [0.3],
        "interaction_bonus": [[0, 7, 0.1]]}})
    for command in ("search", "compare"):
        rc, err = run_cli(tmp_path, capsys, cfg, command=command)
        assert rc == 1
        assert "replicates failed for seeds [0" in err


@pytest.mark.parametrize("section, value, key", [
    ("secondary", {"kind": "per_action"}, "secondary.metric"),
    ("secondary", {"kind": "predictor"}, "secondary.model_path"),
    ("oracle", {"base_utility": [0.25, 0.1, 0.02]}, "oracle.kind"),
    ("oracle", {"kind": "tabular"}, "oracle.path"),
    ("catalog", {"max_depth": 4}, "catalog.actions"),
    ("catalog", {"actions": BASE["catalog"]["actions"]}, "catalog.max_depth"),
    ("context", {k: v for k, v in BASE["context"].items() if k != "cores"},
     "context.cores"),
], ids=["per_action_metric", "predictor_model_path", "oracle_kind",
        "tabular_oracle_path", "catalog_actions", "catalog_max_depth",
        "context_cores"])
def test_missing_key_names_its_section(tmp_path, capsys, section, value, key):
    path = tmp_path / "config.yaml"
    write_yaml(path, dict(BASE, **{section: value}))
    rc, err = run_cli(tmp_path, capsys, str(path))
    assert rc == 2
    assert f"error: missing required config key '{key}'" in err


@pytest.mark.parametrize("catalog, message", [
    ({"max_depth": "4"}, "config key 'catalog.max_depth' must be an integer, "
     "got '4'"),
    ({"max_depth": 0}, "config key 'catalog.max_depth' must be in [1, inf], "
     "got 0"),
    ({"max_depth": True}, "config key 'catalog.max_depth' must be an "
     "integer, got True"),
    ({"max_depth": 2.0}, "config key 'catalog.max_depth' must be an "
     "integer, got 2.0"),
    ({"actions": []}, "config key 'catalog.actions' must be a non-empty "
     "list, got []"),
    ({"actions": {"block_kind": "skip"}}, "config key 'catalog.actions' "
     "must be a non-empty list, got {'block_kind': 'skip'}"),
], ids=["depth_string", "depth_zero", "depth_bool", "depth_float",
        "no_actions", "actions_mapping"])
@pytest.mark.parametrize("command", ["search", "compare"])
def test_catalog_keys_checked(tmp_path, capsys, command, catalog, message):
    cfg = write_config(tmp_path, {"catalog": catalog})
    rc, err = run_cli(tmp_path, capsys, cfg, command=command)
    assert rc == 2
    assert f"error: {message}" in err


def test_section_that_is_not_a_mapping_named(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    write_yaml(path, dict(BASE, oracle="synthetic"))
    rc, err = run_cli(tmp_path, capsys, str(path))
    assert rc == 2
    assert "config section 'oracle' must be a mapping" in err


def test_network_size_counts_the_weights_of_each_block_kind():
    cat = ActionCatalog((LayerTemplate("conv", 3, 1, 1, channels=8),
                         LayerTemplate("dwconv", 3, 1, 1, channels=12),
                         LayerTemplate("pool", 2, 2),
                         LayerTemplate("skip"),
                         LayerTemplate("dense", channels=10)), max_depth=5)
    net = CandidateNetwork((3, 16, 16))
    sizes = []
    for action in range(5):
        net = grow(net, cat, action)
        sizes.append(network_size(net))
    # conv 3x3, 3 -> 8 channels; dwconv 3x3 on 8 channels, then 8 -> 12;
    # pool and skip hold no weights; dense from 12x8x8 to 10
    conv, dwconv, dense = 9 * 3 * 8, 9 * 8 + 8 * 12, 12 * 8 * 8 * 10
    assert sizes == [conv, conv + dwconv, conv + dwconv, conv + dwconv,
                     conv + dwconv + dense]


def test_reference_network_built_once_per_search(tmp_path, monkeypatch):
    calls = []
    build = harness.reference_network

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(harness, "reference_network", counted)
    report = cmd_search(write_config(tmp_path), seed=0, replicates=3, jobs=1,
                        out_dir=str(tmp_path / "out"))
    assert len(calls) == 1
    assert len(report["replicates"]) == 3


def test_replicate_flags_only_for_search_and_compare(tmp_path, capsys):
    cfg = write_config(tmp_path, SYNTH)
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-synth", "--config", cfg, "--jobs", "2",
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


# dwconv with expansion 2.5 and id_skip, dense and skip layers; task
# features and a float memory budget small enough for infeasible rows
PINNED_CORPUS = {
    "catalog": {"max_depth": 5, "actions": [
        {"block_kind": "conv", "kernel_size": 3, "stride": 1, "padding": 1,
         "channels": 8},
        {"block_kind": "dwconv", "kernel_size": 3, "stride": 2, "padding": 1,
         "channels": 12, "expansion_ratio": 2.5, "id_skip": True},
        {"block_kind": "dense", "channels": 10},
        {"block_kind": "skip"},
    ]},
    "contexts": [
        {"cores": 8, "compute_units": 2, "memory_mb": 4096,
         "clock_freq_mhz": 2800, "memory_bandwidth": 25.6,
         "processor_kind": "cpu", "task": [0.5, 1.5]},
        {"cores": 2, "compute_units": 1, "memory_mb": 2.75,
         "clock_freq_mhz": 1000, "memory_bandwidth": 6.4,
         "processor_kind": "dsp", "task": [0.25, 3.0]},
    ],
    "synth_stats": {"count": 40},
    "synth_stats_model": {"context_multipliers": [1.0, 2.5]},
}
PINNED_STATS_SHA = ("b40d3a58f45ff64ec0661f48b4c75418"
                    "db92825f155799a78589004af0606a06")


def test_gen_synth_stats_csv_bytes_pinned(tmp_path):
    """The stats-CSV bytes of a small corpus, recorded before the layer-row
    schema moved into design_space; no change that keeps results may move
    them. The values come from Python float arithmetic and PCG64 draws, so
    the digest does not depend on the host."""
    cfg = write_config(tmp_path, PINNED_CORPUS)
    path = cmd_gen_synth(cfg, seed=5, out_dir=str(tmp_path / "data"))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["Type"] for r in rows} >= {"dwconv", "dense", "skip"}
    assert {r["feasible"] for r in rows} == {"0", "1"}
    assert sha(path) == PINNED_STATS_SHA


@pytest.mark.parametrize("command, overrides, key", [
    ("search", {"secondry": {"kind": "none"}}, "'secondry'"),
    ("search", {"secondary": {"model_pth": "model.json"}},
     "'secondary.model_pth'"),
    ("search", {"catalog": {"max_dpeth": 3}}, "'catalog.max_dpeth'"),
    ("search", {"oracle": {"kind": "tabular", "path": "oracle.csv",
                           "pth": "oracle.csv"}}, "'oracle.pth'"),
    ("gen-synth", dict(SYNTH, synth_stats={"cuont": 10}),
     "'synth_stats.cuont'"),
    ("search", {"reference_chain": [0, 2]}, "'reference_chain'"),
], ids=["top_level", "secondary", "catalog", "tabular_oracle", "synth_stats",
        "reference_chain"])
def test_unknown_config_key_rejected(tmp_path, capsys, command, overrides,
                                     key):
    cfg = write_config(tmp_path, overrides)
    rc, err = run_cli(tmp_path, capsys, cfg, command=command)
    assert rc == 2
    assert f"unknown config key {key}" in err


def test_predictor_layer_memo_count_logged(tmp_path, caplog):
    cfg = predictor_setup(tmp_path, count=300)
    cmd_train_predictor(cfg, seed=0, out_dir=str(tmp_path / "model"))
    search_cfg = write_config(tmp_path, {
        "secondary": {"kind": "predictor",
                      "model_path": str(tmp_path / "model" / "model.json")},
        "shaping": {"episodes": 3, "epsilon0": [1.0, 1.0],
                    "budgets": [500.0, 500.0]},
    }, name="search.yaml")
    with caplog.at_level(logging.DEBUG, logger="shapenas.harness"):
        cmd_search(search_cfg, seed=0, replicates=1, jobs=1,
                   out_dir=str(tmp_path / "run"))
    [message] = [r.getMessage() for r in caplog.records
                 if "layer memo" in r.getMessage()]
    [layers] = map(int, re.findall(r"(\d+) layers", message))
    trace = (tmp_path / "run" / "trace_replicate_0.csv").read_text()
    records = len(trace.splitlines()) - 1
    # 3 episodes of up to 4 layers; the chains repeat their prefixes
    assert 0 < layers < records


def train_on_edited_stats(tmp_path, capsys, line, column, value):
    """Run ``train-predictor`` on a corpus whose cell at ``line`` of the
    stats CSV, in ``column``, reads ``value``; assert it exits 2 and writes
    no model, and return ``(stats path, stderr)``."""
    cfg = predictor_setup(tmp_path, count=100)
    stats = load_config(cfg)["predictor"]["stats_path"]
    with open(stats, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[line - 1][rows[0].index(column)] = value
    with open(stats, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning from a fit
        rc, err = run_cli(tmp_path, capsys, cfg, command="train-predictor")
    assert rc == 2
    assert not (tmp_path / "out" / "model.json").exists()
    return stats, err


def test_unknown_stats_level_exits_2_naming_cell(tmp_path, capsys):
    stats, err = train_on_edited_stats(tmp_path, capsys, 2, "Type", "Conv")
    assert f"{stats}:2: column 'Type': unknown block 'Conv'" in err


def test_non_finite_stats_feature_exits_2_naming_cell(tmp_path, capsys):
    stats, err = train_on_edited_stats(tmp_path, capsys, 4, "Memory", "nan")
    assert err == f"error: {stats}:4: non-finite value 'nan' in column " \
                  f"'Memory'\n"


def test_stats_without_processor_kind_exits_2_naming_column(tmp_path,
                                                          capsys):
    cfg = predictor_setup(tmp_path, count=100)
    stats = load_config(cfg)["predictor"]["stats_path"]
    drop_column(stats, "Processor Kind")
    rc, err = run_cli(tmp_path, capsys, cfg, command="train-predictor")
    assert rc == 2
    assert f"{stats}: missing required column 'Processor Kind'" in err
    assert not (tmp_path / "out" / "model.json").exists()


@pytest.mark.parametrize("context, mismatch", [
    ({"task": [0.5]}, "column 24 is missing, the context's is 'task_0'"),
], ids=["task_features"])
def test_predictor_columns_checked_against_context(tmp_path, capsys, context,
                                                   mismatch):
    cfg = predictor_setup(tmp_path, count=300)
    cmd_train_predictor(cfg, seed=0, out_dir=str(tmp_path / "model"))
    model = str(tmp_path / "model" / "model.json")
    search_cfg = write_config(tmp_path, {
        "context": context,
        "secondary": {"kind": "predictor", "model_path": model},
        "shaping": {"epsilon0": [1.0, 1.0], "budgets": [500.0, 500.0]},
    }, name="search.yaml")
    rc, err = run_cli(tmp_path, capsys, search_cfg)
    assert rc == 2
    assert f"config key 'secondary.model_path': the model in {model}" in err
    assert mismatch in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("setting, key", [
    ({"bag_size": 0}, "'predictor.bag_size'"),
    ({"test_fraction": 1.0}, "'predictor.test_fraction'"),
    ({"oversample_factor": "1.5e0"}, "'predictor.oversample_factor'"),
    ({"min_samples": 5000}, "config key 'predictor.min_samples': need >= "
     "5000 feasible rows, got "),
], ids=["empty_bag", "all_holdout", "factor_read_as_string",
        "min_samples_above_feasible_rows"])
def test_bad_predictor_setting_names_key(tmp_path, capsys, setting, key):
    cfg = predictor_setup(tmp_path, count=100)
    train = write_config(tmp_path, {"predictor": dict(
        load_config(cfg)["predictor"], **setting)}, name="bad.yaml")
    rc, err = run_cli(tmp_path, capsys, train, command="train-predictor")
    assert rc == 2
    assert key in err
    assert not (tmp_path / "out" / "model.json").exists()


def one_action_set(index, **setting):
    """A catalog override: BASE's actions, with ``setting`` on action
    ``index``."""
    actions = [dict(action) for action in BASE["catalog"]["actions"]]
    actions[index].update(setting)
    return {"catalog": {"actions": actions}}


NAN = float("nan")
INF = float("inf")

POOL_STRIDE_0 = {"catalog": {"actions": [
    {"block_kind": "conv", "kernel_size": 3, "stride": 1, "padding": 1,
     "channels": 8},
    {"block_kind": "pool", "kernel_size": 2, "stride": 0}]}}


@pytest.mark.parametrize("overrides, where", [
    ({"shaping": {"gamma": 1.5}},
     "config key 'shaping.gamma' must be in (0, 1), got 1.5"),
    ({"shaping": {"softmax_temperature": 0.0}},
     "config key 'shaping.softmax_temperature'"),
    (POOL_STRIDE_0, "config key 'catalog.actions[1].stride'"),
    ({"shaping": {"budgets": [1.0, 2.0]}},
     "config key 'shaping.budgets' must have as many entries as epsilon0 "
     "(1), got [1.0, 2.0]"),
    # each relation blames one field, and prints its value as the config
    # has it, or the field's own when the config leaves it at its default
    ({"shaping": {"epsilon0": [1.0, 1.0]}},
     "config key 'shaping.budgets' must have as many entries as epsilon0 "
     "(2), got [200.0]"),
    ({"shaping": {"epsilon0": [0.5], "epsilon_threshold": 0.6}},
     "config key 'shaping.epsilon_threshold' must be below each positive "
     "epsilon0, got 0.6"),
    ({"shaping": {"epsilon0": [0.005]}},
     "config key 'shaping.epsilon_threshold' must be below each positive "
     "epsilon0, got 0.01"),
    ({"shaping": {"max_steps": 0}}, "config key 'shaping.max_steps'"),
    ({"shaping": {"episodes": 0}}, "config key 'shaping.episodes'"),
    ({"shaping": {"episodes": -1}}, "config key 'shaping.episodes'"),
    ({"shaping": {"episodes": 2.5}}, "config key 'shaping.episodes'"),
    ({"shaping": {"warmup": -1}}, "config key 'shaping.warmup'"),
    ({"shaping": {"shaping_episodes": -1}},
     "config key 'shaping.shaping_episodes'"),
    # keys of epsilon schedules other than the primary-coupled one
    ({"shaping": {"delta_mode": "primary"}},
     "unknown config key 'shaping.delta_mode'"),
    ({"shaping": {"epsilon_cap": 1.5}},
     "unknown config key 'shaping.epsilon_cap'"),
    *(({"shaping": {"backend": "mlp", "hidden": hidden}},
       f"config key 'shaping.hidden' entries must be in [1, inf], got "
       f"{hidden!r}") for hidden in ([0], [-2])),
    *(({"shaping": {"backend": "mlp", "hidden": hidden}},
       f"config key 'shaping.hidden' must be a list of integers, got "
       f"{hidden!r}") for hidden in ([3.5], 7)),
    *(({"shaping": {"backend": "mlp", "q_step_size": step}},
       f"config key 'shaping.q_step_size' must be in (0, inf), got "
       f"{step!r}") for step in (-0.5, 0, float("nan"))),
    # train-predictor checks its section before it reads the stats file
    *(({"predictor": {"stats_path": "never_read.csv", key: value}},
       f"config key 'predictor.{key}'") for key, value in (
        ("rounds", 2.5), ("bag_size", 2.5), ("shrinkage", float("nan")),
        ("rounds", -1), ("max_depth", -2), ("max_depth", 1.5),
        ("shrinkage", -0.5), ("min_samples_leaf", -3),
        ("min_samples_leaf", 0.5), ("min_samples", -1),
        ("oversample_factor", float("nan")), ("oversample_factor", -3.0),
        ("oversample_factor", 0.5))),
    *((one_action_set(index, **{key: value}),
       f"config key 'catalog.actions[{index}].{key}' must be an integer, "
       f"got {value!r}")
      for index, key, value in (
          (2, "stride", 2.5), (0, "channels", 8.5), (0, "padding", 0.5),
          (1, "kernel_size", True))),
    *(({"shaping": {key: NAN}},
       f"config key 'shaping.{key}' must be in (0, inf], got nan")
      for key in ("beta", "softmax_temperature", "epsilon_threshold")),
    ({"shaping": {"budgets": [NAN]}},
     "config key 'shaping.budgets' entries must be in (0, inf], got [nan]"),
    *(({"shaping": {"epsilon0": [e0]}},
       f"config key 'shaping.epsilon0' entries must be in (-inf, inf), got "
       f"[{e0!r}]") for e0 in (NAN, float("inf"))),
    *(({"context": {key: NAN}},
       f"config key 'context.{key}' must be in [0, inf), got nan")
      for key in ("memory_mb", "memory_bandwidth")),
    (one_action_set(0, expansion_ratio=NAN),
     "config key 'catalog.actions[0].expansion_ratio' must be in (0, inf], "
     "got nan"),
    *((dict(SYNTH, synth_stats_model={"context_multipliers": multipliers}),
       f"config key 'synth_stats_model.context_multipliers' entries must be "
       f"in (0, inf), got {multipliers!r}")
      for multipliers in ([1.0, -2.5], [1.0, NAN], [0.0, 1.0])),
    *((dict(SYNTH, synth_stats_model={"context_multipliers": [1.0, 2.5],
                                      key: coeffs}),
       f"config key 'synth_stats_model.{key}' entries must be in [0, inf), "
       f"got {coeffs!r}")
      for key, coeffs in (("latency_coeffs", [0.5, -0.02, 0.05, 0.001]),
                          ("memory_coeffs", [NAN, 0.004]))),
    ({"shaping": {"tau": NAN}},
     "config key 'shaping.tau' must be in [-inf, inf], got nan"),
    *(({"context": {"task": [value]}}, f"config key 'context.task' entries "
       f"must be in (-inf, inf), got [{value!r}]")
      for value in (NAN, float("inf"))),
    (dict(SYNTH, contexts=[dict(SYNTH["contexts"][0], task=[0.5]),
                           dict(SYNTH["contexts"][1], task=[NAN])]),
     "config key 'contexts[1].task' entries must be in (-inf, inf), got "
     "[nan]"),
    # gen-synth would write inf feature cells that no predictor can fit
    (dict(SYNTH, contexts=[SYNTH["contexts"][0],
                           dict(SYNTH["contexts"][1], memory_mb=INF)]),
     "config key 'contexts[1].memory_mb' must be in [0, inf), got inf"),
], ids=["field_named", "second_of_two_fields", "template_field",
        "no_field_named", "epsilon0_longer_than_budgets",
        "threshold_above_epsilon0", "default_threshold_above_epsilon0",
        "no_steps", "no_episodes", "negative_episodes",
        "fractional_episodes", "negative_warmup",
        "negative_shaping_episodes", "unknown_delta_mode",
        "unknown_epsilon_cap", "zero_width_layer", "negative_width_layer",
        "fractional_width_layer", "hidden_not_a_list",
        "negative_q_step_size", "zero_q_step_size", "nan_q_step_size",
        "fractional_rounds", "fractional_bag_size", "nan_shrinkage",
        "negative_rounds", "negative_max_depth", "fractional_max_depth",
        "negative_shrinkage", "negative_min_samples_leaf",
        "fractional_min_samples_leaf", "negative_min_samples",
        "nan_oversample_factor", "negative_oversample_factor",
        "oversample_factor_below_one", "fractional_stride",
        "fractional_channels", "fractional_padding", "bool_kernel_size",
        "nan_beta", "nan_softmax_temperature", "nan_epsilon_threshold",
        "nan_budget", "nan_epsilon0", "infinite_epsilon0", "nan_memory_mb",
        "nan_memory_bandwidth", "nan_expansion_ratio",
        "negative_context_multiplier", "nan_context_multiplier",
        "zero_context_multiplier", "negative_latency_coeff",
        "nan_memory_coeff", "nan_tau", "nan_task", "infinite_task",
        "nan_gen_synth_task", "infinite_gen_synth_memory_mb"])
def test_dataclass_check_names_section_and_key(tmp_path, capsys, overrides,
                                               where):
    cfg = write_config(tmp_path, overrides)
    command = ("train-predictor" if "predictor" in overrides
               else "gen-synth" if "synth_stats_model" in overrides
               else "search")
    rc, err = run_cli(tmp_path, capsys, cfg, command=command)
    assert rc == 2
    assert where in err


# values of the wrong type for each annotation a config field carries; a
# field with a new annotation needs an entry here
WRONG_TYPE = {
    bool: ("no", 1), int: (2.5, True), float: ("1.0e9", True),
    str: (5, None), int | None: (2.5, True), tuple: ({"a": 1},),
    tuple[int, ...]: ([3.5], 7), tuple[float, ...]: (0.5, [True]),
    tuple[float, float]: (["a", 1], [1.0]),
    tuple[float, float, float, float]: ([1, 2], [1, 2, 3, "4"]),
    tuple[tuple[int, int, float], ...]: (0.5, "0,1,0.1", [[0, 1]],
                                         [[0, 1, "0.1"]]),
}
# each section build_section builds: its class, a command that reads it,
# and the overrides that set ``key`` to ``value`` there
FIELD_SECTIONS = [
    (LayerTemplate, "search", "catalog.actions[0]",
     lambda key, value: one_action_set(0, **{key: value})),
    (ContextSpec, "search", "context",
     lambda key, value: {"context": {key: value}}),
    (ShapingConfig, "search", "shaping",
     lambda key, value: {"shaping": {key: value}}),
    (SyntheticTaskSpec, "search", "oracle",
     lambda key, value: {"oracle": {key: value}}),
    (BobConfig, "train-predictor", "predictor",
     lambda key, value: {"predictor": {"stats_path": "never_read.csv",
                                       key: value}}),
    (SynthStatsModel, "gen-synth", "synth_stats_model",
     lambda key, value: dict(SYNTH, synth_stats_model={
         "context_multipliers": [1.0, 2.5], key: value})),
]


# the values of each class's required fields
REQUIRED = {
    LayerTemplate: {"block_kind": "conv"},
    ContextSpec: {"cores": 1, "compute_units": 1, "memory_mb": 1.0,
                  "clock_freq_mhz": 1.0, "memory_bandwidth": 1.0},
    SyntheticTaskSpec: {"base_utility": (0.1,)},
}


def as_tuples(value):
    """``value`` as a Python caller writes it: lists are tuples."""
    return tuple(map(as_tuples, value)) if isinstance(value, list) else value


def test_wrong_type_of_every_field_names_key(tmp_path, capsys):
    for cls, command, section, overrides in FIELD_SECTIONS:
        for field in dataclasses.fields(cls):
            hint = typing.get_type_hints(cls)[field.name]
            for value in WRONG_TYPE[hint]:
                cfg = write_config(tmp_path, overrides(field.name, value))
                rc, err = run_cli(tmp_path, capsys, cfg, command=command)
                assert rc == 2, (section, field.name, value)
                head = f"error: config key '{section}.{field.name}' "
                tail = f", got {value!r}\n"
                assert err.startswith(head + "must be "), err
                assert err.endswith(tail), err
                # the constructor keeps the same rule for a Python caller
                kwargs = dict(REQUIRED.get(cls, {}),
                              **{field.name: as_tuples(value)})
                with pytest.raises(FieldError) as exc:
                    cls(**kwargs)
                assert exc.value.name == field.name
                assert exc.value.rule == err[len(head):-len(tail)]


# a value of each type an ``X | None`` field may hold
VALID = {int: 2, float: 0.5, str: "primary"}


def test_every_optional_field_loads_a_value_and_null(tmp_path, capsys):
    optional = []
    for cls, command, section, overrides in FIELD_SECTIONS:
        for field in dataclasses.fields(cls):
            args = typing.get_args(typing.get_type_hints(cls)[field.name])
            if type(None) not in args:
                continue
            assert command == "search", (section, field.name)
            optional.append(field.name)
            for value in (VALID[args[0]], None):
                cfg = write_config(tmp_path, overrides(field.name, value))
                rc, err = run_cli(tmp_path, capsys, cfg, command=command)
                assert rc == 0, (section, field.name, value, err)
    assert "shaping_episodes" in optional


@pytest.mark.parametrize("level", ["debug", "warning"])
def test_log_level_shows_memo_log_and_traceback_only_at_debug(
        tmp_path, capsys, level):
    cfg = predictor_setup(tmp_path, count=300)
    cmd_train_predictor(cfg, seed=0, out_dir=str(tmp_path / "model"))
    search_cfg = write_config(tmp_path, {
        "secondary": {"kind": "predictor",
                      "model_path": str(tmp_path / "model" / "model.json")},
        "shaping": {"episodes": 3, "epsilon0": [1.0, 1.0],
                    "budgets": [500.0, 500.0]},
    }, name="search.yaml")
    assert cli.main(["search", "--config", search_cfg, "--log-level", level,
                     "--out", str(tmp_path / "run")]) == 0
    err = capsys.readouterr().err
    assert ("DEBUG shapenas.harness: predictor layer memo" in err) \
        == (level == "debug")
    bad = write_config(tmp_path, {"schema_version": 99}, name="bad.yaml")
    assert cli.main(["search", "--config", bad, "--log-level", level,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "schema_version 99" in err
    assert ("Traceback (most recent call last)" in err) == (level == "debug")


def test_compare_without_a_model_never_imports_orjson(tmp_path):
    # load_model imports orjson itself, so a command that loads no model
    # does not pay its import or its memory
    cfg = write_config(tmp_path, {"shaping": {"episodes": 3}})
    code = f"""
import sys
import shapenas.cli
assert "orjson" not in sys.modules
assert shapenas.cli.main(["compare", "--config", {cfg!r},
                          "--out", {str(tmp_path / "out")!r}]) == 0
assert "orjson" not in sys.modules, "compare imported orjson"
try:
    shapenas.bob.load_model({str(tmp_path / "missing.json")!r})
except OSError:
    pass
assert "orjson" in sys.modules, "load_model did not import orjson"
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


PINNED_MODEL_SHA = ("99837972dd16b9b82980ad37fbf1224f"
                    "0ae0d82a546cc96bda05a430e1c8bc26")


def test_train_predictor_model_bytes_pinned(tmp_path):
    """The model.json bytes of a small bag with a gate and oversampling,
    recorded before the boosted fit handed one presort to every round; no
    change that keeps results may move them."""
    gen = write_config(tmp_path, dict(PINNED_CORPUS,
                                      synth_stats={"count": 300}),
                       name="gen.yaml")
    stats = cmd_gen_synth(gen, seed=5, out_dir=str(tmp_path / "data"))
    train = write_config(tmp_path, {"predictor": {
        "stats_path": stats, "bag_size": 3, "rounds": 8, "min_samples": 10,
        "min_samples_leaf": 3, "oversample_factor": 1.5}}, name="train.yaml")
    cmd_train_predictor(train, seed=2, out_dir=str(tmp_path / "model"))
    path = tmp_path / "model" / "model.json"
    assert json.loads(path.read_text())["gate"] is not None
    assert sha(path) == PINNED_MODEL_SHA
