"""Tests for experiment orchestration, output files, and the CLI."""

import hashlib
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from ptcp import harness
from ptcp.cli import EXIT_NETWORK, EXIT_OK, EXIT_TRANSFER, EXIT_USAGE, main
from ptcp.harness import (
    ExperimentConfig,
    experiment_from_keys,
    load_experiment,
    parse_experiment,
    parse_kv,
    run_experiment,
    run_level,
)
from ptcp.wire import sha256

SIM_CONFIG = """
# small deterministic sweep
mode = sim
levels = 1,2
repetitions = 2
capacity_bps = 10000000
one_way_delay_s = 0.05
queue_limit_pkts = 50
loss_prob = 0.01
seed = 7
duration_s = 8.0
"""


def file_digests(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_parse_kv_basics():
    kv = parse_kv("a = 1\n# comment\n\nb=two # trailing\n")
    assert kv == {"a": "1", "b": "two"}


def test_parse_kv_rejects_duplicates_and_garbage():
    with pytest.raises(ValueError, match="duplicate key a"):
        parse_kv("a=1\na=2\n")
    with pytest.raises(ValueError, match="expected key=value"):
        parse_kv("not a pair\n")


def test_defaults_resolve():
    config = experiment_from_keys({})
    assert config.mode == "sim"
    assert config.levels == (1, 2, 4, 8, 16)
    assert config.repetitions == 3
    assert config.background_count == 1
    assert config.link.capacity == 10_000_000
    assert config.link.one_way_delay == 0.05
    assert config.link.queue_limit == 50
    assert config.link.mss == 1500
    assert config.link.loss_probability == 0.0
    assert config.link.seed == 0
    assert config.duration == 30.0
    assert config.payload_size == 4 * 1024 * 1024
    assert (config.host, config.port) == ("127.0.0.1", 0)
    assert config.out_dir == "results"


def test_config_full_parse():
    config = parse_experiment(SIM_CONFIG)
    assert config.levels == (1, 2)
    assert config.repetitions == 2
    assert config.link.loss_probability == 0.01
    assert config.link.seed == 7
    assert config.duration == 8.0


def test_link_keys_full_parse():
    text = """
    capacity_bps = 50000000
    one_way_delay_s = 0.02
    queue_limit_pkts = 80
    loss_prob = 0.01
    mss_bytes = 1200
    seed = 42
    duration_s = 12.5
    flows = 4+2
    """
    config = parse_experiment(text)
    assert config.link.capacity == 50_000_000
    assert config.link.one_way_delay == 0.02
    assert config.link.queue_limit == 80
    assert config.link.loss_probability == 0.01
    assert config.link.mss == 1200
    assert config.link.seed == 42
    assert config.duration == 12.5
    assert config.background_count == 2


@pytest.mark.parametrize(
    ("overrides", "key"),
    [
        ({"mode": "telepathy"}, "mode"),
        ({"levels": "1,2,two"}, "levels"),
        ({"levels": "0,1"}, "levels"),
        ({"levels": "4,4"}, "levels"),
        ({"payload_bytes": "-5"}, "payload_bytes"),
        ({"payload_bytes": "much"}, "payload_bytes"),
        ({"repetitions": "0"}, "repetitions"),
        ({"port": "99999"}, "port"),
        ({"flows": "4+0"}, "flows"),
        ({"loss_prob": "1.5"}, "loss_prob"),
        ({"bandwidth": "fast"}, "bandwidth"),
        ({"queue_limit_pkts": "zero"}, "queue_limit_pkts"),
        ({"flows": "4"}, "flows"),
    ],
)
def test_config_errors_name_the_offending_key(overrides, key):
    with pytest.raises(ValueError, match=key):
        experiment_from_keys(dict(overrides))


def test_levels_are_sorted():
    config = experiment_from_keys({"levels": "8,1,4"})
    assert config.levels == (1, 4, 8)


def test_load_experiment(tmp_path):
    path = tmp_path / "sweep.conf"
    path.write_text(SIM_CONFIG)
    assert load_experiment(path) == parse_experiment(SIM_CONFIG)


# ---------------------------------------------------------------------------
# Simulated experiments
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sim_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    config = parse_experiment(SIM_CONFIG + f"\nout = {out}\n")
    results = run_experiment(config, write_traces=True)
    return config, results, out


def test_throughput_csv_schema(sim_results):
    config, results, out = sim_results
    lines = (out / "throughput.csv").read_text().splitlines()
    assert lines[0] == "n,rep,targeted_bps,background_bps,throughput_ratio"
    assert len(lines) == 1 + len(config.levels) * config.repetitions
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0"
    assert float(first[2]) > 0
    assert 0 <= float(first[4]) <= 1.5


def test_fairness_csv_schema(sim_results):
    config, results, out = sim_results
    lines = (out / "fairness.csv").read_text().splitlines()
    assert lines[0] == "n,rep,jfi_per_flow,targeted_share,background_share"
    assert len(lines) == 1 + len(config.levels) * config.repetitions
    for line in lines[1:]:
        n, rep, jfi, targeted, background = line.split(",")
        assert 0 < float(jfi) <= 1.0
        assert abs(float(targeted) + float(background) - 1.0) < 1e-6


def test_meta_records_resolved_config(sim_results):
    config, results, out = sim_results
    assert (out / "meta.txt").read_text() == (
        "capacity_bps=1e+07\n"
        "duration_s=8\n"
        "flows=sweep+1\n"
        "host=127.0.0.1\n"
        "levels=1,2\n"
        "loss_prob=0.01\n"
        "mode=sim\n"
        "mss_bytes=1500\n"
        "one_way_delay_s=0.05\n"
        f"out={out}\n"
        "payload_bytes=4194304\n"
        "port=0\n"
        "queue_limit_pkts=50\n"
        "repetitions=2\n"
        "rng=pcg64\n"
        "seed=7\n"
    )


def test_trace_files_written(sim_results):
    config, results, out = sim_results
    for n in config.levels:
        for rep in range(config.repetitions):
            path = out / f"traces_n{n}_rep{rep}.csv"
            lines = path.read_text().splitlines()
            assert lines[0] == "flow_id,role,bucket_width_s,bucket_index,delivered_bytes"
            # one background and n targeted flows, all buckets written
            flow_ids = {line.split(",")[0] for line in lines[1:]}
            assert flow_ids == {"background-0"} | {f"targeted-{i}" for i in range(n)}


def test_rerun_same_seed_is_byte_identical(tmp_path):
    text = "mode = sim\nlevels = 1,2\nrepetitions = 1\nduration_s = 5.0\nloss_prob = 0.01\nseed = 7\n"
    config_a = parse_experiment(text + f"out = {tmp_path / 'a'}\n")
    config_b = parse_experiment(text + f"out = {tmp_path / 'b'}\n")
    paths_a = [p for p in harness.write_outputs(config_a, run_experiment(config_a)) if p.suffix == ".csv"]
    paths_b = [p for p in harness.write_outputs(config_b, run_experiment(config_b)) if p.suffix == ".csv"]
    assert file_digests(paths_a) == file_digests(paths_b)


def test_reps_use_distinct_seeds(sim_results):
    config, results, out = sim_results
    by_cell = {(r.n, r.rep): r for r in results}
    assert by_cell[(1, 0)].targeted_bps != by_cell[(1, 1)].targeted_bps


def test_n1_row_equals_dedicated_single_run(sim_results):
    config, results, out = sim_results
    row = next(r for r in results if r.n == 1 and r.rep == 0)
    dedicated = run_level(config, 1, 0)
    assert dedicated.targeted_bps == row.targeted_bps
    assert dedicated.background_bps == row.background_bps
    assert dedicated.fairness.fairness_index == row.fairness.fairness_index


def test_background_head_start_shows_in_traces(sim_results):
    config, results, out = sim_results
    row = results[0]
    by_id = {t.flow_id: t for t in row.traces}
    bg_first = next(i for i, v in enumerate(by_id["background-0"].buckets) if v > 0)
    tg_first = next(i for i, v in enumerate(by_id["targeted-0"].buckets) if v > 0)
    # the background flow is established about a second earlier
    assert tg_first - bg_first >= int(0.8 / harness.TRACE_BUCKET_WIDTH)


# ---------------------------------------------------------------------------
# Socket-mode experiment
# ---------------------------------------------------------------------------


def test_socket_mode_level(tmp_path):
    config = experiment_from_keys(
        {
            "mode": "sockets",
            "levels": "2",
            "repetitions": "1",
            "payload_bytes": str(512 * 1024),
            "out": str(tmp_path / "sock"),
        }
    )
    result = run_level(config, 2, 0)
    assert result.n == 2
    assert result.targeted_bps > 0
    assert result.background_bps > 0
    roles = {t.role for t in result.traces}
    assert roles == {"targeted", "background"}
    assert sum(t.role == "targeted" for t in result.traces) == 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_streams_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["send", "--to", "127.0.0.1:9", "--file", "x", "--streams", "0"])
    assert excinfo.value.code == EXIT_USAGE


def test_cli_bad_host_port_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["send", "--to", "nowhere", "--file", "x"])
    assert excinfo.value.code == EXIT_USAGE


def test_cli_missing_file_is_usage_error(tmp_path, capsys):
    code = main(["send", "--to", "127.0.0.1:9", "--file", str(tmp_path / "absent.bin")])
    assert code == EXIT_USAGE


def test_cli_send_unreachable_is_network_error(tmp_path, capsys):
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens here now
    payload = tmp_path / "payload.bin"
    payload.write_bytes(b"x" * 1024)
    code = main(["send", "--to", f"127.0.0.1:{port}", "--file", str(payload), "--streams", "2"])
    assert code == EXIT_NETWORK


def test_cli_send_broken_receiver_is_transfer_error(tmp_path, capsys):
    # A listener that accepts and instantly closes breaks every stream
    # mid-transfer: reported as a failed transfer, not a network error.
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(8)
    port = server.getsockname()[1]
    stop = threading.Event()

    def slammer():
        while not stop.is_set():
            try:
                conn, _ = server.accept()
                conn.close()
            except OSError:
                return

    thread = threading.Thread(target=slammer, daemon=True)
    thread.start()
    payload = tmp_path / "payload.bin"
    payload.write_bytes(b"y" * (256 * 1024))
    try:
        code = main(["send", "--to", f"127.0.0.1:{port}", "--file", str(payload), "--streams", "2"])
    finally:
        stop.set()
        server.close()
    assert code == EXIT_TRANSFER
    out = capsys.readouterr().out
    assert "FAILED" in out


def test_cli_recv_bind_failure_is_network_error(capsys):
    taken = socket.socket()
    taken.bind(("127.0.0.1", 0))
    taken.listen(1)
    port = taken.getsockname()[1]
    try:
        code = main(["recv", "--listen", f"127.0.0.1:{port}", "--once"])
    finally:
        taken.close()
    assert code == EXIT_NETWORK


def test_cli_send_recv_roundtrip(tmp_path):
    payload = bytes((i * 31 + 7) % 256 for i in range(300_000))
    source = tmp_path / "source.bin"
    source.write_bytes(payload)
    out_dir = tmp_path / "received"

    recv = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "ptcp",
            "recv",
            "--listen",
            "127.0.0.1:0",
            "--out",
            str(out_dir),
            "--once",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = recv.stdout.readline().strip()
        assert banner.startswith("listening on ")
        port = int(banner.rsplit(":", 1)[1])
        code = main(
            ["send", "--to", f"127.0.0.1:{port}", "--file", str(source), "--streams", "4"]
        )
        assert code == EXIT_OK
        assert recv.wait(timeout=30) == EXIT_OK
    finally:
        recv.kill()
        recv.communicate()  # reap the process and close its pipes

    received = list(out_dir.glob("*.bin"))
    assert len(received) == 1
    assert sha256(received[0].read_bytes()) == sha256(payload)


def test_cli_send_prints_per_connection_rows(tmp_path, capsys):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"z" * 100_000)
    out_dir = tmp_path / "inbox"
    recv = subprocess.Popen(
        [sys.executable, "-m", "ptcp", "recv", "--listen", "127.0.0.1:0", "--out", str(out_dir), "--once"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        port = int(recv.stdout.readline().strip().rsplit(":", 1)[1])
        code = main(["send", "--to", f"127.0.0.1:{port}", "--file", str(payload), "--streams", "8"])
        recv.wait(timeout=30)
    finally:
        recv.kill()
        recv.communicate()  # reap the process and close its pipes
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("connection ") == 8
    assert ": OK" in out


def test_cli_experiment_bad_config_names_key(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("mode = sim\nqueue_limit_pkts = banana\n")
    code = main(["experiment", "--config", str(config)])
    assert code == EXIT_USAGE
    assert "queue_limit_pkts" in capsys.readouterr().err


def test_cli_experiment_missing_config(tmp_path, capsys):
    code = main(["experiment", "--config", str(tmp_path / "none.conf")])
    assert code == EXIT_USAGE


def test_cli_experiment_and_report(tmp_path, capsys):
    config = tmp_path / "sweep.conf"
    config.write_text(
        "mode = sim\nlevels = 1,2\nrepetitions = 1\nduration_s = 5.0\n"
        "loss_prob = 0.01\nseed = 3\n"
    )
    out = tmp_path / "results"
    code = main(["experiment", "--config", str(config), "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "throughput.csv").exists()

    code = main(["report", "--dir", str(out)])
    assert code == EXIT_OK
    table = capsys.readouterr().out
    assert "targeted Mbit/s" in table
    assert "\n   1 " in table and "\n   2 " in table


def test_cli_report_missing_dir(tmp_path, capsys):
    code = main(["report", "--dir", str(tmp_path / "empty")])
    assert code == EXIT_USAGE
