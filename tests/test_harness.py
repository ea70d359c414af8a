"""Tests for experiment orchestration, output files, and the CLI."""

import hashlib
import socket
import subprocess
import sys
import threading
import re
import signal
import time
from dataclasses import replace
from pathlib import Path

import pytest

from ptcp import harness, simnet
from ptcp.cli import EXIT_NETWORK, EXIT_OK, EXIT_TRANSFER, EXIT_USAGE, build_parser, main
from ptcp.harness import (
    ExperimentConfig,
    experiment_from_keys,
    parse_experiment,
    parse_kv,
    run_experiment,
    run_level,
)
from ptcp.striping import DEFAULT_IDLE_TIMEOUT
from ptcp.wire import Fin, encode_frame, sha256

SIM_CONFIG = """
# small deterministic sweep
levels = 1,2
repetitions = 2
capacity_bps = 10000000
one_way_delay_s = 0.05
queue_limit_pkts = 50
loss_prob = 0.01
seed = 7
duration_s = 8.0
"""


# At the default loss_prob = 0 the link seed is never drawn, so every
# repetition of a level repeats the same simulation.
LOSSLESS_CONFIG = """
levels = 1,2
repetitions = 3
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


def test_parse_kv_hash_inside_a_value_is_not_a_comment():
    assert parse_kv("out = /tmp/run#2  # note\n#out=x\n") == {"out": "/tmp/run#2"}


def test_parse_kv_rejects_duplicates_and_garbage():
    with pytest.raises(ValueError, match="duplicate key a"):
        parse_kv("a=1\na=2\n")
    with pytest.raises(ValueError, match="expected key=value"):
        parse_kv("not a pair\n")


def test_defaults_resolve():
    config = experiment_from_keys({})
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
    background_flows = 2
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
        ({"mode": "sockets"}, "mode"),  # socket-mode keys are unknown now
        ({"levels": "1,2,two"}, "levels"),
        ({"levels": "0,1"}, "levels"),
        ({"levels": "4,4"}, "levels"),
        ({"payload_bytes": "4194304"}, "payload_bytes"),
        ({"seed": "-1"}, "seed"),
        ({"repetitions": "0"}, "repetitions"),
        ({"port": "0"}, "port"),
        ({"background_flows": "0"}, "background_flows"),
        ({"loss_prob": "1.5"}, "loss_prob"),
        ({"bandwidth": "fast"}, "bandwidth"),
        ({"queue_limit_pkts": "zero"}, "queue_limit_pkts"),
        ({"background_flows": "two"}, "background_flows"),
        ({"duration_s": "0.5"}, "duration_s"),  # ends before the targeted flows start
    ],
)
def test_config_errors_name_the_offending_key(overrides, key):
    with pytest.raises(ValueError, match=key) as excinfo:
        experiment_from_keys(dict(overrides))
    if key in ("mode", "payload_bytes", "port", "bandwidth"):
        assert str(excinfo.value) == f"unknown config key: {key}"


def test_readme_config_block_shows_the_defaults():
    # The README's config block is the key table's documentation: every key,
    # each at its default, and nothing the table does not have.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
    assert parse_kv(block) == {key: spec.default for key, spec in harness._KEYS.items()}


def test_levels_are_sorted():
    config = experiment_from_keys({"levels": "8,1,4"})
    assert config.levels == (1, 4, 8)


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
        "# rng=pcg64\n"
        "background_flows=1\n"
        "capacity_bps=10000000.0\n"
        "duration_s=8.0\n"
        "levels=1,2\n"
        "loss_prob=0.01\n"
        "mss_bytes=1500\n"
        "one_way_delay_s=0.05\n"
        f"out={out}\n"
        "queue_limit_pkts=50\n"
        "repetitions=2\n"
        "seed=7\n"
    )


@pytest.mark.parametrize(
    "text",
    [
        "",  # the defaults
        # values that six significant digits would round
        "capacity_bps = 12345678.9\none_way_delay_s = 0.0123456789\nloss_prob = 0.00123456789\n"
        "duration_s = 7.654321\nlevels = 16,3\nbackground_flows = 3\nseed = 11\n",
    ],
    ids=["defaults", "awkward-values"],
)
def test_meta_text_parses_back_to_its_config(text):
    config = parse_experiment(text)
    assert parse_experiment(harness._meta_text(config)) == config


def test_meta_text_keeps_a_hash_in_the_out_dir():
    config = replace(parse_experiment(""), out_dir="/tmp/run#2")
    assert parse_experiment(harness._meta_text(config)) == config


def test_experiment_replays_from_its_meta(sim_results, tmp_path, capsys):
    config, results, out = sim_results
    replay = tmp_path / "replay"
    assert main(["experiment", "--config", str(out / "meta.txt"), "--out", str(replay)]) == EXIT_OK
    for name in ("throughput.csv", "fairness.csv"):
        assert (replay / name).read_bytes() == (out / name).read_bytes()


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


def test_lossy_sweep_csv_golden(sim_results):
    # Pins the lossy sweep's results: a simulator or harness change that
    # keeps behaviour keeps these digests.
    config, results, out = sim_results
    assert file_digests([out / "throughput.csv", out / "fairness.csv"]) == {
        "throughput.csv": "62550b2ecea6b2f9daa32cf1b09574a0338e8870e6c44ef53de56db77b8ac3b3",
        "fairness.csv": "5eeb24b2b6c2de3756c926083e7d8906f3e22019143311b8bfc9511cbcfc0052",
    }


def test_lossless_sweep_csv_golden(tmp_path):
    config = parse_experiment(LOSSLESS_CONFIG + f"out = {tmp_path}\n")
    run_experiment(config)
    assert file_digests([tmp_path / "throughput.csv", tmp_path / "fairness.csv"]) == {
        "throughput.csv": "bfbb2ff250a60c67f9a235671b5903c1d6bcb850845f0874d5ce67986d43451b",
        "fairness.csv": "7e31f9b7b41568c0f070ca26d51632a9113e27eb02e56ea495adf97a537b38f0",
    }


def count_run_level(monkeypatch) -> list[tuple[int, int]]:
    """Record the (n, rep) of every ``harness.run_level`` call."""
    calls = []
    original = harness.run_level

    def counted(config, n, rep):
        calls.append((n, rep))
        return original(config, n, rep)

    monkeypatch.setattr(harness, "run_level", counted)
    return calls


def test_lossless_repetitions_share_one_simulation(tmp_path, monkeypatch):
    calls = count_run_level(monkeypatch)
    config = parse_experiment(LOSSLESS_CONFIG.replace("8.0", "3.0") + f"out = {tmp_path}\n")
    results = run_experiment(config, write_traces=True)
    assert calls == [(1, 0), (2, 0)]
    assert [(r.n, r.rep) for r in results] == [(n, rep) for n in (1, 2) for rep in range(3)]
    for name in ("throughput.csv", "fairness.csv"):
        rows = [line.split(",") for line in (tmp_path / name).read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == ["0", "1", "2"] * 2
        for level in (rows[:3], rows[3:]):
            assert all(row[:1] + row[2:] == level[0][:1] + level[0][2:] for row in level)
    for n in config.levels:
        traces = [(tmp_path / f"traces_n{n}_rep{rep}.csv").read_bytes() for rep in range(3)]
        assert traces[0] == traces[1] == traces[2]
    assert results[1].traces == results[0].traces
    assert results[1].traces is not results[0].traces


def test_lossy_sweep_simulates_every_cell(tmp_path, monkeypatch):
    calls = count_run_level(monkeypatch)
    config = parse_experiment(SIM_CONFIG.replace("8.0", "3.0") + f"\nout = {tmp_path}\n")
    run_experiment(config)
    assert calls == [(n, rep) for n in (1, 2) for rep in range(2)]


def test_rerun_same_seed_is_byte_identical(tmp_path):
    text = "levels = 1,2\nrepetitions = 1\nduration_s = 5.0\nloss_prob = 0.01\nseed = 7\n"
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
    assert tg_first - bg_first >= int(0.8 / simnet.TRACE_BUCKET_WIDTH)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_streams_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["send", "--to", "127.0.0.1:9", "--file", "x", "--streams", "0"])
    assert excinfo.value.code == EXIT_USAGE


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_cli_recv_idle_timeout_must_be_positive_and_finite(value, capsys):
    # Any of these made every worker's socket fail before HELLO, so --once hung.
    with pytest.raises(SystemExit) as excinfo:
        main(["recv", "--listen", "127.0.0.1:0", "--once", "--idle-timeout", value])
    assert excinfo.value.code == EXIT_USAGE
    assert "--idle-timeout" in capsys.readouterr().err


def test_cli_recv_idle_timeout_defaults_to_the_receivers():
    assert build_parser().parse_args(["recv"]).idle_timeout == DEFAULT_IDLE_TIMEOUT


def test_cli_bad_host_port_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["send", "--to", "nowhere", "--file", "x"])
    assert excinfo.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    ("port", "message"),
    [("http", "port must be an integer, got 'http'"), ("65536", "port must be in [0, 65535], got 65536")],
    ids=["not-an-integer", "out-of-range"],
)
def test_cli_bad_port_is_usage_error(port, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["send", "--to", f"127.0.0.1:{port}", "--file", "x"])
    assert excinfo.value.code == EXIT_USAGE
    assert message in capsys.readouterr().err


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
        server.shutdown(socket.SHUT_RDWR)  # wakes the slammer's accept()
        server.close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert code == EXIT_TRANSFER
    out = capsys.readouterr().out
    assert "FAILED" in out


def test_cli_send_bad_receipt_is_transfer_error(tmp_path, capsys):
    # A receiver that answers the FIN with another digest: the sender
    # reports a corrupt chunk, a failed transfer.
    data = b"r" * 10_000
    payload = tmp_path / "payload.bin"
    payload.write_bytes(data)
    fin = encode_frame(Fin(0, sha256(data)))  # one stream, so chunk 0 is the payload
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def bogus_receiver():
        conn, _ = server.accept()
        with conn:
            received = b""
            while not received.endswith(fin) and (piece := conn.recv(65536)):
                received += piece
            conn.sendall(encode_frame(Fin(0, bytes(32))))
            conn.recv(1)  # until the sender hangs up

    thread = threading.Thread(target=bogus_receiver, daemon=True)
    thread.start()
    try:
        code = main(["send", "--to", f"127.0.0.1:{port}", "--file", str(payload), "--streams", "1"])
    finally:
        thread.join(timeout=5.0)
        server.close()
    assert not thread.is_alive()
    assert code == EXIT_TRANSFER
    assert "FAILED (corrupt-chunk: receiver digest mismatch on chunk 0)" in capsys.readouterr().out


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


def test_cli_recv_ends_cleanly_on_ctrl_c(tmp_path):
    # An idle receiver blocks in serve_one(), on its completions channel;
    # SIGINT must still reach it and end the command with exit code 0.
    recv = subprocess.Popen(
        [sys.executable, "-m", "ptcp", "recv", "--listen", "127.0.0.1:0", "--out", str(tmp_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert recv.stdout.readline().startswith("listening on ")
        time.sleep(0.2)  # let it block in serve_one()
        recv.send_signal(signal.SIGINT)
        assert recv.wait(timeout=5) == EXIT_OK
    finally:
        recv.kill()
        recv.communicate()  # reap the process and close its pipes


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
    config.write_text("queue_limit_pkts = banana\n")
    code = main(["experiment", "--config", str(config)])
    assert code == EXIT_USAGE
    assert "queue_limit_pkts" in capsys.readouterr().err


def test_cli_experiment_with_nothing_to_measure_is_usage_error(tmp_path, capsys):
    # Every segment is still in flight when the run ends, so the steady
    # window holds no delivered byte and fairness is undefined.
    config = tmp_path / "far.conf"
    config.write_text(f"one_way_delay_s = 100\nduration_s = 5\nout = {tmp_path / 'out'}\n")
    code = main(["experiment", "--config", str(config)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("experiment failed: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_experiment_with_silent_targeted_flows_is_usage_error(tmp_path, capsys):
    # The targeted flows start at the 1.0 s head start and deliver nothing
    # before a 1.05 s run ends: a zero-throughput row would measure nothing.
    config = tmp_path / "short.conf"
    config.write_text(f"levels = 1,2\nduration_s = 1.05\nout = {tmp_path / 'out'}\n")
    code = main(["experiment", "--config", str(config)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("experiment failed: n=1 rep=0: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "throughput.csv").exists()


def test_cli_experiment_missing_config(tmp_path, capsys):
    code = main(["experiment", "--config", str(tmp_path / "none.conf")])
    assert code == EXIT_USAGE


def test_cli_experiment_and_report(tmp_path, capsys):
    config = tmp_path / "sweep.conf"
    config.write_text(
        "levels = 1,2\nrepetitions = 1\nduration_s = 5.0\n"
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


THROUGHPUT_HEADER = "n,rep,targeted_bps,background_bps,throughput_ratio\n"
FAIRNESS_HEADER = "n,rep,jfi_per_flow,targeted_share,background_share\n"


@pytest.mark.parametrize(
    ("throughput", "fairness", "message"),
    [
        (
            THROUGHPUT_HEADER + "1,0,5e6,5e6,1.0\n",
            FAIRNESS_HEADER + "1,0,0.9,0.5,0.5\n2,0,0.9,0.6,0.4\n",
            "fairness.csv: level n=2 is not in throughput.csv",
        ),
        (
            THROUGHPUT_HEADER + "1,0,5e6,5e6,1.0\n2,0,6e6,4e6,1.5\n",
            FAIRNESS_HEADER + "1,0,0.9,0.5,0.5\n",
            "fairness.csv: no row for level n=2 of throughput.csv",
        ),
        (THROUGHPUT_HEADER, FAIRNESS_HEADER, "throughput.csv: no rows"),
        (
            "n,rep,targeted_bps,throughput_ratio\n1,0,5e6,1.0\n",
            FAIRNESS_HEADER + "1,0,0.9,0.5,0.5\n",
            "throughput.csv: no 'background_bps' column",
        ),
        (
            THROUGHPUT_HEADER + "1,0,5e6,5e6,1.0\n",
            FAIRNESS_HEADER + "1,0,abc,0.5,0.5\n",
            "fairness.csv: could not convert string to float: 'abc'",
        ),
    ],
    ids=[
        "level-missing-from-throughput",
        "level-missing-from-fairness",
        "header-only",
        "column-missing",
        "not-a-number",
    ],
)
def test_cli_report_mismatched_csvs_are_usage_errors(tmp_path, capsys, throughput, fairness, message):
    (tmp_path / "throughput.csv").write_text(throughput)
    (tmp_path / "fairness.csv").write_text(fairness)
    code = main(["report", "--dir", str(tmp_path)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(message + "\n") and captured.err.count("\n") == 1
