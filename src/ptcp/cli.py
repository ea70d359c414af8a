"""Command line interface: transfer endpoints and the experiment driver.

Exit codes: 0 success, 2 network failure (unreachable peer, bind error),
3 transfer failed (broken stream, digest mismatch), 64 usage error (bad
flags, a config error, or a sweep whose flows deliver nothing to measure).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from contextlib import closing
from dataclasses import replace
from pathlib import Path

from . import harness
from .metrics import UndefinedFairnessError
from .striping import DEFAULT_IDLE_TIMEOUT, FailureKind, Receiver, send_transfer
from .transport import TcpTransport

EXIT_OK = 0
EXIT_NETWORK = 2
EXIT_TRANSFER = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # also False for nan
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _host_port(text: str) -> tuple[str, int]:
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"port must be an integer, got {port_text!r}") from None
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port must be in [0, 65535], got {port}")
    return host, port


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ptcp", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    send = commands.add_parser("send", help="send a file over striped connections")
    send.add_argument("--to", type=_host_port, required=True, metavar="HOST:PORT")
    send.add_argument("--file", required=True, help="payload file to send")
    send.add_argument(
        "--streams", type=_positive_int, default=4, help="parallel connection count"
    )
    send.set_defaults(run=cmd_send)

    recv = commands.add_parser("recv", help="receive transfers and write payloads")
    recv.add_argument(
        "--listen", type=_host_port, default=("127.0.0.1", 0), metavar="HOST:PORT"
    )
    recv.add_argument("--out", default=".", help="directory for received payloads")
    recv.add_argument("--once", action="store_true", help="exit after one transfer")
    recv.add_argument(
        "--idle-timeout",
        type=_positive_seconds,
        default=DEFAULT_IDLE_TIMEOUT,
        help="per-connection stall limit in seconds",
    )
    recv.set_defaults(run=cmd_recv)

    experiment = commands.add_parser("experiment", help="run the sweep described by a config file")
    experiment.add_argument("--config", required=True, help="key=value experiment config")
    experiment.add_argument("--out", help="override the configured output directory")
    experiment.add_argument(
        "--traces", action="store_true", help="also write per-flow trace CSVs"
    )
    experiment.set_defaults(run=cmd_experiment)

    report = commands.add_parser("report", help="summarize experiment output CSVs")
    report.add_argument("--dir", required=True, help="experiment output directory")
    report.set_defaults(run=cmd_report)
    return parser


def cmd_send(args) -> int:
    try:
        payload = Path(args.file).read_bytes()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    host, port = args.to
    with closing(TcpTransport(host, port)) as transport:  # ends our parked workers and the peer's at once
        report = send_transfer(payload, transport, args.streams)
    rate = report.bytes_sent * 8 / report.wall_time / 1e6 if report.wall_time > 0 else 0.0
    status = "OK" if report.ok else f"FAILED ({report.failure_reason})"
    print(
        f"transfer {report.transfer_id.hex()}: {report.bytes_sent} bytes over "
        f"{args.streams} connections in {report.wall_time:.3f} s "
        f"({rate:.2f} Mbit/s): {status}"
    )
    for stat in report.per_connection:
        print(
            f"  connection {stat.chunk_index}: {stat.bytes} bytes "
            f"[{stat.start_time:.3f} s .. {stat.end_time:.3f} s]"
        )
    if report.ok:
        return EXIT_OK
    if report.failure_kind is FailureKind.CONNECT:
        return EXIT_NETWORK
    return EXIT_TRANSFER


def cmd_recv(args) -> int:
    host, port = args.listen
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def sink(transfer_id: bytes, payload: bytearray) -> None:
        path = out_dir / f"{transfer_id.hex()}.bin"
        path.write_bytes(payload)
        print(f"wrote {path}")

    transport = TcpTransport(host, port)
    try:
        receiver = Receiver(transport, sink, idle_timeout=args.idle_timeout)
    except OSError as exc:
        print(f"cannot listen on {host}:{port}: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    print(f"listening on {host}:{transport.port}", flush=True)
    try:
        while True:
            result = receiver.serve_one()
            if result.ok:
                print(
                    f"received {result.transfer_id.hex()}: {result.total_size} bytes "
                    f"in {result.wall_time:.3f} s over {len(result.per_connection)} connections"
                )
            else:
                print(f"transfer {result.transfer_id.hex()} failed: {result.reason}")
            if args.once:
                return EXIT_OK if result.ok else EXIT_TRANSFER
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        receiver.close()


def cmd_experiment(args) -> int:
    try:
        config = harness.parse_experiment(Path(args.config).read_text())
    except OSError as exc:
        print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        config = replace(config, out_dir=args.out)
    try:
        harness.run_experiment(config, write_traces=args.traces, log=print)
    except UndefinedFairnessError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"results written to {config.out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    out = Path(args.dir)
    throughput_path = out / "throughput.csv"
    fairness_path = out / "fairness.csv"
    if not throughput_path.exists() or not fairness_path.exists():
        print(f"no experiment output in {out}", file=sys.stderr)
        return EXIT_USAGE

    def rows(path, *columns) -> dict[int, list[list[float]]]:
        """The named columns of each row, as numbers, by level; a missing
        column or a malformed value is a ValueError naming the file."""
        by_level: dict[int, list[list[float]]] = {}
        with path.open(newline="") as fh:
            try:
                for row in csv.DictReader(fh):
                    by_level.setdefault(int(row["n"]), []).append([float(row[c]) for c in columns])
            except KeyError as exc:
                raise ValueError(f"{path}: no {exc} column") from None
            except (TypeError, ValueError) as exc:  # TypeError: a short row's None
                raise ValueError(f"{path}: {exc}") from None
        return by_level

    try:
        throughput = rows(throughput_path, "targeted_bps", "background_bps", "throughput_ratio")
        fairness = rows(fairness_path, "jfi_per_flow", "targeted_share")
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    if not throughput:
        print(f"{throughput_path}: no rows", file=sys.stderr)
        return EXIT_USAGE
    extra = next((n for n in fairness if n not in throughput), None)
    if extra is not None:
        print(f"{fairness_path}: level n={extra} is not in {throughput_path.name}", file=sys.stderr)
        return EXIT_USAGE
    missing = next((n for n in sorted(throughput) if n not in fairness), None)
    if missing is not None:
        print(f"{fairness_path}: no row for level n={missing} of {throughput_path.name}", file=sys.stderr)
        return EXIT_USAGE

    def means(cells):
        return [sum(column) / len(column) for column in zip(*cells)]

    print(f"{'n':>4} {'targeted Mbit/s':>16} {'background Mbit/s':>18} {'ratio':>8} {'JFI':>8} {'targeted share':>15}")
    for n in sorted(throughput):
        targeted, background, ratio = means(throughput[n])
        jfi, share = means(fairness[n])
        print(
            f"{n:>4} {targeted / 1e6:>16.3f} {background / 1e6:>18.3f} "
            f"{ratio:>8.3f} {jfi:>8.4f} {share:>15.3f}"
        )
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
