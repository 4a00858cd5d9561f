"""``python -m repro.serve`` — run the serve fabric in the foreground.

Thin argparse shell over :class:`repro.serve.server.ReproServer`; the
``repro serve`` CLI verb delegates here.  Prints ``serving on http://...``
once the socket is bound (the CI smoke harness and ``serve_in_thread``
users parse that line), then runs until ``POST /shutdown`` or Ctrl-C.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib

from repro.serve.server import ReproServer, ServeConfig

__all__ = ["add_serve_flags", "build_parser", "config_from_args", "main", "run_server"]


def add_serve_flags(parser: argparse.ArgumentParser) -> None:
    """Add the daemon flags (shared with the ``repro serve`` subcommand)."""
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default %(default)s)")
    parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port; 0 picks an ephemeral port (default %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="local worker processes; 0 starts none and jobs stay queued "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed chunk cache directory shared with offline runs",
    )
    parser.add_argument(
        "--journal",
        nargs="?",
        const="auto",
        default=None,
        metavar="PATH",
        help="durable-queue journal JSONL; bare --journal places it at "
        "<cache-dir>/journal.jsonl (default: durability off)",
    )
    parser.add_argument(
        "--memo-ttl",
        type=float,
        default=3600.0,
        help="seconds an idle completed-job memo is retained; 0 disables the "
        "TTL (default %(default)s)",
    )
    parser.add_argument(
        "--memo-cap",
        type=int,
        default=1024,
        help="max completed-job memos retained (LRU evicted past this); 0 "
        "disables the cap (default %(default)s)",
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        help="seconds before an unrenewed worker lease is requeued (default %(default)s)",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.25,
        help="watchdog period for lease expiry and worker death (default %(default)s)",
    )
    parser.add_argument(
        "--throttle",
        type=float,
        default=0.0,
        help="debug: sleep this many seconds per chunk in every worker",
    )


def build_parser() -> argparse.ArgumentParser:
    """CLI for the serve daemon."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Run the repro execution service.",
    )
    add_serve_flags(parser)
    return parser


def config_from_args(args: argparse.Namespace) -> ServeConfig:
    """Build the :class:`ServeConfig` for parsed daemon arguments."""
    return ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        journal=args.journal,
        memo_ttl=args.memo_ttl or None,
        memo_cap=args.memo_cap or None,
        lease_timeout=args.lease_timeout,
        poll_interval=args.poll_interval,
        throttle=args.throttle,
    )


async def _serve(config: ServeConfig) -> None:
    server = ReproServer(config)
    await server.start()
    print(f"serving on {server.url}", flush=True)
    await server.wait_stopped()


def run_server(config: ServeConfig) -> int:
    """Serve in the foreground until ``POST /shutdown`` or Ctrl-C."""
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_serve(config))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """Entry point: parse arguments, serve until shutdown."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as error:
        parser.error(str(error))
    return run_server(config)


if __name__ == "__main__":
    raise SystemExit(main())
