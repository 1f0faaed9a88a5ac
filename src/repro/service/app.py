"""Daemon assembly: registry + supervisor + WSGI server + signal wiring.

:func:`create_app` builds the WSGI callable for embedding (tests drive
it through ``wsgiref`` or a plain socket); :func:`serve` is the
``repro serve`` entrypoint — it binds a threading WSGI server, starts
the supervisor, and registers graceful shutdown on the process-wide
chained SIGTERM handler from :mod:`repro.engine.shm`: on SIGTERM every
worker snapshots and exits, the WALs are compacted, shared-memory
segments are released, and then the chain's default disposition re-kills
the process so the exit status is still death-by-SIGTERM (what a
systemd/container supervisor expects).
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from socketserver import ThreadingMixIn
from typing import Any, Optional
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from ..engine.shm import on_sigterm, remove_sigterm_callback
from .handlers import Api
from .registry import TenantRegistry
from .snapshot import write_atomic
from .supervisor import Supervisor

__all__ = [
    "create_app",
    "serve",
]


def create_app(supervisor: Supervisor, cache_registry: Any = None) -> Api:
    """The WSGI application for an already-constructed supervisor.

    ``cache_registry`` (a :class:`~repro.cache.registry.CacheRegistry`)
    backs the ``/caches`` introspection routes; the process-wide default
    registry is used when omitted.
    """
    return Api(supervisor, cache_registry=cache_registry)


class _ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """Concurrent requests (ingest + query overlap) on daemon threads."""

    daemon_threads = True
    allow_reuse_address = True


class _Handler(WSGIRequestHandler):
    def log_message(self, format: str, *args: Any) -> None:
        # One access-log line per request on stderr (the CI smoke job
        # captures this as the run log artifact).
        sys.stderr.write(
            "repro-serve: %s - %s\n" % (self.address_string(), format % args)
        )


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    data_dir: "str | Path" = "repro-service-data",
    port_file: Optional[str] = None,
    grace: float = 10.0,
    **supervisor_kwargs: Any,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns an exit code.

    ``port=0`` binds an ephemeral port; the bound address is printed on
    stdout (``listening on http://host:port``) and, when ``port_file``
    is given, the port number is also written there — that is how the
    smoke/chaos harnesses find a race-free port.
    """
    registry = TenantRegistry(data_dir)
    supervisor = Supervisor(registry, **supervisor_kwargs)
    supervisor.start()
    app = create_app(supervisor)
    httpd = make_server(
        host, port, app, server_class=_ThreadingWSGIServer,
        handler_class=_Handler,
    )
    bound_port = httpd.server_address[1]
    print(
        f"repro serve: listening on http://{host}:{bound_port} "
        f"(data_dir={data_dir}, pid={os.getpid()})",
        flush=True,
    )
    if port_file:
        # Renamed into place whole: a harness polling for the file never
        # reads it empty.
        write_atomic(Path(port_file), f"{bound_port}\n".encode())

    server_thread = threading.Thread(
        target=httpd.serve_forever,
        kwargs={"poll_interval": 0.1},
        name="repro-serve-http",
        daemon=True,
    )
    server_thread.start()

    owner_pid = os.getpid()
    done = threading.Event()

    def _graceful_shutdown() -> None:
        # Chained SIGTERM callback: runs in the parent only (workers
        # fork-inherit the handler list before they reset SIGTERM), does
        # the entire graceful sequence, then lets the chain's default
        # disposition re-kill the process (exit status = SIGTERM).
        if os.getpid() != owner_pid or done.is_set():
            return
        done.set()
        print("repro serve: SIGTERM — snapshotting and shutting down", flush=True)
        httpd.shutdown()
        supervisor.stop(grace=grace)
        httpd.server_close()
        print("repro serve: shutdown complete", flush=True)

    on_sigterm(_graceful_shutdown)
    try:
        while server_thread.is_alive():
            server_thread.join(timeout=0.5)
        return 0
    except KeyboardInterrupt:
        print("repro serve: interrupt — snapshotting and shutting down", flush=True)
        done.set()
        httpd.shutdown()
        supervisor.stop(grace=grace)
        httpd.server_close()
        return 0
    finally:
        remove_sigterm_callback(_graceful_shutdown)
