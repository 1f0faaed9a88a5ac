"""HTTP surface of the daemon: routes in, supervisor calls out.

Pure translation layer — parse the request, call one
:class:`~repro.service.supervisor.Supervisor` method, serialize the
result.  All policy (durability, backpressure, degradation) lives in the
supervisor; all transport (status codes, ``Retry-After``) lives here::

    GET    /health                      daemon + per-tenant health
    GET    /tenants                     registered tenant configs
    POST   /tenants                     register a tenant (JSON config)
    DELETE /tenants/<id>                deregister (state kept on disk)
    POST   /tenants/<id>/ingest         {"keys": [...], "sizes": [...]?}
    GET    /tenants/<id>/mrc?max_size=N current curve (live or stale)
    GET    /caches                      registered in-process caches
    GET    /caches/partition?budget=N   fleet budget-split advice
    GET    /caches/<name>               one cache's full introspection
    GET    /caches/<name>/mrc?max_size=N  its self-reported curve

The ``/caches`` routes expose the process-local
:class:`~repro.cache.registry.CacheRegistry` — introspection for
:class:`~repro.cache.lru.SamplingLRUCache` instances living *in the
daemon's own process* (embedded apps, sidecars); they involve no worker
round-trip.  ``partition`` is a reserved cache name.

Error mapping: unknown tenant -> 404, full queue -> 429 + Retry-After,
bad input -> 400, duplicate tenant -> 409.  A crashed worker is *not* an
error: ``/mrc`` answers 200 from the snapshot with ``"stale": true``.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple
from urllib.parse import parse_qs

from ..mrc.curve import float_array_json
from .registry import TenantConfig
from .supervisor import Backpressure, Supervisor, TenantUnavailable

if TYPE_CHECKING:
    from ..cache.registry import CacheRegistry

__all__ = [
    "Api",
]


_STATUS = {
    200: "200 OK",
    201: "201 Created",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    409: "409 Conflict",
    429: "429 Too Many Requests",
    500: "500 Internal Server Error",
}

#: (status, headers, body): a dict is JSON-encoded, bytes are sent as is.
_Response = Tuple[int, List[Tuple[str, str]], Dict[str, Any] | bytes]

_TENANT_PATH = re.compile(r"^/tenants/([^/]+)(?:/([a-z_]+))?$")
_CACHE_PATH = re.compile(r"^/caches/([^/]+)(?:/([a-z_]+))?$")


class Api:
    """WSGI application exposing one :class:`Supervisor`.

    ``cache_registry`` (default: the process-wide
    :data:`repro.cache.registry.default_registry`) backs the ``/caches``
    introspection routes.
    """

    def __init__(
        self,
        supervisor: Supervisor,
        cache_registry: "Optional[CacheRegistry]" = None,
    ) -> None:
        self.supervisor = supervisor
        if cache_registry is None:
            from ..cache.registry import default_registry

            cache_registry = default_registry
        self.cache_registry = cache_registry

    # ------------------------------------------------------------------
    def __call__(
        self,
        environ: Dict[str, Any],
        start_response: Callable[..., Any],
    ) -> Iterable[bytes]:
        try:
            status, headers, body = self._route(environ)
        except TenantUnavailable as exc:
            status, headers, body = 404, [], {"error": f"unknown tenant {exc.args[0]!r}"}
        except Backpressure as exc:
            status = 429
            headers = [("Retry-After", f"{exc.retry_after:g}")]
            body = {"error": str(exc), "retry_after": exc.retry_after}
        except (ValueError, TypeError) as exc:
            status, headers, body = 400, [], {"error": str(exc)}
        except KeyError as exc:
            status, headers, body = 409, [], {"error": str(exc)}
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        start_response(
            _STATUS[status],
            [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(payload))),
                *headers,
            ],
        )
        return [payload]

    # ------------------------------------------------------------------
    def _route(self, environ: Dict[str, Any]) -> _Response:
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        if path == "/health" and method == "GET":
            return self._health()
        if path == "/tenants":
            if method == "GET":
                return self._list_tenants()
            if method == "POST":
                return self._add_tenant(_read_json(environ))
            return 405, [], {"error": f"{method} not allowed on {path}"}
        m = _TENANT_PATH.match(path)
        if m:
            tenant_id, action = m.group(1), m.group(2)
            if action is None:
                if method == "DELETE":
                    return self._remove_tenant(tenant_id)
                return 405, [], {"error": f"{method} not allowed on {path}"}
            if action == "ingest" and method == "POST":
                return self._ingest(tenant_id, _read_json(environ))
            if action == "mrc" and method == "GET":
                return self._mrc(tenant_id, environ.get("QUERY_STRING", ""))
            return 405, [], {"error": f"{method} {path} not supported"}
        if path == "/caches":
            if method == "GET":
                return self._list_caches()
            return 405, [], {"error": f"{method} not allowed on {path}"}
        m = _CACHE_PATH.match(path)
        if m:
            cache_name, action = m.group(1), m.group(2)
            if method != "GET":
                return 405, [], {"error": f"{method} not allowed on {path}"}
            if cache_name == "partition" and action is None:
                return self._cache_partition(environ.get("QUERY_STRING", ""))
            if action is None:
                return self._cache_info(cache_name)
            if action == "mrc":
                return self._cache_mrc(cache_name, environ.get("QUERY_STRING", ""))
            return 405, [], {"error": f"{method} {path} not supported"}
        return 404, [], {"error": f"no route for {path}"}

    # ------------------------------------------------------------------
    def _health(self) -> _Response:
        body = self.supervisor.health()
        body["status"] = "ok"
        return 200, [], body

    def _list_tenants(self) -> _Response:
        configs = [c.to_dict() for c in self.supervisor.registry.list()]
        return 200, [], {"tenants": configs}

    def _add_tenant(self, doc: Dict[str, Any]) -> _Response:
        config = TenantConfig.from_dict(doc)
        self.supervisor.add_tenant(config)
        return 201, [], {"tenant": config.to_dict()}

    def _remove_tenant(self, tenant_id: str) -> _Response:
        if tenant_id not in self.supervisor.registry:
            raise TenantUnavailable(tenant_id)
        self.supervisor.remove_tenant(tenant_id)
        return 200, [], {"removed": tenant_id}

    def _ingest(self, tenant_id: str, doc: Dict[str, Any]) -> _Response:
        keys = doc.get("keys")
        if not isinstance(keys, list) or not keys:
            raise ValueError('ingest body needs a non-empty "keys" array')
        sizes = doc.get("sizes")
        if sizes is not None and (
            not isinstance(sizes, list) or len(sizes) != len(keys)
        ):
            raise ValueError('"sizes" must be an array parallel to "keys"')
        seq = self.supervisor.ingest(
            tenant_id,
            [int(k) for k in keys],
            [int(s) for s in sizes] if sizes is not None else None,
        )
        return 200, [], {"seq": seq, "durable": True}

    def _mrc(self, tenant_id: str, query_string: str) -> _Response:
        max_size = _int_param(query_string, "max_size")
        return 200, [], self.supervisor.query(tenant_id, max_size=max_size)

    # ------------------------------------------------------------------
    # in-process SamplingLRUCache introspection
    def _list_caches(self) -> _Response:
        return 200, [], {"caches": self.cache_registry.summaries()}

    def _cache(self, name: str) -> Any:
        cache = self.cache_registry.get(name)
        if cache is None:
            raise TenantUnavailable(name)
        return cache

    def _cache_info(self, name: str) -> _Response:
        return 200, [], self._cache(name).info()

    def _cache_mrc(self, name: str, query_string: str) -> _Response:
        cache = self._cache(name)
        if not cache.instrumented:
            raise ValueError(f"cache {name!r} runs uninstrumented (no model)")
        max_size = _int_param(query_string, "max_size")
        curve = (
            cache.byte_mrc() if cache.track_sizes else cache.mrc(max_size=max_size)
        )
        head = json.dumps({"cache": name, "unit": curve.unit})[:-1]
        return 200, [], (
            f'{head}, "sizes": {float_array_json(curve.sizes)}, '
            f'"miss_ratios": {float_array_json(curve.miss_ratios)}}}'
        ).encode()

    def _cache_partition(self, query_string: str) -> _Response:
        budget = _int_param(query_string, "budget")
        result = self.cache_registry.partition_advice(budget=budget)
        return 200, [], {
            "budget": result.budget,
            "allocations": result.allocations,
            "total_miss_cost": result.total_miss_cost,
        }


def _int_param(query_string: str, name: str) -> Optional[int]:
    values = parse_qs(query_string).get(name)
    return None if values is None else int(values[0])


def _read_json(environ: Dict[str, Any]) -> Dict[str, Any]:
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except (TypeError, ValueError):
        length = 0
    raw = environ["wsgi.input"].read(length) if length > 0 else b""
    if not raw:
        raise ValueError("expected a JSON request body")
    doc = json.loads(raw)
    if not isinstance(doc, dict):
        raise ValueError("request body must be a JSON object")
    return doc
