"""Multi-tenant scheduler daemon: the runtime as a long-lived service.

:mod:`repro.runtime` gives one process one
:class:`~repro.runtime.session.AdaptiveSession`; this package puts many
of them behind a wire so scheduling decisions are made *online*, close
to the traffic, with model and cache state amortised across requests —
the long-lived scheduler the performance-prediction line of work
assumes.

Layers
------
:mod:`repro.serve.protocol`
    Versioned request/response dataclasses over a line-delimited JSON
    framing, with strict validation: every malformed frame becomes one
    clean error response, never a daemon crash.
:mod:`repro.serve.tenants`
    Per-tenant state: a :class:`~repro.serve.tenants.TenantProfile`
    (spec strings for scheduler / directory / workload, all parsed by
    the one grammar in :mod:`repro.util.spec`) and the session it
    builds.
:mod:`repro.serve.state`
    Session snapshot + restore: the daemon drains to a JSON state file
    and a restarted daemon resumes every tenant bit-identically.
:mod:`repro.serve.daemon`
    The event loop: a unix socket (TCP optional), a bounded request
    queue with admission control (reject-with-retry-after when
    saturated), one daemon-wide schedule cache that same-digest tenants
    share, backpressure signalling, graceful drain/restart.
:mod:`repro.serve.client`
    Typed sync client plus the load generator the bench and CI drive.
"""

from repro.serve.client import (
    DaemonClient,
    LoadGenerator,
    LoadReport,
)
from repro.serve.daemon import DaemonConfig, SchedulerDaemon
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ErrorResponse,
    ProtocolError,
    ScheduleRequest,
    ScheduleResponse,
    decode_request,
    decode_response,
    encode_message,
)
from repro.serve.state import restore_session_state, session_state
from repro.serve.tenants import (
    TenantProfile,
    TenantState,
    make_workload_sizes,
)

__all__ = [
    "DaemonClient",
    "DaemonConfig",
    "ErrorResponse",
    "LoadGenerator",
    "LoadReport",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ScheduleRequest",
    "ScheduleResponse",
    "SchedulerDaemon",
    "TenantProfile",
    "TenantState",
    "decode_request",
    "decode_response",
    "encode_message",
    "make_workload_sizes",
    "restore_session_state",
    "session_state",
]
