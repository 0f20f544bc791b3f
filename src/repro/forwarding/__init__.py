"""Data-plane packet headers.

:mod:`~repro.forwarding.headers` holds byte-accurate packet header
models for the three data-plane styles E6 compares: plain hop-by-hop
datagrams, per-packet source routes, and setup + handle.  Forwarding
itself is :meth:`~repro.protocols.base.RoutingProtocol.walk` and the
compiled FIBs of :mod:`repro.traffic`; transit ADs enforce their own
policies there ("can concentrate on assuring that routes crossing
[them] conform to [their] own policies", Section 5.4).
"""

from repro.forwarding.headers import (
    handle_header_bytes,
    hop_by_hop_header_bytes,
    setup_header_bytes,
    source_route_header_bytes,
)

__all__ = [
    "handle_header_bytes",
    "hop_by_hop_header_bytes",
    "setup_header_bytes",
    "source_route_header_bytes",
]
