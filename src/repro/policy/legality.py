"""Path legality: the central predicate of policy routing.

The paper defines a *legal* route as "a route that is permitted by the
policies of all transit ADs involved" (Section 5.1).  This module checks
that predicate directly against the topology and the policy database.

Endpoints need no transit permission for their own traffic: the source
originates and the destination consumes; only intermediate ADs are
transits.  Transit permission is checked per traversal with the local
(previous, next) hops, matching the PT path-constraint model.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec


def is_loop_free(path: Sequence[ADId]) -> bool:
    """Whether the path visits each AD at most once."""
    return len(set(path)) == len(path)


def is_legal_path(
    graph: InterADGraph,
    policies: PolicyDatabase,
    path: Sequence[ADId],
    flow: FlowSpec,
) -> bool:
    """Full legality check for a candidate AD path.

    The path must: start at ``flow.src`` and end at ``flow.dst``; be
    loop-free; use only live links; and every intermediate AD must have a
    Policy Term permitting the flow with the path's local previous/next
    hops -- exactly when :func:`first_violation` finds nothing.

    A single-AD path (src == dst) is legal by definition.
    """
    return first_violation(graph, policies, path, flow) is None


def first_violation(
    graph: InterADGraph,
    policies: PolicyDatabase,
    path: Sequence[ADId],
    flow: FlowSpec,
) -> Optional[str]:
    """Human-readable reason the path is illegal, or ``None`` if legal.

    The one legality check: :func:`is_legal_path` is its ``None`` test,
    and tests read the reason to pinpoint failures.
    """
    if not path:
        return "empty path"
    if path[0] != flow.src:
        return f"path starts at AD {path[0]}, flow source is AD {flow.src}"
    if path[-1] != flow.dst:
        return f"path ends at AD {path[-1]}, flow destination is AD {flow.dst}"
    if not is_loop_free(path):
        return "path contains a loop"
    for a, b in zip(path, path[1:]):
        if not graph.has_link(a, b):
            return f"no link between AD {a} and AD {b}"
        if not graph.link(a, b).up:
            return f"link {a}-{b} is down"
    for i in range(1, len(path) - 1):
        # Each traversal decision is memoized in the database keyed by
        # (owner, flow key, prev, next) and the policy version, so
        # re-checking a route that synthesis just produced is cache hits.
        ad, prev, nxt = path[i], path[i - 1], path[i + 1]
        if not policies.transit_permits(ad, flow, prev, nxt):
            return f"AD {ad} has no policy term permitting {flow} ({prev}->{nxt})"
    return None


def path_cost(
    graph: InterADGraph, path: Sequence[ADId], metric: str = "delay"
) -> float:
    """Sum of the given link metric along the path.

    A one-AD path costs zero.  Raises ``KeyError`` if a link is missing.
    """
    total = 0.0
    for a, b in zip(path, path[1:]):
        if not graph.has_link(a, b):
            raise KeyError(f"no link between AD {a} and AD {b}")
        total += graph.link(a, b).metric(metric)
    return total


def path_metric(graph: InterADGraph, path: Sequence[ADId], qos) -> float:
    """Path value under a QOS class's own composition rule.

    Additive classes (delay, cost): the sum over links.  Bottleneck
    classes (bandwidth): the minimum over links -- a path is as fast as
    its narrowest link; a trivial one-AD path has infinite bandwidth.
    """
    if not qos.is_bottleneck:
        return path_cost(graph, path, qos.metric)
    if len(path) < 2:
        return float("inf")
    width = float("inf")
    for a, b in zip(path, path[1:]):
        if not graph.has_link(a, b):
            raise KeyError(f"no link between AD {a} and AD {b}")
        width = min(width, graph.link(a, b).metric(qos.metric))
    return width
