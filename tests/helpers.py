"""Shared builders for the test suite."""

from mpflow.model import (
    EndpointAddress,
    InterfacePair,
    PORT_BASE,
    new_connection,
)

LOCAL = "10.0.0.1"
REMOTES = ("10.0.1.1", "10.0.2.1", "10.0.3.1")


def addr(text: str, port: int = 0) -> EndpointAddress:
    return EndpointAddress.from_string(text, port)


def pair(src: str, dst: str) -> InterfacePair:
    return InterfacePair.between(addr(src), addr(dst))


def three_paths():
    """Connection with 1 local and 3 remote interfaces, like the canned
    three-link topology."""
    return new_connection([addr(LOCAL)], [addr(r) for r in REMOTES])


def tuple_for_next(conn, mesh_pair):
    """The deterministic 4-tuple open_subflow would use for a pair."""
    port = PORT_BASE + conn.next_id
    return (
        EndpointAddress(mesh_pair.family, mesh_pair.src, port),
        EndpointAddress(mesh_pair.family, mesh_pair.dst, port),
    )


def acked_by_bucket(flow):
    """A simulated sub-flow's acked bytes as {bucket: bytes}, for the buckets
    that hold any; ``flow.acked[i]`` holds those of bucket
    ``flow.first_bucket + i``."""
    return {flow.first_bucket + i: nbytes for i, nbytes in enumerate(flow.acked) if nbytes}
