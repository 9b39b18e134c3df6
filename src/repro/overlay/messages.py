"""Wire-size model for overlay and DHS messages.

The paper's bandwidth figures count application payloads only
("excluding possible DHT protocol overheads and TCP/IP routing header
information", section 5.2), with the evaluation configuration packing a
DHS tuple ``<metric_id, vector_id, bit, time_out>`` into 64 bits:
8-bit metric id, 16-bit vector id, 8-bit bit index, 32-bit timeout.

A routed request costs its payload once per hop (recursive routing);
responses return directly to the requester over the underlying IP network
and cost their payload once.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SizeModel", "DEFAULT_SIZE_MODEL"]


@dataclass(frozen=True)
class SizeModel:
    """Byte sizes of the messages DHS exchanges.

    Attributes
    ----------
    tuple_bytes:
        One DHS tuple on the wire (8 in the paper's evaluation).
    key_bytes:
        One DHT key/identifier (L/8; 8 for 64-bit IDs).
    probe_request_bytes:
        A counting probe: metric id(s) + bit position + flags.
    digest_bytes:
        One anti-entropy digest (128 bits, of a register segment or a
        node root; charged, never computed).  Digests are the bandwidth
        *floor* of a reconciliation round: a converged pair exchanges
        two roots and stops, so steady-state repair traffic is
        ``2 * digest_bytes`` per pair instead of a full register
        transfer.
    """

    tuple_bytes: int = 8
    key_bytes: int = 8
    probe_request_bytes: int = 8
    digest_bytes: int = 16

    def probe_bytes(self, request_hops: int, tuples_returned: int, metrics: int = 1) -> float:
        """Bytes for one probe: routed request + direct response.

        ``metrics`` scales the request (one metric id per metric probed);
        the response carries one tuple per matching (metric, vector) pair.
        """
        request = request_hops * (self.probe_request_bytes + (metrics - 1) * self.key_bytes)
        response = tuples_returned * self.tuple_bytes
        return float(request + response)

    def summary_bytes(self, slots: int, entries: int) -> float:
        """Bytes for a segment summary: slot keys plus their set bits.

        A mismatched anti-entropy segment degrades to shipping its state
        as tuples — one key per slot, one tuple per live ``(vector, bit)``
        entry — which is exactly what the receiving side needs to OR-merge.
        """
        return float(slots * self.key_bytes + entries * self.tuple_bytes)


#: The size model matching the paper's evaluation configuration.
DEFAULT_SIZE_MODEL = SizeModel()
