"""The monitor logs' record dicts, as the store built them before its
codecs rendered JSON text directly.

A stored row is ``json.dumps`` of these dicts; the codecs' text must
equal it byte for byte.
"""

from repro.kademlia.messages import MessageEnvelope
from repro.monitors.bitswap_monitor import BitswapLogEntry


def hydra_record(event: MessageEnvelope) -> dict:
    return {
        "ts": event.timestamp,
        "sender": event.sender.to_base58(),
        "ip": event.sender_ip,
        "type": event.message_type.value,
        "cid": event.target_cid.to_base32() if event.target_cid else None,
        "key": format(event.target_key, "x") if event.target_key is not None else None,
        "via_relay": event.via_relay.to_base58() if event.via_relay else None,
    }


def bitswap_record(event: BitswapLogEntry) -> dict:
    return {
        "ts": event.timestamp,
        "sender": event.sender.to_base58(),
        "ip": event.sender_ip,
        "cid": event.cid.to_base32(),
    }
