"""Software attestation.

When a node receives code or data from a peer (capsule dissemination, task
migration), it attests the image before activation: a digest over the bytes
keyed by a challenge nonce, compared against the digest computed by the
sender over its reference copy.  Corruption anywhere in the image changes the
digest.  (Real sensor-network attestation also measures *where* code lives
and response timing; we model the integrity check, which is the property the
EVM's activation path depends on.)
"""

from __future__ import annotations

import hashlib
import hmac

DIGEST_BYTES = 8
"""Truncated digest length carried on the wire (embedded-budget sized)."""


def attest_digest(image: bytes, nonce: bytes) -> bytes:
    """Challenge-response digest over ``image`` keyed by ``nonce``."""
    if not isinstance(image, (bytes, bytearray)):
        raise TypeError(f"image must be bytes, got {type(image).__name__}")
    if len(nonce) == 0:
        raise ValueError("nonce must be non-empty")
    mac = hmac.new(bytes(nonce), bytes(image), hashlib.sha256)
    return mac.digest()[:DIGEST_BYTES]


def verify_attestation(image: bytes, nonce: bytes, digest: bytes) -> bool:
    """Does ``digest`` match ``image`` under ``nonce``?  Constant-time."""
    expected = attest_digest(image, nonce)
    return hmac.compare_digest(expected, bytes(digest))
