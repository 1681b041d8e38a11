"""Cryptographic substrate: SHA-256 hashing, pure-Python ECDSA P-256
(with a comb-table acceleration layer, see :mod:`repro.crypto.ec`),
process-wide signature/digest memoization (:mod:`repro.crypto.cache`),
HMAC sessions, and Merkle trees.

Built from scratch per the reproduction's "implement every substrate"
rule; the only primitives taken from the standard library are
``hashlib.sha256`` and ``hmac`` (which the paper also treats as given).
"""

from repro.crypto import cache
from repro.crypto.hashing import HASH_LEN, HashPointer, hash_value, sha256
from repro.crypto.hmac_session import Handshake, SessionKey, hkdf
from repro.crypto.keys import SigningKey, VerifyingKey, generate_keypair
from repro.crypto.merkle import InclusionProof, MerkleTree, leaf_hash, node_hash

__all__ = [
    "HASH_LEN",
    "HashPointer",
    "cache",
    "hash_value",
    "sha256",
    "SigningKey",
    "VerifyingKey",
    "generate_keypair",
    "Handshake",
    "SessionKey",
    "hkdf",
    "MerkleTree",
    "InclusionProof",
    "leaf_hash",
    "node_hash",
]
