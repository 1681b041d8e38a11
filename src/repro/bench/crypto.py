"""Crypto hot-path suite (``repro bench --suite crypto``).

Measures op/s for the operations the acceleration layer targets — sign,
verify (cold ladder / warm memo), capsule append, full-history
verification, one secure response checked end to end — each in
accelerated and naive mode, and emits the ``BENCH_crypto.json`` document.

The gate compares **speedup ratios** (accelerated vs naive *on the same
machine and run*), not absolute op/s: absolute throughput varies
several-fold across runner hardware, while the ratio isolates exactly
what this layer is responsible for.

The ``session`` cells are the paper's ablation A2 (§V "Secure
Responses"): one response authenticated and checked under a per-message
signature against the HMAC session a one-time handshake buys — CPU
(msgs/s), bytes added to the response, and the messages after which the
handshake has paid for itself.
"""

from __future__ import annotations

import time

from repro.bench.gate import Gate, exact

__all__ = ["run", "GATES", "table"]

#: the acceleration layer's acceptance floors, plus the 30% band
GATES = (
    Gate("speedup.verify", "higher", floor=5.0),
    Gate("speedup.sign", "higher", floor=2.0),
    Gate("speedup.response_verify", "higher", floor=3.0),
    Gate("speedup.verify_memo", "higher", floor=10.0,
         why="a memo hit is a dict lookup, not a ladder"),
    Gate("speedup.session_hmac", "higher", floor=5.0),
    exact("session.mac_overhead_bytes", ceiling=100,
          why="steady-state overhead is TLS-like: a MAC plus framing"),
    exact("session.sig_overhead_bytes", floor=500,
          why="a signed response carries its signature, metadata and chain"),
)

_TRIALS = 3


def _trial(fn, seconds: float) -> float:
    """One timed burst of *fn*; returns op/s."""
    iters = 0
    start = time.perf_counter()
    while True:
        fn()
        iters += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and iters >= 2:
            return iters / elapsed


def _paired(fn, *, seconds: float = 0.1) -> tuple[float, float]:
    """Best-of-N op/s for *fn* under accelerated and naive crypto.

    The two modes alternate within the same measurement window
    (A/N/A/N/...), so slow machine phases — scheduler contention, a
    co-tenant burst, thermal throttling — hit both sides equally and
    cancel out of the speedup ratio.  Best-of-N then discards the
    trials that measured the machine instead of the code.
    """
    from repro.crypto import cache

    best = {True: 0.0, False: 0.0}
    try:
        for _ in range(_TRIALS):
            for mode in (True, False):
                cache.set_accel_enabled(mode)
                fn()  # warm-up under this mode (tables, cache priming)
                best[mode] = max(best[mode], _trial(fn, seconds))
    finally:
        cache.set_accel_enabled(True)
    return best[True], best[False]


def _build_capsule(n_records: int, pointer_strategy: str = "skiplist"):
    from repro.capsule import CapsuleWriter, DataCapsule
    from repro.crypto import SigningKey
    from repro.naming import make_capsule_metadata

    owner = SigningKey.from_seed(b"bench-owner")
    writer_key = SigningKey.from_seed(b"bench-writer")
    metadata = make_capsule_metadata(
        owner, writer_key.public, pointer_strategy=pointer_strategy
    )
    capsule = DataCapsule(metadata)
    writer = CapsuleWriter(metadata, writer_key)
    for i in range(n_records):
        record, heartbeat = writer.append(b"bench-record-%d" % i)
        capsule.admit([record], heartbeat)
    return capsule, writer


def _bench_primitives(accel: dict, naive: dict, note) -> None:
    from repro.crypto import SigningKey, cache

    key = SigningKey.from_seed(b"bench-prim")
    public = key.public
    messages = [b"bench-msg-%d" % i for i in range(4096)]
    signatures = {m: key.sign(m) for m in messages[:512]}
    counter = {"n": 0}

    def sign_once():
        counter["n"] += 1
        key.sign(messages[counter["n"] % len(messages)])

    note("sign")
    accel["sign"], naive["sign"] = _paired(sign_once)

    # Cold verify: clear the memo each call so the ladder actually runs.
    def verify_cold():
        cache.reset()
        message = messages[counter["n"] % 512]
        counter["n"] += 1
        assert public.verify(message, signatures[message])

    note("verify (cold)")
    accel["verify_cold"], naive["verify_cold"] = _paired(verify_cold)

    # Warm verify: the same triple every call — memoized under accel, a
    # full ladder under naive.
    warm_msg, warm_sig = messages[0], signatures[messages[0]]

    def verify_warm():
        assert public.verify(warm_msg, warm_sig)

    note("verify (warm)")
    accel["verify_warm"], naive["verify_warm"] = _paired(
        verify_warm, seconds=0.05
    )


def _bench_capsule_ops(accel: dict, naive: dict, note) -> None:
    from repro.crypto import cache

    _, writer = _build_capsule(64)
    counter = {"n": 0}

    def append_once():
        counter["n"] += 1
        writer.append(b"bench-extra-%d" % counter["n"])

    note("append")
    accel["append"], naive["append"] = _paired(append_once)

    history, _ = _build_capsule(128)
    replica = history.clone()  # the anti-entropy join's way in

    def verify_history_cold():
        cache.reset()
        replica.verify_history()

    note("verify_history")
    walks_accel, walks_naive = _paired(verify_history_cold, seconds=0.15)
    # Normalize to records verified per second (walks cover 128 records).
    accel["verify_history"] = 128 * walks_accel
    naive["verify_history"] = 128 * walks_naive


def _response_world():
    """What a secure response is built from and checked against:
    ``(server key, server metadata, service chain, capsule name, client)``."""
    from repro.crypto import SigningKey
    from repro.delegation import AdCert, ServiceChain
    from repro.naming import GdpName, make_capsule_metadata, make_server_metadata

    owner = SigningKey.from_seed(b"bench-owner")
    server = SigningKey.from_seed(b"bench-server")
    capsule_md = make_capsule_metadata(owner, owner.public)
    server_md = make_server_metadata(server, server.public)
    adcert = AdCert.issue(owner, capsule_md.name, server_md.name)
    chain = ServiceChain(capsule_md, adcert, server_md)
    return server, server_md, chain, capsule_md.name, GdpName(b"\xc1" * 32)


def _bench_response(accel: dict, naive: dict, note) -> None:
    """A ``sig`` response as a client checks it, from its bytes: signature new."""
    from repro import encoding
    from repro.crypto import cache
    from repro.server.secure import sign_response, verify_signed_response

    server, server_md, chain, capsule, client = _response_world()
    # More than a trial gets through (``_paired`` clears between trials).
    pool = [
        encoding.encode(
            sign_response(server, server_md, chain, client, i, {"ok": True, "n": i})
        )
        for i in range(1024)
    ]
    cache.reset()  # signing primed the signature memo
    counter = {"n": 0}

    def verify_response():
        corr_id = counter["n"] = (counter["n"] + 1) % len(pool)
        verify_signed_response(
            encoding.decode(pool[corr_id], carry="body"),
            client=client, corr_id=corr_id, capsule=capsule,
        )

    note("response verify")
    accel["response_verify"], naive["response_verify"] = _paired(verify_response)


def _bench_session(note) -> dict:
    """A2: a 512 B response authenticated by the server and checked by
    the client from its bytes — a signature per message against the
    HMAC session one handshake buys.  Timed interleaved, as ``_paired``."""
    from repro import encoding
    from repro.crypto import Handshake, SigningKey
    from repro.crypto.hmac_session import SessionKey, hkdf
    from repro.server import secure

    server, server_md, chain, capsule, client = _response_world()
    s2c, c2s = hkdf(b"a2", b"", b"s2c"), hkdf(b"a2", b"", b"c2s")
    server_session, client_session = SessionKey(s2c, c2s), SessionKey(c2s, s2c)
    client_key = SigningKey.from_seed(b"bench-client")
    body = {"ok": True, "record": b"\x00" * 512, "seqno": 7}
    counter = {"n": 0}

    def signed():
        corr_id = counter["n"] = counter["n"] + 1  # a new signature each time
        wrapped = secure.sign_response(
            server, server_md, chain, client, corr_id, body
        )
        secure.verify_signed_response(
            encoding.decode(encoding.encode(wrapped), carry="body"),
            client=client, corr_id=corr_id, capsule=capsule,
        )
        return wrapped

    def macced():
        corr_id = counter["n"] = counter["n"] + 1
        wrapped = secure.mac_response(server_session, client, corr_id, body)
        secure.verify_mac_response(
            client_session, encoding.decode(encoding.encode(wrapped), carry="body"),
            client=client, corr_id=corr_id,
        )
        return wrapped

    def handshake():
        ours, theirs = Handshake(client_key), Handshake(server)
        offer, answer = ours.offer(), theirs.offer()
        ours.finish(answer, server.public, initiator=True)
        theirs.finish(offer, client_key.public, initiator=False)

    note("session: signature vs HMAC")
    best = {signed: 0.0, macced: 0.0, handshake: 0.0}
    for _ in range(_TRIALS):
        for fn in best:
            best[fn] = max(best[fn], _trial(fn, 0.1))
    plain = len(encoding.encode(body))
    saved_per_msg = 1 / best[signed] - 1 / best[macced]
    return {
        "sig_msgs_per_s": round(best[signed], 1),
        "mac_msgs_per_s": round(best[macced], 1),
        "sig_overhead_bytes": len(encoding.encode(signed())) - plain,
        "mac_overhead_bytes": len(encoding.encode(macced())) - plain,
        "handshake_ms": round(1000 / best[handshake], 3),
        "amortize_after_msgs": round(1 / best[handshake] / saved_per_msg, 1),
    }


#: the measured operations: (table label, ops_per_sec key, speedup key)
_ROWS = (
    ("sign", "sign", "sign"),
    ("verify (cold)", "verify_cold", "verify"),
    ("verify (warm)", "verify_warm", "verify_warm"),
    ("append", "append", "append"),
    ("verify_history r/s", "verify_history", "verify_history"),
    ("response verify", "response_verify", "response_verify"),
)


def run(quick: bool = False, note=lambda message: None) -> dict:
    """Run every benchmark in accelerated and naive mode; returns the
    BENCH_crypto.json document (dict); already CI-sized, so *quick*
    changes nothing."""
    from repro.crypto import cache, ec

    accel: dict[str, float] = {}
    naive: dict[str, float] = {}

    cache.set_accel_enabled(True)
    ec.clear_point_tables()
    _bench_primitives(accel, naive, note)
    _bench_capsule_ops(accel, naive, note)
    _bench_response(accel, naive, note)
    session = _bench_session(note)

    speedup = {
        ratio: round(accel[ops] / naive[ops], 2) for _label, ops, ratio in _ROWS
    }
    speedup["verify_memo"] = round(accel["verify_warm"] / accel["verify_cold"], 2)
    speedup["session_hmac"] = round(
        session["mac_msgs_per_s"] / session["sig_msgs_per_s"], 2
    )
    return {
        "schema": "gdp-bench-crypto/1",
        "ops_per_sec": {k: round(v, 1) for k, v in accel.items()},
        "naive_ops_per_sec": {k: round(v, 1) for k, v in naive.items()},
        "speedup": speedup,
        "session": session,
    }


def table(doc: dict) -> list:
    """Accelerated vs naive op/s and the speedup, one row per operation;
    then A2, per-response authentication (EXPERIMENTS.md quotes it)."""
    accel, naive = doc["ops_per_sec"], doc["naive_ops_per_sec"]
    session = doc["session"]
    return [
        (
            ("operation", "accel op/s", "naive op/s", "speedup"),
            [
                (label, f"{accel[ops]:,.0f}", f"{naive[ops]:,.0f}",
                 f"{doc['speedup'][ratio]:.2f}x")
                for label, ops, ratio in _ROWS
            ],
        ),
        f"memo hit vs cold verify: {doc['speedup']['verify_memo']:,.0f}x",
        "",
        (
            ("response authentication", "msgs/s", "wire overhead (B)"),
            [
                ("ECDSA signature + chain", f"{session['sig_msgs_per_s']:,.0f}",
                 session["sig_overhead_bytes"]),
                ("HMAC session", f"{session['mac_msgs_per_s']:,.0f}",
                 session["mac_overhead_bytes"]),
            ],
        ),
        f"A2: handshake {session['handshake_ms']:.1f} ms once; HMAC session "
        f"{doc['speedup']['session_hmac']:.1f}x the signature path; the "
        f"handshake is amortised after {session['amortize_after_msgs']:.0f} "
        "messages",
    ]
