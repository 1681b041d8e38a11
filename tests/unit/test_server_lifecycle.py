"""DataCapsule-server crash/restart lifecycle.

Crash models a process death: the server goes silent on the wire and
every piece of in-memory soft state (HMAC sessions, pending RPCs,
subscriber sets) is gone.  Restart rebuilds the hosting table and each
hosted replica from the storage backend — the durable medium — so
everything the server ever acknowledged survives, and nothing else
does; a fresh server object over a reopened store gets the same.  Crash
is deliberately distinct from a partition, which keeps sessions alive.
"""

import os

import pytest

from repro import encoding
from repro.baselines.s3sim import MemoryObjectTier
from repro.capsule import DataCapsule, Record
from repro.capsule.proofs import RangeProof
from repro.errors import GdpError
from repro.runtime.context import Future
from repro.server.replication import sync_once
from repro.server.segmented import SegmentedStore


def place_and_fill(g, n_records: int = 4):
    """Place a capsule on both MiniGdp servers and append records."""

    def scenario():
        yield from g.bootstrap()
        metadata = yield from g.place()
        writer = g.writer_client.open_writer(metadata, g.writer_key)
        for i in range(n_records):
            yield from writer.append(b"rec-%d" % i, acks="all")
        return metadata

    return g.run(scenario())


class TestCrash:
    def test_crash_goes_silent_until_restart(self, mini_gdp):
        g = mini_gdp
        metadata = place_and_fill(g)
        g.server_root.crash()
        g.server_edge.crash()
        assert g.server_root.crashed

        def blocked_read():
            with pytest.raises(GdpError):
                yield from g.reader_client.read(metadata.name, 1)
            return True

        assert g.run(blocked_read())

        g.server_root.restart()
        g.server_edge.restart()

        def read_again():
            record = (yield from g.reader_client.read(metadata.name, 1)).record
            return record.payload

        assert g.run(read_again()) == b"rec-0"

    def test_crash_drops_sessions_and_pending_rpcs(self, mini_gdp):
        g = mini_gdp
        place_and_fill(g)
        server = g.server_edge

        def handshake():
            yield from g.writer_client.establish_session(server.name)
            return True

        assert g.run(handshake())
        assert server._sessions, "handshake should have minted a session"

        server._pending_rpcs[("probe", 1)] = object()
        server.crash()
        assert server._sessions == {}
        assert server._pending_rpcs == {}
        assert server._sign_anyway == set()

    def test_partition_by_contrast_keeps_sessions(self, mini_gdp):
        """The semantic line between crash and partition: only the
        crash is amnesiac."""
        g = mini_gdp
        place_and_fill(g)
        server = g.server_edge

        def handshake():
            yield from g.writer_client.establish_session(server.name)
            return True

        assert g.run(handshake())
        before = dict(server._sessions)
        assert before
        # A partition touches links, never server memory.
        for link in g.net.links:
            link.fail()
            link.recover()
        assert server._sessions == before


class TestRestart:
    def test_restart_replays_acknowledged_records(self, mini_gdp):
        g = mini_gdp
        metadata = place_and_fill(g, n_records=5)
        server = g.server_root
        before = server.hosted[metadata.name].capsule
        assert before.last_seqno == 5
        server.crash()
        server.restart()
        after = server.hosted[metadata.name].capsule
        assert after is not before, "restart must rebuild, not reuse"
        assert sorted(after.seqnos()) == [1, 2, 3, 4, 5]
        assert after.latest_heartbeat is not None
        assert after.verify_history() == 5

    def test_restart_loses_records_that_never_hit_storage(self, mini_gdp):
        """A record slipped into the in-memory replica behind the
        storage layer's back does not survive — storage is the only
        durable medium."""
        g = mini_gdp
        metadata = place_and_fill(g, n_records=2)
        server = g.server_root
        capsule = g.server_edge.hosted[metadata.name].capsule
        phantom = capsule.get(2)
        # Drop seqno 2 from root's *storage* only, then restart: the
        # in-memory replica had it, the disk never did.
        server.storage._data[metadata.name] = [
            (tag, wire)
            for tag, wire in server.storage._data[metadata.name]
            if wire.get("seqno") != 2
        ]
        assert 2 in server.hosted[metadata.name].capsule.seqnos()
        server.crash()
        server.restart()
        assert 2 not in server.hosted[metadata.name].capsule.seqnos()
        assert phantom.seqno == 2  # the record still exists elsewhere

    def test_restart_drops_subscribers(self, mini_gdp):
        g = mini_gdp
        metadata = place_and_fill(g)
        received = []

        def subscribe():
            yield from g.reader_client.subscribe(
                metadata.name, lambda record, heartbeat: received.append(record.seqno)
            )
            return True

        assert g.run(subscribe())
        subscribed = [
            server for server in (g.server_root, g.server_edge)
            if server.hosted[metadata.name].subscribers
        ]
        assert subscribed, "subscription landed nowhere"
        for server in subscribed:
            server.crash()
            server.restart()
            assert server.hosted[metadata.name].subscribers == set()

    def test_recover_from_storage_counts_records(self, mini_gdp):
        g = mini_gdp
        metadata = place_and_fill(g, n_records=3)
        server = g.server_root
        server.crash()
        server.hosted[metadata.name].capsule = type(
            server.hosted[metadata.name].capsule
        )(server.hosted[metadata.name].capsule.metadata)
        assert server.recover_from_storage() == 3
        server.crashed = False
        assert server.hosted[metadata.name].capsule.last_seqno == 3


class TestFreshProcess:
    """A real restart: a *fresh* server object over a reopened
    ``SegmentedStore`` gets back what the store holds — the hosting
    table included — with no ``host`` op and no simulator memory."""

    def test_recovers_hosting_and_records_from_disk(self, process_world):
        w = process_world
        server = w.boot()
        assert w.host(server, w.placement(1, [server.name, w.other.name]))["ok"]
        assert w.append(server)["ok"]
        server.storage.close()

        fresh = w.boot()
        assert fresh.recover_from_storage() == 3
        hosted = fresh.hosted[w.name]
        assert hosted.siblings == [w.other.name]
        assert sorted(hosted.capsule.seqnos()) == [1, 2, 3]
        assert fresh.last_recovery["hosting_refused"] == 0
        assert fresh.catalog_entries() == [{"chain": hosted.chain.to_wire()}]

    def test_retirement_survives_the_process(self, process_world):
        w = process_world
        server = w.boot()
        v1 = w.placement(1, [server.name, w.other.name])
        v2 = w.placement(2, [w.other.name])
        assert w.host(server, v1)["ok"]
        assert w.append(server)["ok"]
        assert w.host(server, v2)["ok"]
        assert w.name not in server.hosted
        server.storage.close()

        fresh = w.boot()
        for placement in (v1, v2):
            assert w.host(fresh, placement)["ok"]  # stale: a no-op
            assert w.name not in fresh.hosted
        assert fresh.recover_from_storage() == 0
        for placement in (v1, v2):
            assert w.host(fresh, placement)["ok"]
            assert w.name not in fresh.hosted
        assert fresh.storage.load_hosting(w.name)["placement"] == v2.to_wire()

    def test_altered_placement_on_disk_hosts_nothing(self, process_world):
        w = process_world
        server = w.boot()
        assert w.host(server, w.placement(1, [server.name, w.other.name]))["ok"]
        assert w.append(server)["ok"]
        server.storage.close()

        manifest = os.path.join(w.root, w.name.hex(), "MANIFEST")
        with open(manifest, "rb") as fh:
            wire = encoding.decode(fh.read())
        signature = wire["hosting"]["placement"]["signature"]
        wire["hosting"]["placement"]["signature"] = bytes(
            [signature[0] ^ 1]
        ) + signature[1:]
        with open(manifest, "wb") as fh:
            fh.write(encoding.encode(wire))

        fresh = w.boot()
        assert fresh.recover_from_storage() == 0
        assert w.name not in fresh.hosted
        assert fresh.last_recovery["hosting_refused"] == 1

    def test_rotted_sealed_frame_is_counted_and_refetched(self, process_world):
        """A sealed frame that fails its CRC ends its segment's replay:
        recovery counts it, and one anti-entropy round with the sibling
        brings back every record the replica lost with it."""
        w = process_world
        server = w.boot(segment_bytes=1)  # every frame seals a segment
        placement = w.placement(1, [server.name, w.other.name])
        assert w.host(server, placement)["ok"]
        assert w.append(server)["ok"]
        server.storage.close()
        # seg 2 holds record 2's frame alone: flip its last payload byte
        path = os.path.join(w.root, w.name.hex(), "seg-00000002.seg")
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 1]))

        fresh = w.boot()
        fresh.recover_from_storage()
        assert fresh.last_recovery["corrupt_frames"] == 1
        capsule = fresh.hosted[w.name].capsule
        lost = {1, 2, 3} - set(capsule.seqnos())
        assert 2 in lost
        sibling = w.sibling_on(fresh)
        assert w.host(sibling, placement)["ok"]
        assert w.append(sibling)["ok"]
        fetched = fresh.network.sim.run_process(
            sync_once(fresh, w.name, sibling.name), "sync"
        )
        assert fetched == len(lost)
        assert sorted(capsule.seqnos()) == [1, 2, 3]

    @pytest.mark.parametrize("tiered", [False, True], ids=["local", "tiered"])
    def test_live_rot_is_counted_and_repaired_from_a_sibling(
        self, process_world, tmp_path, tiered
    ):
        """A running replica reads payloads back from its own log, so it
        meets rot there: a sealed (or tiered) frame whose payload no
        longer matches the held header is counted, the record is fetched
        from the sibling, checked against the held digest and stored
        again, and the read is served the verified payload; the next
        read is served from the repaired frame with the sibling gone."""
        w = process_world
        tier = MemoryObjectTier() if tiered else None
        server = w.boot(segment_bytes=1, hot_segments=0, tier=tier)
        sibling = w.sibling_on(server, SegmentedStore(str(tmp_path / "sibling")))
        placement = w.placement(1, [server.name, sibling.name])
        for replica in (server, sibling):
            assert w.host(replica, placement)["ok"]
            assert w.append(replica)["ok"]
        key = f"{w.name.hex()}/seg-00000002.seg"  # record 2's frame alone
        if tier is None:
            path = os.path.join(w.root, w.name.hex(), "seg-00000002.seg")
            with open(path, "rb") as fh:
                blob = fh.read()
        else:
            blob = tier.objects[key]
        at = blob.index(b"acked-1")
        blob = blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1:]
        if tier is None:
            with open(path, "wb") as fh:
                fh.write(blob)
        else:
            tier.objects[key] = blob
        corrupt = server.metrics.counter("server.storage.corrupt_frames")

        def read_2() -> dict:
            body = {"op": "read_range", "capsule": w.name.raw, "first": 2, "last": 2}
            reply = w._request(server, body)
            if isinstance(reply, Future):
                def wait():
                    return (yield reply)

                reply = server.network.sim.run_process(wait(), "read")
            assert reply["ok"], reply
            records = [Record.from_wire(w.name, wire) for wire in reply["records"]]
            DataCapsule(w.metadata).verify_range(
                records, RangeProof.from_wire(reply["proof"])
            )
            return [record.payload for record in records]

        assert read_2() == [b"acked-1"]
        assert corrupt.value == 1
        # The rotted frame has left the read path: a tiered read of
        # record 2 makes one ranged GET, of the repaired frame alone.
        gets = []
        if tier is not None:
            real_get = tier.get_range
            tier.get_range = lambda *args: gets.append(args) or real_get(*args)
        assert read_2() == [b"acked-1"]
        assert len(gets) == (1 if tiered else 0)
        sibling.crash()
        gets.clear()
        assert read_2() == [b"acked-1"]
        assert corrupt.value == 1
        assert len(gets) == (1 if tiered else 0)

    def test_a_record_already_held_is_stored_once(self, process_world):
        """``DataCapsule.admit`` is the one dedup: a re-sent
        ``append_batch`` and a ``replicate_batch`` of records the
        replica holds add no frame to its log."""
        w = process_world
        server = w.boot()
        assert w.host(server, w.placement(1, [server.name]))["ok"]

        def frames() -> int:
            return len(list(server.storage.load_entries(w.name)))

        assert w.append(server, "append_batch")["ok"]
        stored = frames()
        assert stored == 4  # three records and their heartbeat
        assert w.append(server, "append_batch")["ok"]
        assert frames() == stored
        assert w.append(server)["ok"]
        assert frames() == stored
