#!/usr/bin/env python3
"""IoT time-series with live subscription and verified time-shift replay.

The paper's first real deployment workload (§VIII): "time-series
environmental sensors, visualization of time-series data".  A sensor hub
records ambient temperature into a capsule; a dashboard subscribes for
live updates; a late-arriving auditor replays and *verifies* the entire
history (the time-shift property of §V), including sealed (encrypted)
payload mode with read-key sharing.

Run:  python examples/sensor_timeseries.py
"""

from repro.caapi import TimeSeriesLog
from repro.capsule import ContentKey, ReadGrant, open_payload, seal_payload
from repro.client import GdpClient, OwnerConsole
from repro.crypto import SigningKey
from repro.server import DataCapsuleServer
from repro.sim import GBPS, SimNetwork, sensor_readings
from repro.routing import GdpRouter, RoutingDomain


def main():
    net = SimNetwork(seed=4)
    clock = lambda: net.sim.now  # noqa: E731
    root = RoutingDomain("global", clock=clock)
    building = RoutingDomain("global.building7", root)
    r_root = GdpRouter(net, "r_root", root)
    r_bldg = GdpRouter(net, "r_bldg", building)
    net.connect(r_bldg, r_root, latency=0.015, bandwidth=GBPS)
    building.attach_to_parent(r_bldg, r_root)

    hub_server = DataCapsuleServer(net, "hub_server")
    hub_server.attach(r_bldg)
    offsite_server = DataCapsuleServer(net, "offsite_server")
    offsite_server.attach(r_root)

    sensor = GdpClient(net, "sensor_hub")
    sensor.attach(r_bldg)
    dashboard = GdpClient(net, "dashboard")
    dashboard.attach(r_root)
    auditor = GdpClient(net, "auditor")
    auditor.attach(r_root)

    owner_key = SigningKey.from_seed(b"building-owner")
    console = OwnerConsole(sensor, owner_key)
    log = TimeSeriesLog(
        sensor, console, [hub_server.metadata, offsite_server.metadata]
    )

    live: list[float] = []

    def scenario():
        for endpoint in (hub_server, offsite_server, sensor, dashboard, auditor):
            yield endpoint.advertise()
        name = yield from log.create()
        print(f"time-series capsule {name.human()} created "
              "(skip-list pointers, 2 replicas)")

        # The dashboard tails the stream live.
        dash_log = TimeSeriesLog(dashboard, console, [])
        yield from dash_log.mount(name)
        yield from dash_log.tail(lambda s: live.append(s.value))

        # The sensor records a day of readings (compressed to sim time).
        for t, value in sensor_readings(24, interval=3600.0, seed=2):
            yield from log.record(t, value)
            yield 0.05
        yield 1.0
        print(f"dashboard received {len(live)} live updates, "
              f"last={live[-1]:.1f}°C")

        # A late auditor replays a window with full verification.
        audit_log = TimeSeriesLog(auditor, console, [])
        yield from audit_log.mount(name)
        count, lo, hi, mean = yield from audit_log.aggregate(0.0, 86400.0)
        print(f"auditor verified {count} samples: "
              f"min={lo:.1f} max={hi:.1f} mean={mean:.2f}°C")
        verified = yield from auditor.read_range(name, 1)
        print(f"auditor verified the full range against its proof: "
              f"{len(verified.records)} records")

        # Confidential mode: sealed payloads + read-key sharing.
        content_key = ContentKey.generate(name)
        secret = seal_payload(content_key, 999, b"calibration-coefficients")
        print(f"sealed payload: {len(secret)} bytes of ciphertext "
              "(infrastructure never sees plaintext)")
        grant = ReadGrant.create(content_key, auditor.key.public)
        recovered = grant.unwrap(auditor.key)
        plaintext = open_payload(recovered, 999, secret)
        print(f"auditor unwrapped read grant and decrypted: {plaintext!r}")
        return True

    net.sim.run_process(scenario())
    print(f"done at simulated t={net.sim.now:.1f}s; "
          f"hub appends={hub_server.stats['appends']}, "
          f"offsite replications={offsite_server.stats['replications']}")


if __name__ == "__main__":
    main()
