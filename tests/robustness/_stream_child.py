"""Child process for the kill -9 mid-stream harness.

Starts a durable server on an ephemeral port, prints
``PORT <port>`` once it is accepting connections, then parks forever —
the parent streams plans at it over ``POST /plans/stream?ack=sync``
and SIGKILLs this process mid-stream.  Every ack the parent received
before the kill was preceded by a journal fsync, so the acked plans
must survive recovery of the data directory.

Usage: ``python _stream_child.py DATA_DIR``
"""

import sys
import time


def main() -> None:
    data_dir = sys.argv[1]

    from repro.server import OptImatchServer

    server = OptImatchServer(
        port=0,
        workers=1,
        data_dir=data_dir,
        fsync_mode="batch",  # ack=sync forces the fsync per batch anyway
    )
    server.start()
    print(f"PORT {server.address[1]}", flush=True)
    while True:  # parked: the parent SIGKILLs us
        time.sleep(3600)


if __name__ == "__main__":
    main()
