"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 setup_probe.py INPUTS_JSON

Times, from inside a new process, everything a user pays before the first
pulse: ``import fmqkd``, the session config, AliceSession and BobSession
construction (derived generators, key-file loading), and for the socket
workload a loopback connect and accept. For ``fm_check_haar`` it is the
import and the two seeded generators. Prints ``{"setup_s": ...}``.
"""

import json
import sys
import time


def main() -> int:
    inputs = json.loads(open(sys.argv[1]).read())
    t0 = time.perf_counter()
    import fmqkd  # noqa: F401  (the import is part of what is timed)
    from inputs import SPECS, fm_rngs, session_config

    spec = SPECS[inputs["workload"]]
    if spec.kind == "fm":
        fm_rngs(inputs)
        elapsed = time.perf_counter() - t0
    else:
        import socket

        from fmqkd.channel import connect
        from fmqkd.protocol import AliceSession, BobSession

        cfg = session_config(spec, inputs)
        AliceSession(cfg)
        BobSession(cfg)
        if spec.kind == "socket":
            with socket.create_server(("127.0.0.1", 0)) as listener:
                endpoint = connect("127.0.0.1", listener.getsockname()[1])
                conn, _ = listener.accept()
                elapsed = time.perf_counter() - t0
                conn.close()
                endpoint.close()
        else:
            elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
