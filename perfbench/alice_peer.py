"""Alice's side of the socket workload, run as the one child process.

Usage: python3 alice_peer.py INPUTS_JSON

Reads one command per line on stdin. ``serve`` builds a fresh AliceSession,
prints the kernel-assigned port and serves one connection through
``channel.serve_once``; ``stop`` or end of input prints the process's peak
resident memory as a JSON line and exits.
"""

import json
import resource
import sys


def main() -> int:
    from inputs import SPECS, session_config

    from fmqkd.channel import serve_once
    from fmqkd.protocol import AliceSession

    inputs = json.loads(open(sys.argv[1]).read())
    cfg = session_config(SPECS[inputs["workload"]], inputs, inputs.get("n_pulses", 0))
    for line in sys.stdin:
        if line.strip() != "serve":
            break
        alice = AliceSession(cfg)
        serve_once("127.0.0.1", 0, alice.handle, lambda: alice.done,
                   on_listening=lambda port: print(port, flush=True))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": peak_mb}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
