"""`hmqm serve` for the bank workload, reporting its CPU use at exit.

Usage: python3 perfbench/serve.py STATS_JSON TRACE [hmqm serve arguments]

Stop the server with SIGTERM.  When it has shut down, STATS_JSON receives
the process's CPU seconds before serving began and at exit.  With TRACE=1
the server-side layers are wrapped in spans first, and the spans go into
STATS_JSON too.  The names are wrapped in `hmqm.service`, where the request
handlers look them up.
"""

import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from hmqm import cli, service  # noqa: E402

from spans import Recorder  # noqa: E402

TARGETS = [
    (service, "bank_mint", "service.server.bank_mint"),
    (service, "measure_positions", "service.server.measure_positions"),
    (service, "bank_check", "service.server.bank_check"),
    (service, "send_message", "service.server.send_message"),
    (service.Journal, "append", lambda journal, record: f"service.journal_append.{record['event']}"),
]


def main(argv: list[str]) -> int:
    stats_path, trace, serve_args = argv[0], argv[1] == "1", argv[2:]
    recorder = Recorder()
    # `hmqm serve` shuts down cleanly on KeyboardInterrupt.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    startup_cpu_s = time.process_time()
    with recorder.patched(TARGETS if trace else []):
        try:
            return cli.main(["serve", *serve_args])
        finally:
            with open(stats_path, "w") as fh:
                json.dump(dict(recorder.dump(), startup_cpu_s=startup_cpu_s, cpu_s=time.process_time()), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
