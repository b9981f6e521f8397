"""Set-up probe: one fresh interpreter imports passcovert, writes and loads the
workload's first config and generates its scenarios, then exits.

    python3 perfbench/setup_probe.py WORKLOAD SEED DIR          # one set-up
    python3 perfbench/setup_probe.py --serve WORKLOAD SEED DIR  # timing server

The server starts one probe per line read from standard input and answers with
its wall time in seconds. The benchmark keeps one server as its child while
the workload runs and leaves the server's subtree out of the workload's peak
RSS (the probes are reaped by the server, and the server only after that
peak is read).
"""

import json
import subprocess
import sys
import time
from pathlib import Path


def probe(workload: str, seed: str, workdir: str) -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from passcovert import config as pc_config, harness
    from workloads import WORKLOADS

    inv = WORKLOADS[workload].invocation(int(seed), 0)
    path = Path(workdir) / "setup-config.json"
    path.write_text(json.dumps(inv.config), encoding="utf-8")
    config = pc_config.load_config(path)
    if inv.is_pattern:
        config.scenario(inv.case)
    else:
        harness.sample_scenarios(config)


def serve(workload: str, seed: str, workdir: str) -> None:
    for _ in sys.stdin:
        start = time.perf_counter()
        # no timeout: waiting with one polls at up to 50 ms steps, which the time would show
        subprocess.run([sys.executable, __file__, workload, seed, workdir], check=True)
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "--serve":
        serve(*sys.argv[2:])
    else:
        probe(*sys.argv[1:])
