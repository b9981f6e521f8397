#!/usr/bin/env python3
"""passcovert benchmark: seeded sweep and pattern workloads driven through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_full --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` and driven in-process through
``passcovert.cli.main`` with a generated ``--config`` file and ``--out`` to a
file under ``.perfbench/``, one closed-loop client in one process. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs each invocation of the
quality set twice, untraced and with the layer tracer of ``layers.py``, and
reports the per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# one client, one process: keep BLAS from adding threads of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

SETUP_PROBES = 11  # fresh-interpreter set-ups per run; setup_s is their median
RSS_SAMPLE_S = 0.1  # step of the process-tree RSS sampler
# Wall time of ref_kernel_s() on the reference host (2-vCPU x86-64 at 2.1 GHz,
# Python 3.11, numpy 2.4) at its usual load. Timings are reported at this speed.
REF_NOMINAL_S = 0.040
# After each timed round the reference kernel runs back to back until it has
# taken this share of the round's time in the program (at least once). One
# 40 ms run catches short transients; on pattern_grid, five per round instead
# of one halved the run-to-run spread of the corrected throughput.
REF_SHARE = 0.1
# The workloads slow down less than the kernel when co-tenants load the host:
# over 70 runs per workload the log of raw throughput fell by 0.72-0.84 times
# the log of the kernel's slowdown. Corrections use this power of the slowdown.
HOST_ELASTICITY = 0.75


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@dataclass
class Run:
    """One CLI invocation as the benchmark saw it."""

    inv: object
    path: Path
    code: object  # 0 on success, else the exit code or the exception text
    duration: float
    sha256: str
    size: int
    captures: tuple[int, int] = (0, 0)  # slice of the tracer's captured solver calls


@dataclass
class Pass:
    runs: list[Run] = field(default_factory=list)
    timed_ops: int = 0  # ops emitted by successful runs of timed rounds
    timed_busy: float = 0.0  # s spent inside passcovert.cli.main in timed rounds
    timed_rounds: int = 0
    ref_times: list[float] = field(default_factory=list)  # s per reference kernel run
    quality: int = 0  # number of runs in the quality set
    panel: int = 0  # number of runs in the reference panel, a prefix of the quality set

    def digest(self) -> str:
        h = hashlib.sha256()
        for run in self.runs[:self.quality]:
            h.update(run.sha256.encode())
        return h.hexdigest()

    def raw_ops_per_s(self) -> float:
        return self.timed_ops / self.timed_busy

    def host_slowdown(self) -> float:
        """How much slower than nominal the host ran the reference kernel."""
        return statistics.fmean(self.ref_times) / REF_NOMINAL_S

    def host_factor(self) -> float:
        """How much slower than nominal the host ran the program, as estimated
        from the kernel."""
        return self.host_slowdown() ** HOST_ELASTICITY

    def ops_per_s(self) -> float:
        """Throughput corrected to nominal host speed."""
        return self.raw_ops_per_s() * self.host_factor()


def new_pass(workload, quality_rounds: int) -> Pass:
    return Pass(quality=quality_rounds * workload.round_size,
                panel=workload.panel_rounds * workload.round_size)


def ref_kernel_s() -> float:
    """Wall time of a fixed kernel that mixes small numpy array work with float
    formatting, like the program does. It is benchmark code, so a change to the
    program cannot move it; timed after every round, it tracks how fast the
    host runs at that moment (co-tenants on a shared host shift the speed of a
    whole run by 10-20% over tens of seconds)."""
    import numpy as np

    z = np.linspace(1.0, 2.0, 2160).reshape(30, 6, 4, 3)
    start = time.perf_counter()
    for _ in range(150):
        d = np.sqrt(z * z + 1.0)
        e = np.sum(np.exp(1j * d) / d, axis=-1)
        ",".join(f"{x:.17g}" for x in e.real.ravel()[:120])
    return time.perf_counter() - start


def ref_kernel_runs(busy: float) -> list[float]:
    """Times of back-to-back reference kernel runs after a round that spent
    ``busy`` s in the program: at least one, until they add up to REF_SHARE of it."""
    times = [ref_kernel_s()]
    while sum(times) < REF_SHARE * busy:
        times.append(ref_kernel_s())
    return times


def safe_main(cli, argv) -> object:
    """Exit code of ``passcovert`` for ``argv``; an escaping exception is a failed run."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # the benchmark must keep running to count the failure
        return f"{type(exc).__name__}: {exc}"


def run_timed(workload, seed: int, quality_rounds: int, workdir: Path, cli,
              seconds: float, between_rounds) -> Pass:
    """Start rounds in a closed loop with one client until ``seconds`` of wall
    time have passed, then finish the quality set untimed if it is not complete."""
    workdir.mkdir(exist_ok=True)
    result = new_pass(workload, quality_rounds)
    start = time.perf_counter()
    r = 0
    while True:
        timed = r == 0 or time.perf_counter() - start < seconds
        if not timed and r >= quality_rounds:
            break
        ops = 0
        busy = 0.0
        for j in range(workload.round_size):
            inv = workload.invocation(seed, r * workload.round_size + j)
            run = run_invocation(inv, workdir, cli, None)
            result.runs.append(run)
            ops += inv.ops if run.code == 0 else 0
            busy += run.duration
        if timed:
            result.timed_ops += ops
            result.timed_busy += busy
            result.timed_rounds += 1
            result.ref_times.extend(ref_kernel_runs(busy))
        between_rounds()
        r += 1
    return result


def run_traced(workload, seed: int, quality_rounds: int, workdir: Path, cli, tracer):
    """Run the quality set twice, untraced and traced, one invocation of each in turn.

    The two runs of an invocation do the same work back to back, and their
    order swaps every invocation, so host drift and warm caches cancel in
    their time ratio; the tracer's wrappers are in place only for the traced
    run. Returns the untraced pass, the traced pass and the median over
    invocations of the tracing overhead, 1 - untraced time / traced time
    (that is, 1 - traced / untraced ops per second).
    """
    plain, traced = new_pass(workload, quality_rounds), new_pass(workload, quality_rounds)
    for name in ("plain", "traced"):
        (workdir / name).mkdir()
    overheads = []
    for index in range(plain.quality):
        inv = workload.invocation(seed, index)
        pair = {}
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                layers.install(tracer)
            try:
                run = run_invocation(inv, workdir / ("traced" if with_trace else "plain"), cli,
                                     tracer if with_trace else None)
            finally:
                tracer.uninstall()
            (traced if with_trace else plain).runs.append(run)
            pair[with_trace] = run
        if pair[False].code == 0 and pair[True].code == 0:
            overheads.append(1.0 - pair[False].duration / pair[True].duration)
    return plain, traced, statistics.median(overheads) if overheads else 0.0


def run_invocation(inv, workdir: Path, cli, tracer) -> Run:
    config_path = workdir / f"config-{inv.index}.json"
    config_path.write_text(json.dumps(inv.config), encoding="utf-8")
    out = workdir / f"payload-{inv.index}.{inv.fmt}"
    argv = [*inv.argv, "--config", str(config_path), "--out", str(out)]
    first = len(tracer.captures) if tracer else 0
    if tracer is None:
        start = time.perf_counter()
        code = safe_main(cli, argv)
        duration = time.perf_counter() - start
    else:
        code, duration = tracer.root("cli.main", safe_main, cli, argv)
    data = out.read_bytes() if out.exists() else b""
    last = len(tracer.captures) if tracer else 0
    return Run(inv, out, code, duration, hashlib.sha256(data).hexdigest(), len(data),
               (first, last))


class SetupProber:
    """Times fresh-interpreter set-ups through one server child process.

    Probes are spread evenly over the timed phase, so that their median samples
    the same host conditions as the workload.
    """

    def __init__(self, workload: str, seed: int, workdir: Path, seconds: float):
        self.times: list[float] = []
        self.interval = seconds / SETUP_PROBES
        self.last = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), "--serve", workload, str(seed),
             str(workdir)], cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def probe_when_due(self) -> None:
        if time.perf_counter() - self.last >= self.interval:
            self.probe()
            self.last = time.perf_counter()

    def probe(self) -> None:
        self.proc.stdin.write("probe\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("set-up probe failed")
        self.times.append(float(line))

    def close(self) -> float:
        """Top up to SETUP_PROBES probes, stop the server and return the median."""
        try:
            while len(self.times) < SETUP_PROBES:
                self.probe()
        finally:
            self.proc.stdin.close()
            self.proc.wait(timeout=120)
            self.proc.stdout.close()
        return statistics.median(self.times)


def tree_rss_kib(root: int, exclude: int) -> int:
    """Summed resident memory of ``root`` and its live descendants, leaving out
    the subtree of ``exclude``, from /proc/<pid>/stat."""
    children: dict[int, list[int]] = {}
    rss: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:  # the process ended meanwhile
            continue
        fields = stat.rpartition(b")")[2].split()  # after "pid (comm)"
        pid = int(name)
        children.setdefault(int(fields[1]), []).append(pid)
        rss[pid] = int(fields[21])  # resident pages
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        if pid != exclude:
            total += rss.get(pid, 0)
            todo.extend(children.get(pid, ()))
    return total * (os.sysconf("SC_PAGE_SIZE") // 1024)


class TreeRss:
    """Peak summed RSS of this process and every process it spawns while the
    workload runs, so that work moved into worker processes running side by
    side cannot hide memory. A thread samples /proc every RSS_SAMPLE_S s; the
    set-up prober's subtree is left out."""

    def __init__(self, exclude: int):
        self.exclude = exclude
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(RSS_SAMPLE_S):
            self.peak_kib = max(self.peak_kib, tree_rss_kib(os.getpid(), self.exclude))

    def stop_mb(self) -> float:
        """Stop sampling; the peak in MiB, at least this process's own peak plus
        its largest reaped child (children shorter than a step are seen there)."""
        self._stop.set()
        self._thread.join()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own + children, self.peak_kib) / 1024.0


def check_digest(key: str, digest: str) -> str:
    """Compare with the digest an earlier run of the same key recorded here."""
    ledger = STATE / "digests.json"
    seen = json.loads(ledger.read_text(encoding="utf-8")) if ledger.exists() else {}
    previous = seen.get(key)
    seen[key] = digest
    ledger.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")
    return "first" if previous is None else "same" if previous == digest else "differs"


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "passcovert" / "__init__.py").is_file():
        print(f"error: {SRC / 'passcovert'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from passcovert import cli

    import checks

    workload = WORKLOADS[args.workload]
    quality_rounds = workload.quality_rounds(args.seconds)
    STATE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=STATE, prefix="run-") as tmp:
        workdir = Path(tmp)
        if args.trace == 0:
            prober = SetupProber(workload.name, args.seed, workdir, args.seconds)
            try:
                memory = TreeRss(exclude=prober.proc.pid)
                try:
                    passed = run_timed(workload, args.seed, quality_rounds, workdir / "payloads",
                                       cli, args.seconds, prober.probe_when_due)
                finally:
                    rss = memory.stop_mb()
            finally:
                raw_setup_s = prober.close()
            verdict = checks.verify(workload, args.seed, passed)
            correct = verdict.failed == 0
            metrics = {
                "setup_s": metric(raw_setup_s / passed.host_factor(), "s"),
                "ops_per_s": metric(passed.ops_per_s(), "1/s"),
                "peak_rss_mb": metric(rss, "MB"),
                "ok_frac": metric(1.0 - verdict.failed / verdict.attempted, "frac"),
                "mean_rate_bps_hz": metric(verdict.mean_rate(), "bps/Hz"),
            }
            digest = passed.digest()
            note = (f"timed_rounds={passed.timed_rounds} "
                    f"host_slowdown={passed.host_slowdown():.4f} "
                    f"raw_ops_per_s={passed.raw_ops_per_s():.6g} "
                    f"raw_setup_s={raw_setup_s:.4f}")
        else:
            tracer = layers.Tracer()
            plain, traced, overhead = run_traced(workload, args.seed, quality_rounds, workdir,
                                                 cli, tracer)
            verdict = checks.verify(workload, args.seed, traced, tracer)
            digest = traced.digest()
            correct = verdict.failed == 0 and plain.digest() == digest
            metrics = layers.per_layer_metrics(tracer, traced, verdict, overhead,
                                               layers.exp_peak_rate())
            note = (f"untraced_digest_equal={plain.digest() == digest} "
                    f"missing_wraps={','.join(tracer.missing) or 'none'}")
        attempted, failed = verdict.attempted, verdict.failed
    repeat = check_digest(f"{args.workload} seed={args.seed} seconds={args.seconds:g}", digest)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"quality_runs={quality_rounds * workload.round_size} "
          f"panel_runs={workload.panel_rounds * workload.round_size} {note} "
          f"payload_sha256={digest} digest_repeat={repeat}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
