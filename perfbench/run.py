"""hmqm benchmark: the paper's costs, end to end and module by module.

Usage:
    python3 perfbench/run.py --workload {forge,honest,bounds,bank,all}
                             --seed N --seconds S --trace {0,1} [--tiny]

Each workload drives only public entry points of the package in ./src:
`run_forging_experiment`, `run_honest_experiment`, `CloneBound.compute`,
and `hmqm serve` with `BankClient.mint` / `client_verify`.  Inputs come from
--seed; every result is checked.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer ones.  The gated cost,
`norm_cpu_per_op`, is CPU time per operation divided by the CPU time of a
fixed reference pass timed next to each call, so that the swings of a
shared machine's speed cancel out.  Earlier lines hold the provenance and
a readable report with the workload's own metric names.
`--workload all` runs the four workloads one after another, each in its own
process, and prefixes each metric with its workload.  --tiny shrinks every
shape for the smoke test.  The exit code is 0 only when every check passed.
See perfbench/README.md for why each workload exists.
"""

import argparse
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("forge", "honest", "bounds", "bank")
SETUP_PROBES = 7
REFERENCE_STEPS = 60_000
REFERENCE_GATHERS = 4
BANK_REFERENCE_PASSES = 5
SERVER_START_TIMEOUT_S = 60
SERVER_STOP_TIMEOUT_S = 20

# Workload shapes.  forge is acceptance criterion 7, honest is criterion 6's
# noisy run, bounds is the cloning-bound table, bank a closed loop against
# `hmqm serve`.  A forge or honest call runs `batch` trials, so batching
# inside the experiment loops shows up; a call takes under a second, so a
# run holds dozens of calls, each timed beside a reference pass.  Each bank
# server holds at most `mints_per_server` coins, which bounds its memory and
# journal; it is then replaced by a fresh one, and every start is a set-up
# sample.
SHAPES = {
    "forge": dict(n=4, q=4_000_000, l=2000, beta=0.1, strategy="symmetric_clone", batch=2),
    "honest": dict(n=8, q=2_000_000, l=2000, beta=0.1, batch=5),
    "bounds": dict(ns=[4, 6, 8, 10, 12, 14]),
    "bank": dict(n=8, q=100_000, l=20, beta=0.0, clients=2, mints_per_server=100, twin_loops=3),
}
TINY_SHAPES = {
    "forge": dict(SHAPES["forge"], q=1_000_000, l=500, batch=1),
    "honest": dict(SHAPES["honest"], q=500_000, l=500, batch=2),
    "bounds": dict(ns=[4, 12]),
    "bank": dict(SHAPES["bank"], mints_per_server=10, twin_loops=1),
}

BOUND_NS = (4, 6, 8, 10, 12, 14)
LAYERS = (
    ["protocol.bank_mint", "protocol.holder_verify", "protocol.measure_positions",
     "protocol.bank_check", "adversary.forge_coins"]
    + [f"bounds.build_q_matrix.n{n}" for n in BOUND_NS]
    + [f"bounds.operator_norm.n{n}" for n in BOUND_NS]
    + ["service.connect", "service.client.mint", "service.client.measure",
       "service.client.verify", "service.client_verify"]
    + ["service.journal_append.mint", "service.journal_append.check",
       "service.server.bank_mint", "service.server.measure_positions",
       "service.server.bank_check", "service.server.send_message"]
)
# Mean of the recorded samples of each name, 0 when none were recorded.
SAMPLED = {
    "bounds.q_matrix_mb.n14": "MB",
    "service.journal_bytes.mint": "B",
    "service.journal_bytes.check": "B",
    "service.mint_reply_bytes": "B",
    "service.verify_request_bytes": "B",
}


class Run:
    """What one workload measured and how many of its operations failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, tuple] = {}  # name -> (value, unit)
        self.report: dict[str, tuple] = {}   # the workload's own names, for people
        self._lock = threading.Lock()

    def count(self, attempted: int, failed: int = 0, error: str | None = None) -> None:
        with self._lock:
            self.attempted += attempted
            self.failed += failed
            if error is not None and len(self.errors) < 20:
                self.errors.append(error)


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Reference:
    """A fixed pass of work that does not touch hmqm, the unit of the gated
    CPU cost: interpreted Python, then random reads from a 4 MB table.

    The gated cost divides each call's CPU time by the mean of the passes
    timed just before and just after it, in the same thread.  On a shared
    virtual machine the CPU time of the same work swings by a quarter from
    one second to the next with the host's load, and this pass swings with
    it; no change to hmqm moves it.  Its arrays are made once, so a pass
    faults in no fresh pages, and they add 12 MB to peak_rss_mb."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20161019)
        self.table = rng.random(500_000)
        self.index = rng.integers(0, self.table.size, size=500_000)
        self.picked = np.empty(self.index.size)
        self.take = np.take
        self.cpu_s()

    def cpu_s(self) -> float:
        """CPU seconds of one pass."""
        start = time.process_time()
        acc, seen = 0, {}
        for k in range(REFERENCE_STEPS):
            acc = (acc * 31 + k) % 1_000_003
            seen[acc & 1023] = k
        for _ in range(REFERENCE_GATHERS):
            self.take(self.table, self.index, out=self.picked)
        return time.process_time() - start


def warm_up(workload: str, shape: dict) -> None:
    """Imports plus one small call through the workload's entry point."""
    import numpy as np

    from hmqm import adversary, bounds, protocol

    rng = np.random.default_rng(0)
    if workload == "forge":
        params = protocol.VerdictParameters.from_noise(shape["n"], shape["beta"])
        adversary.run_forging_experiment(
            shape["n"], 20_000, 10, adversary.builtin_strategy(shape["strategy"]), 1, params, rng)
    elif workload == "honest":
        protocol.run_honest_experiment(shape["n"], 20_000, 20, shape["beta"], 1, rng)
    elif workload == "bounds":
        bounds.CloneBound.compute(4)


def setup_seconds(args) -> list[float]:
    """Time fresh processes from spawn through warm_up, SETUP_PROBES times."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return times


def in_process_targets(recorder):
    from hmqm import adversary, bounds, protocol

    def norm_name(h, *args, **kwargs):
        n = round(len(h) ** (1 / 3))
        recorder.sample(f"bounds.q_matrix_mb.n{n}", h.nbytes / 1e6)
        return f"bounds.operator_norm.n{n}"

    return [
        (protocol, "bank_mint", "protocol.bank_mint"),
        (protocol, "holder_verify", "protocol.holder_verify"),
        (protocol, "measure_positions", "protocol.measure_positions"),
        (protocol, "bank_check", "protocol.bank_check"),
        (adversary, "bank_mint", "protocol.bank_mint"),
        (adversary, "holder_verify", "protocol.holder_verify"),
        (adversary, "forge_coins", "adversary.forge_coins"),
        (bounds, "build_q_matrix", lambda n, *a, **k: f"bounds.build_q_matrix.n{n}"),
        (bounds, "operator_norm", norm_name),
    ]


class Call:
    """One timed call: traced or not, its wall and CPU seconds, and the mean
    of the reference passes timed just before and just after it."""

    def __init__(self, traced: bool, wall_s: float, cpu_s: float, ref_s: float):
        self.traced, self.wall_s, self.cpu_s, self.ref_s = traced, wall_s, cpu_s, ref_s


def repeat_calls(args, run, recorder, reference, min_calls, call, group=1):
    """Call call(i) until --seconds have passed, at least min_calls times,
    with a reference pass before the first call and after each one.  With
    --trace 1 every other group of `group` calls runs traced, and at least
    one group of each.  call returns (operations, failed operations, error
    message or None)."""
    calls = []
    targets = in_process_targets(recorder)
    if args.trace:
        min_calls = max(min_calls, 2 * group)
    deadline = time.perf_counter() + args.seconds
    ref_before = reference.cpu_s()
    i = 0
    while i < min_calls or time.perf_counter() < deadline:
        traced = bool(args.trace) and (i // group) % 2 == 1
        with recorder.patched(targets) if traced else nullcontext():
            start, start_cpu = time.perf_counter(), time.process_time()
            operations, failed, error = call(i)
            cpu_s = time.process_time() - start_cpu
            wall_s = time.perf_counter() - start
        run.count(operations, failed, error)
        ref_after = reference.cpu_s()
        calls.append(Call(traced, wall_s, cpu_s, (ref_before + ref_after) / 2.0))
        ref_before = ref_after
        i += 1
    return calls


def forge(args, shape, run, recorder, reference):
    import numpy as np

    from hmqm import adversary, bounds, protocol

    n, q, l, batch = shape["n"], shape["q"], shape["l"], shape["batch"]
    strategy = adversary.builtin_strategy(shape["strategy"])
    params = protocol.VerdictParameters.from_noise(n, shape["beta"])
    e = bounds.e_max(n)
    tolerance = 6.0 * (e * (1.0 - e) / (2 * batch * l)) ** 0.5

    def call(i):
        try:
            out = adversary.run_forging_experiment(
                n, q, l, strategy, batch, params, np.random.default_rng([args.seed, i]))
        except Exception as exc:  # counted as failed trials, reported below
            return batch, batch, f"call {i}: {exc!r}"
        both = int(np.sum(out.accept1 & out.accept2))
        summary = out.to_dict()
        white = (summary["mean_white_error1"] + summary["mean_white_error2"]) / 2.0
        if abs(white - e) > tolerance:
            return batch, batch, f"call {i}: mean white error {white:.4f}, e_max({n}) = {e:.4f}"
        return batch, both, f"call {i}: {both} trials accepted twice" if both else None

    return trials_result(args, shape, run, recorder, reference, call)


def honest(args, shape, run, recorder, reference):
    import numpy as np

    from hmqm import protocol

    n, q, l, beta, batch = shape["n"], shape["q"], shape["l"], shape["beta"], shape["batch"]

    def call(i):
        try:
            out = protocol.run_honest_experiment(n, q, l, beta, batch, np.random.default_rng([args.seed, i]))
        except Exception as exc:  # counted as failed trials, reported below
            return batch, batch, f"call {i}: {exc!r}"
        bad = out.trials - out.valid
        return batch, bad, f"call {i}: {bad} rounds not Valid" if bad else None

    return trials_result(args, shape, run, recorder, reference, call)


def trials_result(args, shape, run, recorder, reference, call):
    """Metrics per trial of the untraced calls; returns the median
    normalized CPU time per trial, untraced and traced."""
    calls = repeat_calls(args, run, recorder, reference, 3, call)
    batch = shape["batch"]
    untraced = [c for c in calls if not c.traced]
    norm_p50 = {traced: statistics.median(c.cpu_s / batch / c.ref_s for c in calls if c.traced == traced)
                for traced in {c.traced for c in calls}}
    wall_p50 = statistics.median(c.wall_s for c in untraced) / batch
    run.metrics = {"norm_cpu_per_op": (norm_p50[False], "ref")}
    run.report = {"trials_per_s": (1.0 / wall_p50, "1/s"), "trial_p50_ms": (wall_p50 * 1e3, "ms"),
                  "cpu_ms_per_trial": (statistics.median(c.cpu_s for c in untraced) / batch * 1e3, "ms"),
                  "reference_cpu_ms": (statistics.median(c.ref_s for c in untraced) * 1e3, "ms"),
                  "trials": (len(untraced) * batch, "count")}
    return norm_p50


def bound_table(args, shape, run, recorder, reference):
    """One row of the table per call, cycling through n; a table's cost is
    the sum over n of each row's median, which uses every row timed."""
    from hmqm import bounds

    ns = shape["ns"]

    def call(i):
        n = ns[i % len(ns)]
        try:
            row = bounds.CloneBound.compute(n)
        except Exception as exc:  # counted as a failed row, reported below
            return 1, 1, f"table {i // len(ns)}, n={n}: {exc!r}"
        deviation = abs(row.fidelity_bound - (0.5 + 1.0 / n))
        if not deviation <= 1e-9:
            return 1, 1, f"table {i // len(ns)}, n={n}: |n*lambda - (1/2 + 1/n)| = {deviation:.3e}"
        return 1, 0, None

    calls = repeat_calls(args, run, recorder, reference, len(ns), call, group=len(ns))

    def table(traced, value):
        rows = {n: [value(c) for i, c in enumerate(calls) if c.traced == traced and ns[i % len(ns)] == n]
                for n in ns}
        return sum(statistics.median(values) for values in rows.values() if values)

    norm = {traced: table(traced, lambda c: c.cpu_s / c.ref_s) for traced in {c.traced for c in calls}}
    run.metrics = {"norm_cpu_per_op": (norm[False], "ref")}
    run.report = {"table_s": (table(False, lambda c: c.wall_s), "s"),
                  "table_cpu_s": (table(False, lambda c: c.cpu_s), "s"),
                  "reference_cpu_ms": (statistics.median(c.ref_s for c in calls if not c.traced) * 1e3, "ms"),
                  "rows": (sum(not c.traced for c in calls), "count")}
    return norm


class Server:
    """`hmqm serve` through serve.py, in a subprocess on its own journal.

    stop() reaps it and returns what serve.py wrote at exit: CPU seconds
    before serving and at exit, and spans when traced."""

    def __init__(self, directory: str, name: str, traced: bool):
        self.journal = os.path.join(directory, f"journal-{name}.ndjson")
        self.stats_path = os.path.join(directory, f"stats-{name}.json")
        cmd = [sys.executable, os.path.join(HERE, "serve.py"), self.stats_path, str(int(traced)),
               "--listen", "127.0.0.1:0", "--data", self.journal]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        self._banner = threading.Event()
        self._lines: list[str] = []
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            if not self._banner.wait(SERVER_START_TIMEOUT_S):
                raise RuntimeError("hmqm serve printed no banner")
            self.startup_s = time.perf_counter() - start
            match = re.search(r"serving on ([0-9.]+):(\d+)", self._lines[0] if self._lines else "")
            if match is None:
                raise RuntimeError(f"unexpected serve banner: {''.join(self._lines)[-500:]!r}")
            self.address = (match.group(1), int(match.group(2)))
        except BaseException:
            self.stop()
            raise

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._lines.append(line)
            self._banner.set()
        self._banner.set()

    def stop(self) -> dict:
        """SIGTERM, then SIGKILL if it is still running after the timeout or
        when this process is interrupted meanwhile."""
        try:
            if self.proc.poll() is None:
                self.proc.terminate()
                self.proc.wait(SERVER_STOP_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self._reader.join(SERVER_STOP_TIMEOUT_S)
            self.proc.stderr.close()
        with open(self.stats_path) as fh:
            return json.load(fh)


def frame_bytes(obj: dict) -> int:
    """Size on the wire of one frame, encoded as hmqm.service.send_message does."""
    return 4 + len(json.dumps(obj, sort_keys=True).encode("utf-8"))


def journal_record_sizes(path: str) -> dict[str, list[int]]:
    sizes: dict[str, list[int]] = {}
    with open(path, "rb") as fh:
        for line in fh:
            event = json.loads(line)["event"]
            sizes.setdefault(f"service.journal_bytes.{event}", []).append(len(line))
    return sizes


def client_targets(recorder):
    from hmqm import service

    def counted_send(send):
        def wrapper(sock, obj):
            if obj.get("type") == "verify":
                recorder.sample("service.verify_request_bytes", frame_bytes(obj))
            return send(sock, obj)
        return wrapper

    def counted_recv(recv):
        def wrapper(sock):
            msg = recv(sock)
            if msg is not None and msg.get("type") == "mint_ok":
                recorder.sample("service.mint_reply_bytes", frame_bytes(msg))
            return msg
        return wrapper

    spans = [
        (service.BankClient, "__post_init__", "service.connect"),
        (service.BankClient, "mint", "service.client.mint"),
        (service.BankClient, "measure", "service.client.measure"),
        (service.BankClient, "verify", "service.client.verify"),
        (service, "client_verify", "service.client_verify"),
    ]
    counts = [(service, "send_message", counted_send), (service, "recv_message", counted_recv)]
    return spans, counts


def bank(args, shape, run, recorder, reference):
    import numpy as np

    from hmqm import protocol, service
    from spans import swapped

    n, q, l, beta = shape["n"], shape["q"], shape["l"], shape["beta"]
    params = protocol.VerdictParameters.from_noise(n, beta)
    channel = protocol.HonestChannel(beta)
    span_targets, count_targets = client_targets(recorder)

    def mint_seed(stream: int, k: int) -> int:
        return int(np.random.SeedSequence([args.seed, stream, k]).generate_state(1, np.uint64)[0]) >> 1

    def twin_check(address, k) -> None:
        """Wire mint and rounds against the same seeds run in process."""
        seed = mint_seed(0, k)
        with service.BankClient(*address) as client:
            wire_coin = client.mint(n, q, l, seed=seed)
        local_coin, local_db = protocol.bank_mint(n, q, l, np.random.default_rng(seed))
        if wire_coin.coin_id != local_coin.coin_id:
            run.count(1, 1, f"twin {k}: coin id {wire_coin.coin_id} != {local_coin.coin_id}")
            return
        run.count(1)
        wire_rng, local_rng = np.random.default_rng([args.seed, 0, k]), np.random.default_rng([args.seed, 0, k])
        for r in range(wire_coin.T):
            remote = service.client_verify(address, wire_coin, params, channel, wire_rng)
            local = protocol.holder_verify(local_coin, local_db, params, channel, local_rng)
            same = remote.transcript.to_json() == local.transcript.to_json() and remote.check == local.check
            valid = remote.verdict is protocol.Verdict.VALID
            run.count(1, 0 if same and valid else 1,
                      None if same and valid else f"twin {k} round {r}: wire run differs or not Valid")

    def gap_reference_s() -> float:
        """A server runs for seconds, so the gap after it holds several
        reference passes; their median is steadier than one pass."""
        return statistics.median(reference.cpu_s() for _ in range(BANK_REFERENCE_PASSES))

    mint_ms, round_ms = [], []
    cpu_per_request = {False: [], True: []}
    norm_per_request = {False: [], True: []}
    refs = []
    epoch_rates = []
    setup = []
    state = {"next": 0, "minted": 0}
    state_lock = threading.Lock()

    def client_loop(address, quota, stop_at, requests):
        while True:
            with state_lock:
                # Every server gets at least one loop, even past the deadline.
                if state["minted"] >= quota or (state["minted"] and time.perf_counter() >= stop_at):
                    return
                state["minted"] += 1
                k = state["next"]
                state["next"] += 1
            try:
                start = time.perf_counter()
                with service.BankClient(*address) as client:
                    coin = client.mint(n, q, l, seed=mint_seed(1, k))
                mint_ms.append((time.perf_counter() - start) * 1e3)
                requests.append(1)
                run.count(1)
            except Exception as exc:  # an error reply or a dropped connection
                run.count(1, 1, f"mint {k}: {exc!r}")
                continue
            rng = np.random.default_rng([args.seed, 1, k])
            for r in range(coin.T):
                try:
                    start = time.perf_counter()
                    out = service.client_verify(address, coin, params, channel, rng)
                    round_ms.append((time.perf_counter() - start) * 1e3)
                    requests.append(2)
                except Exception as exc:  # an error reply or a dropped connection
                    run.count(1, 1, f"coin {k} round {r}: {exc!r}")
                    break
                ok = out.verdict is protocol.Verdict.VALID and out.check.s == r + 1 <= out.check.T
                run.count(1, 0 if ok else 1,
                          None if ok else f"coin {k} round {r}: {out.verdict.value}, s={out.check.s if out.check else None}")

    def serve_clients(server, traced, stop_at) -> int:
        """Run the client threads against one server; returns requests sent."""
        state["minted"] = 0
        requests: list[int] = []
        with recorder.patched(span_targets) if traced else nullcontext(), \
                swapped(count_targets) if traced else nullcontext():
            threads = [threading.Thread(target=client_loop, daemon=True,
                                        args=(server.address, shape["mints_per_server"], stop_at, requests))
                       for _ in range(shape["clients"])]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        return sum(requests)

    # The client threads and every server share one CPU; the threads and
    # servers started below inherit this thread's affinity.  Spread over two
    # CPUs, cross-CPU wake-ups cost a fifth of the CPU time per request, and
    # that share swung with the host's load: the spread of CPU time per
    # request across servers doubled.
    allowed_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed_cpus)})
    tmp_parent = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="bank-", dir=tmp_parent)
    try:
        server = Server(tmp, "twins", traced=False)
        try:
            setup.append(server.startup_s)
            for k in range(shape["twin_loops"]):
                try:
                    twin_check(server.address, k)
                except Exception as exc:  # an error reply or a dropped connection
                    run.count(1, 1, f"twin {k}: {exc!r}")
        finally:
            server.stop()
        measured = 0.0
        epoch = 0
        ref_before = gap_reference_s()
        while epoch < 1 + args.trace or measured < args.seconds:
            traced = bool(args.trace) and epoch % 2 == 1
            server = Server(tmp, str(epoch), traced)
            try:
                setup.append(server.startup_s)
                start, start_cpu = time.perf_counter(), time.process_time()
                requests = serve_clients(server, traced, start + max(args.seconds - measured, 0.0))
                elapsed, client_cpu = time.perf_counter() - start, time.process_time() - start_cpu
            finally:
                stats = server.stop()
            ref_after = gap_reference_s()
            refs.append((ref_before + ref_after) / 2.0)
            ref_before = ref_after
            if requests:
                server_cpu = stats["cpu_s"] - stats["startup_cpu_s"]
                cpu_per_request[traced].append((client_cpu + server_cpu) / requests)
                norm_per_request[traced].append(cpu_per_request[traced][-1] / refs[-1])
                if not traced:
                    epoch_rates.append(requests / elapsed)
            measured += elapsed
            if traced:
                recorder.merge(stats)
                for name, sizes in journal_record_sizes(server.journal).items():
                    for size in sizes:
                        recorder.sample(name, size)
            os.remove(server.journal)
            epoch += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass
        os.sched_setaffinity(0, allowed_cpus)

    # The servers are children and have all been reaped: ru_maxrss is the
    # largest one's peak, in KiB on Linux.
    peak_server_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    cpu_ms = statistics.median(cpu_per_request[False]) * 1e3
    norm_p50 = {traced: statistics.median(values) for traced, values in norm_per_request.items() if values}
    run.metrics = {"norm_cpu_per_op": (norm_p50[False], "ref")}
    run.report = {
        "requests_per_s": (statistics.median(epoch_rates), "1/s"),
        "mint_p50_ms": (percentile(mint_ms, 50), "ms"),
        "mint_p90_ms": (percentile(mint_ms, 90), "ms"),
        "round_p50_ms": (percentile(round_ms, 50), "ms"),
        "round_p90_ms": (percentile(round_ms, 90), "ms"),
        "cpu_ms_per_request": (cpu_ms, "ms"),
        "reference_cpu_ms": (statistics.median(refs) * 1e3, "ms"),
        "mints": (len(mint_ms), "count"),
        "rounds": (len(round_ms), "count"),
        "servers": (epoch, "count"),
    }
    return setup, peak_server_mb, norm_p50


def run_workload(args, shape) -> Run:
    from spans import Recorder, layer_metrics

    run = Run()
    recorder = Recorder()
    if args.workload == "bank":
        setup, peak_mb, per_unit = bank(args, shape, run, recorder, Reference())
    else:
        setup = setup_seconds(args)
        warm_up(args.workload, shape)
        body = {"forge": forge, "honest": honest, "bounds": bound_table}[args.workload]
        per_unit = body(args, shape, run, recorder, Reference())
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.metrics.update(setup_s=(statistics.median(setup), "s"), peak_rss_mb=(peak_mb, "MB"))
    run.report.update(setup_s=run.metrics["setup_s"], peak_rss_mb=run.metrics["peak_rss_mb"],
                      failed_frac=(run.failed / max(run.attempted, 1), "1"))
    if args.trace:
        overhead = (per_unit[True] / per_unit[False] - 1.0) * 100.0
        run.metrics = layer_metrics(LAYERS, recorder.self_times())
        for name, unit in SAMPLED.items():
            values = recorder.samples.get(name, [])
            run.metrics[name] = (statistics.fmean(values) if values else 0.0, unit)
        run.metrics["trace.overhead_pct"] = (overhead, "%")
        run.report = {"tracing_overhead_pct": (overhead, "%"), "failed_frac": run.report["failed_frac"]}
    return run


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or os.path.realpath(fields[0]) != os.path.realpath(ROOT):
        return "unknown"
    return fields[1]


def provenance(args, shape) -> dict:
    import numpy

    import hmqm

    return {
        "git_sha": git_sha(), "hmqm": hmqm.__version__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny, "params": shape,
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_all(args) -> int:
    """Each workload in its own process, so each peak_rss_mb is its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {proc.returncode})", file=sys.stderr)
            correct = False
            continue
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics[f"{workload}.{name}"] = (m["value"], m["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small shapes, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hmqm", "__init__.py")):
        print("error: the hmqm sources (src/hmqm) are not next to the benchmark", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads and inherited by every child:
    # CPU time then counts the work alone, not idle BLAS threads spinning.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    shape = (TINY_SHAPES if args.tiny else SHAPES).get(args.workload)
    if args.setup_probe:
        warm_up(args.workload, shape)
        return 0
    if args.workload == "all":
        return run_all(args)
    # SIGTERM unwinds like Ctrl-C, so the bank's server is always reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print(json.dumps({"provenance": provenance(args, shape)}), flush=True)
    run = run_workload(args, shape)
    for error in run.errors:
        print(f"check failed: {error}", file=sys.stderr)
    for name, (value, unit) in run.report.items():
        print(f"report {args.workload} {name} {value:.6g} {unit}")
    correct = run.failed == 0
    print(result_line(correct, run.attempted, run.failed, run.metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
