"""Workloads, rounds and output checks of the benchmark.

A run builds its workload's plan, then plays rounds.  One round:

1. ingests fresh stripes (`init_cluster` + `save_cluster`), half now and
   half at the end of the round;
2. rebuilds the next node of the rebuild list with no prepared repair
   cached (a cold PE repair), while the list lasts;
3. repairs already-prepared nodes again (warm PE repairs);
4. runs naive whole-symbol repairs, cycling through every node;
5. re-opens the round's cluster file (`load_cluster`);
6. in some rounds, times a set-up of the plan in a child process;
7. every few rounds, repairs a node of that file through the CLI in a
   child process.

Spreading each kind of operation over every round lets machine-speed
drift, which is large on shared hosts, fall on every median alike; the
calibration below removes most of what is left.  Every
output is checked against `oracle`, which shares no code with the package;
an operation that fails a check is counted as failed and the run goes on.
"""

import bisect
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170

clock = time.perf_counter

# Machine speed on a shared host drifts by +-15% over seconds, and by more
# over minutes, and every timing drifts with it.  So each timed operation is
# bracketed by a calibration: a fixed loop of `oracle` arithmetic that no
# change to perepair can speed up or slow down.  Over 1-s windows of one
# process its time tracked warm and naive repair times with correlation
# 0.94-0.97, and dividing by it cut their window-to-window variation from
# 8-9% to 3%.  An operation's reported time is its raw time scaled by
# CAL_REF_S / (mean of the calibrations taken within one operation length
# of it, at least 10 ms): seconds on a host that runs the loop in
# CAL_REF_S.  A short operation is scaled by the speed at its own moment; a
# long one, which averages the drift of its own length, by the speed over a
# stretch as long as itself.  Raw times are reported beside.
CAL_REF_S = 0.0003
_CAL_MODULUS = (1 << 233) | (1 << 74) | 1
_CAL_A = (1 << 232) | 0x9E3779B97F4A7C15
_CAL_B = (1 << 231) | 0xBF58476D1CE4E5B9


def calibration_s():
    """Median of three timings of a fixed chain of 233-bit products."""
    times = []
    for _ in range(3):
        start = clock()
        x = _CAL_A
        for _ in range(8):
            x = oracle.field_mul(x, _CAL_B, _CAL_MODULUS)
        times.append(clock() - start)
    return sorted(times)[1]


class CheckFailed(Exception):
    pass


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


class Workload:
    """One input mix.  `build` makes the plan from the imported package;
    `shape` is (construction, n, k, N) the plan must have; `paper_bits`
    are the paper's per-group PE figures and `paper_naive` its naive one.

    A cold repair of the next rebuild-list node runs every `cold_every`
    rounds, so a run plays at least len(rebuild) * cold_every rounds; a CLI
    repair runs every `cli_every` rounds, at most `cli_max` times.  A run
    times `setup_samples` set-ups: its own, and the rest in child processes
    spread evenly over those rounds, where the calibrations of the round's
    other operations lie around them.
    """

    def __init__(self, name, build, shape, rebuild, cold_every,
                 setup_samples, ingests, warm, naive, loads, cli_strategy,
                 cli_nodes, cli_every, cli_max=None, paper_bits=None,
                 paper_naive=None):
        self.name = name
        self.build = build
        self.shape = shape
        self.rebuild = tuple(rebuild)
        self.cold_every = cold_every
        self.min_rounds = len(self.rebuild) * cold_every
        self.setup_samples = setup_samples
        self.ingests = ingests
        self.warm = warm
        self.naive = naive
        self.loads = loads
        self.cli_strategy = cli_strategy
        self.cli_nodes = tuple(cli_nodes)
        self.cli_every = cli_every
        self.cli_max = cli_max
        self.paper_bits = paper_bits
        self.paper_naive = paper_naive

    def cold_node(self, r):
        if r % self.cold_every or r // self.cold_every >= len(self.rebuild):
            return None
        return self.rebuild[r // self.cold_every]

    def setup_rounds(self):
        m = self.setup_samples - 1
        return {i * self.min_rounds // m for i in range(m)}

    def has_cli(self, r):
        if r % self.cli_every:
            return False
        return self.cli_max is None or r // self.cli_every < self.cli_max


WORKLOADS = {
    wl.name: wl for wl in (
        # (9,2), d = 3 over GF(2^210) with the default dense-tail modulus:
        # one helper group, so every cold repair inverts a 21x21 or 35x35
        # trace Gram matrix.  CLI repairs of group 1 keep each child ~2 s;
        # one child varies by +-20% from the next, so every round runs one.
        Workload(
            "wide-cold",
            lambda pe: pe.build_plan_c1(1, [3, 3, 3], s=2, k=2,
                                        primes=[3, 5, 7]),
            shape=(1, 9, 2, 210), rebuild=range(9), cold_every=1,
            setup_samples=7, ingests=12, warm=6, naive=6, loads=3,
            cli_strategy="pe", cli_nodes=(0, 1, 2), cli_every=1,
        ),
        # the paper's (12,8), d = 9 deployment over GF(2^2310).  A plan
        # costs ~15 s, so a run sets up once, and its two CLI repairs are
        # naive: their cost is the fresh-process plan re-validation, which
        # a cold PE repair would lengthen by ~10 s each.
        Workload(
            "example1",
            lambda pe: pe.fixtures.example1().plan,
            shape=(1, 12, 8, 2310), rebuild=(0, 1, 2), cold_every=1,
            setup_samples=1, ingests=1, warm=4, naive=2, loads=1,
            cli_strategy="naive", cli_nodes=(0, 1), cli_every=2, cli_max=2,
            paper_bits=(10395,) * 4, paper_naive=18480,
        ),
        # the paper's (17,9) Construction-2 code over GF(4^30): cheap field
        # arithmetic, so per-call overhead and process start-up dominate.
        # Its 6-ms cold repairs are spread over 68 rounds; its ~0.12-s
        # set-up is sampled nine times, as one child costs only ~0.3 s.
        Workload(
            "c2-stream",
            lambda pe: pe.fixtures.example2().plan,
            shape=(2, 17, 9, 60), rebuild=range(17), cold_every=4,
            setup_samples=9, ingests=2, warm=3, naive=2, loads=1,
            cli_strategy="pe", cli_nodes=range(17), cli_every=2,
            paper_bits=(300, 220, 156), paper_naive=540,
        ),
    )
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv):
    """Run one child process to its end; returns (wall seconds, result)."""
    start = clock()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return clock() - start, proc


class Runner:
    """Plays one workload's rounds and keeps the samples and the tally.

    Rounds go on until `seconds` have passed and min_rounds are played;
    with seconds=0 the run is fixed: exactly min_rounds and no set-up
    children (the passes of a traced run).  traced: CLI children run under
    the tracer and their span dumps are kept in `cli_dumps`.
    """

    def __init__(self, pe, workload, seed, seconds, work_dir, traced=False):
        self.pe = pe
        self.wl = workload
        self.seconds = seconds
        self.work = Path(work_dir)
        self.fixed = not seconds
        self.traced = traced
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.attempted = 0
        self.failed = 0
        self.correct = True
        kinds = ("setup", "cold", "warm", "naive", "ingest", "load", "cli")
        self.raw = {k: [] for k in kinds}       # (start, end, seconds)
        self.cal_log = []                       # (time, calibration_s())
        self.cli_dumps = []
        self.cli_walls = []
        self.plan = None
        self.prepared = []
        self._warm_i = 0
        self._naive_i = 0
        self._cli_i = 0
        self.setup_rounds = workload.setup_rounds()

    # -- bookkeeping -----------------------------------------------------

    def op(self, kind, label, fn):
        """Run one operation; its timing counts only if every check passed.
        fn returns the operation's raw time in seconds."""
        self.attempted += 1
        self.calibrate()
        start = clock()
        try:
            dt = fn()
        except Exception as exc:  # a failed operation must not end the run
            self.failed += 1
            print(f"FAILED {label}: {exc!r}", file=sys.stderr)
            return False
        self.record(kind, start, dt)
        return True

    def calibrate(self):
        self.cal_log.append((clock(), calibration_s()))

    def record(self, kind, start, dt):
        self.raw[kind].append((start, clock(), dt))
        self.calibrate()

    def scaled(self, kind):
        """The kind's raw times, each scaled to the reference speed."""
        stamps = [t for t, _ in self.cal_log]
        out = []
        for start, end, dt in self.raw[kind]:
            reach = max(dt, 0.01)
            lo = bisect.bisect_left(stamps, start - reach)
            hi = bisect.bisect_right(stamps, end + reach)
            cal = statistics.fmean(c for _, c in self.cal_log[lo:hi])
            out.append(dt * CAL_REF_S / cal)
        return out

    # -- set-up ----------------------------------------------------------

    def setup(self):
        self.calibrate()
        start = clock()
        plan = self.wl.build(self.pe)
        self.record("setup", start, clock() - start)
        self.plan = plan
        shape = (plan.construction, plan.n, plan.k, plan.ctx.degree_bits)
        if shape != self.wl.shape:
            self.correct = False
            print(f"plan shape {shape} != {self.wl.shape}", file=sys.stderr)
        self.points = [p.v for p in plan.eval_set.points]
        self.modulus = int(plan.payload()["modulus_hex"], 16)

    def setup_child(self, r):
        def fn():
            _, proc = run_child([sys.executable, str(HERE / "child.py"),
                                 "setup", self.wl.name])
            check(proc.returncode == 0, f"setup child exit {proc.returncode}: "
                  f"{proc.stderr.strip()[-300:]}")
            got = json.loads(proc.stdout.strip().splitlines()[-1])
            check(got["digest"] == self.plan.digest, "child built another plan")
            return got["setup_s"]
        self.op("setup", f"setup child in round {r}", fn)

    # -- checks ----------------------------------------------------------

    def expected(self, msg_seed):
        return oracle.stripe_symbols(msg_seed, self.plan.k, self.points,
                                     self.modulus)

    def check_pe(self, node, helpers, bits, per_helper, cutset, log_bits,
                 recovered):
        plan = self.plan
        gi = plan.locate(node)[0]
        group = set(plan.group_nodes(gi))
        d = plan.d if plan.construction == 1 else plan.n - plan.groups[gi].t
        check(len(helpers) == d and not group & set(helpers),
              f"node {node}: helpers {helpers}")
        want = oracle.cutset_bits(d, plan.k, plan.L, plan.base_bits)
        check(bits == want == cutset, f"node {node}: {bits} bits, cut-set {want}")
        if self.wl.paper_bits:
            check(bits == self.wl.paper_bits[gi],
                  f"node {node}: {bits} bits, paper {self.wl.paper_bits[gi]}")
        check(sum(per_helper) == bits == log_bits,
              f"node {node}: transfer log {log_bits} != {bits}")
        check(recovered == self.truth[node], f"node {node}: wrong symbol")

    def check_naive(self, node, bits, log_bits, recovered):
        plan = self.plan
        want = plan.k * plan.L * plan.base_bits
        check(bits == want == log_bits, f"naive {node}: {bits} bits")
        if self.wl.paper_naive:
            check(bits == self.wl.paper_naive, f"naive {node}: paper mismatch")
        check(recovered == self.truth[node], f"naive {node}: wrong symbol")

    # -- operations ------------------------------------------------------

    def ingest(self, r, j):
        msg_seed = self.rng.getrandbits(64)
        path = self.work / f"stripe{j}.cluster"
        truth = self.expected(msg_seed)
        pe = self.pe
        holder = {}

        def fn():
            start = clock()
            state = pe.init_cluster(self.plan, msg_seed)
            pe.save_cluster(state, path)
            dt = clock() - start
            check([rec.symbol.v for rec in state.nodes] == truth,
                  f"stripe {msg_seed}: encode disagrees with the oracle")
            holder["state"] = state
            return dt
        if self.op("ingest", f"ingest round {r}", fn):
            return holder["state"], path, msg_seed, truth
        return None

    def repair(self, kind, state, node):
        """One PE (cold or warm) or naive repair of `node` on `state`."""
        pe = self.pe
        strategy = "naive" if kind == "naive" else "pe"

        def fn():
            pe.fail_node(state, node)
            try:
                start = clock()
                _, rep, log = pe.run_repair(state, strategy)
                dt = clock() - start
            finally:
                # put the true symbol back so one bad repair cannot
                # poison the repairs that follow on this stripe
                state.nodes[node].symbol = self.plan.ctx.elem(self.truth[node])
            check(rep.verified is True, f"node {node}: not verified")
            if strategy == "naive":
                self.check_naive(node, rep.bits_transmitted, log.total_bits,
                                 rep.recovered.v)
            else:
                self.check_pe(node, rep.helpers, rep.bits_transmitted,
                              rep.per_helper_bits, rep.cutset_bits,
                              log.total_bits, rep.recovered.v)
            return dt
        return self.op(kind, f"{kind} repair of node {node}", fn)

    def load(self, path, msg_seed):
        pe = self.pe

        def fn():
            start = clock()
            state = pe.load_cluster(path)
            dt = clock() - start
            check(state.plan.digest == self.plan.digest, "plan did not round-trip")
            check(state.message_seed == msg_seed and state.failed_node is None,
                  "cluster header did not round-trip")
            check([rec.symbol.v for rec in state.nodes] == self.truth,
                  "symbols did not round-trip")
            return dt
        self.op("load", f"load {path.name}", fn)

    def cli(self, path, node):
        strategy = self.wl.cli_strategy
        transcript = self.work / "transcript.json"
        args = ["--json", "repair", "--cluster", str(path), "--node", str(node),
                "--strategy", strategy, "--out", str(transcript)]
        if self.traced:
            spans = self.work / f"cli-spans-{len(self.cli_dumps)}.json"
            argv = [sys.executable, str(HERE / "child.py"), "cli", str(spans),
                    *args]
        else:
            argv = [sys.executable, "-m", "perepair.cli", *args]

        def fn():
            if transcript.exists():
                transcript.unlink()
            wall, proc = run_child(argv)
            check(proc.returncode == 0, f"CLI exit {proc.returncode}: "
                  f"{proc.stderr.strip()[-300:]}")
            payload = json.loads(transcript.read_text())
            check(json.loads(proc.stdout.strip().splitlines()[-1]) == payload,
                  "CLI summary differs from its transcript")
            check(payload["verified"] is True and payload["failed"] == node,
                  f"CLI node {node}: not verified")
            log_bits = sum(row[2] for row in payload["transfer_log"])
            recovered = int(payload["recovered"], 16)
            if strategy == "naive":
                self.check_naive(node, payload["bits_transmitted"], log_bits,
                                 recovered)
            else:
                self.check_pe(node, payload["helpers"],
                              payload["bits_transmitted"],
                              payload["per_helper_bits"],
                              payload["cutset_bits"], log_bits, recovered)
            if self.traced:
                self.cli_dumps.append(json.loads(spans.read_text()))
                self.cli_walls.append(wall)
            return wall
        self.op("cli", f"CLI {strategy} repair of node {node}", fn)

    # -- rounds ----------------------------------------------------------

    def round(self, r):
        wl = self.wl
        # half the ingests open the round and half close it, so that they
        # sample the file system at two moments of every round
        first = (wl.ingests + 1) // 2
        stripes = [self.ingest(r, j) for j in range(first)]
        if stripes[0] is None:
            return
        state, path, msg_seed, self.truth = stripes[0]
        n = self.plan.n
        node = wl.cold_node(r)
        if node is not None:
            self.repair("cold", state, node)
            self.prepared.append(node)
        if self.prepared:
            for _ in range(wl.warm):
                node = self.prepared[self._warm_i % len(self.prepared)]
                self._warm_i += 1
                self.repair("warm", state, node)
        for _ in range(wl.naive):
            self.repair("naive", state, self._naive_i % n)
            self._naive_i += 1
        for _ in range(wl.loads):
            self.load(path, msg_seed)
        if not self.fixed and r in self.setup_rounds:
            self.setup_child(r)
        # traced passes skip naive CLI repairs: they only re-time set-up
        if wl.has_cli(r) and not (self.fixed and wl.cli_strategy == "naive"):
            node = wl.cli_nodes[self._cli_i % len(wl.cli_nodes)]
            self._cli_i += 1
            self.cli(path, node)
        stripes += [self.ingest(r, j) for j in range(first, wl.ingests)]
        # deleted here, untimed, so that no timed write replaces (and so
        # unlinks) an older file
        for _, old, _, _ in filter(None, stripes):
            old.unlink()
            Path(f"{old}.plan").unlink()

    def run(self):
        begin = clock()
        self.setup()
        start = clock()
        r = 0
        while r < self.wl.min_rounds or clock() - start < self.seconds:
            self.round(r)
            r += 1
        self.rounds = r
        self.wall_s = clock() - begin
        return self

    def end_to_end(self, raw=False):
        """The end-to-end metrics as {name: (value, unit)}, scaled to the
        reference speed unless raw."""
        s = {kind: ([dt for _, _, dt in runs] if raw else self.scaled(kind))
             for kind, runs in self.raw.items()}

        def med(xs, scale=1):
            return statistics.median(xs) * scale if xs else None

        return {
            "setup_s": (med(s["setup"]), "s"),
            "rebuild_s": (sum(s["cold"]) if s["cold"] else None, "s"),
            "warm_repair_ms": (med(s["warm"], 1e3), "ms"),
            "naive_repair_ms": (med(s["naive"], 1e3), "ms"),
            "ingest_ms": (med(s["ingest"], 1e3), "ms"),
            "load_cluster_ms": (med(s["load"], 1e3), "ms"),
            "cli_repair_s": (med(s["cli"]), "s"),
        }


def make_work_dir(tag):
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
