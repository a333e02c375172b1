"""In-process cluster simulation with exact transfer accounting.

A cluster is n nodes, each storing one codeword symbol of a plan's RS code.
The orchestrator injects a single failure, runs a repair strategy over a
counted message channel, and verifies the recovered symbol against the
original encode byte-for-byte.

The "pe" strategy is the repair engine's partial-exclusion repair.  The
"naive" one reads k whole symbols, from the first k live nodes, and
rebuilds the failed symbol by one parity check of the dual code: c_f =
sum_j w_j c_j, with w_j = h(alpha_j) v_j / (h(alpha_f) v_f), h the
annihilator of the other n - k - 1 points (the column that
repair_engine's skeleton also uses).  The weights cost one inversion,
beyond the plan's dual multipliers, which are computed once.
repair_engine owns both and caches them on the plan, under the keys
("dual_multipliers",) and ("naive", failed, helpers), so a repeat costs k
products.  This module fills no cache of its own.

Messages are drawn from SplitMix64 so clusters reproduce bit-identically
across runs and machines: state advances by the odd constant
0x9E3779B97F4A7C15, and each output is the state mixed by two xor-shift
multiplies (0xBF58476D1CE4E5B9, 0x94D049BB133111EB) and a final 31-bit
shift.  Field coefficients take ceil(N/64) consecutive 64-bit words,
little-endian, masked to N bits.

File formats
    cluster file    `plan = <path>` (relative to the cluster file), then
                    `plan_digest = <hex>`, `seed = <int>`, and one
                    `node <index> <symbol hex | FAILED>` line per node.
    transfer log    entries (from, to, bits, purpose); purposes are
                    "trace_response" (pe) and "full_symbol" (naive).
                    `perepair repair --out` and `--json` write them in the
                    transcript as `transfer_log: [[from, to, bits,
                    purpose], ...]`; TransferLog.to_csv() gives CSV rows
                    `from,to,bits,purpose` under that header.
"""

from __future__ import annotations

import os

from .errors import PERepairError, check_invariant
from ._util import atomic_write_text, parse_decimal, read_text
from .constructions import load_plan, save_plan
from .repair_engine import _naive_weights, _scheme
from .rs_codes import Codeword, MessagePoly, encode

__all__ = [
    "SplitMix64",
    "NodeRecord",
    "ClusterState",
    "TransferLog",
    "NaiveReport",
    "init_cluster",
    "fail_node",
    "run_repair",
    "save_cluster",
    "load_cluster",
]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The standard 64-bit SplitMix sequence."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_word(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def field_bits(self, nbits: int) -> int:
        v = 0
        for i in range((nbits + 63) // 64):
            v |= self.next_word() << (64 * i)
        return v & ((1 << nbits) - 1)


class NodeRecord:
    """One storage node; symbol is None while the node is failed."""

    __slots__ = ("index", "symbol")

    def __init__(self, index, symbol):
        self.index = index
        self.symbol = symbol

    @property
    def failed(self) -> bool:
        return self.symbol is None


class ClusterState:
    __slots__ = ("plan", "nodes", "message_seed", "_expected")

    def __init__(self, plan, nodes, message_seed, expected):
        self.plan = plan
        self.nodes = nodes
        self.message_seed = message_seed
        self._expected = expected  # the encoded symbols, for verification

    @property
    def failed_node(self):
        for rec in self.nodes:
            if rec.failed:
                return rec.index
        return None

    def live_codeword(self) -> Codeword:
        """Current symbols with zero standing in for the failed slot (the
        repair engine never reads that coordinate)."""
        zero = self.plan.ctx.zero
        return Codeword(
            [rec.symbol if rec.symbol is not None else zero for rec in self.nodes],
            self.plan.digest,
        )


class TransferLog:
    """Who sent how many bits to whom, and why."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        self.entries = list(entries)

    def add(self, from_node, to_node, bits, purpose):
        self.entries.append((from_node, to_node, bits, purpose))

    @property
    def total_bits(self) -> int:
        return sum(bits for _, _, bits, _ in self.entries)

    def to_csv(self) -> str:
        lines = ["from,to,bits,purpose"]
        for f, t, b, p in self.entries:
            lines.append(f"{f},{t},{b},{p}")
        return "\n".join(lines) + "\n"


class NaiveReport:
    """Outcome of a whole-symbol repair: k helpers' symbols combined by one
    dual-code parity check (the same symbol Lagrange interpolation gives)."""

    __slots__ = ("failed", "helpers", "bits_transmitted", "recovered", "verified")

    def __init__(self, failed, helpers, bits_transmitted, recovered):
        self.failed = failed
        self.helpers = list(helpers)
        self.bits_transmitted = bits_transmitted
        self.recovered = recovered
        self.verified = None

    def to_payload(self) -> dict:
        return {
            "failed": self.failed,
            "helpers": self.helpers,
            "bits_transmitted": self.bits_transmitted,
            "recovered": self.recovered.hex(),
            "verified": self.verified,
        }


def init_cluster(plan, seed: int) -> ClusterState:
    """Encode a seed-deterministic random message and spread it over n nodes."""
    rng = SplitMix64(seed)
    ctx = plan.ctx
    msg = MessagePoly(
        [ctx.elem(rng.field_bits(ctx.degree_bits)) for _ in range(plan.k)]
    )
    cw = encode(msg, plan.eval_set, plan_digest=plan.digest)
    nodes = [NodeRecord(i, symbol) for i, symbol in enumerate(cw.symbols)]
    return ClusterState(plan, nodes, seed, cw.symbols)


def fail_node(state: ClusterState, index: int) -> ClusterState:
    if not 0 <= index < state.plan.n:
        raise ValueError(f"node index {index} out of range")
    current = state.failed_node
    if current == index:
        raise PERepairError("ALREADY_FAILED", f"node {index} is already failed")
    if current is not None:
        raise PERepairError(
            "SECOND_FAILURE_UNSUPPORTED",
            f"node {current} is still down; repair it before failing {index}",
        )
    state.nodes[index].symbol = None
    return state


def run_repair(state: ClusterState, strategy: str = "pe", d: int | None = None):
    """Repair the failed node; returns (state, transcript-or-report, log)."""
    failed = state.failed_node
    if failed is None:
        raise PERepairError("NO_FAILED_NODE", "no node is failed")
    plan = state.plan
    log = TransferLog()

    if strategy == "pe":
        transcript = _scheme(plan)(plan, state.live_codeword(), failed, d)
        for helper, _ in transcript.queries:
            log.add(helper, failed, transcript.response_bits, "trace_response")
        check_invariant(log.total_bits == transcript.bits_transmitted,
                        "transfer log disagrees with the transcript's bits")
    elif strategy == "naive":
        if d is not None:
            raise PERepairError(
                "LOCALITY_OUT_OF_RANGE",
                f"naive repair always reads k = {plan.k} whole symbols; "
                f"it takes no locality, got d={d}",
            )
        helpers = [rec.index for rec in state.nodes if not rec.failed][: plan.k]
        symbol_bits = plan.ctx.degree_bits
        for h in helpers:
            log.add(h, failed, symbol_bits, "full_symbol")
        recovered = plan.ctx.zero
        for h, w in zip(helpers, _naive_weights(plan, failed, helpers)):
            recovered = recovered + w * state.nodes[h].symbol
        transcript = NaiveReport(failed, helpers, log.total_bits, recovered)
        check_invariant(log.total_bits == plan.k * plan.L * plan.base_bits,
                        "naive transfer log is not k whole symbols")
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    transcript.verified = transcript.recovered == state._expected[failed]
    state.nodes[failed].symbol = transcript.recovered
    return state, transcript, log


def save_cluster(state: ClusterState, path, plan_path=None) -> None:
    """Write the cluster file and (always) its plan file next to it."""
    path = os.fspath(path)
    if plan_path is None:
        plan_path = path + ".plan"
    plan_path = os.fspath(plan_path)
    save_plan(state.plan, plan_path)
    rel = os.path.relpath(plan_path, os.path.dirname(os.path.abspath(path)))
    lines = [
        f"plan = {rel}",
        f"plan_digest = {state.plan.digest}",
        f"seed = {state.message_seed}",
    ]
    for rec in state.nodes:
        mark = "FAILED" if rec.failed else rec.symbol.hex()
        lines.append(f"node {rec.index} {mark}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_cluster(path) -> ClusterState:
    """Re-open a cluster file; live symbols are verified against a fresh
    encode of the seeded message.  The plan comes from load_plan, which
    keeps one validated plan per digest, and the node lines are parsed and
    checked before the message is encoded."""
    path = os.fspath(path)
    header = {}
    node_lines = []
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("node "):
            node_lines.append(line.split())
        elif "=" in line:
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
        else:
            raise PERepairError("CORRUPT_FILE", f"{path}: stray line {line!r}")
    try:
        plan_ref = header["plan"]
        digest = header["plan_digest"]
        seed = parse_decimal(header["seed"])
    except (KeyError, ValueError) as exc:
        raise PERepairError("CORRUPT_FILE", f"{path}: bad header: {exc}")

    plan_path = plan_ref
    if not os.path.isabs(plan_path):
        plan_path = os.path.join(os.path.dirname(os.path.abspath(path)), plan_path)
    plan = load_plan(plan_path)
    if plan.digest != digest:
        raise PERepairError(
            "DIGEST_MISMATCH", f"{path}: cluster references a different plan"
        )

    # every node line is checked before the seeded encode is paid for
    if len(node_lines) != plan.n:
        raise PERepairError("CORRUPT_FILE", f"{path}: expected {plan.n} node lines")
    stored = []  # (index, symbol or None for FAILED), in file order
    failed_seen = 0
    seen = set()
    for parts in node_lines:
        if len(parts) != 3:
            raise PERepairError("CORRUPT_FILE", f"{path}: bad node line {parts}")
        try:
            idx = parse_decimal(parts[1])
        except ValueError as exc:
            raise PERepairError("CORRUPT_FILE", f"{path}: {exc}")
        if not 0 <= idx < plan.n:
            raise PERepairError("CORRUPT_FILE", f"{path}: node {idx} out of range")
        if idx in seen:
            # with the line count checked, a repeat hides a missing node
            raise PERepairError("CORRUPT_FILE", f"{path}: node {idx} repeated")
        seen.add(idx)
        if parts[2] == "FAILED":
            failed_seen += 1
            if failed_seen > 1:
                raise PERepairError(
                    "CORRUPT_FILE", f"{path}: more than one failed node"
                )
            stored.append((idx, None))
        else:
            try:
                stored.append((idx, plan.ctx.from_hex(parts[2])))
            except ValueError as exc:
                raise PERepairError("CORRUPT_FILE", f"{path}: {exc}")

    fresh = init_cluster(plan, seed)
    for idx, symbol in stored:
        if symbol is not None and symbol != fresh._expected[idx]:
            raise PERepairError(
                "DIGEST_MISMATCH",
                f"{path}: node {idx} symbol disagrees with the seeded encode",
            )
        fresh.nodes[idx].symbol = symbol
    return fresh
