"""Command-line front end.

    perepair plan      resolve + validate a plan, write it as JSON
    perepair cluster   seed a simulated cluster from a plan file
    perepair repair    fail one node of a cluster and repair it
    perepair bound     minimum sub-packetization for (k, t)
    perepair tradeoff  flexibility / bandwidth table as CSV
    perepair reproduce re-run a built-in reference deployment

Exit codes: 0 success, 2 usage, 3 validation, 4 repair verification
failure, 5 resource limit.  All output files are written atomically and
repeated invocations are byte-identical.  ``--json`` switches the human
summaries to one machine-readable JSON object on stdout.
"""

from __future__ import annotations

import argparse
import sys

from ._util import atomic_write_text, canonical_json
from .bounds_tradeoff import (
    BoundQuery,
    min_subpacketization,
    tradeoff_csv,
    tradeoff_table,
)
from .constructions import build_plan_c1, build_plan_c2, save_plan
from .errors import PERepairError, exit_status
from .fixtures import by_name
from .repair_engine import _scheme
from .storage_sim import fail_node, init_cluster, load_cluster, run_repair, save_cluster

__all__ = ["main"]


def _csv_ints(text: str):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="perepair",
        description="Reed-Solomon repair with partial exclusion: planning, "
        "simulation, and bandwidth accounting.",
    )
    top.add_argument("--json", action="store_true",
                     help="machine-readable output on stdout")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("plan", help="resolve a plan and write it to JSON")
    p.set_defaults(run=cmd_plan)
    p.add_argument("--construction", type=int, choices=(1, 2), required=True)
    p.add_argument("--base-bits", type=int, default=1,
                   help="bits per base-field symbol (1 for GF(2), 2 for GF(4))")
    p.add_argument("--t", type=_csv_ints, help="group flexibilities (construction 1)")
    p.add_argument("--s", type=int, help="repair step count (construction 1)")
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int, help="repair locality (construction 1)")
    p.add_argument("--r", type=int, help="redundancy n - k (construction 2)")
    p.add_argument("--primes", type=_csv_ints, help="one prime per group")
    p.add_argument("--out", default="plan.json")

    c = sub.add_parser("cluster", help="initialize a simulated cluster")
    c.set_defaults(run=cmd_cluster)
    c.add_argument("--plan", required=True, help="plan JSON file")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True, help="cluster file to write")

    r = sub.add_parser("repair", help="fail one node, repair it, count bits")
    r.set_defaults(run=cmd_repair)
    r.add_argument("--cluster", required=True, help="cluster file")
    r.add_argument("--node", type=int, required=True)
    r.add_argument("--strategy", choices=("pe", "naive"), default="pe")
    r.add_argument("--d", type=int, help="helper count: k+s-1 (default) to "
                   "n-t_i in construction 1, only n-t_i in construction 2")
    r.add_argument("--out", help="transcript JSON file")

    b = sub.add_parser("bound", help="minimum sub-packetization")
    b.set_defaults(run=cmd_bound)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--t", type=_csv_ints, required=True,
                   help="single flexibility, or one value per group")

    t = sub.add_parser("tradeoff", help="flexibility/bandwidth table as CSV")
    t.set_defaults(run=cmd_tradeoff)
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--out", help="CSV file (default: stdout)")

    g = sub.add_parser("reproduce", help="re-run a built-in reference deployment")
    g.set_defaults(run=cmd_reproduce)
    g.add_argument("name", help="example1 or example2")
    return top


def _plan_payload(plan, path):
    return {
        "construction": plan.construction,
        "n": plan.n,
        "k": plan.k,
        "t": [grp.t for grp in plan.groups],
        "primes": [grp.prime for grp in plan.groups],
        "L": plan.L,
        "degree_bits": plan.ctx.degree_bits,
        "digest": plan.digest,
        "path": path,
    }


def cmd_plan(args, parser) -> int:
    if args.construction == 1:
        if args.t is None:
            parser.error("construction 1 needs --t")
        if args.r is not None:
            parser.error("--r belongs to construction 2")
        try:
            plan = build_plan_c1(args.base_bits, args.t, s=args.s, k=args.k,
                                 d=args.d, primes=args.primes)
        except ValueError as exc:
            parser.error(str(exc))
    else:
        if args.r is None or args.primes is None:
            parser.error("construction 2 needs --r and --primes")
        if args.t is not None or args.s is not None or args.d is not None:
            parser.error("--t/--s/--d belong to construction 1")
        if args.k is not None:
            parser.error("construction 2 derives k = n - r; drop --k")
        try:
            plan = build_plan_c2(args.base_bits, args.r, args.primes)
        except ValueError as exc:
            parser.error(str(exc))
    save_plan(plan, args.out)
    if args.json:
        print(canonical_json(_plan_payload(plan, args.out)))
    else:
        ts = ",".join(str(grp.t) for grp in plan.groups)
        print(f"construction {plan.construction}: n={plan.n} k={plan.k} "
              f"t={ts} L={plan.L} symbol field GF(2^{plan.ctx.degree_bits})")
        print(f"wrote {args.out} (digest {plan.digest[:16]}...)")
    return 0


def cmd_cluster(args, parser) -> int:
    from .constructions import load_plan

    plan = load_plan(args.plan)
    state = init_cluster(plan, args.seed)
    save_cluster(state, args.out, plan_path=args.plan)
    if args.json:
        print(canonical_json({"nodes": plan.n, "seed": args.seed,
                              "plan_digest": plan.digest, "path": args.out}))
    else:
        print(f"cluster of {plan.n} nodes, seed {args.seed} -> {args.out}")
    return 0


def cmd_repair(args, parser) -> int:
    state = load_cluster(args.cluster)
    if not 0 <= args.node < state.plan.n:
        parser.error(f"node {args.node} out of range [0, {state.plan.n})")
    if state.failed_node != args.node:
        fail_node(state, args.node)
    state, report, log = run_repair(state, args.strategy, d=args.d)
    payload = report.to_payload()
    payload["strategy"] = args.strategy
    payload["transfer_log"] = log.entries
    if args.out:
        atomic_write_text(args.out, canonical_json(payload) + "\n")
    if args.json:
        print(canonical_json(payload))
    else:
        verified = "true" if report.verified else "false"
        cut = getattr(report, "cutset_bits", None)
        middle = f" cutset={cut}" if cut is not None else ""
        print(f"bits={report.bits_transmitted}{middle} verified={verified}")
    if not report.verified:
        raise PERepairError(
            "REPAIR_VERIFICATION_FAILED",
            f"recovered symbol for node {args.node} does not match",
        )
    return 0


def cmd_bound(args, parser) -> int:
    query = (BoundQuery.uniform(args.k, args.t[0]) if len(args.t) == 1
             else BoundQuery(args.k, args.t))
    value = min_subpacketization(query)
    if args.json:
        print(canonical_json({"k": args.k, "t": args.t, "L_min": value}))
    else:
        print(value)
    return 0


def cmd_tradeoff(args, parser) -> int:
    rows = tradeoff_table(args.n, args.k)
    text = tradeoff_csv(rows)
    if args.out:
        atomic_write_text(args.out, text)
        print(canonical_json({"path": args.out, "rows": len(rows)})
              if args.json else f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_reproduce(args, parser) -> int:
    try:
        ex = by_name(args.name)
    except ValueError as exc:
        parser.error(str(exc))
    plan = ex.plan
    checks = []

    def check(label, got, want):
        checks.append((label, got, want, got == want))

    repair = _scheme(plan)
    for node in ex.nodes:
        tr = repair(plan, ex.codeword, node)
        want = ex.group_bits[plan.locate(node)[0]]
        check(f"repair node {node} bits", tr.bits_transmitted, want)
        check(f"repair node {node} cutset", tr.cutset_bits, want)
        check(f"repair node {node} symbol", tr.recovered.hex(),
              ex.codeword.symbols[node].hex())
    if plan.construction == 1:
        # the published Construction-1 walk-through also prices naive repair
        check("naive bits", plan.k * plan.L * plan.base_bits, ex.naive_bits)

    ok = all(passed for _, _, _, passed in checks)
    if args.json:
        print(canonical_json({
            "example": args.name,
            "pass": ok,
            "checks": [{"label": l, "got": g, "want": w, "pass": p}
                       for l, g, w, p in checks],
        }))
    else:
        width = max(len(l) for l, _, _, _ in checks)
        for label, got, want, passed in checks:
            mark = "ok" if passed else f"FAIL (got {got}, want {want})"
            shown = str(got) if len(str(got)) <= 20 else str(got)[:17] + "..."
            print(f"{label:<{width}}  {shown:<20}  {mark}")
        print(f"{args.name}: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise PERepairError(
            "REPAIR_VERIFICATION_FAILED",
            f"{args.name} does not match its published figures",
        )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except PERepairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_status(exc.code)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
