"""Benchmark of perepair: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 plays rounds for S seconds (at least the workload's rebuild list)
and reports the end-to-end metrics.  --trace 1 plays the rebuild list's
rounds twice, untraced here and traced in a child process, and reports the
per-layer metrics from the traced pass plus its overhead over the untraced
one; spans go to perfbench/out/trace-NAME-N.json.
"""

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metric_json(metrics):
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv):
    args = parse_args(argv)
    if not (SRC / "perepair" / "__init__.py").is_file():
        print(f"error: no perepair package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import perepair
    import perepair.fixtures  # noqa: F401  (the workloads build from it)

    if Path(perepair.__file__).resolve().parent != SRC / "perepair":
        print(f"error: imported perepair from {perepair.__file__}",
              file=sys.stderr)
        return 2

    import bench
    from tracer import layer_metrics

    wl = bench.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    work = bench.make_work_dir(f"{wl.name}-{args.seed}")
    try:
        if not args.trace:
            runner = bench.Runner(perepair, wl, args.seed, args.seconds,
                                  work).run()
            metrics = runner.end_to_end()
            print(json.dumps({"rounds": runner.rounds,
                              "raw": runner.end_to_end(raw=True)}))
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
            result = {"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metric_json(metrics)}
        else:
            plain = bench.Runner(perepair, wl, args.seed, 0, work).run()
            out = work / "traced-pass.json"
            _, proc = bench.run_child([sys.executable, str(HERE / "child.py"),
                                       "pass", wl.name, str(args.seed),
                                       str(out)])
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"error: traced pass exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            sys.stderr.write(proc.stderr)
            traced = json.loads(out.read_text())
            metrics = layer_metrics(traced["dumps"], traced["cli_walls"])
            untraced = plain.end_to_end()
            metrics["overhead.pass_s"] = (traced["wall_s"] - plain.wall_s, "s")
            metrics["overhead.rebuild_s"] = (
                traced["end_to_end"]["rebuild_s"][0] - untraced["rebuild_s"][0],
                "s")
            bench.OUT.mkdir(exist_ok=True)
            trace_file = bench.OUT / f"trace-{wl.name}-{args.seed}.json"
            trace_file.write_text(json.dumps({
                "workload": wl.name,
                "seed": args.seed,
                "untraced_end_to_end": untraced,
                "traced_end_to_end": traced["end_to_end"],
                "metrics": metric_json(metrics),
                "processes": traced["dumps"],
            }))
            result = {
                "correct": plain.correct and traced["correct"],
                "attempted": plain.attempted + traced["attempted"],
                "failed": plain.failed + traced["failed"],
                "metrics": metric_json(metrics),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
