"""Child processes of a benchmark run; each prints or writes JSON.

    child.py setup WORKLOAD            build the plan in a fresh process
    child.py pass WORKLOAD SEED OUT    play the fixed rounds under the tracer
    child.py cli SPANS CLI-ARGS...     `perepair.cli.main` under the tracer
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# perepair.cli loads every module of the package, fixtures included.  The
# cli mode loads nothing else but the tracer, so that cli.startup_s counts
# the imports of `python -m perepair.cli` and little more; the other modes
# import the rest of the benchmark when they need it.
import perepair.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv):
    mode = argv[0]
    if mode in ("setup", "pass"):
        import bench
    if mode == "setup":
        wl = bench.WORKLOADS[argv[1]]
        start = time.perf_counter()
        plan = wl.build(perepair)
        elapsed = time.perf_counter() - start
        print(json.dumps({"setup_s": elapsed, "digest": plan.digest}))
        return 0
    if mode == "pass":
        wl = bench.WORKLOADS[argv[1]]
        out = Path(argv[3])
        tracer = Tracer()
        tracer.install()
        runner = bench.Runner(perepair, wl, int(argv[2]), 0, out.parent,
                              traced=True)
        runner.run()
        tracer.uninstall()
        out.write_text(json.dumps({
            "attempted": runner.attempted,
            "failed": runner.failed,
            "correct": runner.correct,
            "end_to_end": runner.end_to_end(),
            "wall_s": runner.wall_s,
            "dumps": [tracer.dump("pass")] + runner.cli_dumps,
            "cli_walls": runner.cli_walls,
        }))
        return 0
    if mode == "cli":
        tracer = Tracer()
        tracer.install()
        try:
            code = perepair.cli.main(argv[2:])
        finally:
            tracer.uninstall()
            Path(argv[1]).write_text(json.dumps(tracer.dump("cli")))
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
