import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import perepair
from perepair import cli, repair_engine
from perepair.cli import main
from perepair.fixtures import WorkedExample, example2
from perepair.storage_sim import (
    fail_node,
    load_cluster,
    run_repair,
    save_cluster,
)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def make_plan(capsys, tmp_path, *extra):
    path = tmp_path / "plan.json"
    rc, out, _ = run(capsys, "plan", "--construction", "1", "--s", "2",
                     "--primes", "3,5", "--t", "3,3", "--k", "2",
                     "--out", str(path), *extra)
    assert rc == 0
    return path


def test_plan_c2_summary(capsys, tmp_path):
    path = tmp_path / "p.json"
    rc, out, _ = run(capsys, "plan", "--construction", "2", "--base-bits", "2",
                     "--r", "8", "--primes", "2,3,5", "--out", str(path))
    assert rc == 0
    assert "n=17 k=9" in out
    assert "L=30" in out
    assert "GF(2^60)" in out
    assert path.exists()


def test_plan_c1_toy(capsys, tmp_path):
    path = make_plan(capsys, tmp_path)
    assert json.loads(path.read_text())["k"] == 2


def test_plan_json_mode(capsys, tmp_path):
    path = tmp_path / "p.json"
    rc, out, _ = run(capsys, "--json", "plan", "--construction", "1", "--s", "2",
                     "--primes", "3,5", "--t", "3,3", "--out", str(path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["n"] == 6 and payload["k"] == 2
    assert payload["t"] == [3, 3]
    assert payload["path"] == str(path)


def test_plan_conflicting_k_and_d_is_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as e:
        run(capsys, "plan", "--construction", "1", "--t", "3,3", "--s", "2",
            "--k", "2", "--d", "5", "--out", str(tmp_path / "x.json"))
    assert e.value.code == 2


def test_plan_from_k_and_d(capsys, tmp_path):
    path = tmp_path / "p.json"
    rc, out, _ = run(capsys, "--json", "plan", "--construction", "1",
                     "--primes", "3,5", "--t", "3,3", "--k", "2", "--d", "3",
                     "--out", str(path))
    assert rc == 0
    assert json.loads(out)["digest"] == json.loads(path.read_text())["digest"]
    assert path.read_text() == make_plan(capsys, tmp_path).read_text()


def test_plan_from_s_and_d_checks_the_rate(capsys, tmp_path):
    # k = d - s + 1 = 4 exceeds n - t = 3: refused, nothing written
    path = tmp_path / "x.json"
    rc, _, err = run(capsys, "plan", "--construction", "1", "--t", "3,3",
                     "--s", "2", "--d", "5", "--primes", "3,5",
                     "--out", str(path))
    assert rc == 3
    assert "RATE_VIOLATION" in err
    assert not path.exists()


def test_plan_flag_mixups_are_usage_errors(capsys, tmp_path):
    for argv in (
        ["plan", "--construction", "1", "--s", "2"],             # missing --t
        ["plan", "--construction", "2", "--r", "8"],             # missing primes
        ["plan", "--construction", "2", "--r", "8",
         "--primes", "2,3", "--k", "4"],                         # k is derived
        ["plan", "--construction", "1", "--t", "3,3", "--s", "2",
         "--r", "8"],                                            # r is c2-only
    ):
        with pytest.raises(SystemExit) as e:
            run(capsys, *argv, "--out", str(tmp_path / "x.json"))
        assert e.value.code == 2


def test_plan_validation_failure_exits_3(capsys, tmp_path):
    rc, _, err = run(capsys, "plan", "--construction", "1", "--t", "3,3",
                     "--s", "2", "--primes", "4,5",
                     "--out", str(tmp_path / "x.json"))
    assert rc == 3
    assert "BAD_PRIME" in err


def test_cluster_and_repair_flow(capsys, tmp_path):
    plan = make_plan(capsys, tmp_path)
    cluster = tmp_path / "cluster.txt"
    rc, out, _ = run(capsys, "cluster", "--plan", str(plan), "--seed", "42",
                     "--out", str(cluster))
    assert rc == 0 and cluster.exists()

    transcript = tmp_path / "tr.json"
    rc, out, _ = run(capsys, "repair", "--cluster", str(cluster),
                     "--node", "4", "--out", str(transcript))
    assert rc == 0
    assert out.strip() == "bits=45 cutset=45 verified=true"
    payload = json.loads(transcript.read_text())
    assert payload["bits_transmitted"] == 45
    assert payload["verified"] is True
    assert payload["strategy"] == "pe"
    # node 4 sits in the prime-5 group: five 3-bit responses per helper
    assert len(payload["transfer_log"]) == len(payload["helpers"]) * 5
    assert sum(e[2] for e in payload["transfer_log"]) == 45


def test_cluster_json_mode(capsys, tmp_path):
    plan = make_plan(capsys, tmp_path)
    cluster = tmp_path / "c.txt"
    rc, out, _ = run(capsys, "--json", "cluster", "--plan", str(plan),
                     "--seed", "7", "--out", str(cluster))
    assert rc == 0 and cluster.exists()
    assert json.loads(out) == {
        "nodes": 6, "seed": 7, "path": str(cluster),
        "plan_digest": json.loads(plan.read_text())["digest"],
    }
    assert out.count("\n") == 1


def test_c2_repair_rejects_foreign_d(capsys, tmp_path):
    # Construction 2 repairs from every survivor outside the group: d = n - t_i
    plan = tmp_path / "p.json"
    run(capsys, "plan", "--construction", "2", "--base-bits", "2", "--r", "8",
        "--primes", "2,3", "--out", str(plan))
    cluster = tmp_path / "c.txt"
    run(capsys, "cluster", "--plan", str(plan), "--seed", "3",
        "--out", str(cluster))
    rc, out, err = run(capsys, "repair", "--cluster", str(cluster),
                       "--node", "0", "--d", "5")
    assert rc == 3 and out == ""
    assert "LOCALITY_OUT_OF_RANGE" in err
    rc, out, _ = run(capsys, "repair", "--cluster", str(cluster),
                     "--node", "0", "--d", "6")
    assert rc == 0 and out.strip().endswith("verified=true")


def test_repair_naive_reports_bits_without_cutset(capsys, tmp_path):
    plan = make_plan(capsys, tmp_path)
    cluster = tmp_path / "c.txt"
    run(capsys, "cluster", "--plan", str(plan), "--seed", "1",
        "--out", str(cluster))
    rc, out, _ = run(capsys, "repair", "--cluster", str(cluster),
                     "--node", "0", "--strategy", "naive")
    assert rc == 0
    assert out.strip() == "bits=60 verified=true"


def test_repair_naive_rejects_a_locality(capsys, tmp_path):
    plan = make_plan(capsys, tmp_path)
    cluster = tmp_path / "c.txt"
    run(capsys, "cluster", "--plan", str(plan), "--seed", "1",
        "--out", str(cluster))
    rc, out, err = run(capsys, "repair", "--cluster", str(cluster),
                       "--node", "0", "--strategy", "naive", "--d", "3")
    assert rc == 3 and out == ""
    assert "LOCALITY_OUT_OF_RANGE" in err


# SHA-256 over the stdout of `perepair --json repair --strategy naive` for
# nodes 0..5 in turn of the toy cluster (seed 1), as the Lagrange decode
# that the cached parity check replaced printed it
PINNED_NAIVE_TRANSCRIPTS_SHA256 = (
    "f30cc851372ed719a7cf86fd5f707687d98c65e59131ab85378cf8718916fa72"
)


def test_naive_transcripts_are_pinned(capsys, tmp_path):
    plan = make_plan(capsys, tmp_path)
    cluster = tmp_path / "c.txt"
    run(capsys, "cluster", "--plan", str(plan), "--seed", "1",
        "--out", str(cluster))
    h = hashlib.sha256()
    for node in range(6):
        rc, out, _ = run(capsys, "--json", "repair", "--cluster", str(cluster),
                         "--node", str(node), "--strategy", "naive")
        assert rc == 0
        h.update(out.encode())
    assert h.hexdigest() == PINNED_NAIVE_TRANSCRIPTS_SHA256


@pytest.mark.parametrize("strategy", ["pe", "naive"])
def test_repair_is_unchanged_under_python_O(capsys, tmp_path, strategy):
    # python -O strips assert statements; every invariant the repair
    # checks must survive that, and so must the transcript
    plan = make_plan(capsys, tmp_path)
    cluster = tmp_path / "c.txt"
    run(capsys, "cluster", "--plan", str(plan), "--seed", "4",
        "--out", str(cluster))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(perepair.__file__)))
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "perepair.cli", "--json", "repair",
             "--cluster", str(cluster), "--node", "4", "--strategy", strategy],
            capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert json.loads(outs[0])["verified"] is True
    assert outs[0] == outs[1]


def test_repair_json_mode(capsys, tmp_path):
    plan = make_plan(capsys, tmp_path)
    cluster = tmp_path / "c.txt"
    run(capsys, "cluster", "--plan", str(plan), "--seed", "1",
        "--out", str(cluster))
    rc, out, _ = run(capsys, "--json", "repair", "--cluster", str(cluster),
                     "--node", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["cutset_bits"] == 45
    assert all(p == "trace_response" for _, _, _, p in payload["transfer_log"])


@pytest.mark.parametrize("strategy", ["pe", "naive"])
def test_written_transcript_reads_back(capsys, tmp_path, strategy):
    # the --out file holds the --json output, which is the in-process
    # report's payload plus the strategy and the transfer log
    plan = make_plan(capsys, tmp_path)
    cluster = tmp_path / "c.txt"
    run(capsys, "cluster", "--plan", str(plan), "--seed", "42",
        "--out", str(cluster))
    out_path = tmp_path / "t.json"
    rc, out, _ = run(capsys, "--json", "repair", "--cluster", str(cluster),
                     "--node", "4", "--strategy", strategy,
                     "--out", str(out_path))
    assert rc == 0
    with open(out_path, encoding="utf-8") as fh:
        written = json.load(fh)
    assert written == json.loads(out)
    state = fail_node(load_cluster(cluster), 4)
    _, report, log = run_repair(state, strategy)
    want = dict(report.to_payload(), strategy=strategy,
                transfer_log=log.entries)
    assert written == json.loads(json.dumps(want))


def test_repair_with_another_node_failed_exits_3(capsys, tmp_path):
    # a cluster file holds at most one failed node: repairing a second one
    # is refused, repairing the failed one goes ahead
    plan = make_plan(capsys, tmp_path)
    cluster = tmp_path / "c.txt"
    run(capsys, "cluster", "--plan", str(plan), "--seed", "1",
        "--out", str(cluster))
    save_cluster(fail_node(load_cluster(cluster), 1), cluster, plan_path=plan)
    rc, out, err = run(capsys, "repair", "--cluster", str(cluster),
                       "--node", "4")
    assert rc == 3 and out == ""
    assert "SECOND_FAILURE_UNSUPPORTED" in err
    rc, out, _ = run(capsys, "repair", "--cluster", str(cluster),
                     "--node", "1")
    assert rc == 0 and out.strip() == "bits=45 cutset=45 verified=true"


def test_repair_with_a_wrong_symbol_exits_4(capsys, tmp_path, monkeypatch):
    # both evaluation orders recover the wrong symbol: the report says so
    # and the exit status is the verification failure's
    plan = make_plan(capsys, tmp_path)
    cluster = tmp_path / "c.txt"
    run(capsys, "cluster", "--plan", str(plan), "--seed", "1",
        "--out", str(cluster))
    for name in ("_by_response", "_by_coordinate"):
        evaluate = getattr(repair_engine, name)

        def off_by_one(prep, symbols, evaluate=evaluate):
            raw, acc = evaluate(prep, symbols)
            return raw, acc ^ 1

        monkeypatch.setattr(repair_engine, name, off_by_one)
    rc, out, err = run(capsys, "repair", "--cluster", str(cluster),
                       "--node", "4")
    assert rc == 4
    assert out.strip() == "bits=45 cutset=45 verified=false"
    assert "REPAIR_VERIFICATION_FAILED" in err


def test_repair_node_out_of_range_is_usage_error(capsys, tmp_path):
    plan = make_plan(capsys, tmp_path)
    cluster = tmp_path / "c.txt"
    run(capsys, "cluster", "--plan", str(plan), "--seed", "1",
        "--out", str(cluster))
    with pytest.raises(SystemExit) as e:
        run(capsys, "repair", "--cluster", str(cluster), "--node", "9")
    assert e.value.code == 2


def test_repair_missing_cluster_exits_3(capsys, tmp_path):
    rc, _, err = run(capsys, "repair",
                     "--cluster", str(tmp_path / "nope.txt"), "--node", "0")
    assert rc == 3
    assert "CORRUPT_FILE" in err


def test_repair_is_deterministic(capsys, tmp_path):
    plan = make_plan(capsys, tmp_path)
    cluster = tmp_path / "c.txt"
    run(capsys, "cluster", "--plan", str(plan), "--seed", "3",
        "--out", str(cluster))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "repair", "--cluster", str(cluster), "--node", "1",
        "--out", str(a))
    run(capsys, "repair", "--cluster", str(cluster), "--node", "1",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_bound_values(capsys):
    rc, out, _ = run(capsys, "bound", "--k", "8", "--t", "1")
    assert rc == 0 and out.strip() == "510510"
    rc, out, _ = run(capsys, "bound", "--k", "3", "--t", "3")
    assert rc == 0 and out.strip() == "1"
    # a non-uniform flexibility list
    rc, out, _ = run(capsys, "--json", "bound", "--k", "8", "--t", "2,3,3")
    assert json.loads(out)["L_min"] == 6


def test_tradeoff_csv(capsys, tmp_path):
    rc, out, _ = run(capsys, "tradeoff", "--n", "14", "--k", "10")
    lines = out.strip().splitlines()
    assert lines[0] == "t,L_min,d_max,beta_bar_min_num,beta_bar_min_den"
    assert len(lines) == 5
    assert lines[1] == "1,223092870,13,13,4"
    assert lines[4] == "4,2,10,10,1"

    path = tmp_path / "t.csv"
    rc, _, _ = run(capsys, "tradeoff", "--n", "14", "--k", "10",
                   "--out", str(path))
    assert rc == 0
    assert path.read_text() == out


def test_tradeoff_out_summary(capsys, tmp_path):
    # the CSV goes to the file; stdout has one summary, plain or JSON
    path = tmp_path / "t.csv"
    rc, out, _ = run(capsys, "tradeoff", "--n", "14", "--k", "10",
                     "--out", str(path))
    assert rc == 0 and out == f"wrote {path}\n"
    csv = path.read_text()
    rc, out, _ = run(capsys, "--json", "tradeoff", "--n", "14", "--k", "10",
                     "--out", str(path))
    assert rc == 0
    assert json.loads(out) == {"path": str(path), "rows": 4}
    assert out.count("\n") == 1
    assert path.read_text() == csv


def test_reproduce_example2(capsys):
    rc, out, _ = run(capsys, "reproduce", "example2")
    assert rc == 0
    assert "example2: PASS" in out
    assert out.count(" ok") == 17 * 3


def test_reproduce_example2_json(capsys):
    rc, out, _ = run(capsys, "--json", "reproduce", "example2")
    payload = json.loads(out)
    assert payload["pass"] is True
    bits = [c["got"] for c in payload["checks"] if c["label"].endswith("bits")]
    assert bits == [300] * 7 + [220] * 6 + [156] * 4


# SHA-256 of the stdout of `perepair reproduce example2` and of
# `perepair --json reproduce example2`, as printed before both schemes
# shared one repair loop
PINNED_EXAMPLE2_SHA256 = {
    (): "e448b557bbff337baab3c16c0afca0658813bdc66176d5f28f419d7b8733aa96",
    ("--json",):
        "364b2c17ffec73208c027ba325fe5acd9eba66f514ed280fa7dddbcfccd29384",
}


@pytest.mark.parametrize("flags", sorted(PINNED_EXAMPLE2_SHA256))
def test_reproduce_example2_output_is_pinned(capsys, flags):
    rc, out, _ = run(capsys, *flags, "reproduce", "example2")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        PINNED_EXAMPLE2_SHA256[flags]


def test_reproduce_example1_json(capsys):
    rc, out, _ = run(capsys, "--json", "reproduce", "example1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    bits = [c["got"] for c in payload["checks"] if c["label"].endswith("bits")]
    assert bits == [10395] * 4 + [18480]
    assert payload["checks"][-1] == {"label": "naive bits", "got": 18480,
                                     "want": 18480, "pass": True}
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "8388a5ace2b48d70b893a9e2fdaf7ddbc821aa69af463f291f72b516ab3718ba"


def test_reproduce_mismatch_exits_4(capsys, monkeypatch):
    # example2 with a published figure off by one bit for group 0
    ex = example2()
    wrong = WorkedExample("example2", ex.plan, ex.message, [0],
                          (301,) + ex.group_bits[1:], ex.naive_bits)
    monkeypatch.setattr(cli, "by_name", lambda name: wrong)
    rc, out, err = run(capsys, "reproduce", "example2")
    assert rc == 4
    assert "FAIL (got 300, want 301)" in out
    assert out.endswith("example2: FAIL\n")
    assert "REPAIR_VERIFICATION_FAILED" in err


def test_reproduce_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        run(capsys, "reproduce", "example3")
    assert e.value.code == 2


def test_console_script_is_wired():
    exe = shutil.which("perepair")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "bound", "--k", "9", "--t", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "9699690"
