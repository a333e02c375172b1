import json
import os

import pytest

from perepair import field_tower, storage_sim
from perepair.errors import PERepairError
from perepair.fixtures import by_name, example1
from perepair.repair_engine import RepairTranscript
from perepair.rs_codes import naive_decode
from perepair.storage_sim import (
    NaiveReport,
    SplitMix64,
    fail_node,
    init_cluster,
    load_cluster,
    run_repair,
    save_cluster,
)


def test_splitmix64_reference_vector():
    # first outputs for seed 0, per the original splitmix64.c
    g = SplitMix64(0)
    assert [g.next_word() for g_ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_seed_masked_to_64_bits():
    assert SplitMix64(1 << 64).next_word() == SplitMix64(0).next_word()


def test_field_bits_width_and_mask():
    g = SplitMix64(9)
    v = g.field_bits(30)
    assert 0 <= v < (1 << 30)
    # a 100-bit draw consumes two words
    g2 = SplitMix64(9)
    w0, w1 = g2.next_word(), g2.next_word()
    assert SplitMix64(9).field_bits(100) == (w0 | (w1 << 64)) & ((1 << 100) - 1)


def test_init_cluster_is_deterministic(toy_c1):
    a = init_cluster(toy_c1, 0)
    b = init_cluster(toy_c1, 0)
    assert [n.symbol for n in a.nodes] == [n.symbol for n in b.nodes]
    c = init_cluster(toy_c1, 1)
    assert [n.symbol for n in a.nodes] != [n.symbol for n in c.nodes]


def test_cluster_shape(toy_c1, toy_c2):
    st = init_cluster(toy_c1, 42)
    assert len(st.nodes) == 6
    assert st.failed_node is None
    st2 = init_cluster(toy_c2, 42)
    assert len(st2.nodes) == 13
    assert [n.index for n in st2.nodes] == list(range(13))


def test_fail_node_bookkeeping(toy_c1):
    st = init_cluster(toy_c1, 3)
    fail_node(st, 4)
    assert st.failed_node == 4
    assert st.nodes[4].failed and st.nodes[4].symbol is None
    with pytest.raises(PERepairError) as e:
        fail_node(st, 4)
    assert e.value.code == "ALREADY_FAILED"
    with pytest.raises(PERepairError) as e:
        fail_node(st, 0)
    assert e.value.code == "SECOND_FAILURE_UNSUPPORTED"
    with pytest.raises(ValueError):
        fail_node(st, 6)


def test_repair_without_failure_is_an_error(toy_c1):
    st = init_cluster(toy_c1, 3)
    with pytest.raises(PERepairError) as e:
        run_repair(st, "pe")
    assert e.value.code == "NO_FAILED_NODE"


def test_pe_repair_restores_node_and_counts_bits(toy_c1):
    st = init_cluster(toy_c1, 42)
    original = st.nodes[4].symbol
    fail_node(st, 4)
    st, tr, log = run_repair(st, "pe")
    assert isinstance(tr, RepairTranscript)
    assert tr.verified is True
    assert st.nodes[4].symbol == original
    assert st.failed_node is None
    assert log.total_bits == tr.bits_transmitted == tr.cutset_bits == 45
    assert all(p == "trace_response" for _, _, _, p in log.entries)
    assert all(t == 4 for _, t, _, _ in log.entries)
    assert {f for f, _, _, _ in log.entries} == set(tr.helpers)


def test_naive_repair_reads_k_whole_symbols(toy_c1):
    st = init_cluster(toy_c1, 42)
    original = st.nodes[0].symbol
    fail_node(st, 0)
    st, rep, log = run_repair(st, "naive")
    assert isinstance(rep, NaiveReport)
    assert rep.verified is True
    assert st.nodes[0].symbol == original
    # first k live nodes in ascending order
    assert rep.helpers == [1, 2]
    assert log.total_bits == rep.bits_transmitted
    assert log.total_bits == toy_c1.k * toy_c1.L * toy_c1.base_bits == 60
    assert all(p == "full_symbol" for _, _, _, p in log.entries)


def test_naive_rejects_a_locality_argument(toy_c1):
    st = init_cluster(toy_c1, 1)
    fail_node(st, 2)
    with pytest.raises(PERepairError) as ei:
        run_repair(st, "naive", d=3)
    assert ei.value.code == "LOCALITY_OUT_OF_RANGE"


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_worked_examples_price_naive_repair(name):
    # naive_bits is k whole symbols, as a naive repair of the example moves
    ex = by_name(name)
    plan = ex.plan
    st = init_cluster(plan, 3)
    fail_node(st, plan.n - 1)
    st, rep, _ = run_repair(st, "naive")
    assert rep.verified is True
    assert ex.naive_bits == plan.k * plan.L * plan.base_bits
    assert ex.naive_bits == rep.bits_transmitted


def test_unknown_strategy(toy_c1):
    st = init_cluster(toy_c1, 1)
    fail_node(st, 2)
    with pytest.raises(ValueError):
        run_repair(st, "bogus")


def test_full_campaign_totals(toy_c2):
    # every node of the group-size-(7,6) code: 7 repairs at 36 bits
    # and 6 at 28, all exactly at the cut-set
    st = init_cluster(toy_c2, 7)
    baseline = [n.symbol for n in st.nodes]
    total = 0
    for i in range(toy_c2.n):
        fail_node(st, i)
        st, tr, log = run_repair(st, "pe")
        assert tr.verified is True
        assert log.total_bits == tr.cutset_bits
        total += log.total_bits
    assert total == 7 * 36 + 6 * 28
    assert [n.symbol for n in st.nodes] == baseline


def test_reference_deployment_campaign():
    # every node of the built-in (17,9) deployment in sequence: the cluster
    # comes back symbol-exact and the log sums to 7*300 + 6*220 + 4*156
    from perepair.fixtures import example2

    plan = example2().plan
    st = init_cluster(plan, 42)
    assert len(st.nodes) == 17
    assert st.plan.ctx.degree_bits == 60
    baseline = [n.symbol for n in st.nodes]
    total = 0
    for i in range(plan.n):
        fail_node(st, i)
        st, tr, log = run_repair(st, "pe")
        assert tr.verified is True
        total += log.total_bits
    assert total == 7 * 300 + 6 * 220 + 4 * 156 == 4044
    assert [n.symbol for n in st.nodes] == baseline


def test_pe_and_naive_recover_the_same_symbol(toy_c2):
    st = init_cluster(toy_c2, 11)
    fail_node(st, 5)
    st, pe, _ = run_repair(st, "pe")
    fail_node(st, 5)
    st, naive, _ = run_repair(st, "naive")
    assert pe.verified is True and naive.verified is True
    assert pe.recovered == naive.recovered


@pytest.mark.parametrize("plan_name", ["toy_c1", "toy_c2"])
def test_naive_repair_matches_the_interpolation_oracle(request, plan_name):
    # cold (weights computed) and warm (weights cached) repairs of every
    # node both give the Lagrange interpolant through the same k helpers
    plan = request.getfixturevalue(plan_name)
    st = init_cluster(plan, 23)
    for node in range(plan.n):
        helpers = [i for i in range(plan.n) if i != node][:plan.k]
        oracle = naive_decode([(i, st.nodes[i].symbol) for i in helpers],
                              plan.eval_set)
        want = oracle.evaluate(plan.eval_set.points[node])
        key = ("naive", node, tuple(helpers))
        plan._cache.pop(key, None)
        fail_node(st, node)
        st, cold, _ = run_repair(st, "naive")
        assert key in plan._cache
        fail_node(st, node)
        st, warm, _ = run_repair(st, "naive")
        assert cold.helpers == warm.helpers == helpers
        assert cold.recovered == warm.recovered == want
        assert cold.verified is True and warm.verified is True


def test_warm_naive_repair_costs_k_products(monkeypatch):
    # a warm naive repair is one cached parity check: k products and no
    # inversion.  The Lagrange decode it replaced took 8 inversions and
    # ~227 products per repair of this plan.
    plan = example1().plan
    calls = dict.fromkeys(("clmul", "poly_inv_mod"), 0)

    def counted(name):
        real = getattr(field_tower, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(field_tower, name, counted(name))
    top = plan.ctx.order  # all ones: the widest product there is
    plan.ctx._mul(top, top)
    assert calls["clmul"] == 1  # so one clmul call is one product
    st = init_cluster(plan, 5)
    for node in range(plan.n):
        fail_node(st, node)
        run_repair(st, "naive")  # caches this node's weights
        fail_node(st, node)
        calls.update(clmul=0, poly_inv_mod=0)
        st, rep, _ = run_repair(st, "naive")
        assert rep.verified is True
        assert calls["clmul"] <= plan.k
        assert calls["poly_inv_mod"] == 0


def test_c2_rejects_foreign_d(toy_c2):
    st = init_cluster(toy_c2, 7)
    fail_node(st, 0)
    with pytest.raises(PERepairError) as ei:
        run_repair(st, "pe", d=5)
    assert ei.value.code == "LOCALITY_OUT_OF_RANGE"
    # and the fixed value is accepted
    st, tr, _ = run_repair(st, "pe", d=toy_c2.n - toy_c2.groups[0].t)
    assert tr.verified is True


def test_pe_repair_with_wider_locality(toy_c1):
    st = init_cluster(toy_c1, 5)
    fail_node(st, 1)
    st, tr, log = run_repair(st, "pe", d=3)
    assert tr.verified is True
    assert log.total_bits == tr.bits_transmitted == 45


def test_transfer_log_csv(toy_c1):
    st = init_cluster(toy_c1, 42)
    fail_node(st, 0)
    st, tr, log = run_repair(st, "naive")
    text = log.to_csv()
    lines = text.splitlines()
    assert lines[0] == "from,to,bits,purpose"
    assert lines[1] == "1,0,30,full_symbol"
    assert len(lines) == 1 + len(log.entries)
    assert text.endswith("\n")


def test_cluster_roundtrip(tmp_path, toy_c1):
    st = init_cluster(toy_c1, 99)
    fail_node(st, 3)
    path = tmp_path / "cluster.txt"
    save_cluster(st, path)
    assert (tmp_path / "cluster.txt.plan").exists()
    back = load_cluster(path)
    assert back.message_seed == 99
    assert back.failed_node == 3
    assert [n.symbol for n in back.nodes] == [n.symbol for n in st.nodes]
    # and the reloaded cluster still repairs
    back, tr, _ = run_repair(back, "pe")
    assert tr.verified is True


def test_cluster_roundtrip_explicit_plan_path(tmp_path, toy_c2):
    st = init_cluster(toy_c2, 5)
    path = tmp_path / "c.txt"
    save_cluster(st, path, plan_path=tmp_path / "p.json")
    assert "plan = p.json" in path.read_text().splitlines()[0]
    back = load_cluster(path)
    assert back.plan.digest == toy_c2.digest


def test_plan_file_is_rewritten_unless_it_holds_the_plan(tmp_path, toy_c1,
                                                         toy_c2):
    # another plan, or this plan's file with a point changed under its
    # digest, is replaced, so the cluster written beside it loads
    from perepair.constructions import save_plan

    path, plan_path = tmp_path / "c.txt", tmp_path / "p.json"
    save_plan(toy_c2, plan_path)
    save_cluster(init_cluster(toy_c1, 3), path, plan_path=plan_path)
    assert load_cluster(path).plan.digest == toy_c1.digest
    canonical = plan_path.read_bytes()
    payload = json.loads(canonical)
    payload["point_exponents"][0][0] += 1
    plan_path.write_text(json.dumps(payload, indent=1))
    save_cluster(init_cluster(toy_c1, 3), path, plan_path=plan_path)
    assert plan_path.read_bytes() == canonical


def test_failed_cluster_write_removes_the_plan_file_it_wrote(
        tmp_path, monkeypatch, toy_c1):
    # the cluster path is a directory, so its write fails after the plan
    # file beside it was written: that file goes, one already there stays
    st = init_cluster(toy_c1, 3)
    target = tmp_path / "adir"
    target.mkdir()
    with pytest.raises(PERepairError) as err:
        save_cluster(st, target)
    assert err.value.code == "WRITE_FAILED"
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]
    assert list(target.iterdir()) == []

    plan_path = tmp_path / "p.json"
    save_cluster(st, tmp_path / "c.txt", plan_path=plan_path)
    kept = plan_path.read_bytes()
    with pytest.raises(PERepairError):
        save_cluster(st, target, plan_path=plan_path)
    assert plan_path.read_bytes() == kept

    # a clean-up that fails too leaves the plan file, and the write's own
    # error is the one raised
    def no_unlink(name):
        raise PermissionError(name)

    monkeypatch.setattr(os, "unlink", no_unlink)
    with pytest.raises(PERepairError) as err:
        save_cluster(st, target)
    monkeypatch.undo()
    assert err.value.code == "WRITE_FAILED"
    assert (tmp_path / "adir.plan").exists()


def test_blank_lines_in_a_cluster_file_are_skipped(tmp_path, toy_c1):
    st = init_cluster(toy_c1, 7)
    fail_node(st, 2)
    path, spaced = tmp_path / "c.txt", tmp_path / "spaced.txt"
    save_cluster(st, path, plan_path=tmp_path / "p.json")
    lines = path.read_text().splitlines()
    # empty and blank lines before, between and after the header and nodes
    spaced.write_text("\n" + "\n\n".join(lines[:3]) + "\n  \n"
                      + "\n".join(lines[3:]) + "\n\n")
    a, b = load_cluster(path), load_cluster(spaced)
    assert b.plan is a.plan
    assert (b.message_seed, b.failed_node) == (a.message_seed, 2)
    assert [n.symbol for n in b.nodes] == [n.symbol for n in a.nodes]


def test_saved_file_is_stable(tmp_path, toy_c1):
    st = init_cluster(toy_c1, 4)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_cluster(st, a, plan_path=tmp_path / "p.json")
    save_cluster(st, b, plan_path=tmp_path / "p.json")
    assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]


def test_cluster_round_trip_is_byte_stable(tmp_path, toy_c1, toy_c2):
    # save, load, save again: the same bytes, failed node included
    for plan in (toy_c1, toy_c2):
        st = init_cluster(plan, 12)
        fail_node(st, 1)
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir(exist_ok=True)
        second.mkdir(exist_ok=True)
        save_cluster(st, first / "c.txt")
        save_cluster(load_cluster(first / "c.txt"), second / "c.txt")
        for name in ("c.txt", "c.txt.plan"):
            assert (second / name).read_bytes() == (first / name).read_bytes()


def test_tampered_symbol_detected(tmp_path, toy_c1):
    st = init_cluster(toy_c1, 8)
    path = tmp_path / "cluster.txt"
    save_cluster(st, path)
    lines = path.read_text().splitlines()
    out = []
    for ln in lines:
        if ln.startswith("node 2 "):
            head, _, h = ln.rpartition(" ")
            flip = "1" if h[0] == "0" else "0"
            ln = f"{head} {flip}{h[1:]}"
        out.append(ln)
    path.write_text("\n".join(out) + "\n")
    with pytest.raises(PERepairError) as e:
        load_cluster(path)
    assert e.value.code == "DIGEST_MISMATCH"


def test_missing_plan_file(tmp_path, toy_c1):
    st = init_cluster(toy_c1, 8)
    path = tmp_path / "cluster.txt"
    plan_path = tmp_path / "plan.json"
    save_cluster(st, path, plan_path=plan_path)
    os.remove(plan_path)
    with pytest.raises(PERepairError) as e:
        load_cluster(path)
    assert e.value.code == "CORRUPT_FILE"


def test_missing_cluster_file(tmp_path):
    with pytest.raises(PERepairError) as e:
        load_cluster(tmp_path / "nope.txt")
    assert e.value.code == "CORRUPT_FILE"


def test_corrupt_cluster_contents(tmp_path, toy_c1):
    st = init_cluster(toy_c1, 8)
    path = tmp_path / "cluster.txt"
    save_cluster(st, path)
    good = path.read_text()

    # stray line
    path.write_text(good + "???\n")
    with pytest.raises(PERepairError) as e:
        load_cluster(path)
    assert e.value.code == "CORRUPT_FILE"

    # missing seed
    path.write_text(
        "\n".join(l for l in good.splitlines() if not l.startswith("seed")) + "\n"
    )
    with pytest.raises(PERepairError) as e:
        load_cluster(path)
    assert e.value.code == "CORRUPT_FILE"

    # a second FAILED node
    broken = [
        f"node {l.split()[1]} FAILED" if l.startswith("node") else l
        for l in good.splitlines()
    ]
    path.write_text("\n".join(broken) + "\n")
    with pytest.raises(PERepairError) as e:
        load_cluster(path)
    assert e.value.code == "CORRUPT_FILE"

    # bad hex
    path.write_text(good.replace("node 0 ", "node 0 zz", 1))
    with pytest.raises(PERepairError) as e:
        load_cluster(path)
    assert e.value.code == "CORRUPT_FILE"


def test_node_lines_are_checked_before_the_encode(tmp_path, monkeypatch,
                                                  toy_c1):
    path = tmp_path / "cluster.txt"
    save_cluster(init_cluster(toy_c1, 8), path)
    lines = path.read_text().splitlines()
    header = [l for l in lines if not l.startswith("node ")]
    nodes = [l for l in lines if l.startswith("node ")]
    load_cluster(path)  # the plan is loaded: what is left is the encode

    def no_encode(*args, **kwargs):
        raise AssertionError("encoded the message of a malformed file")

    monkeypatch.setattr(storage_sim, "encode", no_encode)
    malformed = {
        "truncated": nodes[:-1],
        "out of range": nodes[:-1] + [f"node {len(nodes)} 0"],
        "repeated": nodes[:-1] + [nodes[0]],
        "two failed": ["node 0 FAILED", "node 1 FAILED"] + nodes[2:],
        "bad hex": [nodes[0] + "zz"] + nodes[1:],
        "bad index": ["node x 0"] + nodes[1:],
        "short line": ["node 0"] + nodes[1:],
    }
    for why, body in malformed.items():
        path.write_text("\n".join(header + body) + "\n")
        with pytest.raises(PERepairError) as e:
            load_cluster(path)
        assert e.value.code == "CORRUPT_FILE", why


def test_lines_save_cluster_never_writes_are_corrupt_before_the_encode(
        tmp_path, monkeypatch, toy_c1):
    # each file holds the lines of one save_cluster wrote, but not in its
    # order or spelling, so the reader refuses it
    path = tmp_path / "cluster.txt"
    save_cluster(init_cluster(toy_c1, 42), path)
    plan, digest, seed, *nodes = path.read_text().splitlines()
    assert seed == "seed = 42"
    load_cluster(path)  # the plan is loaded: what is left is the encode

    def no_encode(*args, **kwargs):
        raise AssertionError("encoded the message of a malformed file")

    monkeypatch.setattr(storage_sim, "encode", no_encode)
    malformed = {
        "reordered header": [digest, plan, seed] + nodes,
        "repeated seed": [plan, digest, "seed = 43", seed] + nodes,
        "unknown key": [plan, digest, seed, "bogus = 1"] + nodes,
        "header after the nodes": [plan, digest] + nodes + [seed],
        "nodes swapped": [plan, digest, seed, nodes[1], nodes[0]] + nodes[2:],
        "node 01": [plan, digest, seed, nodes[0],
                    nodes[1].replace("node 1 ", "node 01 ")] + nodes[2:],
    }
    for why, lines in malformed.items():
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PERepairError) as e:
            load_cluster(path)
        assert e.value.code == "CORRUPT_FILE", why


def test_symbol_cut_short_is_corrupt_before_the_encode(tmp_path, monkeypatch,
                                                      toy_c1):
    # README's tour cluster, cut inside its last symbol: every cut still
    # holds a field value, so only the fixed width can refuse it
    path = tmp_path / "cluster.txt"
    save_cluster(init_cluster(toy_c1, 42), path)
    text = path.read_text()
    assert text.endswith("node 5 18d47f19\n")
    load_cluster(path)  # the plan is loaded: what is left is the encode

    def no_encode(*args, **kwargs):
        raise AssertionError("encoded the message of a malformed file")

    monkeypatch.setattr(storage_sim, "encode", no_encode)
    for cut in range(2, 9):  # "node 5 18d47f1" down to "node 5 1"
        path.write_text(text[:-cut])
        with pytest.raises(PERepairError) as e:
            load_cluster(path)
        assert e.value.code == "CORRUPT_FILE", text[-cut - 8:-cut]


def _loaded(state):
    return (state.plan.digest, state.message_seed,
            [(rec.index, rec.symbol) for rec in state.nodes])


def test_every_cut_and_bit_flip_is_refused_or_harmless(tmp_path, toy_c1):
    # the toy cluster file with one failed node, cut at every byte and with
    # bit 0 of every byte flipped: each variant raises a coded error or
    # loads the original's state (a dropped final newline, or \n read as
    # the line break \v), never an uncoded exception
    path = tmp_path / "cluster.txt"
    save_cluster(fail_node(init_cluster(toy_c1, 42), 2), path)
    data = path.read_bytes()
    want = _loaded(load_cluster(path))
    variants = [data[:i] for i in range(len(data))]
    variants += [data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1:]
                 for i in range(len(data))]
    harmless = 0
    for variant in variants:
        path.write_bytes(variant)
        try:
            got = _loaded(load_cluster(path))
        except PERepairError:
            continue
        assert got == want, variant
        harmless += 1
    assert harmless <= data.count(b"\n") + 1


@pytest.mark.parametrize("suffix", ["", ".plan"], ids=["cluster", "plan"])
def test_every_cut_and_byte_flip_is_refused_or_harmless(tmp_path, toy_c1,
                                                       fresh_process, suffix):
    # the toy cluster file, or its plan file, cut at every byte and with
    # bits 0, 5 and 7 of every byte flipped (bit 5 is ASCII's case bit, bit
    # 7 leaves UTF-8): each variant raises a coded error or loads the
    # original's state, and then it spells the same file but for a dropped
    # final newline, \n read as the line break \v, or a hex digit's case
    path = tmp_path / "cluster.txt"
    save_cluster(fail_node(init_cluster(toy_c1, 42), 2), path)
    target = tmp_path / ("cluster.txt" + suffix)
    data = target.read_bytes()
    want = _loaded(load_cluster(path))
    variants = [data[:i] for i in range(len(data))]
    variants += [data[:i] + bytes([data[i] ^ bit]) + data[i + 1:]
                 for bit in (0x01, 0x20, 0x80) for i in range(len(data))]
    for variant in variants:
        target.write_bytes(variant)
        fresh_process()  # every variant's plan is rebuilt, as in a new process
        try:
            got = _loaded(load_cluster(path))
        except PERepairError:
            continue
        assert got == want, variant
        spelled = variant.replace(b"\v", b"\n").lower()
        if not spelled.endswith(b"\n"):
            spelled += b"\n"
        assert spelled == data.lower(), variant


def test_stripes_of_one_plan_share_its_prepared_repairs(tmp_path, toy_c2,
                                                       fresh_process):
    states = []
    for seed in (1, 2):
        path = tmp_path / f"stripe{seed}.cluster"
        save_cluster(init_cluster(toy_c2, seed), path)
        states.append(load_cluster(path))
    first, second = states
    assert first.plan is second.plan and first.plan is not toy_c2
    run_repair(fail_node(first, 0), "pe")
    prepared = dict(first.plan._cache)
    _, tr, _ = run_repair(fail_node(second, 0), "pe")
    assert tr.verified is True
    assert first.plan._cache.keys() == prepared.keys()
    assert all(first.plan._cache[key] is prepared[key] for key in prepared)


def test_repeated_node_line(tmp_path, toy_c1):
    st = init_cluster(toy_c1, 8)
    path = tmp_path / "cluster.txt"
    save_cluster(st, path)
    lines = path.read_text().splitlines()
    node0 = next(l for l in lines if l.startswith("node 0 "))

    # node 0 twice, node 5 missing: the line count alone still matches
    path.write_text("\n".join(node0 if l.startswith("node 5 ") else l
                              for l in lines) + "\n")
    with pytest.raises(PERepairError) as e:
        load_cluster(path)
    assert e.value.code == "CORRUPT_FILE"

    # a live node 0, then node 0 again as FAILED in node 5's place
    path.write_text("\n".join("node 0 FAILED" if l.startswith("node 5 ") else l
                              for l in lines) + "\n")
    with pytest.raises(PERepairError) as e:
        load_cluster(path)
    assert e.value.code == "CORRUPT_FILE"


def test_non_utf8_cluster_file_is_corrupt(tmp_path, capsys):
    from perepair.cli import main

    path = tmp_path / "cluster.txt"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(PERepairError) as e:
        load_cluster(path)
    assert e.value.code == "CORRUPT_FILE"
    assert main(["repair", "--cluster", str(path), "--node", "0"]) == 3
    assert "CORRUPT_FILE" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("seed", "\u0661\u0662"),  # Arabic-Indic 12, which int() reads as 12
    ("seed", "+12"),
    ("seed", "1_2"),
    ("node", "\u0663"),  # Arabic-Indic 3
    ("node", "\uff13"),  # fullwidth 3
])
def test_cluster_numbers_must_be_ascii_decimals(tmp_path, toy_c1, field,
                                                 value):
    path = tmp_path / "cluster.txt"
    save_cluster(init_cluster(toy_c1, 12), path)
    assert load_cluster(path).message_seed == 12
    text = path.read_text(encoding="utf-8")
    if field == "seed":
        text = text.replace("seed = 12\n", f"seed = {value}\n")
    else:
        text = text.replace("\nnode 3 ", f"\nnode {value} ")
    path.write_text(text, encoding="utf-8")
    with pytest.raises(PERepairError) as e:
        load_cluster(path)
    assert e.value.code == "CORRUPT_FILE"


@pytest.mark.parametrize("spell", [
    lambda h: "0x" + h,
    lambda h: h[:3] + "_" + h[3:],
    lambda h: "+" + h,
    lambda h: "\u0660" + h,  # an Arabic-Indic 0, which int() reads as 0
], ids=["prefix", "underscore", "sign", "non-ascii-digit"])
@pytest.mark.parametrize("loader", ["cluster"])  # the one file of symbols
def test_symbols_must_be_ascii_hex(tmp_path, toy_c1, loader, spell):
    # every spelling keeps the symbol's value, so only the parse can refuse
    st = init_cluster(toy_c1, 12)
    path = tmp_path / "symbols.txt"
    save_cluster(st, path)
    load_cluster(path)
    h = st.nodes[3].symbol.hex()
    text = path.read_text(encoding="utf-8")
    assert text.count(h) == 1
    path.write_text(text.replace(h, spell(h)), encoding="utf-8")
    with pytest.raises(PERepairError) as e:
        load_cluster(path)
    assert e.value.code == "CORRUPT_FILE"


def test_wrong_plan_digest(tmp_path, toy_c1, toy_c2):
    st = init_cluster(toy_c1, 8)
    path = tmp_path / "cluster.txt"
    save_cluster(st, path, plan_path=tmp_path / "plan.json")
    # point the header at a different (valid) plan file
    from perepair.constructions import save_plan

    save_plan(toy_c2, tmp_path / "plan.json")
    with pytest.raises(PERepairError) as e:
        load_cluster(path)
    assert e.value.code == "DIGEST_MISMATCH"
