import importlib.util
from pathlib import Path

import pytest

from perepair.constructions import build_plan_c1, build_plan_c2
from perepair.field_tower import make_field
from perepair.rs_codes import MessagePoly, encode


def perfbench_module(name):
    """perfbench/<name>.py, loaded by path; the tests only read the
    benchmark's files."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's output oracle, written without perepair's arithmetic: the
# tests' reference for products, reductions and symbols
oracle = perfbench_module("oracle")


@pytest.fixture(scope="session")
def gf16():
    # x^4 + x + 1; the hand tables in the field tests assume this modulus
    return make_field(4, 0b10011)


@pytest.fixture(scope="session")
def gf64():
    return make_field(6)


@pytest.fixture(scope="session")
def gf4096():
    return make_field(12)


@pytest.fixture(scope="session")
def toy_c1():
    # (6,2) code over GF(2^30): two groups of 3 nodes, primes 3 and 5, s=2
    return build_plan_c1(1, [3, 3], s=2, primes=[3, 5])


@pytest.fixture(scope="session")
def toy_c2():
    # (13,5) code over GF(4^6): groups of 7 and 6 nodes, primes 2 and 3
    return build_plan_c2(2, 8, [2, 3])


@pytest.fixture(scope="session")
def toy_c1_wide():
    # three groups over GF(2^210) with k below the canonical rate, so the
    # helper prefix is a strict subset of the other groups
    return build_plan_c1(1, [3, 3, 3], s=2, k=2, primes=[3, 5, 7])


def random_codeword(plan, rng):
    msg = MessagePoly(
        [plan.ctx.elem(rng.getrandbits(plan.ctx.degree_bits)) for _ in range(plan.k)]
    )
    return encode(msg, plan.eval_set, plan_digest=plan.digest)
