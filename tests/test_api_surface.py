import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import perepair
from perepair import errors

from conftest import perfbench_module

MODULES = ["perepair"] + sorted(
    f"perepair.{info.name}" for info in pkgutil.iter_modules(perepair.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []


# the package's public names; an export added or dropped is an API change,
# so it edits this list on purpose
PUBLIC_API = [
    "BasisOverSubfield", "BoundQuery", "ClusterState", "Codeword",
    "EvaluationSet", "FieldCtx", "FieldElem", "MessagePoly", "PERepairError",
    "RepairTranscript", "SubfieldHandle", "TransferLog", "__version__",
    "build_plan_c1", "build_plan_c2", "conventional_lower_bound",
    "cutset_bits", "dual_basis", "encode", "exit_status", "factor_integer",
    "fail_node", "find_primes_c1", "init_cluster", "is_primitive_in_subfield",
    "load_cluster", "load_plan", "make_field", "min_subpacketization",
    "naive_decode", "repair_c1", "repair_c2", "run_repair", "save_cluster",
    "save_plan", "trace_to", "tradeoff_csv", "tradeoff_table",
]


def test_public_api_is_pinned():
    assert sorted(perepair.__all__) == PUBLIC_API


def test_benchmark_tracer_names_resolve():
    # the benchmark's tracer wraps these names by attribute; a rename would
    # break a traced run with an AttributeError
    tracer = perfbench_module("tracer")
    names = [(short, fn) for table in (tracer.TRACED, tracer.COUNTED)
             for short, fns in table.items() for fn in fns]
    names += [tuple(name.split(".")) for name in tracer.REPAIRS]
    missing = [f"{short}.{fn}" for short, fn in names
               if not hasattr(importlib.import_module(f"perepair.{short}"), fn)]
    assert missing == []


def test_no_clock_in_library():
    # a result that reads the clock can differ from one machine to the next
    clocks = {"time", "datetime"}
    offenders = []
    for path in sorted(Path(perepair.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names
                          if n.split(".")[0] in clocks]
    assert offenders == []


def test_memos_are_filled_by_util_memo_alone():
    # one cache rule: _util.memo is the only code that stores into a keyed
    # memo, so a build that raises leaves no entry and every key is built
    # one way
    memos = {"_cache", "_plan_memo", "_subfields", "_encoders"}
    offenders = []
    for path in sorted(Path(perepair.__file__).parent.glob("*.py")):
        if path.name == "_util.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Store)):
                continue
            store = node.value
            name = getattr(store, "id", None) or getattr(store, "attr", None)
            if name in memos:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_library_has_no_global_statement():
    # no module rebinds its own state: the only process-wide state is the
    # memos filled by _util.memo or make_field (_field_cache, _plan_memo,
    # fixtures._cache)
    offenders = []
    for path in sorted(Path(perepair.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Global):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_in_library():
    # python -O strips assert statements, so no runtime check may be one;
    # a failed check raises a coded error (errors.check_invariant), never
    # a bare AssertionError
    offenders = []
    for path in sorted(Path(perepair.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Raise) and node.exc is not None
                    and _raises_assertion_error(node)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_unknown_error_code_is_refused():
    with pytest.raises(ValueError, match="unknown error code 'NO_SUCH_CODE'"):
        errors.PERepairError("NO_SUCH_CODE")


def test_exit_status_by_code_class():
    for code in ("FACTORIZATION_TIMEOUT", "SPAN_FAILURE"):
        assert errors.exit_status(code) == 5
    assert errors.exit_status("REPAIR_VERIFICATION_FAILED") == 4
    assert errors.exit_status("CORRUPT_FILE") == 3


def test_error_codes_are_known_raised_and_documented():
    # every literal code passed to PERepairError is known, every known code
    # is raised somewhere, and the errors module lists each one exactly once
    raised = []
    for path in sorted(Path(perepair.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.Constant)):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "PERepairError":
                raised.append((path.name, node.args[0].value))
    assert [(f, c) for f, c in raised if c not in errors.KNOWN_CODES] == []
    assert errors.KNOWN_CODES - {c for _, c in raised} == set()
    listed = re.findall(r"\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b", errors.__doc__)
    assert sorted(listed) == sorted(errors.KNOWN_CODES)
