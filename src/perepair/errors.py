"""Error type shared by every module.

All failures raise :class:`PERepairError` carrying a stable machine-readable
``code`` string; the CLI maps codes onto exit statuses.  Codes are grouped by
how the CLI reports them:

validation (exit 3)
    REDUCIBLE_MODULUS, ZERO_INVERSE, NOT_A_SUBFIELD_DEGREE, SINGULAR_GRAM,
    DIMENSION_EXCEEDS_LENGTH, DUPLICATE_INDEX, INSUFFICIENT_PRIMITIVES,
    RATE_VIOLATION, BAD_PRIME, CONSTRAINT_VIOLATION, LOCALITY_OUT_OF_RANGE,
    PLAN_MISMATCH, TOO_FEW_HELPERS, ALREADY_FAILED,
    SECOND_FAILURE_UNSUPPORTED, DIGEST_MISMATCH, CORRUPT_FILE (an input
    that cannot be read or parsed), WRITE_FAILED (an output that cannot be
    written, such as one in a missing directory), and NO_FAILED_NODE
    (artifact-level plumbing: run_repair called on a healthy cluster)
repair verification (exit 4)
    REPAIR_VERIFICATION_FAILED (CLI-level; repairs that finish but do not
    match ground truth), INVARIANT_VIOLATION (a bit count or the trade-off
    table disagrees with what the schemes prove: a defect, not bad input)
resource (exit 5)
    FACTORIZATION_TIMEOUT (a composite outlasted the fixed cap of Brent-rho
    steps; a step count, not a time, so the outcome is the same on every
    machine), SPAN_FAILURE

Every other code comes from the documented operation contracts.
"""

VALIDATION_CODES = frozenset({
    "REDUCIBLE_MODULUS",
    "ZERO_INVERSE",
    "NOT_A_SUBFIELD_DEGREE",
    "SINGULAR_GRAM",
    "DIMENSION_EXCEEDS_LENGTH",
    "DUPLICATE_INDEX",
    "INSUFFICIENT_PRIMITIVES",
    "RATE_VIOLATION",
    "BAD_PRIME",
    "CONSTRAINT_VIOLATION",
    "LOCALITY_OUT_OF_RANGE",
    "PLAN_MISMATCH",
    "TOO_FEW_HELPERS",
    "ALREADY_FAILED",
    "SECOND_FAILURE_UNSUPPORTED",
    "NO_FAILED_NODE",
    "DIGEST_MISMATCH",
    "CORRUPT_FILE",
    "WRITE_FAILED",
})

RESOURCE_CODES = frozenset({"FACTORIZATION_TIMEOUT", "SPAN_FAILURE"})

VERIFICATION_CODES = frozenset({"REPAIR_VERIFICATION_FAILED",
                                "INVARIANT_VIOLATION"})

KNOWN_CODES = VALIDATION_CODES | RESOURCE_CODES | VERIFICATION_CODES


class PERepairError(Exception):
    """Exception with a stable ``code`` understood by the CLI exit mapping."""

    def __init__(self, code: str, message: str = ""):
        if code not in KNOWN_CODES:
            raise ValueError(f"unknown error code {code!r}")
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


def exit_status(code: str) -> int:
    """Exit status for an error code (3 validation, 4 verification, 5 resource)."""
    if code in RESOURCE_CODES:
        return 5
    if code in VERIFICATION_CODES:
        return 4
    return 3


def check_invariant(ok: bool, message: str) -> None:
    """Raise INVARIANT_VIOLATION unless ok.  Unlike ``assert``, the check
    survives ``python -O``."""
    if not ok:
        raise PERepairError("INVARIANT_VIOLATION", message)
