"""Exception types shared across the package.

Every failure mode the CLI maps to an exit code lives here, plus internal
invariant guards. Checker failures carry a witness tuple so the exact
offending elements can be replayed.
"""


class HyperlieError(Exception):
    """Base class for all package errors."""


class MalformedTable(HyperlieError):
    """Operation table has wrong shape, out-of-range indices, or empty cells."""


class FieldMismatch(HyperlieError):
    """Structure refers to a scalar field it is not actually defined over."""


class ParseError(HyperlieError):
    """JSON input rejected; message states path and reason."""


class AxiomFailure(HyperlieError):
    """An axiom check failed. Carries axiom name and witness."""

    def __init__(self, axiom, witness, detail=""):
        self.axiom = axiom
        self.witness = witness
        msg = f"axiom {axiom} fails at witness {witness!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NotAGroup(AxiomFailure):
    """Hypergroup axiom (associativity or reproduction) failed."""


class NotASubgroup(HyperlieError):
    """Claimed subgroup is not closed / lacks identity or inverses."""


class NotLie(AxiomFailure):
    """Lie hyperalgebra axiom failed."""


class NotSymmetric(HyperlieError):
    """A relation expected to be symmetric is not (internal guard)."""


class BoundsExceeded(HyperlieError):
    """Requested expression bounds exceed the hard cap."""


class CarrierCapExceeded(HyperlieError):
    """Carrier larger than the configured maximum (HYPERLIE_MAX_CARRIER)."""


class NotWellDefined(HyperlieError):
    """Quotient operation depends on the choice of class representatives."""

    def __init__(self, op, witness):
        self.op = op
        self.witness = witness
        super().__init__(f"quotient {op} not well defined at {witness!r}")


class NotAVectorSpace(HyperlieError):
    """Carrier size is not a power of the scalar field order."""


class CharTwoGate(HyperlieError):
    """Scalar field of characteristic 2 rejected by the solvability pipeline."""


class DegenerateField(HyperlieError):
    """Scalar quotient collapsed to fewer than 2 classes; not a field."""


class NotAField(HyperlieError):
    """Scalar quotient has 2+ classes but fails a field axiom."""


class TooLarge(HyperlieError):
    """Exhaustive enumeration refused above the documented size cap."""


class NoSolvableQuotient(HyperlieError):
    """No strongly regular partition with solvable quotient exists (unexpected)."""


class InternalInvariant(HyperlieError):
    """A cross-check the engine guarantees failed; indicates a bug."""
