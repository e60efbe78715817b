"""Exception hierarchy shared by all engine modules.

Every error carries a stable machine-readable ``code`` so the CLI can report
failures as ``{"error": code, "detail": ...}``.
"""

from __future__ import annotations


class EngineError(Exception):
    code = "engine_error"

    def __init__(self, detail: str = ""):
        super().__init__(detail)
        self.detail = detail


# -- piecewise-linear reparametrizations ------------------------------------

class NonMonotonicError(EngineError):
    code = "non_monotonic"


class BadEndpointsError(EngineError):
    code = "bad_endpoints"


class OutOfDomainError(EngineError):
    code = "out_of_domain"


class LengthMismatchError(EngineError):
    code = "length_mismatch"


class LengthSumMismatchError(EngineError):
    code = "length_sum_mismatch"


class BadLengthError(EngineError):
    code = "bad_length"


# -- free spaces and tensor elements -----------------------------------------

class DuplicateLabelError(EngineError):
    code = "duplicate_label"


class LengthChainMismatchError(EngineError):
    code = "length_chain_mismatch"


# -- cellular complexes and path expressions ---------------------------------

class UnknownStateError(EngineError):
    code = "unknown_state"


class UnknownCellError(EngineError):
    code = "unknown_cell"


class ForwardReferenceError(EngineError):
    code = "forward_reference"


class BoundaryEndpointMismatchError(EngineError):
    code = "boundary_endpoint_mismatch"


class BadDimError(EngineError):
    code = "bad_dim"


class EndpointMismatchError(EngineError):
    code = "endpoint_mismatch"


class UnboundedEnumerationError(EngineError):
    code = "unbounded_enumeration"


# -- diagram rewriting --------------------------------------------------------

class NotComposableHereError(EngineError):
    code = "not_composable_here"


class WrongEndpointsError(EngineError):
    code = "wrong_endpoints"


class ComplexMismatchError(EngineError):
    code = "complex_mismatch"


class NoBoundaryDataError(EngineError):
    code = "no_boundary_data"


# -- flow extraction ----------------------------------------------------------

class HasLoopsError(EngineError):
    code = "has_loops"


# -- input handling -----------------------------------------------------------

class BadInputError(EngineError):
    code = "bad_input"
