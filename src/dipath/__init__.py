"""dipath: exact-rational directed path algebra on cellular complexes.

The package models directed execution paths on complexes built from states,
edges and two-dimensional globes.  Everything is exact: reparametrizations
are piecewise-linear rational bijections, paths normalize to a unique chain
of minimal segments, pushout path spaces are verified by a terminating
rewriting system, and fundamental categories come out as finite
presentations.
"""

from .cellcomplex import (
    Cell,
    Complex,
    ComplexDesc,
    Moore,
    NormComp,
    NormalPath,
    Repar,
    Seg,
    Step,
    complex_from_json,
    complex_to_json,
    expr_from_json,
    expr_to_json,
    normal_path_from_json,
    normal_path_to_json,
    np_to_expr,
    repar_normal,
    validate,
)
from .errors import EngineError
from .gspace import (
    FreeGSpace,
    TensorElem,
    elem_make,
    elem_normalize,
    free,
)
from .mooreflow import (
    FlowPresentation,
    StratumDesc,
    chain_complex,
    chain_path_space,
    counit_check,
    fundamental_category,
    globe_roundtrip,
)
from .reedy import (
    APath,
    CellPath,
    InjPath,
    ReedyElem,
    ReedyObj,
    apply_composition,
    apply_inclusion,
    degree,
    make_elem,
    make_obj,
    normalize_elem,
    pushout_check,
    pushout_complex,
    realize,
)
from .reparam import (
    PLHomeo,
    compose,
    decompose,
    identity,
    inverse,
    make_pl,
    mu,
    pl_eval,
    pl_eval_inv,
    split,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "Cell", "Complex", "ComplexDesc", "Moore", "NormComp", "NormalPath",
    "Repar", "Seg", "Step", "complex_from_json", "complex_to_json",
    "expr_from_json", "expr_to_json", "normal_path_from_json",
    "normal_path_to_json", "np_to_expr", "repar_normal", "validate",
    "EngineError",
    "FreeGSpace", "TensorElem", "elem_make", "elem_normalize", "free",
    "FlowPresentation", "StratumDesc", "chain_complex", "chain_path_space",
    "counit_check", "fundamental_category", "globe_roundtrip",
    "APath", "CellPath", "InjPath", "ReedyElem", "ReedyObj",
    "apply_composition", "apply_inclusion", "degree", "make_elem",
    "make_obj", "normalize_elem", "pushout_check", "pushout_complex",
    "realize",
    "PLHomeo", "compose", "decompose", "identity", "inverse",
    "make_pl", "mu", "pl_eval", "pl_eval_inv", "split", "tensor",
]
