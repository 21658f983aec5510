"""Finite quantale-enriched categories: orders, presheaves, tensors, duality."""

from .quantale import BUILTIN_NAMES, Quantale, builtin, powerset_monoid, validate_quantale
from .vcat import (
    VCategory,
    discrete,
    opposite,
    quantale_as_vcategory,
    row_object,
    separation_witness,
    tensor_vcat,
    underlying_order,
    unit_category,
    validate_vcategory,
)
from .dist import (
    Distributor,
    VFunctor,
    compose_dist,
    identity_dist,
    right_extension,
    right_lifting,
    validate_distributor,
)
from .presheaf import (
    Presheaf,
    PresheafCategory,
    cauchy_completion,
    enumerate_presheaves,
    inverter,
    yoneda,
)
from .cocomplete import (
    CocompleteWitness,
    check_cocomplete,
    is_cocontinuous,
    join_obj,
    sup_of,
    tensor_obj,
    weighted_colimit,
)
from .tensorprod import (
    TensorProduct,
    build_tensor_product,
    check_universal_property,
    extend_bimorphism,
    galois_iso,
    is_bimorphism,
    reflector_q,
    star_autonomy_check,
    vsup_category,
)
from .ccd import (
    TotallyBelowWitness,
    ccd_closure_check,
    ccd_reflector,
    check_main_theorem,
    is_ccd,
    is_nuclear,
    totally_below,
)
from .errors import (
    NoSuchColimit,
    NotCCD,
    NotCocomplete,
    NotCocompleteInput,
    NotSeparated,
    ParseError,
    QuantaleError,
    SizeExceeded,
    VqError,
)

__version__ = "0.1.0"
