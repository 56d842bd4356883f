"""ramlift: exact arithmetic in finitely ramified complete DVRs of mixed
characteristic at desk scale.

The package builds finite residue fields, their unramified coefficient rings
with Teichmuller-digit canonical forms, Eisenstein extensions with tracked
precision, Newton-polygon ramification bounds, and the certified lifting of
homomorphisms between finite residue rings to the rings themselves.
"""

from . import errors
from .resfield import (
    FieldSpec,
    FqElem,
    FieldEmbedding,
    make_field,
    frobenius,
    pth_root,
    embeddings,
    identity_embedding,
)
from .witt import (
    WittRingSpec,
    WittElem,
    make_witt,
    witt_unit_inv,
    teichmuller,
    teich_digits,
    from_digits,
)
from .dvr import (
    ValInfo,
    DvrSpec,
    DvrElem,
    ResidueRingSpec,
    ResidueElt,
    make_dvr,
    pi_digits,
    from_pi_digits,
    residue_ring,
    project,
    project_between,
    enumerate_elements,
    parse_ring_spec,
    ring_spec_to_json,
)
from .ramification import (
    NewtonPolygon,
    RamificationReport,
    newton_polygon,
    krasner_bound,
    different_val,
    discriminant_val,
    lift_precision_bound,
    generic_bounds,
    n0_threshold,
    ramification_report,
)
from .homlift import (
    ResidueHom,
    DvrHom,
    HomSet,
    roots_in_dvr,
    enumerate_homs,
    enumerate_isos,
    lift_hom,
    project_hom,
    compose_homs,
    has_root,
    dvr_isos,
    hom_inverse,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
